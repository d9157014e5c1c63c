(* The repository benchmark: runs one named workload for a fixed number of
   seconds, prints every metric by name and unit, checks the simulation
   outputs, and ends with one JSON line. See BENCHMARK.json at the root. *)

module J = Trace.Json
module P = Perfbench

let metric_json (m : P.Measure.metric) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.P.Measure.name
    m.P.Measure.value m.P.Measure.unit

let print_metric (m : P.Measure.metric) =
  Printf.printf "%-36s %14.6g %s\n" m.P.Measure.name m.P.Measure.value m.P.Measure.unit

let measure (o : P.Cli.opts) =
  let w = o.P.Cli.workload in
  let r = P.Measure.run w ~seed:o.P.Cli.seed ~seconds:o.P.Cli.seconds in
  Printf.printf "# %s seed %d: %d untraced repetitions + 1 traced, %d events each\n"
    w.P.Workloads.name o.P.Cli.seed (List.length r.P.Measure.rep_walls) r.P.Measure.events;
  Printf.printf "# repetition walls (s): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") r.P.Measure.rep_walls));
  Printf.printf "# digest %s\n" r.P.Measure.digest;
  Printf.printf "# workload %s\n"
    (J.to_string (J.Obj (P.Workloads.describe w ~seed:o.P.Cli.seed)));
  List.iter print_metric r.P.Measure.end_to_end;
  Printf.printf "%-36s %14.6g share\n" "failed_share"
    (float_of_int r.P.Measure.failed /. float_of_int r.P.Measure.attempted);
  List.iter print_metric r.P.Measure.per_layer;
  List.iter (Printf.printf "problem: %s\n") r.P.Measure.problems;
  let metrics = if o.P.Cli.trace then r.P.Measure.per_layer else r.P.Measure.end_to_end in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.P.Measure.failed = 0) r.P.Measure.attempted r.P.Measure.failed
    (String.concat ", " (List.map metric_json metrics))

let pin () =
  let seed = 1 in
  let entry (w : P.Workloads.t) =
    Printf.eprintf "pin: %s ...\n%!" w.P.Workloads.name;
    let r = P.Measure.run ~setup_passes:1 ~min_reps:1 w ~seed ~seconds:0.0 in
    if r.P.Measure.failed > 0 then begin
      List.iter (Printf.eprintf "problem: %s\n") r.P.Measure.problems;
      exit 1
    end;
    J.Obj
      (P.Workloads.describe w ~seed
      @ [ ("engine_events", J.Int r.P.Measure.events);
          ("digest", J.String r.P.Measure.digest) ])
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("workloads", J.List (List.map entry P.Workloads.all));
            ( "predictions",
              J.List
                (List.map
                   (fun (layer, metrics, moves) ->
                     J.Obj
                       [ ("layer", J.String layer); ("metrics", J.String metrics);
                         ("should_move", J.String moves) ])
                   P.Workloads.predictions) );
          ]))

let () =
  (* the GC settings of manet_sim, so bench numbers match CLI runs *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 2048 * 1024; space_overhead = 200 };
  match P.Cli.parse (List.tl (Array.to_list Sys.argv)) with
  | Error msg ->
      prerr_endline msg;
      exit 2
  | Ok P.Cli.Pin -> pin ()
  | Ok (P.Cli.Measure o) -> measure o
