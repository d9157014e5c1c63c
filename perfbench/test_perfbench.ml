(* Tests of the benchmark itself: its command line, its output check, and
   a reduced-horizon smoke of every workload against the metric names and
   units that BENCHMARK.json declares. *)

module J = Trace.Json
open Perfbench

let read_file path = In_channel.with_open_bin path In_channel.input_all

let declared =
  match J.parse (read_file "../BENCHMARK.json") with
  | Ok j -> j
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

let declared_list key =
  match J.member key declared with Some (J.List l) -> l | _ -> failwith key

let str key j = match J.member key j with Some (J.String s) -> s | _ -> failwith key

let declared_metrics key = List.map (fun m -> (str "name" m, str "unit" m)) (declared_list key)

let test_unknown_workload () =
  let code =
    Sys.command "./bench.exe --workload nope --seed 1 --seconds 1 --trace 0 2> unknown.err"
  in
  Alcotest.(check int) "exit status" 2 code;
  let err = read_file "unknown.err" in
  List.iter
    (fun name ->
      let mentions =
        try
          ignore (Str.search_forward (Str.regexp_string name) err 0);
          true
        with Not_found -> false
      in
      Alcotest.(check bool) ("lists " ^ name) true mentions)
    Workloads.names

let test_seed_round_trip () =
  List.iter
    (fun name ->
      match Cli.parse [ "--workload"; name; "--seed"; "42"; "--seconds"; "3"; "--trace"; "1" ] with
      | Ok (Cli.Measure o) ->
          Alcotest.(check int) "parsed seed" 42 o.Cli.seed;
          Alcotest.(check bool) "trace" true o.Cli.trace;
          let trials = Option.value o.Cli.workload.Workloads.campaign ~default:1 in
          List.iter
            (fun (c : Sim.Config.t) ->
              Alcotest.(check bool) "trial seed" true
                (c.Sim.Config.seed >= 42 && c.Sim.Config.seed < 42 + trials))
            (Workloads.cells o.Cli.workload ~seed:42);
          Alcotest.(check bool) "recorded seed" true
            (List.assoc "seed" (Workloads.describe o.Cli.workload ~seed:42) = J.Int 42)
      | _ -> Alcotest.fail "expected a measure mode")
    Workloads.names

let test_bad_arguments () =
  List.iter
    (fun args ->
      Alcotest.(check bool) (String.concat " " args) true (Result.is_error (Cli.parse args)))
    [
      [];
      [ "--workload"; "srp5k"; "--seed"; "x"; "--seconds"; "1"; "--trace"; "0" ];
      [ "--workload"; "srp5k"; "--seed"; "1"; "--seconds"; "1"; "--trace"; "2" ];
      [ "--workload"; "srp5k"; "--seed"; "1"; "--seconds"; "-1"; "--trace"; "0" ];
      [ "--workload"; "srp5k"; "--seed"; "1"; "--trace"; "0" ];
    ]

let test_declared_workloads () =
  Alcotest.(check (list (pair string string)))
    "BENCHMARK.json workloads" 
    (List.map (fun (w : Workloads.t) -> (w.Workloads.name, w.Workloads.why)) Workloads.all)
    (List.map (fun w -> (str "name" w, str "why" w)) (declared_list "workloads"))

let small_result () = Sim.Runner.run { Sim.Config.small with Sim.Config.duration = 20.0 }

let test_output_check () =
  let r = small_result () in
  Alcotest.(check (list string)) "sound result" [] (Measure.result_problems r);
  let d = Measure.result_digest r in
  Alcotest.(check (list string)) "same digest" [] (Measure.digest_problems ~untraced:d ~traced:d);
  let forged = Measure.result_digest { r with Sim.Metrics.delivered = r.Sim.Metrics.delivered + 1 } in
  Alcotest.(check int) "mismatched digest flagged" 1
    (List.length (Measure.digest_problems ~untraced:d ~traced:forged));
  Alcotest.(check int) "over-delivery flagged" 1
    (List.length (Measure.result_problems { r with Sim.Metrics.delivered = r.Sim.Metrics.sent + 1 }));
  Alcotest.(check int) "empty run flagged" 1
    (List.length (Measure.result_problems { r with Sim.Metrics.engine_events = 0 }))

let packet seq =
  { Wireless.Frame.origin = 0; final_dst = 1; flow = 0; seq; sent_at = 0.0; hops = 0 }

(* two packets: one delivered and a lost-ack copy of it dropped, one
   dropped twice; the metrics count unique deliveries but raw drops *)
let test_fates () =
  let r = small_result () in
  let fates = Fates.create () in
  let a = packet 0 and b = packet 1 in
  List.iter (Fates.originate fates) [ a; b ];
  Fates.deliver fates a;
  List.iter (Fates.drop fates) [ a; b; b ];
  let ledger = { r with Sim.Metrics.sent = 2; delivered = 1; drop_reasons = [ ("no route", 3) ] } in
  Alcotest.(check (list string)) "copies balance" [] (Fates.problems fates ledger);
  Alcotest.(check bool) "conservation broken" true
    (List.exists
       (String.starts_with ~prefix:"conservation")
       (Fates.problems fates { ledger with Sim.Metrics.sent = 1 }));
  Alcotest.(check int) "an uncounted drop" 1
    (List.length (Fates.problems fates { ledger with Sim.Metrics.drop_reasons = [] }));
  Fates.deliver fates (packet 7);
  Alcotest.(check int) "a delivery never originated" 2
    (List.length (Fates.problems fates { ledger with Sim.Metrics.delivered = 2 }))

let test_percentiles () =
  let cells = List.init 40 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p50" 20.0 (Measure.percentile cells 0.5);
  (* ten cells lie beyond the p75 *)
  Alcotest.(check (float 0.0)) "p75" 30.0 (Measure.percentile cells 0.75);
  Alcotest.(check (float 0.0)) "median of even" 2.5 (Measure.median [ 4.0; 1.0; 2.0; 3.0 ])

(* a one-second horizon with traffic in its last tenth runs every layer *)
let test_smoke (w : Workloads.t) () =
  let w =
    { w with Workloads.base = { w.Workloads.base with Sim.Config.duration = 1.0; traffic_start = 0.9 } }
  in
  let r = Measure.run ~setup_passes:1 ~min_reps:1 w ~seed:3 ~seconds:0.0 in
  Alcotest.(check (list string)) "no problems" [] r.Measure.problems;
  Alcotest.(check int) "attempted" 2 r.Measure.attempted;
  let emitted ms = List.map (fun (m : Measure.metric) -> (m.Measure.name, m.Measure.unit)) ms in
  Alcotest.(check (list (pair string string)))
    "end-to-end metrics" (declared_metrics "end_to_end") (emitted r.Measure.end_to_end);
  Alcotest.(check (list (pair string string)))
    "per-layer metrics" (declared_metrics "per_layer") (emitted r.Measure.per_layer);
  let v name =
    (List.find (fun (m : Measure.metric) -> m.Measure.name = name) r.Measure.per_layer).Measure.value
  in
  Alcotest.(check (float 1e-9))
    "the ledger sums to the traced wall" (v "traced.wall_s")
    (v "proto.receive_s" +. v "proto.originate_s" +. v "proto.link_s" +. v "mac.enqueue_s"
   +. v "engine_residual_s" +. v "traced.setup_s")

let () =
  Alcotest.run "perfbench"
    [
      ( "cli",
        [
          Alcotest.test_case "unknown workload exits 2" `Quick test_unknown_workload;
          Alcotest.test_case "seed round-trips" `Quick test_seed_round_trip;
          Alcotest.test_case "bad arguments" `Quick test_bad_arguments;
          Alcotest.test_case "workloads match BENCHMARK.json" `Quick test_declared_workloads;
        ] );
      ( "check",
        [
          Alcotest.test_case "output check" `Quick test_output_check;
          Alcotest.test_case "conservation law" `Quick test_fates;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
        ] );
      ( "smoke",
        List.map
          (fun (w : Workloads.t) -> Alcotest.test_case w.Workloads.name `Quick (test_smoke w))
          Workloads.all );
    ]
