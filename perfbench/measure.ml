module C = Sim.Config
module M = Sim.Metrics
module J = Trace.Json

type metric = { name : string; value : float; unit : string }

type report = {
  rep_walls : float list;
  events : int;
  digest : string;
  attempted : int;
  failed : int;
  problems : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "median: empty"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile: empty";
  a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* the agent {!Sim.Runner.run} would build for [c] *)
let agent (c : C.t) ctx =
  match c.C.protocol with
  | C.Srp -> Protocols.Srp.create ~config:c.C.srp ctx
  | C.Ldr -> Protocols.Ldr.create ~config:c.C.ldr ctx
  | C.Aodv -> Protocols.Aodv.create ~config:c.C.aodv ctx
  | C.Dsr -> Protocols.Dsr.create ~config:c.C.dsr ctx
  | C.Olsr -> Protocols.Olsr.create ~config:c.C.olsr ctx

(* ------------------------------------------------------------------ *)
(* Output check *)

let result_digest r = Digest.to_hex (Digest.string (J.to_string (M.result_json r)))

let result_problems (r : M.result) =
  (if r.M.delivered > r.M.sent then
     [ Printf.sprintf "delivered %d > sent %d" r.M.delivered r.M.sent ]
   else [])
  @ if r.M.engine_events = 0 then [ "no engine events executed" ] else []

let digest_problems ~untraced ~traced =
  if untraced = traced then []
  else [ Printf.sprintf "traced digest %s differs from untraced %s" traced untraced ]

(* A campaign's digest covers what {!Sim.Experiment} keeps of each
   (protocol, pause) cell: the means of its summaries. Adding the traced
   results to fresh summaries in the campaign's own order reproduces those
   means bit for bit. *)
let campaign_digest cells ~events =
  let b = Buffer.create 4096 in
  List.iter
    (fun (d, l, lat, md, sq) -> Printf.bprintf b "%h %h %h %h %h\n" d l lat md sq)
    cells;
  Printf.bprintf b "events %d\n" events;
  Digest.to_hex (Digest.string (Buffer.contents b))

let means (c : Sim.Experiment.cell) =
  let mean = Stats.Summary.mean in
  Sim.Experiment.(mean c.delivery, mean c.load, mean c.latency, mean c.mac_drops,
                  mean c.seqno)

let experiment_digest (e : Sim.Experiment.t) =
  let cells =
    List.concat_map
      (fun pause -> List.map (fun p -> means (Sim.Experiment.cell e p pause)) C.all_protocols)
      C.paper_pause_times
  in
  campaign_digest cells ~events:e.Sim.Experiment.engine_events

(* [runs] pairs each cell's configuration with its result, in the order of
   {!Workloads.cells} *)
let runs_digest (w : Workloads.t) runs =
  match (w.Workloads.campaign, runs) with
  | None, [ (_, r) ] -> result_digest r
  | None, _ -> invalid_arg "runs_digest: a single world has one run"
  | Some _, _ ->
      let cells = Hashtbl.create 64 in
      let cell protocol pause =
        match Hashtbl.find_opt cells (protocol, pause) with
        | Some c -> c
        | None ->
            let fresh = Stats.Summary.create in
            let c =
              Sim.Experiment.
                { delivery = fresh (); load = fresh (); latency = fresh ();
                  mac_drops = fresh (); seqno = fresh (); max_denominator = 0;
                  label_width_bits = 0; label_resets = 0 }
            in
            Hashtbl.replace cells (protocol, pause) c;
            c
      in
      List.iter
        (fun ((c : C.t), (r : M.result)) ->
          let s = cell c.C.protocol c.C.pause in
          Stats.Summary.add s.Sim.Experiment.delivery r.M.delivery_ratio;
          Stats.Summary.add s.Sim.Experiment.load r.M.network_load;
          Stats.Summary.add s.Sim.Experiment.latency r.M.latency;
          Stats.Summary.add s.Sim.Experiment.mac_drops r.M.mac_drops_per_node;
          Stats.Summary.add s.Sim.Experiment.seqno r.M.avg_seqno)
        runs;
      let scale = Workloads.pause_scale w in
      campaign_digest
        (List.concat_map
           (fun pause -> List.map (fun p -> means (cell p (pause *. scale))) C.all_protocols)
           C.paper_pause_times)
        ~events:(List.fold_left (fun acc (_, r) -> acc + r.M.engine_events) 0 runs)

(* ------------------------------------------------------------------ *)
(* Set-up passes *)

exception Setup_done

(* seconds from entering the runner to its [on_start] hook, summed over the
   workload's runs; the simulation itself never starts *)
let setup_pass w ~seed =
  Gc.compact ();
  List.fold_left
    (fun acc c ->
      let entered = now () in
      let started = ref entered in
      (try
         ignore
           (Sim.Runner.run_custom c
              ~build:(fun _ ctx -> agent c ctx)
              ~on_start:(fun _ ->
                started := now ();
                raise Setup_done))
       with Setup_done -> ());
      acc +. (!started -. entered))
    0.0 (Workloads.cells w ~seed)

(* ------------------------------------------------------------------ *)
(* Untraced repetitions *)

type rep = {
  wall : float;
  cpu_s : float;
  cell_walls : float list;
  rep_events : int;
  rep_digest : string;
  gc : Obs.gc_delta;
  quarantined : int;
  rep_problems : string list;
}

let untraced_rep (w : Workloads.t) ~seed =
  if Obs.enabled () then failwith "untraced repetition with Obs profiling enabled";
  Gc.compact ();
  let t0 = now () and c0 = cpu () in
  match w.Workloads.campaign with
  | Some trials ->
    let last = ref t0 and walls = ref [] in
    let progress _line =
      let t = now () in
      walls := (t -. !last) :: !walls;
      last := t
    in
    let e, gc =
      Obs.gc_capture (fun () ->
          Sim.Experiment.run ~policy:Sim.Supervisor.default ~jobs:1
            ~pause_scale:(Workloads.pause_scale w)
            ~base:(C.with_seed w.Workloads.base seed)
            ~protocols:C.all_protocols ~pauses:C.paper_pause_times ~trials
            ~progress ())
    in
    let wall = now () -. t0 and cpu_s = cpu () -. c0 in
    let quarantined = List.length e.Sim.Experiment.failures in
    let events = e.Sim.Experiment.engine_events in
    {
      wall; cpu_s; cell_walls = List.rev !walls; rep_events = events;
      rep_digest = experiment_digest e; gc; quarantined;
      rep_problems =
        (if quarantined > 0 then
           [ Printf.sprintf "campaign quarantined %d cells" quarantined ]
         else [])
        @ if events = 0 then [ "no engine events executed" ] else [];
    }
  | None ->
    let c = List.hd (Workloads.cells w ~seed) in
    let r, gc = Obs.gc_capture (fun () -> Sim.Runner.run c) in
    let wall = now () -. t0 and cpu_s = cpu () -. c0 in
    {
      wall; cpu_s; cell_walls = [ wall ]; rep_events = r.M.engine_events;
      rep_digest = result_digest r; gc; quarantined = 0;
      rep_problems = result_problems r;
    }

(* ------------------------------------------------------------------ *)
(* The traced repetition *)

type traced = {
  t_wall : float;
  t_setup : float;
  ledger : Ledger.t;
  snapshot : Obs.snapshot;
  runs : (C.t * M.result) list;
  t_problems : string list;  (** per-run checks, the conservation law included *)
}

let traced_rep w ~seed =
  Gc.compact ();
  Obs.reset ();
  Obs.enable ();
  let ledger = Ledger.create () in
  let setup = ref 0.0 in
  let t0 = now () in
  let results, snapshot =
    Fun.protect ~finally:Obs.disable (fun () ->
        let runs =
          List.map
            (fun c ->
              let entered = now () in
              let fates = Fates.create () in
              let r =
                Sim.Runner.run_custom c
                  ~build:(Ledger.instrument ledger ~fates ~make:(agent c))
                  ~on_start:(fun _ -> setup := !setup +. (now () -. entered))
              in
              ((c, r), result_problems r @ Fates.problems fates r))
            (Workloads.cells w ~seed)
        in
        (runs, Obs.snapshot ()))
  in
  {
    t_wall = now () -. t0; t_setup = !setup; ledger; snapshot;
    runs = List.map fst results; t_problems = List.concat_map snd results;
  }

(* ------------------------------------------------------------------ *)

let span_names =
  [ "event.mac.backoff"; "channel.transmit.grid"; "event.channel.rx";
    "channel.grid.rebuild"; "event.mac.sifs"; "event.traffic" ]

let is_proto_timer name =
  String.starts_with ~prefix:"proto." name && String.ends_with ~suffix:".timer" name

let span_metrics (s : Obs.snapshot) =
  let sum pred =
    List.fold_left
      (fun (ns, calls) (d : Obs.dist) ->
        if pred d.Obs.dist_name then (ns + d.Obs.dist_total, calls + d.Obs.dist_count)
        else (ns, calls))
      (0, 0) s.Obs.spans
  in
  List.concat_map
    (fun (name, pred) ->
      let ns, calls = sum pred in
      [ { name = "span." ^ name ^ "_s"; value = float_of_int ns *. 1e-9; unit = "s" };
        { name = "span." ^ name ^ "_calls"; value = float_of_int calls; unit = "count" } ])
    (List.map (fun n -> (n, String.equal n)) span_names
    @ [ ("proto.timer", is_proto_timer) ])

let run ?(setup_passes = 25) ?(min_reps = 3) w ~seed ~seconds =
  let setups = List.init setup_passes (fun _ -> setup_pass w ~seed) in
  let rec loop acc spent =
    if List.length acc >= min_reps && spent >= seconds then List.rev acc
    else
      let r = untraced_rep w ~seed in
      loop (r :: acc) (spent +. r.wall)
  in
  let first = untraced_rep w ~seed in
  (* the peak only ever grows: read it after the first repetition, so it
     does not depend on how many repetitions fit the measured seconds *)
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  let reps = loop [ first ] first.wall in
  let rep_problems r =
    r.rep_problems
    @ if r.rep_digest <> first.rep_digest then
        [ Printf.sprintf "repetition digest %s differs from the first (%s)"
            r.rep_digest first.rep_digest ]
      else []
  in
  let traced, traced_problems =
    match traced_rep w ~seed with
    | t ->
        ( Some t,
          t.t_problems
          @ digest_problems ~untraced:first.rep_digest
              ~traced:(runs_digest w t.runs) )
    | exception e -> (None, [ "traced repetition raised " ^ Printexc.to_string e ])
  in
  let checked = List.map rep_problems reps @ [ traced_problems ] in
  let failed = List.length (List.filter (fun p -> p <> []) checked) in
  let medf f = median (List.map f reps) in
  let wall = medf (fun r -> r.wall) in
  (* each cell's median over the repetitions, then percentiles over cells *)
  let cells =
    List.init (List.length first.cell_walls) (fun i ->
        median (List.filter_map (fun r -> List.nth_opt r.cell_walls i) reps))
  in
  let m name unit value = { name; value; unit } in
  let end_to_end =
    [
      m "wall_s" "s" wall;
      m "cpu_s" "s" (medf (fun r -> r.cpu_s));
      m "setup_s" "s" (median setups);
      m "heap_peak_mb" "MB" heap_peak_mb;
    ]
  in
  let events = first.rep_events in
  let fevents = float_of_int (max 1 events) in
  let per_event f = medf (fun r -> float_of_int (f r.gc)) /. fevents in
  let per_layer =
    match traced with
    | None -> []
    | Some t ->
        let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 t.runs in
        let l = t.ledger in
        let s = Ledger.seconds l in
        let proto = s Ledger.Receive +. s Ledger.Originate +. s Ledger.Link in
        let calls =
          Ledger.calls l Ledger.Receive + Ledger.calls l Ledger.Originate
          + Ledger.calls l Ledger.Link
        in
        let tx = sum (fun r -> r.M.data_tx + r.M.control_tx) in
        let count name v = m name "count" (float_of_int v) in
        [
          count "des.events" events;
          m "des.events_per_s" "1/s" (float_of_int events /. wall);
          m "des.events_per_delivered" "count"
            (float_of_int events /. float_of_int (max 1 (sum (fun r -> r.M.delivered))));
          m "proto.receive_s" "s" (s Ledger.Receive);
          m "proto.originate_s" "s" (s Ledger.Originate);
          m "proto.link_s" "s" (s Ledger.Link);
          count "proto.handler_calls" calls;
          m "proto.handler_ns_per_call" "ns" (proto *. 1e9 /. float_of_int (max 1 calls));
          m "proto.handler_share" "share" (proto /. t.t_wall);
          m "mac.enqueue_s" "s" (s Ledger.Mac_enqueue);
          count "mac.enqueue_calls" (Ledger.calls l Ledger.Mac_enqueue);
          count "mac.data_tx" (sum (fun r -> r.M.data_tx));
          count "mac.control_tx" (sum (fun r -> r.M.control_tx));
          count "mac.drop_retry" (sum (fun r -> r.M.drop_retry));
          count "mac.drop_queue_full" (sum (fun r -> r.M.drop_queue_full));
          count "channel.collisions" (sum (fun r -> r.M.collisions));
          m "channel.collisions_per_tx" "share"
            (float_of_int (sum (fun r -> r.M.collisions)) /. float_of_int (max 1 tx));
        ]
        @ span_metrics t.snapshot
        @ [
            m "cell_wall_p50_s" "s" (percentile cells 0.5);
            m "cell_wall_p75_s" "s" (percentile cells 0.75);
            m "engine_residual_s" "s" (t.t_wall -. t.t_setup -. proto -. s Ledger.Mac_enqueue);
            m "traced.wall_s" "s" t.t_wall;
            m "traced.setup_s" "s" t.t_setup;
            count "campaign.cells" (List.length t.runs);
            count "campaign.quarantined"
              (List.fold_left (fun acc r -> max acc r.quarantined) 0 reps);
            m "gc.minor_words_per_event" "words" (per_event (fun g -> g.Obs.gc_minor_words));
            m "gc.promoted_words_per_event" "words"
              (per_event (fun g -> g.Obs.gc_promoted_words));
            m "gc.major_collections" "count"
              (medf (fun r -> float_of_int r.gc.Obs.gc_major_collections));
            m "trace.overhead_share" "share" ((t.t_wall /. wall) -. 1.0);
          ]
  in
  {
    rep_walls = List.map (fun r -> r.wall) reps;
    events;
    digest = first.rep_digest;
    attempted = List.length checked;
    failed;
    problems = List.concat checked;
    end_to_end;
    per_layer;
  }
