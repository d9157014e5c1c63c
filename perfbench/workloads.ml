module C = Sim.Config
module J = Trace.Json

type t = {
  name : string;
  why : string;
  dominant : string;
  expect : string;
  base : C.t;
  campaign : int option;
}

(* Horizons are chosen so one untraced repetition takes a few seconds on a
   2-core box: several repetitions then fit one measured run, and the
   reported medians are steady. The kilonode worlds keep the scale sweep's
   shape (pause 0, traffic from 5 s) with a shorter loaded tail. The
   campaign sweeps three trial seeds: with one, its 12 random flows made
   the heap peak differ by 18% (quartile spread over ten seeds) from seed
   to seed; three halve that. *)
let kilonode scale protocol ~duration =
  match C.scale_of_name scale with
  | None -> invalid_arg ("Workloads: no scale preset " ^ scale)
  | Some s ->
      C.apply_scale s
        { C.reproduction with duration; traffic_start = 5.0; pause = 0.0; protocol; seed = 0 }

let all =
  [
    {
      name = "paper100-campaign";
      why =
        "what users run to regenerate Table I and Figs. 3-7: 5 protocols x 8 \
         pause times x 3 trials at 100 nodes, cost spread over handlers and MAC";
      dominant =
        "spread: handlers about 24% exclusive; inclusive spans MAC backoff \
         28%, channel rx 35%, transmit 29% of traced wall; about 1.7 frames in \
         flight";
      expect = "no change: carrier sense scans few in-flight frames at 100 nodes";
      base = { C.reproduction with duration = 16.0; seed = 0 };
      campaign = Some 3;
    };
    {
      name = "srp5k";
      why =
        "5k-node SRP world as the scale sweep runs it: carrier sense over the \
         global in-flight array and the largest event heap";
      dominant =
        "carrier sense: event.mac.backoff spans about 60% of traced wall, \
         channel.transmit.grid inside it; SRP handlers about 15%";
      expect = "wall_s and cpu_s drop; cost per event flattens towards 1k";
      base = kilonode "5k" C.Srp ~duration:5.6;
      campaign = None;
    };
    {
      name = "olsr1k";
      why =
        "1k-node OLSR world: protocol handlers and route computation own most \
         of the wall time, the MAC sees mostly broadcasts";
      dominant =
        "OLSR handlers about 37% of traced wall exclusive (SRP at 5k: 15%); \
         MAC and channel most of the rest";
      expect = "little change: handlers, not carrier sense, own the time";
      base = kilonode "1k" C.Olsr ~duration:6.0;
      campaign = None;
    };
  ]

let names = List.map (fun w -> w.name) all

let find name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> Ok w
  | None ->
      Error
        (Printf.sprintf "unknown workload %S; known workloads: %s" name
           (String.concat ", " names))

let pause_scale w = if w.campaign = None then 1.0 else w.base.C.duration /. 900.0

(* the record update {!Sim.Experiment.run} applies to each cell *)
let cells w ~seed =
  let base = C.with_seed w.base seed in
  match w.campaign with
  | None -> [ base ]
  | Some trials ->
      List.concat_map
        (fun pause ->
          List.concat_map
            (fun trial ->
              List.map
                (fun protocol ->
                  { base with C.protocol; pause = pause *. pause_scale w; seed = seed + trial })
                C.all_protocols)
            (List.init trials Fun.id))
        C.paper_pause_times

let describe w ~seed =
  let campaign =
    match w.campaign with
    | None -> []
    | Some trials ->
      [
        ("protocols", J.List (List.map (fun p -> J.String (C.protocol_name p)) C.all_protocols));
        ("pauses", J.List (List.map (fun p -> J.Float p) C.paper_pause_times));
        ("pause_scale", J.Float (pause_scale w));
        ("trials", J.Int trials);
      ]
  in
  [
    ("name", J.String w.name);
    ("why", J.String w.why);
    ("dominant", J.String w.dominant);
    ("expect", J.String w.expect);
    ("seed", J.Int seed);
    ("config", C.to_json (C.with_seed w.base seed));
  ]
  @ campaign

let predictions =
  [
    ("des", "des.events, des.events_per_s, des.events_per_delivered",
     "wall_s everywhere, most on srp5k");
    ("protocols (bench-side exclusive time at the agent record, minus nested mac_send)",
     "proto.receive_s, proto.originate_s, proto.link_s, proto.handler_calls, \
      proto.handler_ns_per_call, proto.handler_share",
     "wall_s on olsr1k (handlers about 37% of traced wall); little on srp5k (about 15%)");
    ("wireless MAC boundary, via ctx.mac_send", "mac.enqueue_s, mac.enqueue_calls",
     "small everywhere (sanity)");
    ("wireless MAC/channel work, from Metrics.result",
     "mac.data_tx, mac.control_tx, mac.drop_retry, mac.drop_queue_full, \
      channel.collisions, channel.collisions_per_tx",
     "none: simulated counts a perf-only change must leave identical");
    ("wireless inclusive Obs spans (traced run only)",
     "span.event.mac.backoff, span.channel.transmit.grid, span.event.channel.rx, \
      span.channel.grid.rebuild, span.event.mac.sifs, span.event.traffic, \
      span.proto.timer (each _s and _calls)",
     "wall_s and cpu_s on srp5k for carrier sense; no change on paper100-campaign");
    ("residual", "engine_residual_s = wall - setup - proto - mac.enqueue",
     "wall_s on srp5k");
    ("sim", "campaign.cells, campaign.quarantined", "cell_wall_* on paper100-campaign");
    ("runtime", "gc.minor_words_per_event, gc.promoted_words_per_event, gc.major_collections",
     "heap_peak_mb and wall_s on olsr1k and srp5k");
    ("set-up (Mobility.generate, Channel.create, Mac80211.create, agents)", "setup_s",
     "setup_s on srp5k");
    ("obs / trace", "trace.overhead_share", "none");
  ]
