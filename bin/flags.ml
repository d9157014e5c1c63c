(* The flag layer both front ends parse through: manet_sim's subcommands
   and the benchmark harness share these Cmdliner terms, the campaign
   driver and one [eval], so a flag means the same thing — and fails the
   same way, exit 2 — wherever it is accepted. *)

open Cmdliner

(* Numbers are range-checked at the flag: a bad value exits 2 with a usage
   message instead of hanging, simulating nothing or crashing mid-run. *)
let checked conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (Printf.sprintf "expected %s, got %s" expected s)
    | Error (`Msg m) -> Error m
  in
  Arg.conv' (parse, Arg.conv_printer conv)

let count = checked Arg.int ~expected:"a positive integer" (fun n -> n > 0)

let non_negative_int =
  checked Arg.int ~expected:"a non-negative integer" (fun n -> n >= 0)

let positive =
  checked Arg.float ~expected:"a positive finite number" (fun x ->
      Float.is_finite x && x > 0.0)

let non_negative =
  checked Arg.float ~expected:"a non-negative finite number" (fun x ->
      Float.is_finite x && x >= 0.0)

let name_conv of_name name ~error =
  Arg.conv'
    ( (fun s -> Option.to_result ~none:(error s) (of_name s)),
      fun ppf v -> Format.pp_print_string ppf (name v) )

let labels_conv =
  name_conv Slr.Label_set.of_name Slr.Label_set.name ~error:(fun s ->
      Printf.sprintf "unknown label set %S (mediant|farey|bigfrac|lex)" s)

let labels_term =
  Arg.(
    value
    & opt labels_conv Slr.Label_set.default
    & info [ "labels" ] ~docv:"SET"
        ~doc:
          "Dense label set SRP mints feasible distances from: $(b,mediant) \
           (the paper's bounded 32-bit fractions, default), $(b,farey) \
           (minimal-denominator splits), $(b,bigfrac) (unbounded fractions \
           — wider labels, never resets), or $(b,lex) (lexicographic byte \
           strings). Other protocols ignore it.")

let scale_term =
  let scale_conv =
    name_conv Sim.Config.scale_of_name
      (fun s -> s.Sim.Config.scale_name)
      ~error:(fun s ->
        Printf.sprintf "unknown scale %S\nscale presets: %s" s
          (String.concat ", " Sim.Config.scale_names))
  in
  Arg.(
    value
    & opt (some scale_conv) None
    & info [ "scale" ] ~docv:"PRESET"
        ~doc:
          "Scale preset: node count, terrain and flow count at the paper's \
           node density ($(b,100), $(b,1k) or $(b,5k)). Overrides --nodes \
           and --flows; composes with --scenario and --labels. An unknown \
           preset lists the choices and exits 2.")

(* The scenario namespace is the workload registry plus, listed last, the
   adversarial van Glabbeek replay. The replay is a checker, not a
   workload: only run and campaign accept it. *)
let vg_forged_rrep = "vg-forged-rrep"

let workload_conv =
  name_conv Sim.Scenario.find
    (fun sc -> sc.Sim.Scenario.name)
    ~error:(fun s ->
      if s = vg_forged_rrep then
        Printf.sprintf
          "scenario %S is adversarial; replay it with `manet_sim run` or \
           `manet_sim campaign`"
          s
      else
        Printf.sprintf "unknown scenario %S\nregistered scenarios: %s" s
          (String.concat ", " (Sim.Scenario.names @ [ vg_forged_rrep ])))

let scenario_conv =
  Arg.conv
    ( (fun s ->
        if s = vg_forged_rrep then Ok `Replay
        else
          Result.map
            (fun sc -> `Workload sc)
            (Arg.conv_parser workload_conv s)),
      fun ppf -> function
        | `Replay -> Format.pp_print_string ppf vg_forged_rrep
        | `Workload sc -> Arg.conv_printer workload_conv ppf sc )

let scenario_arg kind =
  Arg.(
    value
    & opt (some kind) None
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:
          "Named workload: one name bundles a mobility model, a traffic \
           model and an optional fault plan into a seeded, reproducible \
           scenario. $(b,default) is byte-identical to running with no \
           scenario at all. $(b,vg-forged-rrep) replays the van Glabbeek \
           loop counterexample instead (run and campaign only). An unknown \
           name lists the registry and exits 2.")

let workload_scenario_term = scenario_arg workload_conv

(* --faults switches the whole subsystem on; the knobs below tune it and
   are inert without it. Defaults mirror Faults.Spec.default. *)
let faults_term =
  let open Term.Syntax in
  let d = Faults.Spec.default in
  let+ enabled =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Enable fault injection: link flaps, node crashes, partitions \
             and packet-loss bursts on a dedicated RNG substream.")
  and+ flap_rate =
    Arg.(
      value
      & opt float d.Faults.Spec.flap_rate
      & info [ "flap-rate" ] ~doc:"Link flaps per second, network-wide.")
  and+ flap_down =
    Arg.(
      value
      & opt float d.Faults.Spec.flap_down_mean
      & info [ "flap-down" ] ~doc:"Mean seconds a flapped link stays down.")
  and+ crashes =
    Arg.(
      value
      & opt int d.Faults.Spec.crashes
      & info [ "crashes" ] ~doc:"Node crashes over the run.")
  and+ crash_down =
    Arg.(
      value
      & opt float d.Faults.Spec.crash_down_mean
      & info [ "crash-down" ] ~doc:"Mean seconds a crashed node stays down.")
  and+ partitions =
    Arg.(
      value
      & opt int d.Faults.Spec.partitions
      & info [ "partitions" ] ~doc:"Network partitions over the run.")
  and+ partition_down =
    Arg.(
      value
      & opt float d.Faults.Spec.partition_mean
      & info [ "partition-down" ] ~doc:"Mean seconds a partition lasts.")
  and+ burst_rate =
    Arg.(
      value
      & opt float d.Faults.Spec.burst_rate
      & info [ "burst-rate" ] ~doc:"Packet-loss bursts per second.")
  and+ burst_down =
    Arg.(
      value
      & opt float d.Faults.Spec.burst_mean
      & info [ "burst-down" ] ~doc:"Mean seconds a loss burst lasts.")
  and+ burst_drop =
    Arg.(
      value
      & opt float d.Faults.Spec.burst_drop_p
      & info [ "burst-drop" ]
          ~doc:"Per-frame drop probability during a burst.")
  in
  if not enabled then Faults.Spec.none
  else
    {
      Faults.Spec.flap_rate;
      flap_down_mean = flap_down;
      crashes;
      crash_down_mean = crash_down;
      partitions;
      partition_mean = partition_down;
      burst_rate;
      burst_mean = burst_down;
      burst_drop_p = burst_drop;
      extra = [];
    }

let config_term =
  let open Term.Syntax in
  let+ nodes =
    Arg.(
      value
      & opt (checked int ~expected:"at least 2 nodes" (fun n -> n >= 2)) 100
      & info [ "nodes" ] ~doc:"Number of nodes (at least 2).")
  and+ flows =
    Arg.(
      value
      & opt count Sim.Config.reproduction.Sim.Config.flows
      & info [ "flows" ] ~doc:"Concurrent CBR flows (paper: 30).")
  and+ pause =
    Arg.(
      value & opt non_negative 0.0
      & info [ "pause" ] ~doc:"Random-waypoint pause time in seconds.")
  and+ duration =
    Arg.(
      value & opt positive 120.0
      & info [ "duration" ] ~doc:"Simulated seconds (paper: 900).")
  and+ seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Trial seed.")
  and+ packet_rate =
    Arg.(
      value & opt positive 4.0
      & info [ "rate" ] ~doc:"Packets per second per flow.")
  and+ faults = faults_term
  and+ labels = labels_term
  in
  Sim.Config.with_labels
    {
      Sim.Config.reproduction with
      nodes;
      flows;
      pause;
      duration;
      seed;
      packet_rate;
      faults;
    }
    labels

let configure config scale scenario =
  let config =
    Option.fold ~none:config
      ~some:(fun s -> Sim.Config.apply_scale s config)
      scale
  in
  Option.fold ~none:config
    ~some:(fun sc -> Sim.Scenario.apply sc config)
    scenario

(* the configuration with --scale and a workload --scenario overlaid *)
let workload_term =
  Term.(const configure $ config_term $ scale_term $ workload_scenario_term)

(* run and campaign: a configured workload, or the adversarial replay *)
let world_term =
  let open Term.Syntax in
  let+ config = config_term
  and+ scale = scale_term
  and+ scenario = scenario_arg scenario_conv in
  match scenario with
  | Some `Replay -> `Replay
  | Some (`Workload sc) -> `Workload (configure config scale (Some sc))
  | None -> `Workload (configure config scale None)

let jobs_term ~doc =
  Arg.(value & opt count 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* --prof / --prof-out: wall-clock profiling of the real hot paths. The
   snapshot is taken after the work completes; simulated behaviour is
   untouched (spans are wall-clock side-state outside the DES), so a
   profiled run computes the exact same results. *)
let prof_term =
  let open Term.Syntax in
  let+ prof =
    Arg.(
      value & flag
      & info [ "prof" ]
          ~doc:
            "Profile the run: wall-clock span timers on the hot paths \
             (event dispatch by kind, channel transmit, grid rebuilds, \
             protocol handlers, trace writes) plus per-worker-domain GC \
             deltas. Appends a perf_profile member to the JSON output and \
             a Profile section to the report. Simulated results are \
             unchanged.")
  and+ prof_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "prof-out" ] ~docv:"FILE"
          ~doc:
            "Write the profile as Prometheus text exposition to $(docv) \
             (implies --prof).")
  in
  (prof || prof_out <> None, prof_out)

(* the policy crashed or wedged campaign cells run under, plus the
   checkpoint journal that makes a campaign resumable *)
let supervision_term =
  let open Term.Syntax in
  let+ resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Journal every resolved cell to $(docv) (append-only JSONL) \
             and, when the file already holds cells of this exact \
             campaign, restore them instead of re-running. A resumed \
             campaign's report and JSON output are byte-identical to a \
             straight-through run.")
  and+ cell_timeout =
    Arg.(
      value & opt non_negative 0.0
      & info [ "cell-timeout" ] ~docv:"SEC"
          ~doc:
            "Wall-clock budget per cell attempt; a cell past its budget is \
             aborted (cooperatively, at the next engine watchdog check) \
             and handled like a crash. 0 disables the timeout.")
  and+ retries =
    Arg.(
      value & opt non_negative_int 1
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Re-run a crashed or timed-out cell up to $(docv) more times \
             (deterministic exponential backoff) before quarantining it.")
  and+ fail_fast =
    Arg.(
      value & flag
      & info [ "fail-fast" ]
          ~doc:
            "Abort the whole campaign on the first cell failure instead of \
             retrying and quarantining.")
  in
  let policy =
    if fail_fast then Sim.Supervisor.fail_fast
    else { Sim.Supervisor.default with Sim.Supervisor.cell_timeout; retries }
  in
  (policy, resume)

let sabotage_term =
  let sabotage_conv =
    Arg.conv'
      ( Sim.Sabotage.of_string,
        fun ppf t -> Format.pp_print_string ppf (Sim.Sabotage.to_string t) )
  in
  Arg.(
    value
    & opt (some sabotage_conv) None
    & info [ "sabotage" ] ~docv:"SPEC"
        ~doc:
          "Deterministic failure injection for testing the supervisor: \
           MODE:PROTOCOL:PAUSE:TRIAL[@FAILS] with MODE crash or hang (e.g. \
           crash:AODV:0:1, or crash:SRP:0:0@1 to fail only the first \
           attempt).")

type campaign = {
  trials : int;
  jobs : int;
  quiet : bool;
  policy : Sim.Supervisor.policy;
  resume : string option;
  prof : bool;
  prof_out : string option;
}

let campaign_term ~trials =
  let open Term.Syntax in
  let+ trials =
    Arg.(value & opt count trials & info [ "trials" ] ~doc:"Trials per point.")
  and+ jobs =
    jobs_term
      ~doc:
        "Run (protocol, pause, trial) cells on $(docv) worker domains. \
         Per-cell results are merged in canonical order, so the report and \
         JSON output are byte-identical to -j 1; only stderr progress \
         interleaving varies."
  and+ quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress progress.")
  and+ policy, resume = supervision_term
  and+ prof, prof_out = prof_term in
  { trials; jobs; quiet; policy; resume; prof; prof_out }

(* append the profile to the envelope, print the human section, export
   Prometheus text — the one place every profiled command funnels through *)
let emit_profile snapshot ~prof_out envelope =
  Format.printf "@.%a" Sim.Report.profile snapshot;
  Option.iter
    (fun path -> Obs.Export.write_prometheus path snapshot)
    prof_out;
  Option.map (fun j -> Sim.Report.add_profile j snapshot) envelope

let write_json path json =
  let oc = open_out path in
  output_string oc (Trace.Json.to_string json);
  output_char oc '\n';
  close_out oc

(* Reduced campaigns scale pause times by duration/900 so each keeps the
   paused-time fraction it has in the paper's 900 s runs. *)
let pause_scale base = Stdlib.min 1.0 (base.Sim.Config.duration /. 900.0)

(* One supervised campaign over the paper's protocols and pause times. *)
let experiment ?sabotage ?checkpoint ~jobs ~base c =
  if c.prof then Obs.enable ();
  (* live meter only on an interactive stderr: piped/redirected runs
     (CI byte-comparisons included) see exactly the historical stream *)
  let meter =
    if (not c.quiet) && Unix.isatty Unix.stderr then
      Some
        (Obs.Progress.create
           ~total:
             (List.length Sim.Config.all_protocols
             * List.length Sim.Config.paper_pause_times
             * c.trials)
           ())
    else None
  in
  let progress =
    if c.quiet then fun _ -> ()
    else
      match meter with
      | Some m -> Obs.Progress.interject m
      | None -> prerr_endline
  in
  match
    Fun.protect
      ~finally:(fun () -> Option.iter Obs.Progress.finish meter)
      (fun () ->
        Sim.Experiment.run ~policy:c.policy ?checkpoint ?sabotage ?meter ~jobs
          ~pause_scale:(pause_scale base) ~base
          ~protocols:Sim.Config.all_protocols
          ~pauses:Sim.Config.paper_pause_times ~trials:c.trials ~progress ())
  with
  | campaign -> campaign
  | exception Sim.Pool.Cell_error { cell; exn } ->
      Format.eprintf "campaign: aborted by cell %s: %s@." cell
        (Printexc.to_string exn);
      exit 1
  | exception Sim.Experiment.Resume_error m ->
      Format.eprintf "campaign: %s@." m;
      exit 2

(* The campaign driver both front ends call: run [c] on [base] with its
   checkpoint journal, print the report through [render], and write the
   campaign JSON — extended by [perf] members and the profile — to
   [json]. Returns the wall time of the run and the JSON written. *)
let campaign ?sabotage
    ?(render = fun ppf t -> Format.fprintf ppf "%a@." Sim.Report.all t)
    ?(perf = fun ~wall:_ _ -> []) ~json ~base c =
  let started = Unix.gettimeofday () in
  let t = experiment ?sabotage ?checkpoint:c.resume ~jobs:c.jobs ~base c in
  let wall = Unix.gettimeofday () -. started in
  render Format.std_formatter t;
  let envelope =
    Option.map
      (fun _ ->
        match Sim.Report.campaign_json t with
        | Trace.Json.Obj members -> Trace.Json.Obj (members @ perf ~wall t)
        | other -> other)
      json
  in
  let envelope =
    if c.prof then emit_profile (Obs.snapshot ()) ~prof_out:c.prof_out envelope
    else envelope
  in
  Option.iter (fun path -> write_json path (Option.get envelope)) json;
  (wall, envelope)

(* Evaluate [cmd] under the simulator's GC posture. A malformed command
   line exits 2, like every other rejected input. *)
let eval cmd =
  (* A kilonode run schedules millions of short-lived closures whose
     survivors churn the major heap: a roomier minor heap (16 MB) lets
     most die young and a laxer space_overhead halves marking work.
     Simulation results never depend on GC scheduling. *)
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 2048 * 1024; space_overhead = 200 };
  exit
    (match Cmd.eval_value cmd with
    | Ok _ -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
