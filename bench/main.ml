(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Table I, Figs. 3-7), runs label-arithmetic and channel
   micro-benchmarks (E7), and two ablations of design choices called out in
   DESIGN.md (E8). The command line lives in {!Bench_cli} (testable); this
   file only drives the sections.

   The campaign behind table1/fig3..fig7 runs once and is shared, farmed
   over [-j N] domains, and its JSON twin gains a ["perf"] member (wall
   time, simulated seconds per wall second, engine events, events/s) used
   by the [--check-regression] gate. *)

module J = Trace.Json

let wants opts section =
  List.mem "all" opts.Bench_cli.sections
  || List.mem section opts.Bench_cli.sections

let wants_campaign opts =
  List.exists (wants opts)
    [ "campaign"; "table1"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7" ]

(* ------------------------------------------------------------------ *)
(* The simulation campaign shared by Table I and Figs. 3-7 *)

let render_sections opts ppf campaign =
  List.iter
    (fun (name, render) ->
      if wants opts name || wants opts "campaign" then begin
        Format.fprintf ppf "@.";
        render ppf campaign
      end)
    [
      ("table1", Sim.Report.table1);
      ("fig3", Sim.Report.fig3);
      ("fig4", Sim.Report.fig4);
      ("fig5", Sim.Report.fig5);
      ("fig6", Sim.Report.fig6);
      ("fig7", Sim.Report.fig7);
    ]

(* The throughput record appended to the campaign JSON. Simulated seconds
   per wall second per job is what the regression gate compares: it is
   stable across differing [-j] settings on the same machine, and unlike
   events/s it does not move when the simulator does the same work in
   fewer engine events. Engine events and events/s stay as recorded
   figures. The member also carries the per-worker-domain ledger (cells
   run, busy wall time, GC deltas) so the bench trajectory localises where
   a speedup — or a slowdown — comes from. *)
let perf_member ~jobs ~wall ~sequential_wall ~workers campaign =
  let events = campaign.Sim.Experiment.engine_events in
  let rate x = if wall > 0.0 then x /. wall else 0.0 in
  let eps = rate (float_of_int events) in
  (* quarantined cells simulate nothing that counts *)
  let runs =
    (List.length campaign.Sim.Experiment.protocols
    * List.length campaign.Sim.Experiment.pauses
    * campaign.Sim.Experiment.trials)
    - List.length campaign.Sim.Experiment.failures
  in
  let sim_seconds =
    float_of_int runs *. campaign.Sim.Experiment.base.Sim.Config.duration
  in
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 workers in
  J.Obj
    ([
       ("jobs", J.Int jobs);
       ("wall_seconds", J.Float wall);
       ("sim_seconds", J.Float sim_seconds);
       ("sim_seconds_per_sec", J.Float (rate sim_seconds));
       ( "sim_seconds_per_sec_per_job",
         J.Float (rate sim_seconds /. float_of_int jobs) );
       ("engine_events", J.Int events);
       ("events_per_sec", J.Float eps);
       ("events_per_sec_per_job", J.Float (eps /. float_of_int jobs));
       ("workers", J.List (List.map Sim.Report.worker_json workers));
       ( "gc",
         J.Obj
           [
             ( "minor_collections",
               J.Int (sum (fun w -> w.Obs.w_minor_collections)) );
             ( "major_collections",
               J.Int (sum (fun w -> w.Obs.w_major_collections)) );
             ("minor_words", J.Int (sum (fun w -> w.Obs.w_minor_words)));
             ("promoted_words", J.Int (sum (fun w -> w.Obs.w_promoted_words)));
             ("major_words", J.Int (sum (fun w -> w.Obs.w_major_words)));
           ] );
     ]
    @
    match sequential_wall with
    | None -> []
    | Some sw ->
        [
          ("sequential_wall_seconds", J.Float sw);
          ("speedup", J.Float (if wall > 0.0 then sw /. wall else 0.0));
        ])

(* The measured campaign pass, after an optional sequential reference
   pass; returns the JSON written to --out. *)
let run_campaign opts =
  let base = opts.Bench_cli.base in
  let c = opts.Bench_cli.campaign in
  let c = if opts.Bench_cli.full then { c with Flags.trials = 10 } else c in
  Format.printf
    "campaign: %d nodes, %d flows, %.0f s runs, %d trials x %d pause times x \
     %d protocols, %d job%s@."
    base.Sim.Config.nodes base.Sim.Config.flows base.Sim.Config.duration
    c.Flags.trials
    (List.length Sim.Config.paper_pause_times)
    (List.length Sim.Config.all_protocols)
    c.Flags.jobs
    (if c.Flags.jobs = 1 then "" else "s");
  let pause_scale = Flags.pause_scale base in
  if pause_scale < 1.0 then
    Format.printf
      "(pause times scaled by %.3f to keep the paused-time fraction of the \
       paper's 900 s runs)@."
      pause_scale;
  (* the reference pass must re-run every cell, so it never reads the
     --resume journal, or its wall-clock number would be meaningless *)
  let sequential_wall =
    if opts.Bench_cli.compare_sequential && c.Flags.jobs > 1 then begin
      Format.printf "sequential reference pass (-j 1):@.";
      let started = Unix.gettimeofday () in
      ignore (Flags.experiment ~jobs:1 ~base c : Sim.Experiment.t);
      Some (Unix.gettimeofday () -. started)
    end
    else None
  in
  (* the measured pass owns the ledger: spans, counters and per-domain
     GC deltas accumulated by the reference pass must not bleed in *)
  Obs.reset ();
  let perf ~wall campaign =
    [
      ( "perf",
        perf_member ~jobs:c.Flags.jobs ~wall ~sequential_wall
          ~workers:(Obs.snapshot ()).Obs.workers campaign );
    ]
  in
  let wall, json =
    Flags.campaign ~render:(render_sections opts) ~perf
      ~json:(Some opts.Bench_cli.out) ~base c
  in
  Format.printf "@.campaign JSON written to %s@." opts.Bench_cli.out;
  Option.iter
    (fun sw ->
      Format.printf "parallel speedup at -j %d: %.2fx (%.1fs -> %.1fs)@."
        c.Flags.jobs
        (if wall > 0.0 then sw /. wall else 0.0)
        sw wall)
    sequential_wall;
  Option.get json

let number = function
  | Some (J.Float x) -> Some x
  | Some (J.Int n) -> Some (float_of_int n)
  | _ -> None

(* The gated rates of a campaign or scale JSON: simulated seconds per wall
   second, which no change to the engine's event count can move. [None]
   when the JSON lacks one, as a baseline written before the rate existed
   does. *)
let campaign_rate json =
  Option.map
    (fun x -> [ ("campaign", x) ])
    (number (J.path "perf.sim_seconds_per_sec_per_job" json))

let scale_rates json =
  match J.member "scales" json with
  | Some (J.List (_ :: _ as presets)) ->
      List.fold_right
        (fun p acc ->
          match
            (acc, J.member "scale" p, number (J.member "sim_seconds_per_sec" p))
          with
          | Some acc, Some (J.String name), Some rate -> Some ((name, rate) :: acc)
          | _ -> None)
        presets (Some [])
  | _ -> None

(* A gate's baseline is read and checked before anything runs: --out and
   --scale-out may name the baseline file itself, and the gate must compare
   against the committed figures, not the bytes the run is about to write.
   An unreadable baseline, or one without the gated rate, exits 2. *)
let read_baseline ~gate ~rates path =
  let fail msg =
    Format.eprintf "%s: %s@." gate msg;
    exit 2
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> fail e
  | contents -> (
      match J.parse contents with
      | Error e -> fail (path ^ ": " ^ e)
      | Ok baseline -> (
          match rates baseline with
          | None -> fail (path ^ ": no simulated-seconds-per-wall-second figures")
          | Some r -> r))

(* Every rate the baseline names must hold 75% of its committed figure in
   the fresh run — a kilonode-only slowdown must not hide behind a healthy
   100-node one. Exit 3 below the floor. *)
let regression_gate ~gate ~unit ~rates base_rates fresh =
  let fresh_rates = Option.value (rates fresh) ~default:[] in
  let failed =
    List.filter_map
      (fun (name, base) ->
        let fresh =
          Option.value (List.assoc_opt name fresh_rates) ~default:0.0
        in
        let floor = 0.75 *. base in
        Format.printf "%s: %s fresh %.4g %s vs baseline %.4g (floor %.4g)@."
          gate name fresh unit base floor;
        if fresh < floor then Some (name, base, fresh) else None)
      base_rates
  in
  match failed with
  | [] -> ()
  | (name, base, fresh) :: _ ->
      Format.eprintf
        "%s FAILED: %s at %.4g %s is below 75%% of the committed baseline \
         %.4g@."
        gate name fresh unit base;
      exit 3

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (E7, Bechamel) *)

let run_micro_tests tests =
  let open Bechamel in
  List.iter
    (fun test ->
      let instances = [ Toolkit.Instance.monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
      let raw = Benchmark.all cfg instances test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock raw
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Format.printf "%-30s %10.1f ns/op@." name est
          | _ -> Format.printf "%-30s (no estimate)@." name)
        results)
    tests

let micro_labels () =
  let module F = Slr.Fraction in
  let module O = Slr.Ordering in
  let open Bechamel in
  let a = F.make ~num:610 ~den:987 in
  let b = F.make ~num:987 ~den:1597 in
  let oa = O.make ~sn:3 ~frac:a in
  let ob = O.make ~sn:3 ~frac:b in
  let big_lo = F.make ~num:1_000_003 ~den:2_000_003 in
  let big_hi = F.make ~num:2_000_005 ~den:3_999_999 in
  let ba = Slr.Bigfrac.of_ints ~num:610 ~den:987 in
  let bb = Slr.Bigfrac.of_ints ~num:987 ~den:1597 in
  Format.printf "@.=== micro: label-arithmetic costs (E7) ===@.";
  run_micro_tests
    [
      Test.make ~name:"Fraction.compare"
        (Staged.stage (fun () -> ignore (F.compare a b)));
      Test.make ~name:"Fraction.mediant"
        (Staged.stage (fun () -> ignore (F.mediant a b)));
      Test.make ~name:"Ordering.precedes"
        (Staged.stage (fun () -> ignore (O.precedes ob oa)));
      Test.make ~name:"New_order.compute"
        (Staged.stage (fun () ->
             ignore (Slr.New_order.compute ~current:oa ~cached:O.unassigned ~adv:ob)));
      Test.make ~name:"Farey.simplest_between"
        (Staged.stage (fun () ->
             ignore (Slr.Farey.simplest_between ~lo:big_lo ~hi:big_hi)));
      Test.make ~name:"Bigfrac.mediant"
        (Staged.stage (fun () -> ignore (Slr.Bigfrac.mediant ba bb)));
    ];
  Format.printf "worst-case mediant splits in 32 bits: %d (paper: 45)@."
    (Slr.Fraction.max_splits ())

(* Channel hot path: one broadcast frame swept over 100 static nodes on the
   paper terrain, naive full scan vs spatial grid, plus the cost of a
   forced grid rebuild. Positions are static so the measurement isolates
   the neighbour sweep from mobility lookups. *)
let micro_channel () =
  let open Bechamel in
  let nodes = 100 in
  let rng = Des.Rng.create 42L in
  let points =
    Array.init nodes (fun _ -> Wireless.Terrain.random_point Wireless.Terrain.paper rng)
  in
  let position i _time = points.(i) in
  let scripts = Array.map Wireless.Waypoint.stationary points in
  let range = Wireless.Radio.default.Wireless.Radio.range in
  let cs_range = Wireless.Radio.default.Wireless.Radio.cs_range in
  let make_channel grid =
    let engine = Des.Engine.create () in
    let ch =
      Wireless.Channel.create ?grid engine ~scripts ~range ~cs_range
    in
    (engine, ch)
  in
  let transmit_case (engine, ch) =
    let src = ref 0 in
    fun () ->
      Wireless.Channel.transmit ch ~src:!src ~duration:1e-4 ();
      Des.Engine.run_all engine;
      src := (!src + 1) mod nodes
  in
  let naive = make_channel None in
  let grid =
    make_channel (Some { Wireless.Channel.max_speed = 0.0; epoch = 1e9 })
  in
  let g =
    Wireless.Grid.create ~nodes ~position ~cell:(cs_range /. 2.0)
      ~max_speed:0.0 ~epoch:1e9
  in
  let rebuild_now = ref 0.0 in
  Format.printf "@.=== micro: channel hot path, %d nodes (E7) ===@." nodes;
  run_micro_tests
    [
      Test.make ~name:"Channel.transmit (naive)"
        (Staged.stage (transmit_case naive));
      Test.make ~name:"Channel.transmit (grid)"
        (Staged.stage (transmit_case grid));
      Test.make ~name:"Grid.rebuild"
        (Staged.stage (fun () ->
             rebuild_now := !rebuild_now +. 1.0;
             Wireless.Grid.rebuild g ~now:!rebuild_now));
    ]

(* ------------------------------------------------------------------ *)
(* Ablations (E8) *)

(* E8a: mediant vs Farey (Stern-Brocot) interpolation under random
   insertions -- the fraction-reduction direction of the paper's §VI. *)
let ablation_farey () =
  let module F = Slr.Fraction in
  Format.printf "@.=== ablation: mediant vs Farey interpolation (E8a) ===@.";
  let run ~use_farey =
    let rng = Des.Rng.create 77L in
    let labels = ref [| F.zero; F.one |] in
    let max_den = ref 1 in
    let inserted = ref 0 in
    (try
       for _ = 1 to 2000 do
         let arr = !labels in
         let i = Des.Rng.int rng (Array.length arr - 1) in
         let j = i + 1 + Des.Rng.int rng (Array.length arr - i - 1) in
         let lo = arr.(i) and hi = arr.(j) in
         if not (F.equal lo hi) then begin
           let next_label =
             if use_farey then Slr.Farey.simplest_between ~lo ~hi
             else F.mediant lo hi
           in
           match next_label with
           | None -> raise Exit
           | Some m ->
               incr inserted;
               if m.F.den > !max_den then max_den := m.F.den;
               (* keep the array sorted: m belongs somewhere in (i, j] *)
               let k = ref (i + 1) in
               while F.(arr.(!k) < m) do
                 incr k
               done;
               let out = Array.make (Array.length arr + 1) m in
               Array.blit arr 0 out 0 !k;
               out.(!k) <- m;
               Array.blit arr !k out (!k + 1) (Array.length arr - !k);
               labels := out
         end
       done
     with Exit -> ());
    (!inserted, !max_den)
  in
  let m_count, m_den = run ~use_farey:false in
  let f_count, f_den = run ~use_farey:true in
  Format.printf "mediant: %4d insertions, max denominator %d@." m_count m_den;
  Format.printf "Farey:   %4d insertions, max denominator %d@." f_count f_den;
  Format.printf
    "(the Farey walk keeps labels far smaller, deferring the sequence-number reset)@."

(* E8b: SRP's tunables under constant mobility. *)
let ablation_srp_knobs opts =
  Format.printf "@.=== ablation: SRP heuristics at pause 0 (E8b) ===@.";
  let base =
    { opts.Bench_cli.base with Sim.Config.protocol = Sim.Config.Srp; pause = 0.0 }
  in
  let run name srp =
    let r = Sim.Runner.run { base with Sim.Config.srp } in
    Format.printf "%-24s delivery %5.3f  load %7.3f  latency %6.3f  seqno %5.2f@."
      name r.Sim.Metrics.delivery_ratio r.Sim.Metrics.network_load
      r.Sim.Metrics.latency r.Sim.Metrics.avg_seqno
  in
  let d = Protocols.Srp.default_config in
  run "default (mrh=0)" d;
  run "min_reply_hops=1" { d with Protocols.Srp.min_reply_hops = 1 };
  run "min_reply_hops=2" { d with Protocols.Srp.min_reply_hops = 2 };
  run "probe_on_n=true" { d with Protocols.Srp.probe_on_n = true };
  run "no ordering lie" { d with Protocols.Srp.lie_k = 1 };
  (* §VI future work, implemented: minimal-denominator label splits *)
  let farey = { d with Protocols.Srp.labels = Slr.Label_set.Farey } in
  let r_mediant = Sim.Runner.run { base with Sim.Config.srp = d } in
  let r_farey = Sim.Runner.run { base with Sim.Config.srp = farey } in
  Format.printf
    "label growth in-protocol: mediant max denominator %d vs Farey %d@."
    r_mediant.Sim.Metrics.max_denominator r_farey.Sim.Metrics.max_denominator

(* ------------------------------------------------------------------ *)
(* Label-set showdown (E9): the four dense-set instances on identical
   constant-mobility SRP scenarios (pause 0 maximises label minting).
   Width growth, label-driven resets — and when the first one lands — are
   exactly where the instances differ, so they ride next to the standard
   delivery/load/latency triple in the JSON written to --labels-out. *)

let labels_showdown opts =
  Format.printf "@.=== label-set showdown: SRP at pause 0 (E9) ===@.";
  let base =
    { opts.Bench_cli.base with Sim.Config.protocol = Sim.Config.Srp; pause = 0.0 }
  in
  let trials = opts.Bench_cli.campaign.Flags.trials in
  Format.printf "%d trial%s x %.0f s per instance@." trials
    (if trials = 1 then "" else "s")
    base.Sim.Config.duration;
  let run_instance ?max_denom id =
    let splits = ref 0 and resets = ref 0 in
    let first_reset = ref infinity in
    let delivery = ref 0.0 and load = ref 0.0 and latency = ref 0.0 in
    let width = ref 0 and max_den = ref 0 and label_resets = ref 0 in
    for k = 0 to trials - 1 do
      let srp =
        match max_denom with
        | None -> base.Sim.Config.srp
        | Some max_denom -> { base.Sim.Config.srp with Protocols.Srp.max_denom }
      in
      let config =
        Sim.Config.with_labels
          { base with Sim.Config.seed = base.Sim.Config.seed + k; srp }
          id
      in
      let trace =
        Trace.callback
          ~clock:(fun () -> 0.0)
          (fun r ->
            match r.Trace.ev with
            | Trace.Label_split _ -> incr splits
            | Trace.Seqno_reset _ ->
                incr resets;
                if r.Trace.time < !first_reset then first_reset := r.Trace.time
            | _ -> ())
      in
      let r = Sim.Runner.run ~trace config in
      delivery := !delivery +. r.Sim.Metrics.delivery_ratio;
      load := !load +. r.Sim.Metrics.network_load;
      latency := !latency +. r.Sim.Metrics.latency;
      width := Stdlib.max !width r.Sim.Metrics.label_width_bits;
      max_den := Stdlib.max !max_den r.Sim.Metrics.max_denominator;
      label_resets := !label_resets + r.Sim.Metrics.label_resets
    done;
    let n = float_of_int trials in
    Format.printf
      "%-8s delivery %5.3f  load %7.3f  latency %6.3f  width %3d bits  \
       splits %5d  resets %3d  first reset %s@."
      (Slr.Label_set.name id) (!delivery /. n) (!load /. n) (!latency /. n)
      !width !splits !label_resets
      (if !first_reset = infinity then "never"
       else Printf.sprintf "%.1f s" !first_reset);
    J.Obj
      [
        ("labels", J.String (Slr.Label_set.name id));
        ("trials", J.Int trials);
        ("delivery", J.Float (!delivery /. n));
        ("network_load", J.Float (!load /. n));
        ("latency", J.Float (!latency /. n));
        ("max_denominator", J.Int !max_den);
        ("label_width_bits", J.Int !width);
        ("label_splits", J.Int !splits);
        ("label_resets", J.Int !label_resets);
        ("seqno_resets", J.Int !resets);
        ( "time_to_first_reset_s",
          if !first_reset = infinity then J.Null else J.Float !first_reset );
      ]
  in
  let instances = List.map run_instance Slr.Label_set.all in
  (* Reset dynamics need MAX_DENOM within reach: at the paper's 1e9 none of
     the instances exhausts in a reduced-scale horizon. A tight threshold
     makes the bounded instances pay their D-bit probe resets while the
     unbounded ones (which ignore the threshold) stay clean. *)
  let tight = 1_000 in
  Format.printf "-- with MAX_DENOM tightened to %d --@." tight;
  let instances_tight =
    List.map (run_instance ~max_denom:tight) Slr.Label_set.all
  in
  let json =
    J.Obj
      [
        ("nodes", J.Int base.Sim.Config.nodes);
        ("duration", J.Float base.Sim.Config.duration);
        ("flows", J.Int base.Sim.Config.flows);
        ("pause", J.Float base.Sim.Config.pause);
        ("trials", J.Int trials);
        ("instances", J.List instances);
        ("tight_max_denom", J.Int tight);
        ("instances_tight_max_denom", J.List instances_tight);
      ]
  in
  Flags.write_json opts.Bench_cli.labels_out json;
  Format.printf "label-set comparison written to %s@." opts.Bench_cli.labels_out

(* ------------------------------------------------------------------ *)
(* Scale sweep (E11): throughput at the paper's 100 nodes and the 1k/5k
   kilonode presets, one SRP run per preset at pause 0. Simulated horizons
   shrink with the preset so the sweep stays a couple of minutes of wall
   clock; the horizon is part of the committed JSON, so the regression
   gate, which reads simulated seconds per wall second, always compares
   like with like. Engine events and events/s are recorded beside it. *)

(* throughput at t < traffic_start would measure an idle hello mesh; pull
   the flows in so even the shortest horizon is mostly loaded *)
let scale_traffic_start = 5.0

let scale_duration (s : Sim.Config.scale) =
  match s.Sim.Config.scale_name with
  | "100" -> 60.0
  | "1k" -> 20.0
  | _ -> 8.0

let scale_sweep opts =
  Format.printf "@.=== scale sweep: throughput at %s nodes (E11) ===@."
    (String.concat "/" Sim.Config.scale_names);
  let run_preset (s : Sim.Config.scale) =
    let config =
      Sim.Config.apply_scale s
        {
          Sim.Config.reproduction with
          duration = scale_duration s;
          traffic_start = scale_traffic_start;
          seed = 1;
          pause = 0.0;
          protocol = Sim.Config.Srp;
        }
    in
    let config =
      Sim.Config.with_labels config
        opts.Bench_cli.base.Sim.Config.srp.Protocols.Srp.labels
    in
    if not opts.Bench_cli.campaign.Flags.quiet then
      Format.eprintf "scale %s: %d nodes, %d flows, %.0f s ...@."
        s.Sim.Config.scale_name config.Sim.Config.nodes
        config.Sim.Config.flows config.Sim.Config.duration;
    let started = Unix.gettimeofday () in
    let r = Sim.Runner.run config in
    let wall = Unix.gettimeofday () -. started in
    let events = r.Sim.Metrics.engine_events in
    let rate x = if wall > 0.0 then x /. wall else 0.0 in
    let eps = rate (float_of_int events) in
    let sim_rate = rate config.Sim.Config.duration in
    Format.printf
      "%-4s %5d nodes  %4d flows  %5.0f s sim  %8.1f s wall  %7.3f sim-s/s  \
       %9d events  %8.0f events/s  delivery %5.3f@."
      s.Sim.Config.scale_name config.Sim.Config.nodes config.Sim.Config.flows
      config.Sim.Config.duration wall sim_rate events eps
      r.Sim.Metrics.delivery_ratio;
    J.Obj
      [
        ("scale", J.String s.Sim.Config.scale_name);
        ("nodes", J.Int config.Sim.Config.nodes);
        ("flows", J.Int config.Sim.Config.flows);
        ("terrain_width", J.Float config.Sim.Config.terrain.Wireless.Terrain.width);
        ("terrain_height", J.Float config.Sim.Config.terrain.Wireless.Terrain.height);
        ("duration", J.Float config.Sim.Config.duration);
        ("traffic_start", J.Float config.Sim.Config.traffic_start);
        ("engine_events", J.Int events);
        ("wall_seconds", J.Float wall);
        ("sim_seconds_per_sec", J.Float sim_rate);
        ("events_per_sec", J.Float eps);
        ("delivery_ratio", J.Float r.Sim.Metrics.delivery_ratio);
        ("network_load", J.Float r.Sim.Metrics.network_load);
        ("latency", J.Float r.Sim.Metrics.latency);
      ]
  in
  let sweep = List.map run_preset Sim.Config.scales in
  let json = J.Obj [ ("schema", J.String "bench-scale/1"); ("scales", J.List sweep) ] in
  Flags.write_json opts.Bench_cli.scale_out json;
  Format.printf "scale sweep written to %s@." opts.Bench_cli.scale_out;
  json

(* ------------------------------------------------------------------ *)

let main opts =
  let campaign_gate = "regression gate" and scale_gate = "scale regression gate" in
  let campaign_baseline =
    Option.map
      (read_baseline ~gate:campaign_gate ~rates:campaign_rate)
      opts.Bench_cli.baseline
  in
  let scale_baseline =
    Option.map
      (read_baseline ~gate:scale_gate ~rates:scale_rates)
      opts.Bench_cli.scale_baseline
  in
  let t0 = Unix.gettimeofday () in
  if wants_campaign opts then begin
    let fresh = run_campaign opts in
    Option.iter
      (fun baseline ->
        regression_gate ~gate:campaign_gate ~unit:"sim-s/wall-s/job"
          ~rates:campaign_rate baseline fresh)
      campaign_baseline
  end;
  if wants opts "micro" then begin
    micro_labels ();
    micro_channel ()
  end;
  if wants opts "ablation" then begin
    ablation_farey ();
    ablation_srp_knobs opts
  end;
  if wants opts "labels" then labels_showdown opts;
  if wants opts "scale" then begin
    let fresh = scale_sweep opts in
    Option.iter
      (fun baseline ->
        regression_gate ~gate:scale_gate ~unit:"sim-s/wall-s" ~rates:scale_rates
          baseline fresh)
      scale_baseline
  end;
  Format.printf "@.total wall time: %.1f s@." (Unix.gettimeofday () -. t0)

let () =
  Flags.eval
    (Cmdliner.Cmd.v Bench_cli.info (Cmdliner.Term.map main Bench_cli.term))
