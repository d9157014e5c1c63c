(* The benchmark harness's command line: manet_sim's shared flag terms
   (config, scale, scenario, campaign supervision, profiling) plus the
   bench-only inputs below. Kept apart from the driver so tests can parse
   argv through [Cmd.eval_value]. *)

open Cmdliner

let known_sections =
  [ "table1"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "campaign"; "micro";
    "ablation"; "labels"; "scale"; "all" ]

type t = {
  base : Sim.Config.t;
      (** the campaign sections' configuration: the shared config flags
          with [--full], [--scale] and [--scenario] overlaid *)
  campaign : Flags.campaign;
  sections : string list;  (** in command-line order, default [["all"]] *)
  full : bool;  (** paper raw scale: 900 s, 30 flows, 10 campaign trials *)
  out : string;  (** where the campaign JSON (with perf member) is written *)
  baseline : string option;  (** [--check-regression PATH] *)
  compare_sequential : bool;
  labels_out : string;
  scale_out : string;
  scale_baseline : string option;  (** [--check-scale-regression PATH] *)
}

let path_opt name ~doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"PATH" ~doc)

let path name default ~doc =
  Arg.(value & opt string default & info [ name ] ~docv:"PATH" ~doc)

let term =
  let open Term.Syntax in
  let+ config = Flags.config_term
  and+ scale = Flags.scale_term
  and+ scenario = Flags.workload_scenario_term
  and+ campaign = Flags.campaign_term ~trials:2
  and+ sections =
    Arg.(
      value
      & pos_all (enum (List.map (fun s -> (s, s)) known_sections)) []
      & info [] ~docv:"SECTION"
          ~doc:
            "Sections to run: table1, fig3..fig7 and campaign share one \
             campaign; micro, ablation, labels and scale run on their own. \
             Default: all.")
  and+ full =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:"Paper raw scale: 900 s runs, 30 flows, 10 campaign trials.")
  and+ out =
    path "out" "BENCH_campaign.json"
      ~doc:"Where the campaign JSON, with its perf member, is written."
  and+ baseline =
    path_opt "check-regression"
      ~doc:
        "Compare the fresh campaign's perf.sim_seconds_per_sec_per_job \
         (simulated seconds per wall second per job) against the one in \
         $(docv); exit 3 below 75% of it, 2 when $(docv) lacks it."
  and+ compare_sequential =
    Arg.(
      value & flag
      & info [ "compare-sequential" ]
          ~doc:"Also run the campaign at -j 1 and record the speedup.")
  and+ labels_out =
    path "labels-out" "BENCH_labels.json"
      ~doc:"Where the labels section writes its four-instance comparison."
  and+ scale_out =
    path "scale-out" "BENCH_scale.json"
      ~doc:"Where the scale section writes its per-preset throughput sweep."
  and+ scale_baseline =
    path_opt "check-scale-regression"
      ~doc:
        "Compare every preset's fresh sim_seconds_per_sec (simulated \
         seconds per wall second) against the one in $(docv); exit 3 when \
         any falls below 75% of it, 2 when a preset in $(docv) lacks it."
  in
  let config =
    if full then
      { config with
        Sim.Config.duration = Sim.Config.paper.Sim.Config.duration;
        flows = Sim.Config.paper.Sim.Config.flows;
      }
    else config
  in
  {
    base = Flags.configure config scale scenario;
    campaign;
    sections = (if sections = [] then [ "all" ] else sections);
    full;
    out;
    baseline;
    compare_sequential;
    labels_out;
    scale_out;
    scale_baseline;
  }

let info =
  Cmd.info "main.exe"
    ~doc:
      "Regenerate the paper's Table I and Figs. 3-7, the micro-benchmarks, \
       the ablations, the label-set showdown and the scale sweep."
