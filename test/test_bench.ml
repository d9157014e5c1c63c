(* The benchmark harness's command line, parsed through the same Cmdliner
   terms as manet_sim: malformed numbers, unknown flags and unknown
   sections are parse errors (the shared eval exits 2), and the two front
   ends agree on what a campaign flag means. *)

open Cmdliner

let parse args =
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  let result =
    Cmd.eval_value ~err ~help:err
      ~argv:(Array.of_list ("main.exe" :: args))
      (Cmd.v Bench_cli.info Bench_cli.term)
  in
  Format.pp_print_flush err ();
  (result, Buffer.contents buf)

let ok args =
  match parse args with
  | Ok (`Ok opts), _ -> opts
  | _, msg ->
      Alcotest.failf "expected %s to parse, got %S" (String.concat " " args) msg

(* Cmdliner reports some malformed command lines (unknown options among
   them) as term errors; the shared eval exits 2 on both *)
let err args =
  match parse args with
  | Error (`Parse | `Term), msg ->
      Alcotest.(check bool) "non-empty message" true (String.length msg > 0);
      msg
  | _ -> Alcotest.failf "expected a parse error for %s" (String.concat " " args)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i =
    i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1))
  in
  scan 0

let policy opts = opts.Bench_cli.campaign.Flags.policy

let test_defaults () =
  let opts = ok [] in
  let c = opts.Bench_cli.campaign in
  Alcotest.(check int) "trials" 2 c.Flags.trials;
  Alcotest.(check (float 0.0)) "duration" 120.0
    opts.Bench_cli.base.Sim.Config.duration;
  Alcotest.(check int) "jobs" 1 c.Flags.jobs;
  Alcotest.(check bool) "full" false opts.Bench_cli.full;
  Alcotest.(check string) "out" "BENCH_campaign.json" opts.Bench_cli.out;
  Alcotest.(check (list string)) "sections" [ "all" ] opts.Bench_cli.sections;
  Alcotest.(check bool) "no baseline" true (opts.Bench_cli.baseline = None);
  Alcotest.(check bool) "no resume journal" true (c.Flags.resume = None);
  Alcotest.(check bool) "supervised by default (no timeout, one retry)" true
    (policy opts = Sim.Supervisor.default)

let test_valid_parse () =
  let opts =
    ok
      [ "micro"; "campaign"; "--trials"; "3"; "--duration"; "60"; "-j"; "4";
        "--quiet"; "--out"; "fresh.json"; "--check-regression"; "base.json";
        "--compare-sequential" ]
  in
  let c = opts.Bench_cli.campaign in
  Alcotest.(check int) "trials" 3 c.Flags.trials;
  Alcotest.(check (float 0.0)) "duration" 60.0
    opts.Bench_cli.base.Sim.Config.duration;
  Alcotest.(check int) "jobs" 4 c.Flags.jobs;
  Alcotest.(check bool) "quiet" true c.Flags.quiet;
  Alcotest.(check string) "out" "fresh.json" opts.Bench_cli.out;
  Alcotest.(check bool) "baseline" true
    (opts.Bench_cli.baseline = Some "base.json");
  Alcotest.(check bool) "compare-sequential" true
    opts.Bench_cli.compare_sequential;
  Alcotest.(check (list string)) "sections in order" [ "micro"; "campaign" ]
    opts.Bench_cli.sections;
  let full = ok [ "--full"; "--duration"; "60" ] in
  Alcotest.(check (float 0.0)) "--full runs the paper's 900 s" 900.0
    full.Bench_cli.base.Sim.Config.duration;
  Alcotest.(check int) "--full runs the paper's 30 flows" 30
    full.Bench_cli.base.Sim.Config.flows

let test_supervision_flags () =
  let opts =
    ok [ "--resume"; "ckpt.jsonl"; "--cell-timeout"; "30"; "--retries"; "0" ]
  in
  Alcotest.(check bool) "resume path" true
    (opts.Bench_cli.campaign.Flags.resume = Some "ckpt.jsonl");
  Alcotest.(check (float 0.0)) "cell timeout" 30.0
    (policy opts).Sim.Supervisor.cell_timeout;
  Alcotest.(check int) "retries may be zero" 0
    (policy opts).Sim.Supervisor.retries;
  Alcotest.(check bool) "supervised" false
    (policy opts).Sim.Supervisor.fail_fast;
  Alcotest.(check bool) "--cell-timeout 0 means no timeout" true
    (policy (ok [ "--cell-timeout"; "0" ]) = Sim.Supervisor.default);
  Alcotest.(check bool) "fail-fast" true
    (policy (ok [ "--fail-fast" ]) = Sim.Supervisor.fail_fast);
  ignore (err [ "--retries"; "-1" ]);
  ignore (err [ "--retries=-1" ]);
  ignore (err [ "--retries"; "two" ]);
  ignore (err [ "--cell-timeout"; "soon" ]);
  ignore (err [ "--cell-timeout=-1" ]);
  ignore (err [ "--cell-timeout" ]);
  ignore (err [ "--resume" ])

let test_malformed_numbers () =
  ignore (err [ "--trials"; "three" ]);
  ignore (err [ "--trials"; "0" ]);
  ignore (err [ "--trials"; "-2" ]);
  ignore (err [ "--flows"; "4.5" ]);
  ignore (err [ "--duration"; "fast" ]);
  ignore (err [ "--duration"; "-1" ]);
  ignore (err [ "--jobs"; "0" ]);
  ignore (err [ "-j"; "many" ])

let test_missing_argument () =
  ignore (err [ "--trials" ]);
  ignore (err [ "--out" ]);
  ignore (err [ "--check-regression" ])

let test_scenario_flag () =
  let base opts = opts.Bench_cli.base in
  Alcotest.(check string) "default scenario leaves the config untouched"
    (Trace.Json.to_string (Sim.Config.to_json (base (ok []))))
    (Trace.Json.to_string
       (Sim.Config.to_json (base (ok [ "--scenario"; "default" ]))));
  let downtown = base (ok [ "--scenario"; "downtown"; "campaign" ]) in
  Alcotest.(check string) "named workload: mobility" "manhattan"
    (Wireless.Mobility.name downtown.Sim.Config.mobility);
  Alcotest.(check string) "named workload: traffic" "bursty"
    (Traffic.Model.name downtown.Sim.Config.traffic);
  ignore (err [ "--scenario" ]);
  let unknown = err [ "--scenario"; "nope" ] in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        ("unknown name lists " ^ n)
        true (contains unknown n))
    Sim.Scenario.names;
  let adversarial = err [ "--scenario"; "vg-forged-rrep" ] in
  Alcotest.(check bool) "adversarial entry rejected" true
    (contains adversarial "adversarial")

let test_scale_flag () =
  let base args = (ok args).Bench_cli.base in
  Alcotest.(check int) "no scale overlay by default" 100
    (base []).Sim.Config.nodes;
  Alcotest.(check string) "default scale-out" "BENCH_scale.json"
    (ok []).Bench_cli.scale_out;
  List.iter
    (fun (preset, nodes) ->
      Alcotest.(check int) ("--scale " ^ preset) nodes
        (base [ "--scale"; preset ]).Sim.Config.nodes)
    [ ("100", 100); ("1k", 1000); ("5k", 5000) ];
  (* unknown preset: exit 2 with the registered choices *)
  let unknown = err [ "--scale"; "10k" ] in
  Alcotest.(check bool) "names the bad preset" true (contains unknown "10k");
  List.iter
    (fun n ->
      Alcotest.(check bool) ("lists choice " ^ n) true (contains unknown n))
    Sim.Config.scale_names;
  ignore (err [ "--scale" ]);
  (* composes with the other campaign axes *)
  let opts =
    ok
      [ "campaign"; "--scale"; "1k"; "--scenario"; "downtown"; "--labels";
        "farey"; "--scale-out"; "fresh_scale.json";
        "--check-scale-regression"; "BENCH_scale.json" ]
  in
  let b = opts.Bench_cli.base in
  Alcotest.(check int) "scale survives composition" 1000 b.Sim.Config.nodes;
  Alcotest.(check string) "scenario survives composition" "manhattan"
    (Wireless.Mobility.name b.Sim.Config.mobility);
  Alcotest.(check string) "labels survive composition" "farey"
    (Slr.Label_set.name b.Sim.Config.srp.Protocols.Srp.labels);
  Alcotest.(check string) "scale-out" "fresh_scale.json"
    opts.Bench_cli.scale_out;
  Alcotest.(check bool) "scale baseline" true
    (opts.Bench_cli.scale_baseline = Some "BENCH_scale.json");
  (* the neighbour sweep is not a knob: the naive scan is reachable only
     as the channel-grid-equiv oracle *)
  Alcotest.(check bool) "no --channel flag" true
    (contains (err [ "--channel"; "naive" ]) "--channel")

let test_unknown_inputs () =
  Alcotest.(check bool) "names the flag" true
    (contains (err [ "--frobnicate" ]) "--frobnicate");
  ignore (err [ "fig9" ]);
  ignore (err [ "table1"; "nonsense" ])

(* ------------------------------------------------------------------ *)
(* Both executables, end to end *)

let exe path = Filename.concat (Filename.dirname Sys.executable_name) path

let manet_sim = exe "../bin/manet_sim.exe"

let bench = exe "../bench/main.exe"

let status cmd args =
  Sys.command
    (Printf.sprintf "%s %s > %s 2> %s" cmd args Filename.null Filename.null)

(* one conv per kind of number, shared by both front ends: counts are
   positive, --nodes at least 2, durations and rates positive and finite,
   retries, pauses and timeouts non-negative; a malformed --sabotage spec
   fails at its conv too *)
let test_numeric_flags () =
  List.iter
    (fun (cmd, args) ->
      Alcotest.(check int) (cmd ^ " " ^ args) 2
        (status (if cmd = "bench" then bench else manet_sim ^ " " ^ cmd) args))
    [
      ("campaign", "--trials 0");
      ("campaign", "--trials=-2");
      ("bench", "--trials 0");
      ("run", "--flows 0");
      ("bench", "--flows 0");
      ("campaign", "-j 0");
      ("campaign", "--jobs=-1");
      ("fuzz", "-j 0");
      ("bench", "-j 0");
      ("fuzz", "--max-cases 0");
      ("run", "--nodes 0");
      ("run", "--nodes 1");
      ("check", "--nodes 1");
      ("bench", "--nodes 1");
      ("run", "--duration=-1");
      ("run", "--duration 0");
      ("run", "--duration nan");
      ("run", "--duration inf");
      ("bench", "--duration nan");
      ("bench", "--duration inf");
      ("run", "--rate 0");
      ("run", "--rate inf");
      ("check", "--interval nan");
      ("run", "--pause=-1");
      ("run", "--pause nan");
      ("campaign", "--retries=-1");
      ("bench", "--retries=-1");
      ("campaign", "--cell-timeout=-1");
      ("campaign", "--cell-timeout nan");
      ("bench", "--cell-timeout=-1");
      ("run", "--scale 10k");
      ("bench", "--scale 10k");
      ("run", "--jobs 2");
      ("campaign", "--sabotage crash:AODV:0");
      ("campaign", "--sabotage explode:AODV:0:0");
    ]

(* both front ends run one campaign driver: for the same flags the JSON
   matches member for member, bench's perf record aside *)
let test_front_ends_agree () =
  let flags = "--trials 1 --duration 10 --flows 3 --quiet" in
  let bench_json = Filename.temp_file "bench" ".json" in
  let sim_json = Filename.temp_file "manet_sim" ".json" in
  Alcotest.(check int) "bench campaign exits 0" 0
    (status bench (Printf.sprintf "campaign %s --out %s" flags bench_json));
  Alcotest.(check int) "manet_sim campaign exits 0" 0
    (status manet_sim
       (Printf.sprintf "campaign %s --nodes 100 --json %s" flags sim_json));
  let read path =
    let text = In_channel.with_open_text path In_channel.input_all in
    match Trace.Json.parse text with
    | Ok j -> j
    | Error e -> Alcotest.failf "%s: %s" path e
  in
  let without_perf = function
    | Trace.Json.Obj members ->
        Trace.Json.Obj (List.filter (fun (k, _) -> k <> "perf") members)
    | j -> j
  in
  Alcotest.(check string) "campaign JSON minus perf"
    (Trace.Json.to_string (read sim_json))
    (Trace.Json.to_string (without_perf (read bench_json)));
  Sys.remove bench_json;
  Sys.remove sim_json

(* the gate snapshots its baseline before the campaign writes --out: the
   same file as both must not compare the fresh run with itself *)
let test_gate_reads_baseline_first () =
  let path = Filename.temp_file "baseline" ".json" in
  let write contents =
    Out_channel.with_open_text path (fun oc -> output_string oc contents)
  in
  write "{\"perf\":{\"sim_seconds_per_sec_per_job\":1e12}}\n";
  let run out =
    status bench
      (Printf.sprintf
         "campaign --trials 1 --duration 5 --flows 2 --nodes 10 --quiet \
          --out %s --check-regression %s"
         out path)
  in
  Alcotest.(check int) "inflated baseline at its own --out fails the gate" 3
    (run path);
  (* the gates read simulated seconds per wall second; a baseline that
     records only the engine's events/s cannot be compared *)
  write "{\"perf\":{\"events_per_sec_per_job\":1.0}}\n";
  let fresh = Filename.temp_file "fresh" ".json" in
  Alcotest.(check int) "campaign baseline without the rate exits 2" 2
    (run fresh);
  Sys.remove fresh;
  write
    "{\"scales\":[{\"scale\":\"100\",\"sim_seconds_per_sec\":1.0},\
     {\"scale\":\"1k\",\"events_per_sec\":1.0}]}\n";
  Alcotest.(check int) "scale baseline with a preset lacking the rate exits 2"
    2
    (status bench
       (Printf.sprintf "scale --quiet --check-scale-regression %s" path));
  let missing =
    Filename.concat (Filename.get_temp_dir_name ()) "no-such-baseline.json"
  in
  Alcotest.(check int) "unreadable baseline exits 2" 2
    (status bench
       (Printf.sprintf "campaign --trials 1 --check-regression %s" missing));
  Sys.remove path

let () =
  Alcotest.run "bench"
    [
      ( "cli",
        [
          Alcotest.test_case "defaults" `Quick test_defaults;
          Alcotest.test_case "full flag set" `Quick test_valid_parse;
          Alcotest.test_case "supervision flags" `Quick test_supervision_flags;
          Alcotest.test_case "malformed numbers" `Quick test_malformed_numbers;
          Alcotest.test_case "missing argument" `Quick test_missing_argument;
          Alcotest.test_case "unknown flag/section" `Quick test_unknown_inputs;
          Alcotest.test_case "scenario flag" `Quick test_scenario_flag;
          Alcotest.test_case "scale and channel flags" `Quick test_scale_flag;
          Alcotest.test_case "numeric flags exit 2 in both front ends" `Quick
            test_numeric_flags;
        ] );
      ( "front ends",
        [
          Alcotest.test_case "bench JSON == manet_sim JSON" `Slow
            test_front_ends_agree;
          Alcotest.test_case "regression gate reads its baseline first" `Slow
            test_gate_reads_baseline_first;
        ] );
    ]
