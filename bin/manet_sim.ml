(* manet_sim — run single simulations, campaigns, or the SRP loop-freedom
   verifier from the command line. *)

open Cmdliner

let protocol_conv =
  Flags.name_conv Sim.Config.protocol_of_name Sim.Config.protocol_name
    ~error:(Printf.sprintf "unknown protocol %S")

let run_cmd =
  let doc = "Run one simulation and print the paper's metrics." in
  let term =
    let open Term.Syntax in
    let+ world = Flags.world_term
    and+ protocol =
      Arg.(
        value
        & opt protocol_conv Sim.Config.Srp
        & info [ "protocol"; "p" ] ~doc:"Routing protocol.")
    and+ trace_file =
      Arg.(
        value
        & opt (some string) None
        & info [ "trace-file" ]
            ~doc:
              "Stream the structured event trace (packet lifecycle, routing \
               control, MAC, faults) to $(docv) as JSONL, one record per \
               line. Same seed, same bytes.")
    and+ sample_every =
      Arg.(
        value & opt float 0.0
        & info [ "sample-every" ]
            ~doc:
              "With --trace-file: also sample whole-network gauges (route \
               tables, pending buffers, MAC queues, engine liveness) every \
               $(docv) simulated seconds.")
    and+ json_file =
      Arg.(
        value
        & opt (some string) None
        & info [ "json" ]
            ~doc:"Write the run's config and metrics to $(docv) as JSON.")
    and+ prof, prof_out = Flags.prof_term
    in
    match world with
    | `Replay ->
        (* replay the van Glabbeek attack for this protocol only: the
           verdict is the output; exit 1 when the monitor saw a loop *)
        let v = Check.Adversarial.run ~protocol in
        Format.printf "scenario %s: %s@.%a@." Flags.vg_forged_rrep
          Check.Adversarial.summary Check.Adversarial.pp_verdict v;
        if Check.Adversarial.loop_detected v then exit 1
    | `Workload config ->
    if prof then Obs.enable ();
    let config = { config with Sim.Config.protocol } in
    let trace_oc = Option.map open_out trace_file in
    let trace =
      match trace_oc with
      | Some oc -> Trace.jsonl ~clock:(fun () -> 0.0) oc
      | None -> Trace.null
    in
    let started = Unix.gettimeofday () in
    let result =
      (* close the trace channel even when the run aborts, so a crashed
         run still leaves a valid JSONL prefix on disk *)
      Fun.protect
        ~finally:(fun () -> Option.iter close_out trace_oc)
        (fun () -> Sim.Runner.run ~trace ~sample_every config)
    in
    let wall = Unix.gettimeofday () -. started in
    Format.printf "%a" Sim.Report.run result;
    (* engine stats go to stderr: stdout stays byte-identical across
       traced/untraced runs of the same seed *)
    Format.eprintf "%s@."
      (Obs.Export.engine_line ~events:result.Sim.Metrics.engine_events ~wall);
    let envelope =
      match json_file with
      | Some _ -> Some (Sim.Report.run_json config result)
      | None -> None
    in
    let envelope =
      if prof then Flags.emit_profile (Obs.snapshot ()) ~prof_out envelope
      else envelope
    in
    Option.iter
      (fun path -> Flags.write_json path (Option.get envelope))
      json_file
  in
  Cmd.v (Cmd.info "run" ~doc) term

let campaign_cmd =
  let doc =
    "Run the full campaign (protocols x pause times x trials) and print \
     Table I and Figures 3-7."
  in
  let term =
    let open Term.Syntax in
    let+ world = Flags.world_term
    and+ c = Flags.campaign_term ~trials:3
    and+ json_file =
      Arg.(
        value
        & opt (some string) None
        & info [ "json" ]
            ~doc:
              "Write the campaign (per-cell metric summaries over the \
               protocol and pause axes) to $(docv) as JSON.")
    and+ sabotage = Flags.sabotage_term in
    match world with
    | `Replay ->
        (* adversarial campaign: replay the attack against every protocol
           and print one verdict per line. The suite fails (exit 1) only
           when SRP — provably loop-free — is caught looping. *)
        Format.printf "scenario %s: %s@." Flags.vg_forged_rrep
          Check.Adversarial.summary;
        let verdicts = Check.Adversarial.run_all () in
        List.iter
          (fun v -> Format.printf "%a@." Check.Adversarial.pp_verdict v)
          verdicts;
        let srp_looped =
          List.exists
            (fun v ->
              v.Check.Adversarial.protocol = Sim.Config.Srp
              && Check.Adversarial.loop_detected v)
            verdicts
        in
        if srp_looped then exit 1
    | `Workload base ->
        ignore (Flags.campaign ?sabotage ~json:json_file ~base c)
  in
  Cmd.v (Cmd.info "campaign" ~doc) term

let check_cmd =
  let doc =
    "Run SRP under the loop-freedom verifier (Theorem 3): every successor \
     edge must descend in label order and every successor graph must stay \
     acyclic."
  in
  let term =
    let open Term.Syntax in
    let+ config = Flags.workload_term
    and+ interval =
      Arg.(
        value & opt Flags.positive 1.0
        & info [ "interval" ]
            ~doc:"Seconds between invariant sweeps (positive, finite).")
    in
    match
      Sim.Loopcheck.run { config with protocol = Sim.Config.Srp } ~interval
    with
    | Ok o ->
        let mode, count, counted =
          if o.online then ("online monitor", o.checks, "checks")
          else ("periodic sweeps", o.sweeps, "sweeps")
        in
        Format.printf
          "loop-freedom verified (%s): %d %s, %d successor edges checked@.%a"
          mode count counted o.edges Sim.Report.run o.result
    | Error message ->
        Format.printf "VIOLATION: %s@." message;
        exit 1
  in
  Cmd.v (Cmd.info "check" ~doc) term

(* --------------------------------------------------------------------- *)
(* trace: flight recorder and JSON validator over emitted files           *)

let read_lines path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | line -> loop (if String.trim line = "" then acc else line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  loop []

let parse_follow s =
  match String.index_opt s ':' with
  | None -> (
      match int_of_string_opt s with
      | Some flow -> Ok (flow, None)
      | None -> Error (`Msg (Printf.sprintf "bad flow spec %S" s)))
  | Some i -> (
      let flow = String.sub s 0 i in
      let seq = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt flow, int_of_string_opt seq) with
      | Some flow, Some seq -> Ok (flow, Some seq)
      | _ -> Error (`Msg (Printf.sprintf "bad flow spec %S" s)))

let follow_conv =
  Arg.conv
    ( parse_follow,
      fun ppf (flow, seq) ->
        match seq with
        | None -> Format.fprintf ppf "%d" flow
        | Some s -> Format.fprintf ppf "%d:%d" flow s )

(* A record is on the packet's flight path when its flow (and, if given,
   seq) members match. Gauge/fault/MAC records carry no flow and never
   match. *)
let record_matches ~flow ~seq json =
  let module J = Trace.Json in
  let int_member name =
    match J.member name json with Some (J.Int i) -> Some i | _ -> None
  in
  int_member "flow" = Some flow
  && match seq with None -> true | Some s -> int_member "seq" = Some s

let pp_trace_record ppf json =
  let module J = Trace.Json in
  let num = function
    | J.Int i -> string_of_int i
    | J.Float f -> J.float_str f
    | J.String s -> s
    | j -> J.to_string j
  in
  let t = match J.member "t" json with Some j -> num j | None -> "?" in
  let node = match J.member "node" json with Some j -> num j | None -> "?" in
  let ev = match J.member "ev" json with Some j -> num j | None -> "?" in
  Format.fprintf ppf "%10s  node %4s  %-13s" t node ev;
  (match json with
  | J.Obj members ->
      List.iter
        (fun (k, v) ->
          if k <> "t" && k <> "node" && k <> "ev" then
            Format.fprintf ppf " %s=%s" k (num v))
        members
  | _ -> ());
  Format.fprintf ppf "@."

let trace_cmd =
  let doc =
    "Inspect emitted telemetry: replay one packet's hop-by-hop path from a \
     JSONL trace (--follow), or validate that a JSON/JSONL file parses and \
     holds required keys (--validate, for CI)."
  in
  let term =
    let open Term.Syntax in
    let+ file =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"FILE" ~doc:"Trace (JSONL) or JSON file to read.")
    and+ follow =
      Arg.(
        value
        & opt (some follow_conv) None
        & info [ "follow" ] ~docv:"FLOW[:SEQ]"
            ~doc:
              "Flight recorder: print every record of the given flow (and \
               packet, when :SEQ is given) in emission order — originate, \
               MAC enqueue/tx/rx, forwards, and the final deliver or drop.")
    and+ validate =
      Arg.(
        value & flag
        & info [ "validate" ]
            ~doc:
              "Parse $(i,FILE) (JSONL when it has multiple lines, plain \
               JSON otherwise) and fail loudly on any malformed record.")
    and+ require =
      Arg.(
        value & opt_all string []
        & info [ "require" ] ~docv:"PATH"
            ~doc:
              "With --validate: dot-separated member path that must be \
               present (e.g. result.delivery_ratio). Repeatable.")
    in
    let lines = read_lines file in
    let parsed =
      List.mapi
        (fun i line ->
          match Trace.Json.parse line with
          | Ok json -> (i + 1, json)
          | Error msg ->
              Format.eprintf "%s:%d: %s@." file (i + 1) msg;
              exit 1)
        lines
    in
    match follow with
    | Some (flow, seq) ->
        let hits =
          List.filter (fun (_, j) -> record_matches ~flow ~seq j) parsed
        in
        List.iter (fun (_, j) -> pp_trace_record Format.std_formatter j) hits;
        Format.printf "%d records@." (List.length hits)
    | None ->
        if not validate then
          Format.printf "%d records parsed (use --follow or --validate)@."
            (List.length parsed)
        else begin
          List.iter
            (fun path ->
              let found =
                List.for_all
                  (fun (_, j) -> Trace.Json.path path j <> None)
                  parsed
              in
              if parsed = [] || not found then begin
                Format.eprintf "%s: required path %S missing@." file path;
                exit 1
              end)
            require;
          Format.printf "%s: OK (%d records)@." file (List.length parsed)
        end
  in
  Cmd.v (Cmd.info "trace" ~doc) term

(* --------------------------------------------------------------------- *)
(* fuzz: the property-based suite over label arithmetic, the abstract SLR
   executor, and whole simulations against the reference model            *)

let fuzz_cmd =
  let doc =
    "Run the property-based test suite: randomized label arithmetic, \
     Algorithm 1, abstract SLR executions, and full SRP simulations checked \
     against a reference model of the paper's ordering semantics. Every \
     failure is shrunk to a minimal counterexample and printed with the \
     exact invocation that replays it."
  in
  let term =
    let open Term.Syntax in
    let+ max_cases =
      Arg.(
        value & opt Flags.count 100
        & info [ "max-cases" ]
            ~doc:
              "Case budget per property; expensive properties (whole \
               simulations) run $(docv) divided by their declared cost.")
    and+ seed =
      Arg.(
        value & opt int 42
        & info [ "seed" ] ~doc:"Root seed for the whole suite.")
    and+ prop =
      Arg.(
        value
        & opt (some string) None
        & info [ "prop" ] ~docv:"NAME"
            ~doc:"Run only the named property (see --list).")
    and+ replay =
      Arg.(
        value
        & opt (some int) None
        & info [ "replay" ] ~docv:"CASE"
            ~doc:
              "Re-run exactly one case index, as printed by a failure \
               report. Requires --prop and the report's --seed.")
    and+ list_props =
      Arg.(
        value & flag
        & info [ "list" ] ~doc:"List the property catalogue and exit.")
    and+ jobs =
      Flags.jobs_term
        ~doc:
          "Run catalogue properties on $(docv) worker domains. Every case \
           draws from its own prop#case substream, so outcomes and reports \
           are identical to -j 1."
    and+ labels =
      Arg.(
        value
        & opt (some Flags.labels_conv) None
        & info [ "labels" ] ~docv:"SET"
            ~doc:
              "Pin every simulation-level property to this label-set \
               instance (mediant|farey|bigfrac|lex) instead of the default \
               catalogue, which fuzzes the mediant set plus one \
               model-agreement cell per other instance.")
    and+ scenario = Flags.workload_scenario_term
    in
    let fuzz_catalogue = Check.Fuzz.catalogue ?labels ?scenario () in
    if list_props then
      List.iter
        (fun (Check.Runner.Packed c) ->
          Printf.printf "%-34s cost %d\n" c.Check.Runner.name
            c.Check.Runner.cost)
        fuzz_catalogue
    else begin
      (match (replay, prop) with
      | Some _, None ->
          prerr_endline "fuzz: --replay requires --prop";
          exit 2
      | _ -> ());
      (match prop with
      | Some name
        when not
               (List.exists
                  (fun (Check.Runner.Packed c) -> c.Check.Runner.name = name)
                  fuzz_catalogue) ->
          Printf.eprintf "fuzz: unknown property %S (see --list)\n" name;
          exit 2
      | _ -> ());
      let map f cells = Array.to_list (Sim.Pool.map ~jobs f (Array.of_list cells)) in
      let outcomes =
        Check.Runner.run_suite ~map ~seed ~max_cases ?only:prop ?start:replay
          fuzz_catalogue
      in
      List.iter
        (fun (name, outcome) ->
          print_endline (Check.Runner.report outcome ~name))
        outcomes;
      let failed =
        List.exists
          (fun (_, o) ->
            match o with Check.Runner.Fail _ -> true | Check.Runner.Pass _ -> false)
          outcomes
      in
      if failed then exit 1
    end
  in
  Cmd.v (Cmd.info "fuzz" ~doc) term

let labels_cmd =
  let doc =
    "Show SLR label arithmetic: mediants, splits, the 45-split bound, and \
     the registered label-set instances."
  in
  let show () =
    let module F = Slr.Fraction in
    Format.printf "32-bit proper fractions: bound = %d@." F.bound;
    Format.printf "worst-case mediant splits before overflow: %d@."
      (F.max_splits ());
    let a = F.make ~num:1 ~den:2 and b = F.make ~num:2 ~den:3 in
    (match F.mediant a b with
    | Some m -> Format.printf "mediant(%a, %a) = %a@." F.pp a F.pp b F.pp m
    | None -> ());
    (match Slr.Farey.simplest_between ~lo:a ~hi:b with
    | Some s ->
        Format.printf "simplest fraction in (%a, %a) = %a (Farey)@." F.pp a
          F.pp b F.pp s
    | None -> ());
    (* repeated splits toward the destination, per registered instance:
       how fast each label set grows in width *)
    Format.printf "@.registered label sets (--labels):@.";
    List.iter
      (fun id ->
        let (module L : Slr.Label.S) = Slr.Label_set.instance id in
        let rec walk lo hi k acc =
          if k = 0 then List.rev acc
          else
            match L.split ~lo ~hi with
            | None -> List.rev acc
            | Some m -> walk lo m (k - 1) (m :: acc)
        in
        let splits = walk L.zero L.one 6 [] in
        Format.printf "  %-8s %s@." (Slr.Label_set.name id)
          (String.concat " > " (List.map L.encode splits));
        match List.rev splits with
        | [] -> ()
        | last :: _ ->
            let widest =
              List.fold_left
                (fun acc l -> Stdlib.max acc (L.width_bits l))
                0 splits
            in
            Format.printf "           6 splits toward %s: max width %d bits@."
              (L.encode last) widest)
      Slr.Label_set.all
  in
  let term = Term.(const show $ const ()) in
  Cmd.v (Cmd.info "labels" ~doc) term

let () =
  let doc =
    "Reproduction of 'Loop-Free Routing Using a Dense Label Set in Wireless \
     Networks' (ICDCS 2004)."
  in
  let info = Cmd.info "manet_sim" ~doc ~version:"1.0.0" in
  Flags.eval
    (Cmd.group info
       [ run_cmd; campaign_cmd; check_cmd; fuzz_cmd; trace_cmd; labels_cmd ])
