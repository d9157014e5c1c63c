let span_check = Obs.span "event.loopcheck"

module Oracle = Slr.Oracle

exception Violation of string

type outcome = {
  result : Metrics.result;
  online : bool;
  sweeps : int;
  checks : int;
  edges : int;
}

let raise_error = function Ok () -> () | Error m -> raise (Violation m)

let run (config : Config.t) ~interval =
  if not (Float.is_finite interval && interval > 0.0) then
    invalid_arg
      (Printf.sprintf
         "Loopcheck.run: interval must be positive and finite, got %g"
         interval);
  if config.protocol <> Config.Srp then
    invalid_arg "Loopcheck.run: only SRP exposes label state";
  let nodes = config.nodes in
  (* The reference orderings. Faulted runs check each node's *stored*
     successor orderings (the labels the successors advertised at
     engagement): a rebooted successor regresses to the unassigned label,
     which would make current-label comparisons fire spuriously while the
     Ordering Criteria — and acyclicity, still verified globally — hold.
     Fault-free runs compare against the successors' *current* orderings,
     which also catches a successor that has fallen to unassigned. *)
  let online = not (Faults.Spec.is_none config.faults) in
  let srps : Protocols.Srp.t option array = Array.make nodes None in
  let srp i = Option.get srps.(i) in
  let node_up = ref (fun _ -> true) in
  let sweeps = ref 0 and checks = ref 0 and edges = ref 0 in
  (* the local invariant at [a]: its ordering strictly precedes every
     reference successor ordering for [dst] (Theorem 3's per-edge
     condition); returns the successor ids for the global pass *)
  let check a ~dst =
    let snap = Protocols.Srp.snapshot (srp a) ~dst in
    let snap =
      if online then snap
      else
        {
          snap with
          succs =
            List.map
              (fun (b, _) -> (b, Protocols.Srp.ordering (srp b) ~dst))
              snap.succs;
        }
    in
    incr checks;
    edges := !edges + List.length snap.succs;
    raise_error (Oracle.check_edges snap);
    List.map fst snap.succs
  in
  (* the global pass for one destination: every live node's local
     invariant plus acyclicity of the whole successor graph *)
  let sweep_dst dst =
    let successor_ids = Array.make nodes [] in
    for a = 0 to nodes - 1 do
      if a <> dst && !node_up a then successor_ids.(a) <- check a ~dst
    done;
    raise_error
      (Oracle.check_acyclic ~dst ~successors:(Array.get successor_ids) nodes)
  in
  (* online runs assert the local invariant the moment a route table
     mutates and amortize the global pass over the destinations touched
     since the last tick; periodic runs sweep every destination *)
  let dirty : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let due () =
    if online then begin
      let dsts =
        List.sort compare (Hashtbl.fold (fun d () acc -> d :: acc) dirty [])
      in
      Hashtbl.reset dirty;
      dsts
    end
    else List.init nodes Fun.id
  in
  try
    let result =
      Runner.run_custom config
        ~on_faults:(fun injector ->
          node_up := Faults.Injector.node_up injector)
        ~build:(fun i ctx ->
          let t, agent = Protocols.Srp.create_full ~config:config.srp ctx in
          srps.(i) <- Some t;
          if online then
            Protocols.Srp.on_route_change t (fun dst ->
                (* fires on crashed incarnations too (expiry timers survive
                   the swap); their state is frozen, so the check stays
                   true *)
                (match srps.(i) with
                | Some current when current == t -> ignore (check i ~dst)
                | _ -> ());
                Hashtbl.replace dirty dst ());
          agent)
        ~on_start:(fun engine ->
          let rec tick time =
            if time < config.duration then
              ignore
                (Des.Engine.schedule_at ~span:span_check engine ~time (fun () ->
                     incr sweeps;
                     List.iter sweep_dst (due ());
                     tick (time +. interval)))
          in
          tick interval)
    in
    Ok { result; online; sweeps = !sweeps; checks = !checks; edges = !edges }
  with Violation message -> Error message
