(* Conference-room scenario (the paper's other motivating example: "laptops
   or PDAs with wireless interfaces in a meeting room").

   Twenty-five stationary devices in a 300 x 200 m hall — every node hears
   almost every other — exchanging many short flows. The interesting SRP
   behaviour here is label stability: routes are one or two hops, labels are
   assigned once, and the destination-controlled sequence number never
   moves. We also run the loop-freedom verifier throughout.

   Run with: dune exec examples/conference_room.exe *)

let () =
  let config =
    {
      Sim.Config.reproduction with
      protocol = Sim.Config.Srp;
      nodes = 25;
      terrain = Wireless.Terrain.make ~width:300.0 ~height:200.0;
      pause = 900.0;
      duration = 90.0;
      flows = 8;
      flow_mean_duration = 15.0;
      seed = 11;
    }
  in
  Format.printf
    "Conference room: 25 static nodes, 300x200 m, 8 churned flows, 90 s@.";
  match Sim.Loopcheck.run config ~interval:1.0 with
  | Ok { result; sweeps; edges; _ } ->
      Format.printf "%a@." Sim.Metrics.pp_result result;
      Format.printf
        "loop-freedom invariant held through %d sweeps (%d successor edges \
         checked) — Theorem 3 in action.@."
        sweeps edges;
      Format.printf
        "max feasible-distance denominator: %d (32-bit bound %d; no reset \
         needed).@."
        result.Sim.Metrics.max_denominator Slr.Fraction.bound
  | Error violation -> Format.printf "VIOLATION: %s@." violation
