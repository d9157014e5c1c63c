(** Simulator-level fuzz properties: full {!Sim.Runner} campaigns on
    randomly generated scenarios, checked against the reference model and
    against the packet-conservation ledger. These are the expensive cells
    of the catalogue ([cost] 10): the fuzz CLI and the fixed-seed suite
    scale their case budget down accordingly. *)

(** The whole fuzz catalogue: {!Props.all} followed by the simulator-level
    cells. With neither pin these are the three core cells on the default
    mediant instance, their two kilonode twins, and one
    [srp-sim-model-<set>] cell per other label-set instance (the identical
    Ordering-Criteria oracle must hold whatever dense set mints the
    labels). With [labels] and/or [scenario] they are just the three core
    cells, every generated case pinned to that label-set instance and to
    the scenario's mobility and traffic models; cell names are unchanged,
    so [--prop]/[--replay] are stable across pins. Backs
    [manet_sim fuzz --labels/--scenario]. *)
val catalogue :
  ?labels:Slr.Label_set.id ->
  ?scenario:Sim.Scenario.t ->
  unit ->
  Runner.packed list
