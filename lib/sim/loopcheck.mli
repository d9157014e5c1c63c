(** Runtime verification of SRP's loop-freedom (Theorem 3) against
    {!Slr.Oracle}.

    [run config ~interval] executes a simulation with white-box SRP agents
    and asserts, for every destination, that (a) every successor edge
    satisfies the Ordering Criteria — [O_A ⊑ O_B] for each successor B of
    A — and (b) the successor graph is acyclic. [config.faults] picks the
    mode:

    - fault-free runs sweep every destination every [interval] simulated
      seconds, comparing against the successors' {e current} orderings (a
      successor fallen to the unassigned label is caught);
    - faulted runs assert (a) at every route-table mutation
      ({!Protocols.Srp.on_route_change}) against the {e stored} successor
      orderings — the labels advertised when the edges were engaged — and
      every [interval] seconds sweep the destinations touched since the
      last tick. Current orderings would fire spuriously there: a rebooted
      successor's label regresses to unassigned while the routing
      invariant holds. Crashed nodes are skipped via
      {!Faults.Injector.node_up}.

    Returns the run's metrics and counters, or [Error description] on the
    first violation.
    @raise Invalid_argument when [interval] is not positive and finite, or
    the protocol is not SRP. *)

type outcome = {
  result : Metrics.result;
  online : bool;  (** the per-mutation monitor ran (faulted run) *)
  sweeps : int;  (** interval ticks, each a global pass *)
  checks : int;  (** per-node invariant evaluations *)
  edges : int;  (** successor edges inspected *)
}

val run : Config.t -> interval:float -> (outcome, string) result
