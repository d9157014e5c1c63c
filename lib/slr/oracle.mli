(** The loop-freedom oracle: the one statement of SLR's invariant that every
    checker in the repo runs (paper Definition 1, Theorems 1–4).

    A {!snapshot} is one node's view of one destination: its current
    ordering plus the orderings of its engaged successors. Two stateless
    checks state Theorem 3:

    - {!check_edges}, the {b Ordering Criteria} (Definition 5): the node's
      ordering strictly precedes every successor ordering — [O_A ⊑ O_B]
      for each successor B;
    - {!check_acyclic}: the per-destination successor graph has no cycle.

    The stateful {!t} mirrors a running network from snapshots alone and
    adds {b label monotonicity} (Eq. 3): between two finite orderings of
    the same node the sequence number never decreases, and at an unchanged
    sequence number the label never grows. Transitions through the
    unassigned label (route expiry, fresh state) are legal in either
    direction — DELETE_PERIOD, not the order structure, guards those.

    The oracle never reads protocol state itself, so a bookkeeping bug in
    a protocol cannot hide from it. Which successor orderings a caller
    snapshots — those stored at engagement or the successors' current
    ones — is the caller's choice. *)

type snapshot = {
  node : int;
  dst : int;
  order : Ordering.t;  (** the node's current ordering for [dst] *)
  succs : (int * Ordering.t) list;  (** successor ids with their orderings *)
}

(** Ordering Criteria over one snapshot; [Error] names the first successor
    that is out of order. *)
val check_edges : snapshot -> (unit, string) result

(** [check_acyclic ~dst ~successors n] checks that the successor graph
    toward [dst] over nodes [0, n) has no cycle; [Error] prints the witness
    cycle, which starts and ends at the same node. *)
val check_acyclic :
  dst:int -> successors:(int -> int list) -> int -> (unit, string) result

type t

val create : nodes:int -> t

(** Check one mutation against the model and record it: Ordering Criteria,
    Eq. 3 against the node's previous report, then acyclicity of the
    destination's graph with the new edge set. A rejected snapshot is
    recorded too, so replays keep reporting from the first violation on.
    @raise Invalid_argument when the node or a successor is not in
    [0, nodes). *)
val observe : t -> snapshot -> (unit, string) result

(** Total snapshots checked. *)
val observations : t -> int
