(** Graph checks over per-destination successor graphs, nodes being
    integers in [0, n): acyclicity by depth-first search with a cycle
    witness (the graph half of Theorem 3, which {!Oracle} formats), and
    reachability. *)

(** [acyclic ~successors n] is [Ok ()] when the directed graph has no cycle,
    or [Error cycle] with a witness cycle (first node repeated at the end). *)
val acyclic : successors:(int -> int list) -> int -> (unit, int list) result

(** [reaches ~successors ~src ~dst n] — can [src] reach [dst] following
    successor edges? *)
val reaches : successors:(int -> int list) -> src:int -> dst:int -> int -> bool
