(** Spatial hash grid over mobile node positions.

    The grid buckets every node by its position at the last rebuild and
    answers radius queries with a {e superset} of the nodes currently
    within the radius: because nodes move at most [max_speed] and the grid
    is rebuilt whenever a query arrives more than [epoch] seconds after the
    last build, a query inflates its radius by [max_speed * (now -
    built_at)] and is guaranteed to cover every node whose {e current}
    distance to the centre is within the requested radius. Callers re-check
    exact distances; the grid only prunes the candidate set, so swapping it
    in for a full scan cannot change observable behaviour (the
    [channel-grid-equiv] property and the wireless unit tests enforce
    exactly this).

    Rebuilds are lazy: nothing happens until a query (or an explicit
    {!rebuild}) needs fresh buckets. *)

type t

(** [create ~nodes ~position ~cell ~max_speed ~epoch]. [cell] is the
    bucket side length (a radius-sized cell keeps queries to a 3x3
    neighbourhood); [max_speed] bounds any node's speed; [epoch] is the
    maximum bucket staleness before a query forces a rebuild.
    @raise Invalid_argument when [cell <= 0], [epoch <= 0] or
    [max_speed < 0]. *)
val create :
  nodes:int ->
  position:(int -> float -> Vec2.t) ->
  cell:float ->
  max_speed:float ->
  epoch:float ->
  t

(** Force a rebuild of every bucket from positions at [now] (queries do
    this lazily; exposed for benchmarks and tests). *)
val rebuild : t -> now:float -> unit

(** [iter t ~now ~center ~radius f] calls [f j] for every node [j] in the
    candidate buckets, in ascending node order — a superset of [{ j |
    dist(center, position j now) <= radius }]. The querying node itself is
    included when it falls in range; callers skip it.

    Candidates are the nodes of the buckets covering the disc, less those
    whose bucketed position is already outside the inflated disc.

    Cost: a query whose window covers the whole occupied area calls [f] on
    every node, O(nodes). Any other query gathers its [m] candidates as
    one ascending run per non-empty bucket and orders them in O(m log m):
    a dense query ([m >= nodes / 8]) by a membership sweep over every id,
    which is then O(m), and any other by merging the [k] runs pairwise,
    O(m log k). So a query costs what its neighbourhood holds, not
    [nodes]. *)
val iter : t -> now:float -> center:Vec2.t -> radius:float -> (int -> unit) -> unit
