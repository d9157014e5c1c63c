(** Shared broadcast medium with unit-disk propagation and a receiver-side
    collision model.

    The channel is polymorphic in the PDU it carries (the MAC instantiates
    it with its own frame type). Reception of a PDU succeeds iff, for the
    whole airtime, the receiver is (a) within [range] of the sender at
    transmission start, (b) not transmitting itself, and (c) not hit by any
    overlapping transmission from another in-range sender — otherwise the
    PDU is corrupted and silently lost (a collision). Carrier sense reports
    busy when any in-range node is transmitting. Node positions come from
    the nodes' mobility scripts, evaluated at transmission start (frame
    airtimes are microseconds; node displacement within one frame is
    negligible).

    Delivery timing and order: a frame's intact receptions are delivered
    at the end of its airtime, in ascending receiver id, by one engine
    event per frame (none when nothing is in range). That is the order and
    the instant one event per receiver would give: all of a frame's
    receptions are scheduled by one {!transmit} call for the same instant,
    so nothing can run between them, and an event a delivery schedules
    with delay 0 runs after the frame's last delivery either way. A
    delivery callback that starts a transmission does not take the frame
    from the receivers after it: their receptions end at that instant, so
    the new frame cannot overlap them. *)

type 'a t

(** Enables the spatial-grid hot path. The neighbour scan in [transmit]
    sweeps only hash-grid buckets covering the query disc instead of all
    N nodes. The air is local too: each in-flight frame is
    filed in a bucket keyed by its sender's cell at transmission start, so
    [busy_until] and the per-receiver collision sweep of [transmit] read
    only the frames filed near the query rather than every frame on the
    air. [max_speed] must bound every node's speed and [epoch] is the
    maximum grid staleness before a lazy rebuild; the two together size
    the node-grid slack, and [max_speed] times the longest airtime seen
    plus the idle guard is the drift slack of the bucketed air (a sender
    keeps moving while its frame is on the air). Both slacks keep every
    gathered set a superset of the exact in-range set, so results are
    identical to the naive scan (enforced by the [channel-grid-equiv]
    property, which also compares every node's [busy_until]). *)
type grid = { max_speed : float; epoch : float }

(** [create engine ~scripts ~range ~cs_range] is a channel over one node
    per script; node [i] moves along [scripts.(i)] ({!Waypoint.stationary}
    for a node that never moves).

    Position cost: the channel caches each node's current leg (from
    {!Waypoint.piece}) in flat float arrays and interpolates within it with
    {!Waypoint.position}'s own float expression, so positions agree with
    the scripts bit for bit. The cache costs seven floats per node. A
    lookup allocates nothing; only a query that leaves the cached leg (a
    new leg, or an exact departure instant) reads the script, which the
    [channel.pos.refills] counter records with profiling on.

    @raise Invalid_argument when [cs_range < range]. [trace] records a
    [mac-collision] event at each receiver-side corruption. [grid] switches
    the O(N)-per-frame neighbour scan to the spatial hash grid; omitted,
    the channel scans every node (the reference behaviour). *)
val create :
  ?trace:Trace.t ->
  ?grid:grid ->
  Des.Engine.t ->
  scripts:Waypoint.t array ->
  range:float ->
  cs_range:float ->
  'a t

(** Install the upper-layer delivery callback for a node. *)
val set_receiver : 'a t -> int -> (src:int -> 'a -> unit) -> unit

(** [set_filter t f] installs a fault-injection veto: a frame that would be
    delivered intact is silently dropped when [f ~src ~dst] is [false],
    evaluated at delivery time. The filter does not affect carrier sense or
    collision accounting — a faulted link still radiates energy. *)
val set_filter : 'a t -> (src:int -> dst:int -> bool) -> unit

(** [transmit t ~src ~duration pdu] starts a transmission now; its
    receptions end, and intact ones are delivered, [duration] later.
    With profiling on, [channel.tx.candidates] counts the nodes the
    neighbour sweep touches and [channel.rx.receptions] the receptions
    it schedules. *)
val transmit : 'a t -> src:int -> duration:float -> 'a -> unit

(** Carrier sense at a node: [busy_until t i] is the absolute time when
    the medium around [i] — any node within [cs_range], or [i] itself —
    goes idle (including the post-frame guard); [now] when already idle, so
    the medium is busy iff the result exceeds [now]. Lets a MAC that finds
    the medium busy draw a fresh backoff and count it from that idle
    boundary. That is not DCF's frozen counter: nothing is paused or
    resumed, and a frame that appears during the new backoff is not seen
    until the backoff expires and senses again.

    Cost: the naive channel scans every frame on the air. The grid channel
    scans the frames filed in the cells within [cs_range] plus the drift
    slack of [i], so the work per query follows the local air, not N.
    With profiling on, the [channel.cs.queries] and [channel.cs.scanned]
    counters record queries and frames scanned ([channel.rx.scanned]
    counts the frames the collision sweep scans per receiver). *)
val busy_until : 'a t -> int -> float

(** Node [i]'s position now, as the channel computes it (from its leg
    cache); equal to {!Waypoint.position} on [i]'s script. *)
val position : 'a t -> int -> Vec2.t

(** Total receiver-side collision corruptions so far. *)
val collisions : 'a t -> int

(** Collisions suffered per node (as receiver). *)
val collisions_at : 'a t -> int -> int
