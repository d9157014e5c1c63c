(** Random-waypoint mobility, generated off-line per trial exactly as the
    paper does ("off-line generated mobility scripts"), so every protocol in
    a trial sees identical node movement.

    A node starts at a uniform point, pauses for [pause], then repeatedly:
    picks a uniform destination, moves toward it in a straight line at a
    uniform speed in [(speed_min, speed_max)], and pauses for [pause]. A
    pause of 900 s over a 900 s run means no mobility. *)

type leg = {
  depart : float;  (** time movement starts *)
  arrive : float;  (** time movement ends; pause follows until next leg *)
  from_p : Vec2.t;
  to_p : Vec2.t;
}

type t

(** [generate ~terrain ~rng ~pause ~speed_min ~speed_max ~duration] builds
    one node's movement script covering at least [0, duration].

    Degenerate configurations stay well-defined: [speed_max = 0] yields a
    stationary script, and a leg that draws speed 0 (possible when
    [speed_min = 0]) freezes the node in place for the rest of the run —
    every emitted position is finite and inside the terrain whatever the
    (pause, speed, duration) combination.
    @raise Invalid_argument on negative speeds, [speed_min > speed_max] or
    a negative pause. *)
val generate :
  terrain:Terrain.t ->
  rng:Des.Rng.t ->
  pause:float ->
  speed_min:float ->
  speed_max:float ->
  duration:float ->
  t

(** A script that never moves — for static scenarios and tests. *)
val stationary : Vec2.t -> t

(** [of_legs ~initial legs] builds a script from explicit legs — the entry
    point for the non-waypoint mobility models ({!Mobility}), which lay out
    their own piecewise-linear trajectories. Legs must be in time order,
    non-overlapping, and continuous ([from_p] of each leg equals the
    previous leg's [to_p], the first one equals [initial]).
    @raise Invalid_argument otherwise. *)
val of_legs : initial:Vec2.t -> leg list -> t

(** Position at time [t >= 0]; constant after the script's last leg. *)
val position : t -> float -> Vec2.t

(** [piece t time] is [(leg, until)]: at every instant [s] strictly
    between [leg.depart] and [until], [position t s] is [leg.to_p] once
    [s >= leg.arrive] and otherwise [Vec2.lerp leg.from_p leg.to_p ~frac]
    with [frac = (s -. leg.depart) /. (leg.arrive -. leg.depart)] — the
    expression [position] evaluates. [leg] is the last leg departing at or
    before [time], so it covers the pause that follows it; before the
    first departure it is a stand-in leg at [initial] that departed and
    arrived at [neg_infinity]. Lets a caller cache one leg per node and
    interpolate itself until a query leaves it ({!Channel} does). *)
val piece : t -> float -> leg * float

(** The script's legs (for tests). *)
val legs : t -> leg list

(** Maximum speed occurring in the script (for tests). *)
val max_speed : t -> float
