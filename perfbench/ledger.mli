(** Bench-side exclusive-time attribution at the agent boundary.

    The ledger keeps a stack of open layers; every clock reading charges
    the time since the previous reading to the layer on top, so nested
    calls (a protocol handler calling [ctx.mac_send]) split cleanly and
    the layers never double-count. Time spent with no layer open belongs
    to nobody here: the caller derives it as wall minus the ledger. *)

type layer = Receive | Originate | Link | Mac_enqueue

type t

val create : unit -> t

(** Exclusive seconds charged to [layer]. *)
val seconds : t -> layer -> float

(** Number of times [layer] was entered. *)
val calls : t -> layer -> int

(** [instrument t ~fates ~make] is a [~build] argument for
    {!Sim.Runner.run_custom}: it wraps the context's [mac_send] sink as
    {!Mac_enqueue}, builds the agent with [make], and wraps its handlers
    as {!Receive}, {!Originate} and {!Link} ([unicast_ok] plus
    [unicast_failed]). Originated, delivered and dropped packets are
    recorded in [fates]. Behaviour is unchanged; time is only read. *)
val instrument :
  t ->
  fates:Fates.t ->
  make:(Protocols.Routing_intf.ctx -> Protocols.Routing_intf.agent) ->
  int ->
  Protocols.Routing_intf.ctx ->
  Protocols.Routing_intf.agent
