(** Packet fates seen at the agent boundary of one run, for the output
    check's conservation law.

    The metrics count unique packets for delivery but raw events for
    routing drops: a lost MAC ack can make a node forward a copy of a
    packet that was already delivered, and that copy may later be dropped
    (see the metrics-conservation law in [Sim.Fuzz]). So the law is
    stated over unique packets: delivered plus dropped-and-never-delivered
    cannot exceed sent, and the run's counters must agree with what the
    sinks saw. *)

type t

val create : unit -> t

(** Record an originated data packet. *)
val originate : t -> Wireless.Frame.data -> unit

(** Record a delivery through [ctx.deliver]. *)
val deliver : t -> Wireless.Frame.data -> unit

(** Record a routing-layer drop through [ctx.drop_data]. *)
val drop : t -> Wireless.Frame.data -> unit

(** Violations of the law for the run's [result]; empty when it holds. *)
val problems : t -> Sim.Metrics.result -> string list
