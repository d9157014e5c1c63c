(** Expanding-ring route-discovery driver of the on-demand agents (SRP,
    AODV, LDR, DSR; owned by {!On_demand}): tracks the active/passive state
    per destination, schedules retry timeouts of
    [2 * ttl * node_traversal_time] (Procedure 1 of the paper, mirroring
    AODV), walks the TTL schedule with binary exponential backoff between
    attempts, and reports failure after the last attempt. Failed
    destinations enter an exponentially growing hold-off so a partitioned
    destination cannot trigger request storms. *)

type t

(** After the expanding-ring schedule is exhausted, one more attempt is
    made at the largest TTL (RFC 3561's RREQ_RETRIES); the inter-attempt
    timeout keeps doubling through it.
    @raise Invalid_argument on an empty TTL schedule. *)
val create :
  Des.Engine.t ->
  ttls:int list ->
  node_traversal:float ->
  send:(dst:int -> ttl:int -> attempt:int -> unit) ->
  give_up:(dst:int -> unit) ->
  t

(** [start t ~dst] begins discovery unless one is already active for
    [dst]. Issues the first request synchronously. *)
val start : t -> dst:int -> unit

(** Is a discovery currently active for [dst]? *)
val active : t -> dst:int -> bool

(** [succeed t ~dst] stops the discovery (a route was found). *)
val succeed : t -> dst:int -> unit
