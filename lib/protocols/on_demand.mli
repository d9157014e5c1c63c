(** The on-demand core: every part of an SRP, AODV, LDR or DSR agent that is
    not its loop-freedom mechanism. It owns the duplicate-suppression cache,
    the pending buffer and the expanding-ring discovery driver; it
    originates, parks and flushes data packets, performs the data hop,
    builds control frames and the {!Routing_intf.agent} record. A protocol
    plugs in its route table through a {!protocol} record and keeps only
    its RREQ/RREP/RERR handlers. *)

type t

(** What a protocol plugs into the core. Every function receives the
    protocol's own state. *)
type 'p protocol = {
  forward : 'p -> Wireless.Frame.data -> size:int -> bool;
      (** send a data packet ([size] payload bytes) one hop toward its
          destination; [false] when the table holds no route (the packet is
          untouched), [true] once the packet is sent or dropped *)
  request : 'p -> dst:int -> ttl:int -> attempt:int -> unit;
      (** broadcast one route request for [dst] *)
  give_up : 'p -> dst:int -> unit;
      (** discovery for [dst] failed; the core then drops the packets
          buffered for it with ["route discovery failed"] *)
  receive : 'p -> src:int -> Wireless.Frame.t -> unit;
  unicast_failed : 'p -> frame:Wireless.Frame.t -> dst:int -> unit;
  gauges : 'p -> Routing_intf.gauges;
      (** the core fills in [pending_packets] *)
}

(** [create ctx ... make p] builds the core, passes it to [make] for the
    protocol state, and returns that state with the node's agent. The
    duplicate cache keeps entries [seen_ttl] seconds; the pending buffer
    holds [pending_capacity] packets per destination for at most
    [pending_ttl] seconds; discovery walks [ttls] (see {!Discovery}). *)
val create :
  Routing_intf.ctx ->
  seen_ttl:float ->
  pending_capacity:int ->
  pending_ttl:float ->
  ttls:int list ->
  node_traversal:float ->
  (t -> 'p) ->
  'p protocol ->
  'p * Routing_intf.agent

(** [witness t ~origin ~id] is [true] the first time a flooded request is
    seen (see {!Seen_cache.witness}). *)
val witness : t -> origin:int -> id:int -> bool

(** {2 Packet fates} *)

(** [relay t data ~size] delivers a packet addressed to this node, or
    forwards it; [false] when there is no route. *)
val relay : t -> Wireless.Frame.data -> size:int -> bool

(** [originate t data ~size] delivers to self, forwards, or parks the packet
    and starts discovery for its destination. *)
val originate : t -> Wireless.Frame.data -> size:int -> unit

(** [park t data ~size] buffers the packet and starts discovery for its
    destination (link-break repair). *)
val park : t -> Wireless.Frame.data -> size:int -> unit

(** [resolve t ~dst] ends the discovery for [dst] and {!flush}es. *)
val resolve : t -> dst:int -> unit

(** [flush t ~dst] forwards every packet buffered for [dst] in arrival
    order; one that still has no route is dropped with
    ["no route after reply"]. *)
val flush : t -> dst:int -> unit

(** {2 Frames} *)

(** [hop ctx ~data_ttl ~ip_overhead ~next_hop data ~size] counts one more
    hop and sends [data] to [next_hop] in a data frame of
    [size + ip_overhead] bytes. Past [data_ttl] hops the packet is dropped
    with ["ttl exceeded"] instead, and the result is [false]. *)
val hop :
  Routing_intf.ctx ->
  data_ttl:int ->
  ip_overhead:int ->
  next_hop:int ->
  Wireless.Frame.data ->
  size:int ->
  bool

(** [send_control ctx ~kind ~dst ~size payload] sends a control frame
    tagged [kind] ([rreq], [rrep], [rerr], [rack], [hello], [tc]). *)
val send_control :
  Routing_intf.ctx ->
  kind:string ->
  dst:Wireless.Frame.addr ->
  size:int ->
  Wireless.Frame.payload ->
  unit

(** [rebroadcast ctx ~span ~jitter ~kind ~size payload] relays a flooded
    control frame after a delay drawn uniformly below [jitter], on an
    engine timer attributed to [span]. *)
val rebroadcast :
  Routing_intf.ctx ->
  span:Obs.span ->
  jitter:float ->
  kind:string ->
  size:int ->
  Wireless.Frame.payload ->
  unit

(** The agent record, with no use for acknowledged unicasts. *)
val agent :
  originate:(Wireless.Frame.data -> size:int -> unit) ->
  receive:(src:int -> Wireless.Frame.t -> unit) ->
  unicast_failed:(frame:Wireless.Frame.t -> dst:int -> unit) ->
  gauges:(unit -> Routing_intf.gauges) ->
  Routing_intf.agent
