(** The on-demand core: every part of an SRP, AODV, LDR or DSR agent that is
    not its loop-freedom mechanism. It owns the duplicate-suppression cache,
    the pending buffer and the expanding-ring discovery driver; it
    originates, parks and flushes data packets, performs the data hop,
    builds control frames and the {!Routing_intf.agent} record. A protocol
    plugs in its route table through a {!protocol} record and keeps only
    its RREQ/RREP/RERR handlers.

    The core also owns the policy the paper's comparison holds equal across
    protocols (§V): the expanding ring {!ring} with a node-traversal time
    of 0.04 s per hop, a pending buffer of 64 packets per destination kept
    at most 30 s, a relay jitter below 0.01 s on every rebroadcast,
    {!ip_overhead} header bytes on every data payload, and a drop past
    {!data_ttl} hops. A protocol's config record keeps only its own wire
    sizes and timers. *)

type t

(** The expanding-ring TTL schedule [[1; 3; 7; 16]]. *)
val ring : int list

(** Hops a data packet may take; the next one drops it with
    ["ttl exceeded"]. *)
val data_ttl : int

(** Bytes of IP header added to every data payload on the air. *)
val ip_overhead : int

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

(** [create ctx ~seen_ttl ~ttls make p] builds the core, passes it to
    [make] for the protocol state, and returns that state with the node's
    agent. The duplicate cache keeps entries [seen_ttl] seconds; discovery
    walks [ttls] (see {!Discovery}), {!ring} for all but DSR. *)
val create :
  Routing_intf.ctx ->
  seen_ttl:float ->
  ttls:int list ->
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

(** [hop ctx ~next_hop data ~size] counts one more hop and sends [data] to
    [next_hop] in a data frame of [size + ip_overhead] bytes. Past
    {!data_ttl} hops the packet is dropped with ["ttl exceeded"] instead,
    and the result is [false]. *)
val hop :
  Routing_intf.ctx ->
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

(** [rebroadcast ctx ~span ~kind ~size payload] relays a flooded control
    frame after a delay drawn uniformly below the relay jitter, on an
    engine timer attributed to [span]. *)
val rebroadcast :
  Routing_intf.ctx ->
  span:Obs.span ->
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
