module Frame = Wireless.Frame

let ring = [ 1; 3; 7; 16 ]

let node_traversal = 0.04

let pending_capacity = 64

let pending_ttl = 30.0

let relay_jitter = 0.01

let data_ttl = 64

let ip_overhead = 20

type t = {
  ctx : Routing_intf.ctx;
  seen : Seen_cache.t;
  pending : Pending.t;
  discovery : Discovery.t;
  forward : Frame.data -> size:int -> bool;
}

type 'p protocol = {
  forward : 'p -> Frame.data -> size:int -> bool;
  request : 'p -> dst:int -> ttl:int -> attempt:int -> unit;
  give_up : 'p -> dst:int -> unit;
  receive : 'p -> src:int -> Frame.t -> unit;
  unicast_failed : 'p -> frame:Frame.t -> dst:int -> unit;
  gauges : 'p -> Routing_intf.gauges;
}

let witness t ~origin ~id = Seen_cache.witness t.seen ~origin ~id

let relay (t : t) data ~size =
  if data.Frame.final_dst = t.ctx.Routing_intf.id then begin
    t.ctx.Routing_intf.deliver data;
    true
  end
  else t.forward data ~size

let park t data ~size =
  let dst = data.Frame.final_dst in
  Pending.push t.pending ~dst data ~size;
  Discovery.start t.discovery ~dst

let originate t data ~size = if not (relay t data ~size) then park t data ~size

let flush (t : t) ~dst =
  List.iter
    (fun (data, size) ->
      if not (t.forward data ~size) then
        t.ctx.Routing_intf.drop_data data ~reason:"no route after reply")
    (Pending.take_all t.pending ~dst)

let resolve t ~dst =
  Discovery.succeed t.discovery ~dst;
  flush t ~dst

let hop ctx ~next_hop data ~size =
  data.Frame.hops <- data.Frame.hops + 1;
  if data.Frame.hops > data_ttl then begin
    ctx.Routing_intf.drop_data data ~reason:"ttl exceeded";
    false
  end
  else begin
    Trace.pkt_forward ctx.Routing_intf.trace ~node:ctx.Routing_intf.id
      ~flow:data.Frame.flow ~seq:data.Frame.seq ~next:next_hop;
    ctx.Routing_intf.mac_send
      (Frame.make ~src:ctx.Routing_intf.id ~dst:(Frame.Unicast next_hop)
         ~size:(size + ip_overhead) ~payload:(Frame.Data data));
    true
  end

let send_control ctx ~kind ~dst ~size payload =
  ctx.Routing_intf.mac_send
    (Frame.with_kind
       (Frame.make ~src:ctx.Routing_intf.id ~dst ~size ~payload)
       kind)

let rebroadcast ctx ~span ~kind ~size payload =
  let delay = Des.Rng.float ctx.Routing_intf.rng relay_jitter in
  ignore
    (Des.Engine.schedule ~span ctx.Routing_intf.engine ~delay (fun () ->
         send_control ctx ~kind ~dst:Frame.Broadcast ~size payload))

let agent ~originate ~receive ~unicast_failed ~gauges =
  {
    Routing_intf.originate;
    receive;
    unicast_failed;
    unicast_ok = (fun ~frame:_ ~dst:_ -> ());
    gauges;
  }

let create ctx ~seen_ttl ~ttls make (p : _ protocol) =
  let engine = ctx.Routing_intf.engine in
  (* the one knot: the protocol state holds the core, while the core's
     discovery and flushes call back into that state *)
  let state = ref None in
  let self () = Option.get !state in
  let pending =
    Pending.create ~ttl:pending_ttl ~engine ~capacity:pending_capacity
      ~drop:(fun data ~size:_ ~reason ->
        ctx.Routing_intf.drop_data data ~reason)
  in
  let t =
    {
      ctx;
      seen = Seen_cache.create engine ~ttl:seen_ttl;
      pending;
      discovery =
        Discovery.create engine ~ttls ~node_traversal
          ~send:(fun ~dst ~ttl ~attempt ->
            p.request (self ()) ~dst ~ttl ~attempt)
          ~give_up:(fun ~dst ->
            p.give_up (self ()) ~dst;
            Pending.drop_all pending ~dst ~reason:"route discovery failed");
      forward = (fun data ~size -> p.forward (self ()) data ~size);
    }
  in
  let s = make t in
  state := Some s;
  let gauges () =
    { (p.gauges s) with Routing_intf.pending_packets = Pending.total pending }
  in
  ( s,
    agent ~originate:(originate t) ~receive:(p.receive s)
      ~unicast_failed:(p.unicast_failed s) ~gauges )
