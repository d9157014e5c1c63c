let span_timer = Obs.span "proto.olsr.timer"

module Frame = Wireless.Frame

type config = {
  hello_interval : float;
  tc_interval : float;
  neighbor_hold : float;
  topology_hold : float;
  jitter : float;
  hello_base_size : int;
  tc_base_size : int;
  per_entry_bytes : int;
}

let default_config =
  {
    hello_interval = 2.0;
    tc_interval = 5.0;
    neighbor_hold = 6.0;
    topology_hold = 15.0;
    jitter = 0.25;
    hello_base_size = 16;
    tc_base_size = 16;
    per_entry_bytes = 4;
  }

type hello = { h_origin : int; h_links : (int * bool * bool) list }

type tc = { t_origin : int; t_ansn : int; t_advertised : int list }

type Frame.payload += Hello of hello | Tc of tc

type neighbor = {
  mutable sym : bool;
  mutable expiry : float;
  mutable two_hop : int list;  (** that neighbour's symmetric neighbours *)
  mutable selected_us : bool;  (** we are in its MPR set *)
}

type topo_edge = { mutable t_expiry : float }

type t = {
  ctx : Routing_intf.ctx;
  config : config;
  neighbors : (int, neighbor) Hashtbl.t;
  (* (advertising originator = last hop, destination) -> expiry *)
  topology : (int * int, topo_edge) Hashtbl.t;
  seen_tc : Seen_cache.t;
  mutable mpr_set : int list;
  mutable ansn : int;
  mutable route_dirty : bool;
  mutable routes : (int, int) Hashtbl.t;  (** dst -> next hop *)
}

let now t = Des.Engine.now t.ctx.Routing_intf.engine

let sym_neighbors t =
  let time = now t in
  Hashtbl.fold
    (fun id n acc -> if n.sym && n.expiry > time then id :: acc else acc)
    t.neighbors []

let mprs t = t.mpr_set

(* Greedy MPR selection: cover every strict 2-hop neighbour with the fewest
   1-hop symmetric neighbours, preferring the ones covering the most. *)
let select_mprs t =
  let time = now t in
  let me = t.ctx.Routing_intf.id in
  let nbrs =
    Hashtbl.fold
      (fun id n acc -> if n.sym && n.expiry > time then (id, n) :: acc else acc)
      t.neighbors []
  in
  let nbr_ids = List.map fst nbrs in
  let uncovered = Hashtbl.create 16 in
  List.iter
    (fun (_, n) ->
      List.iter
        (fun h ->
          if h <> me && not (List.mem h nbr_ids) then
            Hashtbl.replace uncovered h ())
        n.two_hop)
    nbrs;
  let mpr = ref [] in
  while Hashtbl.length uncovered > 0 do
    let best = ref None in
    List.iter
      (fun (id, n) ->
        if not (List.mem id !mpr) then begin
          let cover =
            List.length (List.filter (Hashtbl.mem uncovered) n.two_hop)
          in
          match !best with
          | Some (_, c) when c >= cover -> ()
          | _ -> if cover > 0 then best := Some ((id, n), cover)
        end)
      nbrs;
    match !best with
    | None -> Hashtbl.reset uncovered
    | Some ((id, n), _) ->
        mpr := id :: !mpr;
        List.iter (Hashtbl.remove uncovered) n.two_hop
  done;
  t.mpr_set <- !mpr

(* ------------------------------------------------------------------ *)
(* Routing table: BFS over symmetric links + learned topology edges     *)

let recompute_routes t =
  let time = now t in
  let routes = Hashtbl.create 32 in
  let queue = Queue.create () in
  List.iter
    (fun n ->
      Hashtbl.replace routes n n;
      Queue.add n queue)
    (sym_neighbors t);
  (* adjacency from TC entries (last_hop -> destinations) plus the two-hop
     neighbourhood learned from HELLOs *)
  let adj = Hashtbl.create 64 in
  let add_edge from dest =
    Hashtbl.replace adj from
      (dest :: Option.value ~default:[] (Hashtbl.find_opt adj from))
  in
  Hashtbl.iter
    (fun (last_hop, dest) edge ->
      if edge.t_expiry > time then add_edge last_hop dest)
    t.topology;
  Hashtbl.iter
    (fun id n ->
      if n.sym && n.expiry > time then List.iter (add_edge id) n.two_hop)
    t.neighbors;
  while not (Queue.is_empty queue) do
    let node = Queue.pop queue in
    let via = Hashtbl.find routes node in
    List.iter
      (fun dest ->
        if dest <> t.ctx.Routing_intf.id && not (Hashtbl.mem routes dest)
        then begin
          Hashtbl.replace routes dest via;
          Queue.add dest queue
        end)
      (Option.value ~default:[] (Hashtbl.find_opt adj node))
  done;
  t.routes <- routes;
  t.route_dirty <- false

let next_hop t ~dst =
  if t.route_dirty then recompute_routes t;
  Hashtbl.find_opt t.routes dst

(* ------------------------------------------------------------------ *)
(* Control traffic                                                     *)

let period t base = base -. Des.Rng.float t.ctx.Routing_intf.rng (t.config.jitter *. base)

let send_hello t =
  select_mprs t;
  let time = now t in
  let links =
    Hashtbl.fold
      (fun id n acc ->
        if n.expiry > time then (id, n.sym, List.mem id t.mpr_set) :: acc
        else acc)
      t.neighbors []
  in
  let size =
    t.config.hello_base_size + (t.config.per_entry_bytes * List.length links)
  in
  On_demand.send_control t.ctx ~kind:"hello" ~dst:Frame.Broadcast ~size
    (Hello { h_origin = t.ctx.Routing_intf.id; h_links = links })

let selector_set t =
  let time = now t in
  Hashtbl.fold
    (fun id n acc ->
      if n.sym && n.expiry > time && n.selected_us then id :: acc else acc)
    t.neighbors []

let send_tc t =
  let advertised = selector_set t in
  if advertised <> [] then begin
    t.ansn <- t.ansn + 1;
    let size =
      t.config.tc_base_size
      + (t.config.per_entry_bytes * List.length advertised)
    in
    On_demand.send_control t.ctx ~kind:"tc" ~dst:Frame.Broadcast ~size
      (Tc
         {
           t_origin = t.ctx.Routing_intf.id;
           t_ansn = t.ansn;
           t_advertised = advertised;
         })
  end

let neighbor_for t id =
  match Hashtbl.find_opt t.neighbors id with
  | Some n -> n
  | None ->
      let n = { sym = false; expiry = 0.0; two_hop = []; selected_us = false } in
      Hashtbl.replace t.neighbors id n;
      n

let handle_hello t hello =
  let me = t.ctx.Routing_intf.id in
  let n = neighbor_for t hello.h_origin in
  n.expiry <- now t +. t.config.neighbor_hold;
  let about_me =
    List.find_opt (fun (id, _, _) -> id = me) hello.h_links
  in
  (match about_me with
  | Some (_, _, is_mpr) ->
      (* it hears us and we hear it: the link is symmetric *)
      n.sym <- true;
      n.selected_us <- is_mpr
  | None ->
      (* asymmetric (it does not list us yet) *)
      n.sym <- n.sym && false);
  n.two_hop <-
    List.filter_map
      (fun (id, sym, _) -> if sym && id <> me then Some id else None)
      hello.h_links;
  t.route_dirty <- true

let handle_tc t ~from tc =
  let me = t.ctx.Routing_intf.id in
  if tc.t_origin = me then ()
  else if
    not (Seen_cache.witness t.seen_tc ~origin:tc.t_origin ~id:tc.t_ansn)
  then ()
  else begin
    let expiry = now t +. t.config.topology_hold in
    List.iter
      (fun dest ->
        if dest <> me then begin
          match Hashtbl.find_opt t.topology (tc.t_origin, dest) with
          | Some edge -> edge.t_expiry <- expiry
          | None ->
              Hashtbl.replace t.topology (tc.t_origin, dest)
                { t_expiry = expiry }
        end)
      tc.t_advertised;
    t.route_dirty <- true;
    (* MPR flooding: relay only if the sender selected us as MPR *)
    let relay =
      match Hashtbl.find_opt t.neighbors from with
      | Some n -> n.selected_us && n.sym && n.expiry > now t
      | None -> false
    in
    if relay then begin
      let size =
        t.config.tc_base_size
        + (t.config.per_entry_bytes * List.length tc.t_advertised)
      in
      On_demand.rebroadcast t.ctx ~span:span_timer ~kind:"tc" ~size (Tc tc)
    end
  end

(* ------------------------------------------------------------------ *)
(* Data plane                                                          *)

let forward_data t data ~size =
  match next_hop t ~dst:data.Frame.final_dst with
  | None -> false
  | Some next_hop ->
      ignore (On_demand.hop t.ctx ~next_hop data ~size);
      true

let handle_data t data ~size =
  if data.Frame.final_dst = t.ctx.Routing_intf.id then
    t.ctx.Routing_intf.deliver data
  else if forward_data t data ~size:(size - On_demand.ip_overhead) then ()
  else t.ctx.Routing_intf.drop_data data ~reason:"no route (proactive)"

let originate t data ~size =
  if data.Frame.final_dst = t.ctx.Routing_intf.id then
    t.ctx.Routing_intf.deliver data
  else if forward_data t data ~size then ()
  else t.ctx.Routing_intf.drop_data data ~reason:"no route (proactive)"

let receive t ~src frame =
  match frame.Frame.payload with
  | Hello hello -> handle_hello t hello
  | Tc tc -> handle_tc t ~from:src tc
  | Frame.Data data -> handle_data t data ~size:frame.Frame.size
  | _ -> ()

let rec schedule_hello t =
  ignore
    (Des.Engine.schedule ~span:span_timer t.ctx.Routing_intf.engine
       ~delay:(period t t.config.hello_interval)
       (fun () ->
         send_hello t;
         schedule_hello t))

let rec schedule_tc t =
  ignore
    (Des.Engine.schedule ~span:span_timer t.ctx.Routing_intf.engine
       ~delay:(period t t.config.tc_interval)
       (fun () ->
         send_tc t;
         schedule_tc t))

let create_full ?(config = default_config) ctx =
  let t =
    {
      ctx;
      config;
      neighbors = Hashtbl.create 16;
      topology = Hashtbl.create 64;
      seen_tc = Seen_cache.create ctx.Routing_intf.engine ~ttl:30.0;
      mpr_set = [];
      ansn = 0;
      route_dirty = true;
      routes = Hashtbl.create 32;
    }
  in
  (* desynchronise the very first beacons across nodes *)
  ignore
    (Des.Engine.schedule ~span:span_timer ctx.Routing_intf.engine
       ~delay:(Des.Rng.float ctx.Routing_intf.rng config.hello_interval)
       (fun () ->
         send_hello t;
         schedule_hello t));
  ignore
    (Des.Engine.schedule ~span:span_timer ctx.Routing_intf.engine
       ~delay:(Des.Rng.float ctx.Routing_intf.rng config.tc_interval)
       (fun () ->
         send_tc t;
         schedule_tc t));
  ( t,
    On_demand.agent ~originate:(originate t) ~receive:(receive t)
      (* no link-layer integration: links die only by HELLO timeout *)
      ~unicast_failed:(fun ~frame:_ ~dst:_ -> ())
      ~gauges:(fun () ->
        (* last computed table; recomputing here would hide staleness *)
        { Routing_intf.no_gauges with route_entries = Hashtbl.length t.routes })
  )

let create ?config ctx = snd (create_full ?config ctx)
