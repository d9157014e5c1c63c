type reception = {
  mutable corrupted : bool;
  rx_end : float;
  dist : float;  (** sender-to-receiver distance at frame start *)
}

type grid = { max_speed : float; epoch : float }

(* (src, until) pairs as parallel arrays compacted in place: [busy_until]
   runs on every MAC backoff expiry, so rebuilding a list there dominated
   kilonode allocation *)
type air = {
  mutable src : int array;
  mutable until : float array;
  mutable len : int;
}

let air_push a s until =
  let capacity = Array.length a.src in
  if a.len = capacity then begin
    let src = Array.make (2 * capacity) 0 in
    let u = Array.make (2 * capacity) neg_infinity in
    Array.blit a.src 0 src 0 a.len;
    Array.blit a.until 0 u 0 a.len;
    a.src <- src;
    a.until <- u
  end;
  a.src.(a.len) <- s;
  a.until.(a.len) <- until;
  a.len <- a.len + 1

(* The grid channel's air: each in-flight frame sits in the bucket of its
   sender's cell at transmission start, so carrier sense and the collision
   sweep read the cells around a query instead of the whole air. Cells of
   side [cell] wrap onto a [side] x [side] table ([side] a power of two
   sized from the node count, so a 100-node channel allocates 64 buckets):
   a window narrower than [side] cells on both axes visits each bucket at
   most once, a wider one visits the whole table once, so no entry is ever
   seen twice. Entries live in a flat pool threaded by [next] links; an
   entry whose guard window has closed goes back to the free list when a
   query walks its bucket. Per-row entry counts let a query skip empty
   rows, which at 100 nodes are most of them.

   A sender keeps moving while its frame is on the air. An entry is live
   for at most [longest] airtime plus the guard, so its sender is within
   [max_speed * (longest + guard)] of the position it was bucketed under:
   widening every query by that drift keeps the gathered set a superset of
   the exact in-range set. *)
module Cells = struct
  type t = {
    inv_cell : float;
    cell : float;
    side : int;
    shift : int;  (** log2 side *)
    max_speed : float;
    mutable longest : float;  (** longest airtime added so far *)
    head : int array;  (** bucket -> first entry, -1 when empty *)
    row_used : int array;  (** table row -> entries in its buckets *)
    mutable used : int;
    mutable next : int array;  (** entry -> next in its bucket or free list *)
    mutable src : int array;
    mutable until : float array;
    mutable free : int;
  }

  let create ~nodes ~cell ~max_speed =
    (* one bucket per four nodes: at the paper's density (one node per
       13,200 m^2, cells of 275 m) a square world then fits the table
       without wrapping *)
    let shift = ref 0 in
    while 4 lsl (2 * !shift) < nodes do
      incr shift
    done;
    let side = 1 lsl !shift in
    {
      inv_cell = 1.0 /. cell;
      cell;
      side;
      shift = !shift;
      max_speed;
      longest = 0.0;
      head = Array.make (side * side) (-1);
      row_used = Array.make side 0;
      used = 0;
      next = [||];
      src = [||];
      until = [||];
      free = -1;
    }

  let cell_of t v = int_of_float (Float.floor (v *. t.inv_cell))

  let drift t ~guard = t.max_speed *. (t.longest +. guard)

  let grow t =
    let n = Array.length t.next in
    let n' = Stdlib.max 16 (2 * n) in
    let extend a fill =
      let b = Array.make n' fill in
      Array.blit a 0 b 0 n;
      b
    in
    t.next <- extend t.next (-1);
    t.src <- extend t.src 0;
    t.until <- extend t.until neg_infinity;
    for e = n' - 1 downto n do
      t.next.(e) <- t.free;
      t.free <- e
    done

  let add t ~x ~y ~src ~until ~airtime =
    if airtime > t.longest then t.longest <- airtime;
    if t.free < 0 then grow t;
    let e = t.free in
    t.free <- t.next.(e);
    let mask = t.side - 1 in
    let row = cell_of t y land mask in
    let b = (row lsl t.shift) + (cell_of t x land mask) in
    t.src.(e) <- src;
    t.until.(e) <- until;
    t.next.(e) <- t.head.(b);
    t.head.(b) <- e;
    t.row_used.(row) <- t.row_used.(row) + 1;
    t.used <- t.used + 1

  (* walk bucket [b]: free the entries whose guard window has closed (the
     naive prune's test), push the rest into [out] *)
  let sweep t b ~now ~guard out =
    let prev = ref (-1) and e = ref t.head.(b) in
    while !e >= 0 do
      let cur = !e in
      let nx = t.next.(cur) in
      if t.until.(cur) +. guard > now then begin
        air_push out t.src.(cur) t.until.(cur);
        prev := cur
      end
      else begin
        if !prev < 0 then t.head.(b) <- nx else t.next.(!prev) <- nx;
        t.next.(cur) <- t.free;
        t.free <- cur;
        let row = b lsr t.shift in
        t.row_used.(row) <- t.row_used.(row) - 1;
        t.used <- t.used - 1
      end;
      e := nx
    done

  let sweep_row t row ~cx0 ~cx1 ~now ~guard out =
    let mask = t.side - 1 in
    let base = row lsl t.shift in
    for cx = cx0 to cx1 do
      let b = base + (cx land mask) in
      if t.head.(b) >= 0 then sweep t b ~now ~guard out
    done

  (* [gather t out ~x ~y ~radius ~now ~guard] replaces [out] with the live
     entries whose sender is within [radius] of (x, y) now, plus entries of
     the same cells farther out. The window widens [radius] by the drift
     and by a relative 1e-9 that absorbs rounding in the cell arithmetic;
     each row of cells spans only the disc's chord at the row's edge
     nearest the centre. *)
  let gather t out ~x ~y ~radius ~now ~guard =
    out.len <- 0;
    if t.used > 0 then begin
      let r = (radius +. drift t ~guard) *. (1.0 +. 1e-9) in
      let cy0 = cell_of t (y -. r) and cy1 = cell_of t (y +. r) in
      let cx0 = cell_of t (x -. r) and cx1 = cell_of t (x +. r) in
      let mask = t.side - 1 in
      if cy1 - cy0 >= mask || cx1 - cx0 >= mask then
        for row = 0 to mask do
          if t.row_used.(row) > 0 then
            sweep_row t row ~cx0:0 ~cx1:mask ~now ~guard out
        done
      else
        for cy = cy0 to cy1 do
          let row = cy land mask in
          if t.row_used.(row) > 0 then begin
            let lo = float_of_int cy *. t.cell in
            let dy =
              if y < lo then lo -. y
              else if y > lo +. t.cell then y -. (lo +. t.cell)
              else 0.0
            in
            let half = sqrt (Float.max 0.0 ((r *. r) -. (dy *. dy))) in
            sweep_row t row ~cx0:(cell_of t (x -. half))
              ~cx1:(cell_of t (x +. half)) ~now ~guard out
          end
        done
    end
end

type 'a t = {
  engine : Des.Engine.t;
  trace : Trace.t;
  nodes : int;
  position : int -> float -> Vec2.t;
  range : float;
  cs_range : float;
  capture_ratio : float;
  (* carrier sense reports busy for this long after a frame ends, so that
     SIFS-spaced ACKs win the medium over DIFS-spaced contenders (the
     sampling MAC has no NAV; this restores the DIFS > SIFS protection) *)
  idle_guard : float;
  receivers : (src:int -> 'a -> unit) option array;
  (* fault-injection hook: a frame reaching [dst] intact is still dropped
     when the filter vetoes the (src, dst) pair at delivery time *)
  mutable filter : (src:int -> dst:int -> bool) option;
  tx_until : float array;
  (* in-progress receptions per node, pruned lazily *)
  rx_active : reception list array;
  (* the air entries a scan considers: on the naive channel every
     in-progress transmission (for carrier sense and the collision
     sweep); on the grid channel the live entries a query gathered from
     [cells] *)
  air : air;
  mutable collision_count : int;
  collision_at : int array;
  (* spatial index pruning the per-frame neighbour scan; None = full scan *)
  grid : Grid.t option;
  (* in-flight frames bucketed by cell, present iff [grid] is *)
  cells : Cells.t option;
  (* per-(node, time) position memo: one frame event looks the same nodes
     up at the same instant many times, and Waypoint.position is a binary
     search per call. Flat x/y arrays keep the floats unboxed and the
     memo stores free of write barriers. *)
  pos_at : float array;
  pos_x : float array;
  pos_y : float array;
  (* --prof span for the synchronous transmit sweep, named for the
     neighbour-scan strategy so profiles separate grid from naive *)
  span_transmit : Obs.span;
}

(* rx-end delivery events, distinct from the synchronous sweep above *)
let span_rx = Obs.span "event.channel.rx"

(* cells half of cs_range wide: a carrier-sense query's row-clipped window
   covers about twice its disc in five rows *)
let create ?(trace = Trace.null) ?grid engine ~nodes ~position ~range ~cs_range =
  if cs_range < range then invalid_arg "Channel.create: cs_range < range";
  let cells =
    Option.map
      (fun { max_speed; _ } ->
        Cells.create ~nodes ~cell:(cs_range /. 2.0) ~max_speed)
      grid
  in
  let grid =
    Option.map
      (fun { max_speed; epoch } ->
        Grid.create ~nodes ~position ~cell:(cs_range /. 2.0) ~max_speed ~epoch)
      grid
  in
  {
    engine;
    trace;
    nodes;
    position;
    range;
    cs_range;
    (* ~10 dB capture threshold at path-loss exponent 2 *)
    capture_ratio = 3.0;
    idle_guard = 60e-6;
    receivers = Array.make nodes None;
    filter = None;
    tx_until = Array.make nodes neg_infinity;
    rx_active = Array.make nodes [];
    air = { src = Array.make 16 0; until = Array.make 16 neg_infinity; len = 0 };
    collision_count = 0;
    collision_at = Array.make nodes 0;
    grid;
    cells;
    pos_at = Array.make (Stdlib.max nodes 1) nan;
    pos_x = Array.make (Stdlib.max nodes 1) 0.0;
    pos_y = Array.make (Stdlib.max nodes 1) 0.0;
    span_transmit =
      Obs.span
        (if Option.is_some grid then "channel.transmit.grid"
         else "channel.transmit.naive");
  }

let set_receiver t i f = t.receivers.(i) <- Some f

let set_filter t f = t.filter <- Some f

let deliverable t ~src ~dst =
  match t.filter with None -> true | Some f -> f ~src ~dst

let now t = Des.Engine.now t.engine

(* nan stamps never compare equal, so the first lookup always misses *)
let refresh_pos t i time =
  if t.pos_at.(i) <> time then begin
    let p = t.position i time in
    t.pos_at.(i) <- time;
    t.pos_x.(i) <- p.Vec2.x;
    t.pos_y.(i) <- p.Vec2.y
  end

(* allocates a fresh pair; hot paths read pos_x/pos_y directly instead *)
let pos t i time =
  refresh_pos t i time;
  Vec2.make ~x:t.pos_x.(i) ~y:t.pos_y.(i)

(* compact the naive channel's air in place, keeping entries through the
   guard window (busy_until needs them); entry order never affects
   results — corrupt is idempotent per frame, busy_until takes a max *)
let prune t =
  let time = now t in
  let a = t.air in
  let k = ref 0 in
  for i = 0 to a.len - 1 do
    if a.until.(i) +. t.idle_guard > time then begin
      if !k <> i then begin
        a.src.(!k) <- a.src.(i);
        a.until.(!k) <- a.until.(i)
      end;
      incr k
    end
  done;
  a.len <- !k

(* Leave in [t.air] the entries a scan around node [i] out to [radius]
   must consider: the whole air, pruned, on the naive channel; the live
   entries of the cells around [i] on the grid channel. *)
let air_near t i ~radius =
  match t.cells with
  | None -> prune t
  | Some c ->
      let time = now t in
      refresh_pos t i time;
      Cells.gather c t.air ~x:t.pos_x.(i) ~y:t.pos_y.(i) ~radius ~now:time
        ~guard:t.idle_guard

let transmitting t i = t.tx_until.(i) > now t

(* same float expression as Vec2.dist_sq, evaluated on the flat memo *)
let within t a b ~radius =
  let time = now t in
  refresh_pos t a time;
  refresh_pos t b time;
  let dx = t.pos_x.(a) -. t.pos_x.(b) and dy = t.pos_y.(a) -. t.pos_y.(b) in
  (dx *. dx) +. (dy *. dy) <= radius *. radius

let in_range t a b = within t a b ~radius:t.range

(* deterministic work counters for --prof: carrier-sense queries, the
   air entries they scan, and the entries the per-receiver interferer
   sweep scans *)
let cs_queries = Obs.counter "channel.cs.queries"
let cs_scanned = Obs.counter "channel.cs.scanned"
let rx_scanned = Obs.counter "channel.rx.scanned"

let busy_until t i =
  air_near t i ~radius:t.cs_range;
  let time = now t in
  let horizon = ref time in
  if t.tx_until.(i) > !horizon then horizon := t.tx_until.(i);
  let a = t.air in
  if Obs.enabled () then begin
    Obs.incr cs_queries;
    Obs.add cs_scanned a.len
  end;
  for k = 0 to a.len - 1 do
    let src = a.src.(k) in
    let guarded = a.until.(k) +. t.idle_guard in
    if src <> i && guarded > !horizon && within t i src ~radius:t.cs_range
    then horizon := guarded
  done;
  !horizon

let neighbors t i =
  let time = now t in
  let pos_i = pos t i time in
  let xi = pos_i.Vec2.x and yi = pos_i.Vec2.y in
  let result = ref [] in
  let consider j =
    if j <> i then begin
      refresh_pos t j time;
      let dx = xi -. t.pos_x.(j) and dy = yi -. t.pos_y.(j) in
      if (dx *. dx) +. (dy *. dy) <= t.range *. t.range then
        result := j :: !result
    end
  in
  match t.grid with
  | None ->
      for j = t.nodes - 1 downto 0 do
        consider j
      done;
      !result
  | Some g ->
      (* candidates arrive ascending, so reversing restores the naive
         ascending result list *)
      Grid.iter g ~now:time ~center:pos_i ~radius:t.range consider;
      List.rev !result

let corrupt t node rx =
  if not rx.corrupted then begin
    rx.corrupted <- true;
    t.collision_count <- t.collision_count + 1;
    t.collision_at.(node) <- t.collision_at.(node) + 1;
    Trace.mac_collision t.trace ~node
  end

(* Capture: a frame whose sender is [capture_ratio] times closer than a
   competing signal survives the overlap; otherwise the overlap corrupts
   it. Applied pairwise between overlapping frames and against
   non-decodable interference. *)
let clash t j ~rx_a ~rx_b =
  if rx_a.dist *. t.capture_ratio <= rx_b.dist then corrupt t j rx_b
  else if rx_b.dist *. t.capture_ratio <= rx_a.dist then corrupt t j rx_a
  else begin
    corrupt t j rx_a;
    corrupt t j rx_b
  end

let interfere t j rx ~interferer_dist =
  if rx.dist *. t.capture_ratio > interferer_dist then corrupt t j rx

(* [List.filter] allocates a fresh list even when nothing is removed;
   most sweeps find no expired reception, so test before rebuilding *)
let prune_rx t j time =
  let l = t.rx_active.(j) in
  if List.exists (fun r -> r.rx_end <= time) l then
    t.rx_active.(j) <- List.filter (fun r -> r.rx_end > time) l

let transmit_body t ~src ~duration pdu =
  let time = now t in
  let tx_end = time +. duration in
  let pos_src = pos t src time in
  let sx = pos_src.Vec2.x and sy = pos_src.Vec2.y in
  (* every interferer the sweep below can count lies within cs_range of a
     receiver within range of [src] *)
  air_near t src ~radius:(t.range +. t.cs_range);
  (match t.cells with
   | None -> air_push t.air src tx_end
   | Some c -> Cells.add c ~x:sx ~y:sy ~src ~until:tx_end ~airtime:duration);
  if tx_end > t.tx_until.(src) then t.tx_until.(src) <- tx_end;
  (* half duplex: starting a transmission ruins any reception in progress *)
  prune_rx t src time;
  List.iter (corrupt t src) t.rx_active.(src);
  let a = t.air in
  let touch j =
    if j <> src then begin
      refresh_pos t j time;
      let jx = t.pos_x.(j) and jy = t.pos_y.(j) in
      (* sqrt of Vec2.dist_sq's expression == Vec2.dist, bit for bit *)
      let dxj = sx -. jx and dyj = sy -. jy in
      let d = sqrt ((dxj *. dxj) +. (dyj *. dyj)) in
      if d <= t.range then begin
        if transmitting t j then ()
          (* a transmitting node hears nothing; the frame is simply lost *)
        else begin
          let rx = { corrupted = false; rx_end = tx_end; dist = d } in
          prune_rx t j time;
          (* overlap with receptions already in progress: capture decides *)
          List.iter (fun other -> clash t j ~rx_a:rx ~rx_b:other)
            t.rx_active.(j);
          (* interferers already in the air but too far to decode *)
          if Obs.enabled () then Obs.add rx_scanned a.len;
          for k = 0 to a.len - 1 do
            let other_src = a.src.(k) in
            if other_src <> src && other_src <> j && a.until.(k) > time
            then begin
              refresh_pos t other_src time;
              let dxo = t.pos_x.(other_src) -. jx
              and dyo = t.pos_y.(other_src) -. jy in
              let di = sqrt ((dxo *. dxo) +. (dyo *. dyo)) in
              if di > t.range && di <= t.cs_range then
                interfere t j rx ~interferer_dist:di
            end
          done;
          t.rx_active.(j) <- rx :: t.rx_active.(j);
          ignore
            (Des.Engine.schedule ~span:span_rx t.engine ~delay:duration
               (fun () ->
                 t.rx_active.(j) <-
                   List.filter (fun r -> r != rx) t.rx_active.(j);
                 if
                   (not rx.corrupted)
                   && (not (transmitting t j))
                   && deliverable t ~src ~dst:j
                 then begin
                   match t.receivers.(j) with
                   | Some deliver -> deliver ~src pdu
                   | None -> ()
                 end))
        end
      end
      else if d <= t.cs_range then begin
        (* interference zone: undecodable, but can stomp receptions *)
        prune_rx t j time;
        List.iter (fun rx -> interfere t j rx ~interferer_dist:d)
          t.rx_active.(j)
      end
    end
  in
  (* nodes farther than cs_range are untouched by the body above, so
     sweeping only the grid's superset of the cs_range disc is exact *)
  match t.grid with
  | None ->
      for j = 0 to t.nodes - 1 do
        touch j
      done
  | Some g -> Grid.iter g ~now:time ~center:pos_src ~radius:t.cs_range touch

let transmit t ~src ~duration pdu =
  if Obs.enabled () then begin
    Obs.start t.span_transmit;
    transmit_body t ~src ~duration pdu;
    Obs.stop t.span_transmit
  end
  else transmit_body t ~src ~duration pdu

let collisions t = t.collision_count

let collisions_at t i = t.collision_at.(i)

let grid_rebuilds t =
  match t.grid with None -> 0 | Some g -> Grid.rebuilds g
