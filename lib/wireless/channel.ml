type reception = {
  dst : int;  (** the receiving node *)
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
  scripts : Waypoint.t array;
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
  (* receptions in progress per node: [rx_on.(j)] holds [rx_count.(j)] of
     them, oldest first. Scans walk them newest first, the order in which
     corruptions reach the trace. A reception leaves at its frame's
     end-of-airtime event; until that event runs, a scan at the same
     instant skips it as over. *)
  rx_on : reception array array;
  rx_count : int array;
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
     up at the same instant many times. Flat x/y arrays keep the floats
     unboxed and the memo stores free of write barriers. *)
  pos_at : float array;
  pos_x : float array;
  pos_y : float array;
  (* each node's leg cache, from Waypoint.piece: strictly between
     [leg_depart] and [leg_until] the node moves from [leg_fx/fy] to
     [leg_tx/ty], arriving at [leg_arrive], and then rests there. A memo
     miss inside that window interpolates here; only a query that leaves
     it goes back to the script. *)
  leg_depart : float array;
  leg_until : float array;
  leg_arrive : float array;
  leg_fx : float array;
  leg_fy : float array;
  leg_tx : float array;
  leg_ty : float array;
  (* the receptions one transmit schedules, in the order it meets them *)
  mutable batch : reception array;
  mutable batch_len : int;
  (* --prof span for the synchronous transmit sweep, named for the
     neighbour-scan strategy so profiles separate grid from naive *)
  span_transmit : Obs.span;
}

(* end-of-airtime delivery events, one per frame, distinct from the
   synchronous sweep above *)
let span_rx = Obs.span "event.channel.rx"

let no_reception = { dst = -1; corrupted = false; rx_end = nan; dist = nan }

(* cells half of cs_range wide: a carrier-sense query's row-clipped window
   covers about twice its disc in five rows *)
let create ?(trace = Trace.null) ?grid engine ~scripts ~range ~cs_range =
  if cs_range < range then invalid_arg "Channel.create: cs_range < range";
  let nodes = Array.length scripts in
  let cells =
    Option.map
      (fun { max_speed; _ } ->
        Cells.create ~nodes ~cell:(cs_range /. 2.0) ~max_speed)
      grid
  in
  let grid =
    Option.map
      (fun { max_speed; epoch } ->
        Grid.create ~nodes
          ~position:(fun i time -> Waypoint.position scripts.(i) time)
          ~cell:(cs_range /. 2.0) ~max_speed ~epoch)
      grid
  in
  {
    engine;
    trace;
    nodes;
    scripts;
    range;
    cs_range;
    (* ~10 dB capture threshold at path-loss exponent 2 *)
    capture_ratio = 3.0;
    idle_guard = 60e-6;
    receivers = Array.make nodes None;
    filter = None;
    tx_until = Array.make nodes neg_infinity;
    rx_on = Array.make nodes [||];
    rx_count = Array.make nodes 0;
    air = { src = Array.make 16 0; until = Array.make 16 neg_infinity; len = 0 };
    collision_count = 0;
    collision_at = Array.make nodes 0;
    grid;
    cells;
    pos_at = Array.make (Stdlib.max nodes 1) nan;
    pos_x = Array.make (Stdlib.max nodes 1) 0.0;
    pos_y = Array.make (Stdlib.max nodes 1) 0.0;
    leg_depart = Array.make nodes nan;
    leg_until = Array.make nodes nan;
    leg_arrive = Array.make nodes nan;
    leg_fx = Array.make nodes 0.0;
    leg_fy = Array.make nodes 0.0;
    leg_tx = Array.make nodes 0.0;
    leg_ty = Array.make nodes 0.0;
    batch = Array.make 16 no_reception;
    batch_len = 0;
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

let pos_refills = Obs.counter "channel.pos.refills"

(* a query outside node [i]'s cached leg: read the position off the script
   and cache the leg in force at [time] *)
let refill t i time =
  if Obs.enabled () then Obs.incr pos_refills;
  let script = t.scripts.(i) in
  let p = Waypoint.position script time in
  t.pos_x.(i) <- p.Vec2.x;
  t.pos_y.(i) <- p.Vec2.y;
  let leg, until = Waypoint.piece script time in
  t.leg_depart.(i) <- leg.Waypoint.depart;
  t.leg_until.(i) <- until;
  t.leg_arrive.(i) <- leg.Waypoint.arrive;
  t.leg_fx.(i) <- leg.Waypoint.from_p.Vec2.x;
  t.leg_fy.(i) <- leg.Waypoint.from_p.Vec2.y;
  t.leg_tx.(i) <- leg.Waypoint.to_p.Vec2.x;
  t.leg_ty.(i) <- leg.Waypoint.to_p.Vec2.y

(* nan stamps never compare equal, so the first lookup always misses, and
   a nan leg window refills on it. Inside the window this is
   Waypoint.position's own float expression (Vec2.lerp's), so the cache
   agrees with the script bit for bit; the window is open at both ends,
   so a query at an exact departure goes to the script. *)
let refresh_pos t i time =
  if t.pos_at.(i) <> time then begin
    t.pos_at.(i) <- time;
    let depart = t.leg_depart.(i) in
    if depart < time && time < t.leg_until.(i) then begin
      let arrive = t.leg_arrive.(i) in
      if time >= arrive then begin
        t.pos_x.(i) <- t.leg_tx.(i);
        t.pos_y.(i) <- t.leg_ty.(i)
      end
      else begin
        let frac = (time -. depart) /. (arrive -. depart) in
        let fx = t.leg_fx.(i) and fy = t.leg_fy.(i) in
        t.pos_x.(i) <- fx +. (frac *. (t.leg_tx.(i) -. fx));
        t.pos_y.(i) <- fy +. (frac *. (t.leg_ty.(i) -. fy))
      end
    end
    else refill t i time
  end

(* allocates a fresh pair; hot paths read pos_x/pos_y directly instead *)
let pos t i time =
  refresh_pos t i time;
  Vec2.make ~x:t.pos_x.(i) ~y:t.pos_y.(i)

let position t i = pos t i (now t)

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

(* deterministic work counters for --prof: carrier-sense queries, the
   air entries they scan, and the entries the per-receiver interferer
   sweep scans *)
let cs_queries = Obs.counter "channel.cs.queries"
let cs_scanned = Obs.counter "channel.cs.scanned"
let rx_scanned = Obs.counter "channel.rx.scanned"
let rx_receptions = Obs.counter "channel.rx.receptions"
let tx_candidates = Obs.counter "channel.tx.candidates"

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

(* [a], or a copy twice as long, with room past its first [n] entries *)
let room a n =
  if n < Array.length a then a
  else begin
    let b = Array.make (Stdlib.max 4 (2 * n)) no_reception in
    Array.blit a 0 b 0 n;
    b
  end

let rx_push t j rx =
  let n = t.rx_count.(j) in
  let a = room t.rx_on.(j) n in
  t.rx_on.(j) <- a;
  a.(n) <- rx;
  t.rx_count.(j) <- n + 1

(* drop [rx] from [j]'s receptions, keeping the others in order *)
let rx_remove t j rx =
  let a = t.rx_on.(j) and n = t.rx_count.(j) in
  let i = ref 0 in
  while !i < n && a.(!i) != rx do
    incr i
  done;
  if !i < n then begin
    Array.blit a (!i + 1) a !i (n - !i - 1);
    a.(n - 1) <- no_reception;
    t.rx_count.(j) <- n - 1
  end

let batch_push t rx =
  t.batch <- room t.batch t.batch_len;
  t.batch.(t.batch_len) <- rx;
  t.batch_len <- t.batch_len + 1

(* End of airtime for one frame: each reception in the order [transmit]
   met its receiver. Running them in one event is exactly running one
   event each: they were all scheduled in one [transmit] call for the same
   instant, so their tie numbers were consecutive and nothing could run
   between them, and an event a delivery schedules runs after the last of
   them in both forms. *)
let deliver_all t ~src pdu rxs () =
  for k = 0 to Array.length rxs - 1 do
    let rx = rxs.(k) in
    let j = rx.dst in
    rx_remove t j rx;
    if
      (not rx.corrupted) && (not (transmitting t j)) && deliverable t ~src ~dst:j
    then begin
      match t.receivers.(j) with Some deliver -> deliver ~src pdu | None -> ()
    end
  done

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
  let own = t.rx_on.(src) in
  for i = t.rx_count.(src) - 1 downto 0 do
    if own.(i).rx_end > time then corrupt t src own.(i)
  done;
  let a = t.air in
  t.batch_len <- 0;
  let candidates = ref 0 in
  let touch j =
    incr candidates;
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
          let rx = { dst = j; corrupted = false; rx_end = tx_end; dist = d } in
          (* overlap with receptions already in progress: capture decides *)
          let on = t.rx_on.(j) in
          for i = t.rx_count.(j) - 1 downto 0 do
            if on.(i).rx_end > time then clash t j ~rx_a:rx ~rx_b:on.(i)
          done;
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
          rx_push t j rx;
          batch_push t rx
        end
      end
      else if d <= t.cs_range then begin
        (* interference zone: undecodable, but can stomp receptions *)
        let on = t.rx_on.(j) in
        for i = t.rx_count.(j) - 1 downto 0 do
          if on.(i).rx_end > time then interfere t j on.(i) ~interferer_dist:d
        done
      end
    end
  in
  (* nodes farther than cs_range are untouched by the body above, so
     sweeping only the grid's superset of the cs_range disc is exact *)
  (match t.grid with
   | None ->
       for j = 0 to t.nodes - 1 do
         touch j
       done
   | Some g -> Grid.iter g ~now:time ~center:pos_src ~radius:t.cs_range touch);
  if Obs.enabled () then begin
    Obs.add tx_candidates !candidates;
    Obs.add rx_receptions t.batch_len
  end;
  if t.batch_len > 0 then begin
    let rxs = Array.sub t.batch 0 t.batch_len in
    ignore
      (Des.Engine.schedule ~span:span_rx t.engine ~delay:duration
         (deliver_all t ~src pdu rxs))
  end

let transmit t ~src ~duration pdu =
  if Obs.enabled () then begin
    Obs.start t.span_transmit;
    transmit_body t ~src ~duration pdu;
    Obs.stop t.span_transmit
  end
  else transmit_body t ~src ~duration pdu

let collisions t = t.collision_count

let collisions_at t i = t.collision_at.(i)
