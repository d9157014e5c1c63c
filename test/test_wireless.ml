(* Tests for the wireless substrate: geometry, mobility, radio timing,
   channel propagation/collisions, and the 802.11-style MAC. *)

module V = Wireless.Vec2
module T = Wireless.Terrain
module W = Wireless.Waypoint
module Radio = Wireless.Radio
module Ch = Wireless.Channel
module Mac = Wireless.Mac80211
module Frame = Wireless.Frame

let vec x y = V.make ~x ~y

(* ------------------------------------------------------------------ *)
(* Geometry and mobility *)

let test_vec2 () =
  Alcotest.(check (float 1e-9)) "dist" 5.0 (V.dist (vec 0.0 0.0) (vec 3.0 4.0));
  Alcotest.(check (float 1e-9)) "norm" 5.0 (V.norm (vec 3.0 4.0));
  let m = V.lerp (vec 0.0 0.0) (vec 10.0 20.0) ~frac:0.25 in
  Alcotest.(check (float 1e-9)) "lerp x" 2.5 m.V.x;
  Alcotest.(check (float 1e-9)) "lerp y" 5.0 m.V.y

let test_terrain () =
  let t = T.make ~width:100.0 ~height:50.0 in
  Alcotest.(check bool) "contains inside" true (T.contains t (vec 50.0 25.0));
  Alcotest.(check bool) "outside" false (T.contains t (vec 101.0 25.0));
  let rng = Des.Rng.create 3L in
  for _ = 1 to 200 do
    Alcotest.(check bool) "random point inside" true
      (T.contains t (T.random_point t rng))
  done;
  Alcotest.check_raises "bad terrain"
    (Invalid_argument "Terrain.make: dimensions must be positive") (fun () ->
      ignore (T.make ~width:0.0 ~height:5.0))

let test_waypoint_stationary () =
  let p = vec 10.0 20.0 in
  let s = W.stationary p in
  Alcotest.(check bool) "fixed" true (V.equal p (W.position s 0.0));
  Alcotest.(check bool) "fixed later" true (V.equal p (W.position s 1e6))

let generate_script ?(pause = 5.0) ?(seed = 11L) () =
  W.generate ~terrain:T.paper
    ~rng:(Des.Rng.create seed)
    ~pause ~speed_min:0.5 ~speed_max:20.0 ~duration:300.0

let test_waypoint_kinematics () =
  let s = generate_script () in
  (* position before the first departure equals the initial point *)
  let p0 = W.position s 0.0 in
  Alcotest.(check bool) "initial pause" true
    (V.equal p0 (W.position s 4.999));
  (* speed is bounded everywhere *)
  let max_speed = ref 0.0 in
  let dt = 0.5 in
  let steps = int_of_float (300.0 /. dt) in
  for k = 0 to steps - 1 do
    let t = float_of_int k *. dt in
    let v = V.dist (W.position s t) (W.position s (t +. dt)) /. dt in
    if v > !max_speed then max_speed := v
  done;
  Alcotest.(check bool)
    (Printf.sprintf "observed speed %.1f <= 20" !max_speed)
    true (!max_speed <= 20.0 +. 1e-6);
  Alcotest.(check bool) "script max speed <= 20" true (W.max_speed s <= 20.0);
  (* all positions stay on the terrain *)
  for k = 0 to steps do
    Alcotest.(check bool) "on terrain" true
      (T.contains T.paper (W.position s (float_of_int k *. dt)))
  done

let test_waypoint_pause_900_is_static () =
  let s =
    W.generate ~terrain:T.paper
      ~rng:(Des.Rng.create 17L)
      ~pause:900.0 ~speed_min:0.5 ~speed_max:20.0 ~duration:900.0
  in
  let p0 = W.position s 0.0 in
  Alcotest.(check bool) "no movement within the run" true
    (V.equal p0 (W.position s 899.9))

(* regression: pause = duration with speed range [0, 0] used to divide by
   zero when picking a leg speed — every position must stay finite,
   in-bounds, and pinned to the initial point *)
let test_waypoint_degenerate_speed () =
  List.iter
    (fun (pause, duration) ->
      let s =
        W.generate ~terrain:T.paper
          ~rng:(Des.Rng.create 23L)
          ~pause ~speed_min:0.0 ~speed_max:0.0 ~duration
      in
      let p0 = W.position s 0.0 in
      Alcotest.(check bool) "initial position finite" true
        (Float.is_finite p0.V.x && Float.is_finite p0.V.y);
      List.iter
        (fun t ->
          let p = W.position s t in
          Alcotest.(check bool) "position finite (no NaN)" true
            (Float.is_finite p.V.x && Float.is_finite p.V.y);
          Alcotest.(check bool) "position on terrain" true
            (T.contains T.paper p);
          Alcotest.(check bool) "zero speed never moves" true (V.equal p0 p))
        [ 0.0; pause /. 2.0; pause; duration; duration +. 10.0 ])
    [ (300.0, 300.0); (0.0, 300.0); (900.0, 100.0) ]

let test_waypoint_deterministic () =
  let a = generate_script ~seed:5L () and b = generate_script ~seed:5L () in
  Alcotest.(check bool) "same seed same trajectory" true
    (List.for_all
       (fun t -> V.equal (W.position a t) (W.position b t))
       [ 0.0; 10.0; 100.0; 299.0 ])

(* ------------------------------------------------------------------ *)
(* Radio timing *)

let test_radio_durations () =
  let r = Radio.default in
  (* 512B payload + 28B MAC header at 2 Mb/s + 192us PLCP *)
  Alcotest.(check (float 1e-9)) "data airtime"
    (192e-6 +. (float_of_int ((512 + 28) * 8) /. 2e6))
    (Radio.tx_duration r ~size:512);
  Alcotest.(check bool) "ack shorter than data" true
    (Radio.ack_duration r < Radio.tx_duration r ~size:512);
  Alcotest.(check bool) "rts short" true
    (Radio.rts_duration r < 0.5e-3)

(* ------------------------------------------------------------------ *)
(* Channel *)

(* fixed positions: nodes on a line, 200 m apart *)
let line_scripts n =
  Array.init n (fun i -> W.stationary (vec (float_of_int i *. 200.0) 0.0))

let line_channel engine n =
  Ch.create engine ~scripts:(line_scripts n) ~range:250.0 ~cs_range:550.0

let test_channel_delivery () =
  let e = Des.Engine.create () in
  let ch = line_channel e 3 in
  let at_1 = ref [] and at_2 = ref [] in
  Ch.set_receiver ch 1 (fun ~src pdu -> at_1 := (src, pdu) :: !at_1);
  Ch.set_receiver ch 2 (fun ~src pdu -> at_2 := (src, pdu) :: !at_2);
  Ch.transmit ch ~src:0 ~duration:1e-3 "hello";
  Des.Engine.run_all e;
  (* node 1 is 200 m away (in range); node 2 is 400 m away (out of range) *)
  Alcotest.(check (list (pair int string))) "node 1 hears node 0"
    [ (0, "hello") ] !at_1;
  Alcotest.(check (list (pair int string))) "node 2 hears nothing" [] !at_2

let test_channel_collision () =
  let e = Des.Engine.create () in
  (* nodes 0 and 2 are 400 m apart (hidden from each other at rx range but
     both in range of node 1) *)
  let ch = line_channel e 3 in
  let got = ref 0 in
  Ch.set_receiver ch 1 (fun ~src:_ _ -> incr got);
  Ch.transmit ch ~src:0 ~duration:1e-3 "a";
  ignore
    (Des.Engine.schedule e ~delay:1e-4 (fun () ->
         Ch.transmit ch ~src:2 ~duration:1e-3 "b"));
  Des.Engine.run_all e;
  Alcotest.(check int) "both frames corrupted" 0 !got;
  Alcotest.(check bool) "collision counted" true (Ch.collisions ch >= 1);
  Alcotest.(check bool) "at the receiver" true (Ch.collisions_at ch 1 >= 1)

let test_channel_capture () =
  let e = Des.Engine.create () in
  (* receiver at 0; near sender at 50 m; far sender at 400 m: the near frame
     is >3x closer and survives the overlap *)
  let scripts =
    Array.map W.stationary [| vec 0.0 0.0; vec 50.0 0.0; vec 400.0 0.0 |]
  in
  let ch = Ch.create e ~scripts ~range:450.0 ~cs_range:990.0 in
  let got = ref [] in
  Ch.set_receiver ch 0 (fun ~src pdu -> got := (src, pdu) :: !got);
  Ch.transmit ch ~src:2 ~duration:1e-3 "far";
  ignore
    (Des.Engine.schedule e ~delay:1e-4 (fun () ->
         Ch.transmit ch ~src:1 ~duration:1e-3 "near"));
  Des.Engine.run_all e;
  Alcotest.(check (list (pair int string))) "near frame captured"
    [ (1, "near") ] !got

let test_channel_half_duplex () =
  let e = Des.Engine.create () in
  let ch = line_channel e 2 in
  let got = ref 0 in
  Ch.set_receiver ch 1 (fun ~src:_ _ -> incr got);
  (* node 1 is transmitting while node 0's frame arrives *)
  Ch.transmit ch ~src:1 ~duration:2e-3 "mine";
  ignore
    (Des.Engine.schedule e ~delay:1e-4 (fun () ->
         Ch.transmit ch ~src:0 ~duration:1e-3 "theirs"));
  Des.Engine.run_all e;
  Alcotest.(check int) "transmitter hears nothing" 0 !got

let test_channel_carrier_sense () =
  let e = Des.Engine.create () in
  let ch = line_channel e 4 in
  let busy i = Ch.busy_until ch i > Des.Engine.now e in
  Alcotest.(check bool) "idle" false (busy 1);
  Ch.transmit ch ~src:0 ~duration:1e-3 "x";
  Alcotest.(check bool) "busy in cs range (200 m)" true (busy 1);
  Alcotest.(check bool) "busy at 400 m (within 550 cs)" true (busy 2);
  Alcotest.(check bool) "idle at 600 m" false (busy 3);
  Alcotest.(check bool) "busy_until covers airtime" true
    (Ch.busy_until ch 1 >= 1e-3);
  ignore
    (Des.Engine.schedule e ~delay:2e-3 (fun () ->
         Alcotest.(check bool) "idle after" false (busy 1)));
  Des.Engine.run_all e

(* node 2 sends from the middle of a cluster, so 0, 1 and 3 all hear it:
   [f engine channel] on the naive and on the grid channel *)
let on_cluster f =
  let points =
    [| vec 0.0 100.0; vec 100.0 0.0; vec 0.0 0.0; vec (-100.0) 0.0 |]
  in
  List.iter
    (fun grid ->
      let e = Des.Engine.create () in
      let scripts = Array.map W.stationary points in
      f e (Ch.create ?grid e ~scripts ~range:250.0 ~cs_range:550.0))
    [ None; Some { Ch.max_speed = 0.0; epoch = 1.0 } ]

let test_channel_delivery_order () =
  (* the frame's receptions end together: delivered in ascending id, and
     an event the first delivery schedules with delay 0 runs after the
     last of them *)
  on_cluster (fun e ch ->
      let log = ref [] in
      let note fmt =
        Printf.ksprintf (fun s -> log := s :: !log) (fmt ^^ " at %g")
      in
      List.iter
        (fun j ->
          Ch.set_receiver ch j (fun ~src pdu ->
              note "%d<-%d %s" j src pdu (Des.Engine.now e);
              if j = 0 then
                ignore
                  (Des.Engine.schedule e ~delay:0.0 (fun () ->
                       note "later" (Des.Engine.now e)))))
        [ 0; 1; 3 ];
      Ch.transmit ch ~src:2 ~duration:1e-3 "x";
      Des.Engine.run_all e;
      Alcotest.(check (list string))
        "ascending ids, then the delay-0 event"
        [ "0<-2 x at 0.001"; "1<-2 x at 0.001"; "3<-2 x at 0.001";
          "later at 0.001" ]
        (List.rev !log))

let test_channel_reply_keeps_frame () =
  (* receiver 0 answers inside its delivery callback: 1 and 3 still get
     the frame that ended, and the reply reaches everyone in range of 0 *)
  on_cluster (fun e ch ->
      let got = Array.make 4 [] in
      for j = 0 to 3 do
        Ch.set_receiver ch j (fun ~src pdu ->
            got.(j) <- (src, pdu) :: got.(j);
            if j = 0 && pdu = "x" then
              Ch.transmit ch ~src:0 ~duration:1e-3 "reply")
      done;
      Ch.transmit ch ~src:2 ~duration:1e-3 "x";
      Des.Engine.run_all e;
      let heard = Alcotest.(check (list (pair int string))) in
      heard "0 hears the frame" [ (2, "x") ] (List.rev got.(0));
      heard "1 hears frame and reply" [ (2, "x"); (0, "reply") ]
        (List.rev got.(1));
      heard "2 hears the reply" [ (0, "reply") ] (List.rev got.(2));
      heard "3 hears frame and reply" [ (2, "x"); (0, "reply") ]
        (List.rev got.(3));
      Alcotest.(check int) "no collision" 0 (Ch.collisions ch))

(* A script as its first departure, then per leg (pause before it,
   travel time, stay put, destination x, y). Pauses and travel times may
   be 0, giving zero-length legs and legs that depart the instant the
   previous one arrives; [frozen] makes the last leg a zero-speed one
   that never arrives. *)
type script_spec = {
  first : float;
  legs_spec : (float * float * bool * float * float) list;
  frozen : bool;
}

let script_of_spec s =
  let start = vec 500.0 500.0 in
  let n = List.length s.legs_spec in
  let _, _, legs =
    List.fold_left
      (fun (k, (time, from_p), acc) (pause, travel, stay, x, y) ->
        let depart = if k = 0 then s.first else time +. pause in
        let to_p = if stay then from_p else vec x y in
        let arrive =
          if s.frozen && k = n - 1 then infinity else depart +. travel
        in
        (k + 1, (arrive, to_p), { W.depart; arrive; from_p; to_p } :: acc))
      (0, (0.0, start), [])
      s.legs_spec
  in
  W.of_legs ~initial:start (List.rev legs)

(* every departure and arrival instant, two instants inside each leg and
   each pause, one before the first departure and two past the end *)
let query_times script =
  let thirds a b =
    if Float.is_finite b then
      [ a +. ((b -. a) /. 3.0); a +. (2.0 *. (b -. a) /. 3.0) ]
    else [ a +. 1.0 ]
  in
  let rec walk = function
    | [] -> []
    | l :: rest ->
        let next =
          match rest with m :: _ -> m.W.depart | [] -> l.W.arrive +. 2.0
        in
        [ l.W.depart; l.W.arrive ]
        @ thirds l.W.depart l.W.arrive
        @ thirds l.W.arrive next @ walk rest
  in
  let legs = W.legs script in
  let first = match legs with l :: _ -> l.W.depart | [] -> 1.0 in
  List.filter Float.is_finite ((first /. 2.0) :: walk legs)

let print_spec s =
  Printf.sprintf "first %h%s [%s]" s.first
    (if s.frozen then " frozen" else "")
    (String.concat "; "
       (List.map
          (fun (p, t, stay, x, y) ->
            Printf.sprintf "(%h, %h, %b, %h, %h)" p t stay x y)
          s.legs_spec))

let spec_gen =
  let open Check.Gen in
  let zero_or lo hi = oneof [ pure 0.0; float_range lo hi ] in
  let leg =
    map2
      (fun (pause, travel, stay) (x, y) -> (pause, travel, stay, x, y))
      (triple (zero_or 0.0 3.0) (zero_or 0.0 10.0) bool)
      (pair (float_range 0.0 1000.0) (float_range 0.0 1000.0))
  in
  map2
    (fun (first, frozen) legs_spec -> { first; legs_spec; frozen })
    (pair (zero_or 0.0 5.0) bool)
    (list_size (int_range 0 6) leg)

let same_bits a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* the channel's leg cache against Waypoint.position, bit for bit, for
   three nodes queried together at every instant any of them cares about *)
let prop_leg_cache =
  Prop.test ~count:300 "leg cache equals Waypoint.position bit for bit"
    ~print:(Prop.pp_list print_spec)
    Check.Gen.(list_size (pure 3) spec_gen)
    (fun specs ->
      let scripts = Array.of_list (List.map script_of_spec specs) in
      let times =
        List.sort_uniq Float.compare
          (List.concat_map query_times (Array.to_list scripts))
      in
      let e = Des.Engine.create () in
      let ch = Ch.create e ~scripts ~range:250.0 ~cs_range:550.0 in
      let ok = ref true in
      List.iter
        (fun time ->
          ignore
            (Des.Engine.schedule_at e ~time (fun () ->
                 Array.iteri
                   (fun i s ->
                     (* twice: the second read comes from the memo *)
                     for _ = 1 to 2 do
                       let p = Ch.position ch i and q = W.position s time in
                       if not (same_bits p.V.x q.V.x && same_bits p.V.y q.V.y)
                       then ok := false
                     done)
                   scripts)))
        times;
      Des.Engine.run_all e;
      !ok)

(* ------------------------------------------------------------------ *)
(* Spatial hash grid *)

let scatter ~seed n =
  let rng = Des.Rng.create (Int64.of_int seed) in
  Array.init n (fun _ -> T.random_point T.paper rng)

let test_grid_superset () =
  (* with max_speed 0 the inflated radius equals the query radius, and the
     bucket sweep must still cover every node the exact disc contains *)
  let n = 60 in
  let points = scatter ~seed:9 n in
  let g =
    Wireless.Grid.create ~nodes:n
      ~position:(fun i _ -> points.(i))
      ~cell:100.0 ~max_speed:0.0 ~epoch:1.0
  in
  Array.iteri
    (fun c center ->
      List.iter
        (fun radius ->
          let candidates = Hashtbl.create 16 in
          Wireless.Grid.iter g ~now:0.0 ~center ~radius (fun j ->
              Hashtbl.replace candidates j ());
          for j = 0 to n - 1 do
            if V.dist center points.(j) <= radius then
              Alcotest.(check bool)
                (Printf.sprintf "node %d in candidates of query %d" j c)
                true
                (Hashtbl.mem candidates j)
          done)
        [ 50.0; 250.0; 550.0 ])
    points

let test_grid_ascending_order () =
  let n = 80 in
  let points = scatter ~seed:21 n in
  let g =
    Wireless.Grid.create ~nodes:n
      ~position:(fun i _ -> points.(i))
      ~cell:137.5 ~max_speed:20.0 ~epoch:0.25
  in
  Array.iter
    (fun center ->
      List.iter
        (fun radius ->
          let last = ref (-1) in
          Wireless.Grid.iter g ~now:0.5 ~center ~radius (fun j ->
              Alcotest.(check bool) "strictly ascending" true (j > !last);
              last := j))
        [ 100.0; 300.0; 550.0; 2000.0 ])
    points

let test_grid_iter_5k () =
  (* 5,000 nodes at the paper's density, each moving in a straight line at
     up to 100 m/s, queried 0.2 s after the build: candidates must come out
     strictly ascending (so without duplicates) and cover the exact disc
     at the current positions. The radii span every ordering path: sparse
     queries under the old m^2 > 4n threshold (m <= 141), merged queries
     above it, dense queries (m >= n / 8) and the whole-area sweep. *)
  let n = 5000 and max_speed = 100.0 and now = 0.2 in
  let terrain = T.make ~width:8124.0 ~height:8124.0 in
  let rng = Des.Rng.create 77L in
  let start = Array.init n (fun _ -> T.random_point terrain rng) in
  let velocity =
    Array.init n (fun _ ->
        let angle = Des.Rng.float rng (2.0 *. Float.pi) in
        let speed = Des.Rng.float rng max_speed in
        vec (speed *. cos angle) (speed *. sin angle))
  in
  let position i t = V.add start.(i) (V.scale t velocity.(i)) in
  let g =
    Wireless.Grid.create ~nodes:n ~position ~cell:275.0 ~max_speed ~epoch:0.25
  in
  Wireless.Grid.rebuild g ~now:0.0;
  let sizes = ref [] in
  List.iter
    (fun radius ->
      for c = 0 to 49 do
        let center = position (c * 97) now in
        let seen = Array.make n false and m = ref 0 and last = ref (-1) in
        Wireless.Grid.iter g ~now ~center ~radius (fun j ->
            if j <= !last then
              Alcotest.failf "radius %.0f: candidate %d after %d" radius j !last;
            last := j;
            seen.(j) <- true;
            incr m);
        for j = 0 to n - 1 do
          if V.dist center (position j now) <= radius && not seen.(j) then
            Alcotest.failf "radius %.0f: in-range node %d missing" radius j
        done;
        sizes := !m :: !sizes
      done)
    [ 100.0; 550.0; 1000.0; 2000.0; 12000.0 ];
  let seen_size p = List.exists p !sizes in
  Alcotest.(check bool) "a query with m <= 141" true (seen_size (fun m -> m <= 141));
  Alcotest.(check bool) "a query with 141 < m < n / 8" true
    (seen_size (fun m -> m > 141 && 8 * m < n));
  Alcotest.(check bool) "a dense query, n / 8 <= m < n" true
    (seen_size (fun m -> 8 * m >= n && m < n));
  Alcotest.(check bool) "a whole-area query" true (seen_size (fun m -> m = n))

(* The same broadcast schedule through a naive and a grid channel:
   delivery logs, collision counters and the carrier-sense horizon of
   every node — probed at each transmission start and mid-airtime — must
   agree exactly. [durations] cycle over the frames. *)
let grid_channel_agrees ~scripts ~max_speed ~gap ~durations =
  let n = Array.length scripts in
  let frames = 20 * Array.length durations in
  let run grid =
    let e = Des.Engine.create () in
    let ch = Ch.create ?grid e ~scripts ~range:250.0 ~cs_range:550.0 in
    let log = ref [] and horizons = ref [] in
    for i = 0 to n - 1 do
      Ch.set_receiver ch i (fun ~src pdu ->
          log := (Des.Engine.now e, i, src, pdu) :: !log)
    done;
    let probe () =
      horizons := Array.init n (Ch.busy_until ch) :: !horizons
    in
    for k = 0 to frames - 1 do
      let time = float_of_int k *. gap in
      let duration = durations.(k mod Array.length durations) in
      ignore
        (Des.Engine.schedule_at e ~time (fun () ->
             Ch.transmit ch ~src:(k * 7 mod n) ~duration k));
      ignore (Des.Engine.schedule_at e ~time probe);
      ignore (Des.Engine.schedule_at e ~time:(time +. (duration /. 2.0)) probe)
    done;
    Des.Engine.run_all e;
    ( List.rev !log,
      Ch.collisions ch,
      List.init n (Ch.collisions_at ch),
      List.rev !horizons )
  in
  let log_n, coll_n, per_n, cs_n = run None in
  let log_g, coll_g, per_g, cs_g =
    run (Some { Ch.max_speed; epoch = 0.25 })
  in
  Alcotest.(check int) "same delivery count" (List.length log_n)
    (List.length log_g);
  Alcotest.(check bool) "same delivery log" true (log_n = log_g);
  Alcotest.(check int) "same collision total" coll_n coll_g;
  Alcotest.(check (list int)) "same per-node collisions" per_n per_g;
  Alcotest.(check int) "same probe count" (List.length cs_n) (List.length cs_g);
  List.iteri
    (fun p (a, b) ->
      Array.iteri
        (fun i h ->
          if h <> b.(i) then
            Alcotest.failf "probe %d node %d: busy_until naive %h grid %h" p
              i h b.(i))
        a)
    (List.combine cs_n cs_g)

let test_grid_channel_equivalence () =
  let points = scatter ~seed:33 40 in
  grid_channel_agrees
    ~scripts:(Array.map W.stationary points)
    ~max_speed:0.0 ~gap:3e-4 ~durations:[| 1e-3 |]

let test_grid_channel_equivalence_moving () =
  (* legs far faster than any mobility model's and frames up to 0.3 s: a
     sender drifts up to 300 m, past a whole cell, from where its frame
     was filed, which the grid's carrier-sense and collision windows must
     absorb *)
  let n = 150 and max_speed = 1000.0 in
  let rng = Des.Rng.create 41L in
  let scripts =
    Array.init n (fun i ->
        W.generate ~terrain:T.paper
          ~rng:(Des.Rng.split rng (Printf.sprintf "node%d" i))
          ~pause:0.0 ~speed_min:(max_speed /. 2.0) ~speed_max:max_speed
          ~duration:20.0)
  in
  grid_channel_agrees ~scripts ~max_speed ~gap:0.02 ~durations:[| 0.3; 0.002; 0.05 |]

(* ------------------------------------------------------------------ *)
(* MAC *)

type Frame.payload += Probe of int

let mac_world n =
  let e = Des.Engine.create () in
  let ch = line_channel e n in
  let received = Array.make n [] in
  let failed = ref [] in
  let succeeded = ref [] in
  let macs =
    Array.init n (fun i ->
        Mac.create e Radio.default ch ~id:i
          ~rng:(Des.Rng.create (Int64.of_int (100 + i)))
          {
            Mac.on_receive =
              (fun ~src frame -> received.(i) <- (src, frame) :: received.(i));
            on_unicast_success =
              (fun ~frame:_ ~dst -> succeeded := dst :: !succeeded);
            on_unicast_fail = (fun ~frame:_ ~dst -> failed := dst :: !failed);
          })
  in
  (e, macs, received, failed, succeeded)

let probe_frame ~src ~dst ~size k =
  Frame.make ~src ~dst ~size ~payload:(Probe k)

let test_mac_unicast_success () =
  let e, macs, received, failed, succeeded = mac_world 2 in
  Mac.send macs.(0) (probe_frame ~src:0 ~dst:(Frame.Unicast 1) ~size:512 1);
  Des.Engine.run e ~until:1.0;
  Alcotest.(check int) "delivered" 1 (List.length received.(1));
  Alcotest.(check (list int)) "ack success" [ 1 ] !succeeded;
  Alcotest.(check (list int)) "no failure" [] !failed;
  let s = Mac.stats macs.(0) in
  Alcotest.(check int) "one control tx (probe payload)" 1 s.Mac.tx_control

let test_mac_unicast_fail_when_unreachable () =
  let e, macs, received, failed, _ = mac_world 3 in
  (* node 2 is 400 m from node 0: out of range, so retries exhaust *)
  Mac.send macs.(0) (probe_frame ~src:0 ~dst:(Frame.Unicast 2) ~size:512 1);
  Des.Engine.run e ~until:5.0;
  Alcotest.(check (list int)) "failure reported" [ 2 ] !failed;
  Alcotest.(check int) "nothing delivered" 0 (List.length received.(2));
  Alcotest.(check int) "drop counted" 1 (Mac.drops macs.(0))

let test_mac_broadcast () =
  let e, macs, received, _, _ = mac_world 3 in
  Mac.send macs.(1) (probe_frame ~src:1 ~dst:Frame.Broadcast ~size:64 9);
  Des.Engine.run e ~until:1.0;
  Alcotest.(check int) "node 0 heard" 1 (List.length received.(0));
  Alcotest.(check int) "node 2 heard" 1 (List.length received.(2));
  let s = Mac.stats macs.(1) in
  Alcotest.(check int) "control tx" 1 s.Mac.tx_control

let test_mac_queue_overflow () =
  let e, macs, _, _, _ = mac_world 2 in
  for k = 1 to Radio.default.Radio.queue_limit + 10 do
    Mac.send macs.(0) (probe_frame ~src:0 ~dst:(Frame.Unicast 1) ~size:512 k)
  done;
  let s = Mac.stats macs.(0) in
  Alcotest.(check int) "overflow drops" 10 s.Mac.drop_queue_full;
  Des.Engine.run e ~until:60.0;
  let s = Mac.stats macs.(0) in
  Alcotest.(check int) "rest transmitted" Radio.default.Radio.queue_limit
    s.Mac.tx_control

let test_mac_serialises_contenders () =
  (* two senders in carrier-sense range of each other both unicast to the
     middle node; with carrier sense + RTS/CTS both must get through *)
  let e, macs, received, failed, _ = mac_world 3 in
  for k = 1 to 10 do
    Mac.send macs.(0) (probe_frame ~src:0 ~dst:(Frame.Unicast 1) ~size:512 k);
    Mac.send macs.(2) (probe_frame ~src:2 ~dst:(Frame.Unicast 1) ~size:512 k)
  done;
  Des.Engine.run e ~until:30.0;
  Alcotest.(check (list int)) "no failures" [] !failed;
  Alcotest.(check int) "all 20 delivered" 20 (List.length received.(1))

let test_mac_data_vs_control_classification () =
  let e, macs, _, _, _ = mac_world 2 in
  let data =
    {
      Frame.origin = 0;
      final_dst = 1;
      flow = 0;
      seq = 1;
      sent_at = 0.0;
      hops = 0;
    }
  in
  Mac.send macs.(0)
    (Frame.make ~src:0 ~dst:(Frame.Unicast 1) ~size:532
       ~payload:(Frame.Data data));
  Mac.send macs.(0) (probe_frame ~src:0 ~dst:(Frame.Unicast 1) ~size:64 1);
  Des.Engine.run e ~until:2.0;
  let s = Mac.stats macs.(0) in
  Alcotest.(check int) "one data" 1 s.Mac.tx_data;
  Alcotest.(check int) "one control" 1 s.Mac.tx_control

let test_frame_classification () =
  let data =
    {
      Frame.origin = 0;
      final_dst = 1;
      flow = 0;
      seq = 1;
      sent_at = 0.0;
      hops = 0;
    }
  in
  let f =
    Frame.make ~src:0 ~dst:Frame.Broadcast ~size:10 ~payload:(Frame.Data data)
  in
  Alcotest.(check bool) "data payload is data" true (Frame.is_data f);
  let c = Frame.make ~src:0 ~dst:Frame.Broadcast ~size:10 ~payload:(Probe 1) in
  Alcotest.(check bool) "other payload is control" false (Frame.is_data c);
  let reclassified = Frame.with_cls c Frame.Data_frame in
  Alcotest.(check bool) "reclassified" true (Frame.is_data reclassified)

let () =
  Alcotest.run "wireless"
    [
      ( "geometry",
        [
          Alcotest.test_case "vec2" `Quick test_vec2;
          Alcotest.test_case "terrain" `Quick test_terrain;
        ] );
      ( "waypoint",
        [
          Alcotest.test_case "stationary" `Quick test_waypoint_stationary;
          Alcotest.test_case "kinematics" `Quick test_waypoint_kinematics;
          Alcotest.test_case "pause 900 static" `Quick test_waypoint_pause_900_is_static;
          Alcotest.test_case "degenerate speed range" `Quick
            test_waypoint_degenerate_speed;
          Alcotest.test_case "deterministic" `Quick test_waypoint_deterministic;
        ] );
      ( "radio",
        [ Alcotest.test_case "durations" `Quick test_radio_durations ] );
      ( "channel",
        [
          Alcotest.test_case "delivery and range" `Quick test_channel_delivery;
          Alcotest.test_case "hidden-terminal collision" `Quick test_channel_collision;
          Alcotest.test_case "capture effect" `Quick test_channel_capture;
          Alcotest.test_case "half duplex" `Quick test_channel_half_duplex;
          Alcotest.test_case "carrier sense" `Quick test_channel_carrier_sense;
          Alcotest.test_case "one frame delivers in ascending id" `Quick
            test_channel_delivery_order;
          Alcotest.test_case "a reply inside delivery keeps the frame" `Quick
            test_channel_reply_keeps_frame;
          prop_leg_cache;
        ] );
      ( "grid",
        [
          Alcotest.test_case "candidate superset" `Quick test_grid_superset;
          Alcotest.test_case "ascending iteration" `Quick
            test_grid_ascending_order;
          Alcotest.test_case "iter at 5k nodes" `Quick test_grid_iter_5k;
          Alcotest.test_case "naive/grid channel equivalence" `Quick
            test_grid_channel_equivalence;
          Alcotest.test_case "naive/grid channel equivalence, moving" `Quick
            test_grid_channel_equivalence_moving;
        ] );
      ( "mac",
        [
          Alcotest.test_case "unicast success" `Quick test_mac_unicast_success;
          Alcotest.test_case "unicast failure" `Quick test_mac_unicast_fail_when_unreachable;
          Alcotest.test_case "broadcast" `Quick test_mac_broadcast;
          Alcotest.test_case "queue overflow" `Quick test_mac_queue_overflow;
          Alcotest.test_case "contention serialisation" `Quick test_mac_serialises_contenders;
          Alcotest.test_case "data/control classification" `Quick
            test_mac_data_vs_control_classification;
          Alcotest.test_case "frame classification" `Quick test_frame_classification;
        ] );
    ]
