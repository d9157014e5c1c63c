type t = {
  nodes : int;
  position : int -> float -> Vec2.t;
  cell : float;
  max_speed : float;
  epoch : float;
  mutable built_at : float;  (** nan until the first rebuild *)
  mutable ox : float;
  mutable oy : float;
  mutable cols : int;
  mutable rows : int;
  (* CSR layout: bucket b holds ids.(off.(b) .. off.(b+1) - 1), ascending *)
  mutable off : int array;
  ids : int array;
  xs : float array;
  ys : float array;
  (* query scratch: candidates gathered into [gather] as ascending bucket
     runs delimited by [runs], then merged pairwise through [spare], or,
     for dense queries, ordered by a sweep over the membership [mask] *)
  gather : int array;
  spare : int array;
  runs : int array;
  mask : bool array;
}

let create ~nodes ~position ~cell ~max_speed ~epoch =
  if cell <= 0.0 then invalid_arg "Grid.create: cell must be positive";
  if epoch <= 0.0 then invalid_arg "Grid.create: epoch must be positive";
  if max_speed < 0.0 then invalid_arg "Grid.create: negative max_speed";
  {
    nodes;
    position;
    cell;
    max_speed;
    epoch;
    built_at = nan;
    ox = 0.0;
    oy = 0.0;
    cols = 0;
    rows = 0;
    off = [||];
    ids = Array.make (Stdlib.max nodes 1) 0;
    xs = Array.make (Stdlib.max nodes 1) 0.0;
    ys = Array.make (Stdlib.max nodes 1) 0.0;
    gather = Array.make (Stdlib.max nodes 1) 0;
    spare = Array.make (Stdlib.max nodes 1) 0;
    runs = Array.make (nodes + 1) 0;
    mask = Array.make (Stdlib.max nodes 1) false;
  }

let bucket t x y =
  let bx = int_of_float ((x -. t.ox) /. t.cell) in
  let by = int_of_float ((y -. t.oy) /. t.cell) in
  (by * t.cols) + bx

let span_rebuild = Obs.span "channel.grid.rebuild"

let rebuild_body t ~now =
  if t.nodes > 0 then begin
    let minx = ref infinity and miny = ref infinity in
    let maxx = ref neg_infinity and maxy = ref neg_infinity in
    for i = 0 to t.nodes - 1 do
      let p = t.position i now in
      t.xs.(i) <- p.Vec2.x;
      t.ys.(i) <- p.Vec2.y;
      if p.Vec2.x < !minx then minx := p.Vec2.x;
      if p.Vec2.x > !maxx then maxx := p.Vec2.x;
      if p.Vec2.y < !miny then miny := p.Vec2.y;
      if p.Vec2.y > !maxy then maxy := p.Vec2.y
    done;
    t.ox <- !minx;
    t.oy <- !miny;
    t.cols <- 1 + int_of_float ((!maxx -. !minx) /. t.cell);
    t.rows <- 1 + int_of_float ((!maxy -. !miny) /. t.cell);
    let buckets = t.cols * t.rows in
    if Array.length t.off <> buckets + 1 then t.off <- Array.make (buckets + 1) 0
    else Array.fill t.off 0 (buckets + 1) 0;
    for i = 0 to t.nodes - 1 do
      let b = bucket t t.xs.(i) t.ys.(i) in
      t.off.(b + 1) <- t.off.(b + 1) + 1
    done;
    for b = 1 to buckets do
      t.off.(b) <- t.off.(b) + t.off.(b - 1)
    done;
    let cursor = Array.copy t.off in
    for i = 0 to t.nodes - 1 do
      let b = bucket t t.xs.(i) t.ys.(i) in
      t.ids.(cursor.(b)) <- i;
      cursor.(b) <- cursor.(b) + 1
    done
  end;
  t.built_at <- now

let rebuild t ~now =
  if Obs.enabled () then begin
    Obs.start span_rebuild;
    rebuild_body t ~now;
    Obs.stop span_rebuild
  end
  else rebuild_body t ~now

let ensure t ~now =
  if Float.is_nan t.built_at || now < t.built_at || now -. t.built_at > t.epoch
  then rebuild t ~now

let clampi v lo hi = if v < lo then lo else if v > hi then hi else v

(* merge the ascending runs [a.(lo..mid)] and [a.(mid..hi)] into
   [b.(lo..hi)]. Branch-free: node ids are distinct and the runs
   interleave at random, so a compare-and-branch merge mispredicts about
   every other move; [c] is -1 when the left head is the smaller. *)
let merge2 (a : int array) (b : int array) lo mid hi =
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    let x = Array.unsafe_get a !i and y = Array.unsafe_get a !j in
    let c = (x - y) asr 62 in
    Array.unsafe_set b !k (y + ((x - y) land c));
    i := !i - c;
    j := !j + 1 + c;
    incr k
  done;
  (* one run is spent; the rest of the other is short, so copy it by hand
     rather than pay a C call *)
  for q = !i to mid - 1 do
    Array.unsafe_set b (!k + q - !i) (Array.unsafe_get a q)
  done;
  for q = !j to hi - 1 do
    Array.unsafe_set b (!k + q - !j) (Array.unsafe_get a q)
  done

(* [runs.(0..k)] delimits [k] ascending runs of [gather]: merge them
   pairwise, ping-ponging with [spare], in O(m log k) moves, and return the
   buffer left holding the sorted candidates *)
let merge_runs t k =
  let src = ref t.gather and dst = ref t.spare and k = ref k in
  let runs = t.runs in
  while !k > 1 do
    let a = !src and b = !dst in
    let out = ref 0 and r = ref 0 in
    while !r < !k do
      let lo = runs.(!r) and hi = runs.(Stdlib.min (!r + 2) !k) in
      (* a lone last run merges with an empty one: a plain copy *)
      merge2 a b lo (if !r + 1 < !k then runs.(!r + 1) else hi) hi;
      (* out <= r / 2: every bound this pass still reads lies ahead *)
      runs.(!out) <- lo;
      incr out;
      r := !r + 2
    done;
    runs.(!out) <- runs.(!k);
    k := !out;
    src := b;
    dst := a
  done;
  !src

let iter t ~now ~center ~radius f =
  if t.nodes > 0 then begin
    ensure t ~now;
    (* every node is at most max_speed * (now - built_at) away from the
       position it was bucketed under, so inflating the radius by that
       much makes the bucket sweep a guaranteed superset *)
    let r = radius +. (t.max_speed *. (now -. t.built_at)) in
    let bx0 = clampi (int_of_float ((center.Vec2.x -. r -. t.ox) /. t.cell)) 0 (t.cols - 1) in
    let bx1 = clampi (int_of_float ((center.Vec2.x +. r -. t.ox) /. t.cell)) 0 (t.cols - 1) in
    let by0 = clampi (int_of_float ((center.Vec2.y -. r -. t.oy) /. t.cell)) 0 (t.rows - 1) in
    let by1 = clampi (int_of_float ((center.Vec2.y +. r -. t.oy) /. t.cell)) 0 (t.rows - 1) in
    if bx0 = 0 && by0 = 0 && bx1 = t.cols - 1 && by1 = t.rows - 1 then
      (* the query disc covers the whole occupied area (common when
         cs_range rivals the terrain diagonal): skip the gather, every
         node is a candidate *)
      for j = 0 to t.nodes - 1 do
        f j
      done
    else begin
      (* Each bucket holds its ids ascending, so the gather is a sequence
         of ascending runs, one per non-empty bucket. Candidates are then
         visited in ascending node order, so a grid-backed scan schedules
         engine events in exactly the order the naive 0..N-1 loop does.
         The bucketed positions also prune the window's corners: a node
         outside the inflated disc there cannot be in the query disc now
         (the relative 1e-9 absorbs rounding). *)
      let cx = center.Vec2.x and cy = center.Vec2.y in
      let r2 = r *. r *. (1.0 +. 1e-9) in
      let m = ref 0 and k = ref 0 in
      for by = by0 to by1 do
        for bx = bx0 to bx1 do
          let b = (by * t.cols) + bx in
          let start = !m in
          for q = t.off.(b) to t.off.(b + 1) - 1 do
            let j = t.ids.(q) in
            let dx = t.xs.(j) -. cx and dy = t.ys.(j) -. cy in
            if (dx *. dx) +. (dy *. dy) <= r2 then begin
              t.gather.(!m) <- j;
              incr m
            end
          done;
          if !m > start then begin
            t.runs.(!k) <- start;
            incr k
          end
        done
      done;
      t.runs.(!k) <- !m;
      if t.nodes <= 8 * !m then begin
        (* dense query: a membership sweep over every id is O(nodes) =
           O(m) here, and cheaper than the merge *)
        for q = 0 to !m - 1 do
          t.mask.(t.gather.(q)) <- true
        done;
        for j = 0 to t.nodes - 1 do
          if t.mask.(j) then begin
            t.mask.(j) <- false;
            f j
          end
        done
      end
      else begin
        let sorted = merge_runs t !k in
        for i = 0 to !m - 1 do
          f sorted.(i)
        done
      end
    end
  end
