module IntSet = Set.Make (Int)

module Make (L : Label.S) = struct
  type t = {
    nodes : int;
    dest : int;
    labels : Label.t array;
    adjacency : IntSet.t array;
    succs : (int * Label.t) list array;
  }

  let create ~nodes ~dest =
    if nodes <= 0 then invalid_arg "Simple_net.create: need at least one node";
    if dest < 0 || dest >= nodes then invalid_arg "Simple_net.create: bad dest";
    let labels = Array.make nodes L.one in
    labels.(dest) <- L.zero;
    {
      nodes;
      dest;
      labels;
      adjacency = Array.make nodes IntSet.empty;
      succs = Array.make nodes [];
    }

  let node_count t = t.nodes

  let dest t = t.dest

  let check_node t i name =
    if i < 0 || i >= t.nodes then invalid_arg ("Simple_net: bad node in " ^ name)

  let add_link t a b =
    check_node t a "add_link";
    check_node t b "add_link";
    if a = b then invalid_arg "Simple_net.add_link: self-link";
    t.adjacency.(a) <- IntSet.add b t.adjacency.(a);
    t.adjacency.(b) <- IntSet.add a t.adjacency.(b)

  let remove_link t a b =
    check_node t a "remove_link";
    check_node t b "remove_link";
    t.adjacency.(a) <- IntSet.remove b t.adjacency.(a);
    t.adjacency.(b) <- IntSet.remove a t.adjacency.(b)

  let linked t a b = IntSet.mem b t.adjacency.(a)

  let label t i =
    check_node t i "label";
    t.labels.(i)

  let successors t i =
    check_node t i "successors";
    t.succs.(i)

  let has_route t i = i = t.dest || successors t i <> []

  type outcome =
    | Routed of { replier : int; reply_path : int list }
    | No_route
    | Label_exhausted of int

  let lt a b = L.compare a b < 0

  let min_label a b = if lt a b then a else b

  let choose_label ~current ~cached_min ~adv =
    if not (lt adv current) then None
    else if lt current cached_min then Some current
    else if not (lt adv cached_min) then None
    else begin
      match L.next adv with
      | Some n when lt n cached_min -> Some n
      | Some _ | None -> L.split ~lo:adv ~hi:cached_min
    end

  (* Labels are non-increasing with time (Eq. 3); enforce it here so any
     rule violation trips immediately rather than as a distant loop. *)
  let set_label t i g =
    assert (L.compare g t.labels.(i) <= 0);
    t.labels.(i) <- g

  let adopt_successor t i ~via ~adv =
    let others = List.remove_assoc via t.succs.(i) in
    t.succs.(i) <- (via, adv) :: others

  (* Breadth-first flood carrying the running minimum label; [carried.(i)]
     is M_i, the minimum predecessor label as received (the requester's own
     cache is the greatest element per §II). Returns the replier and the
     parent map of the flood tree. *)
  let flood t ~src =
    let visited = Array.make t.nodes false in
    let parent = Array.make t.nodes (-1) in
    let carried = Array.make t.nodes L.one in
    visited.(src) <- true;
    let queue = Queue.create () in
    (* the requester places its current label in the request *)
    Queue.add (src, t.labels.(src)) queue;
    let replier = ref None in
    (try
       while not (Queue.is_empty queue) do
         let node, request_label = Queue.pop queue in
         let relayed = min_label request_label t.labels.(node) in
         IntSet.iter
           (fun neighbour ->
             if not visited.(neighbour) then begin
               visited.(neighbour) <- true;
               parent.(neighbour) <- node;
               carried.(neighbour) <- relayed;
               if
                 neighbour = t.dest
                 || (lt t.labels.(neighbour) relayed
                    && t.succs.(neighbour) <> [])
               then begin
                 replier := Some neighbour;
                 raise Exit
               end
               else Queue.add (neighbour, relayed) queue
             end)
           t.adjacency.(node)
       done
     with Exit -> ());
    (!replier, parent, carried)

  let request t ~src =
    check_node t src "request";
    if src = t.dest then Routed { replier = src; reply_path = [] }
    else begin
      match flood t ~src with
      | None, _, _ -> No_route
      | Some replier, parent, carried ->
          (* reply retraces the flood tree back to the requester *)
          let rec walk node adv acc =
            if node = src then Ok (List.rev (node :: acc))
            else
              let next = parent.(node) in
              assert (next >= 0);
              let cached =
                if next = src then L.one else carried.(next)
              in
              match
                choose_label ~current:t.labels.(next)
                  ~cached_min:cached ~adv
              with
              | None -> Error next
              | Some g ->
                  set_label t next g;
                  adopt_successor t next ~via:node ~adv;
                  (* Eq. 6: drop successors no longer below the new label *)
                  t.succs.(next) <-
                    List.filter (fun (_, s) -> lt s g) t.succs.(next);
                  walk next g (node :: acc)
          in
          let adv = t.labels.(replier) in
          (match walk replier adv [] with
          | Ok path -> Routed { replier; reply_path = path }
          | Error node -> Label_exhausted node)
    end

  let seed_label t i l =
    check_node t i "seed_label";
    t.labels.(i) <- l

  let break_link t a b =
    remove_link t a b;
    t.succs.(a) <- List.remove_assoc b t.succs.(a);
    t.succs.(b) <- List.remove_assoc a t.succs.(b)

  (* The abstract executor is SLR at one fixed sequence number, so Theorem
     3's invariant over its labels is the oracle's over orderings (0, l);
     successors are compared at their current labels. *)
  let check_invariants t =
    let order i = Ordering.v ~sn:0 ~label:t.labels.(i) in
    let rec edges i =
      if i = t.nodes then Ok ()
      else
        Result.bind
          (Oracle.check_edges
             {
               Oracle.node = i;
               dst = t.dest;
               order = order i;
               succs = List.map (fun (j, _) -> (j, order j)) t.succs.(i);
             })
          (fun () -> edges (i + 1))
    in
    Result.bind (edges 0) (fun () ->
        Oracle.check_acyclic ~dst:t.dest
          ~successors:(fun i -> List.map fst t.succs.(i))
          t.nodes)

  let route_to_dest t ~src =
    let rec follow node acc steps =
      if node = t.dest then Some (List.rev (node :: acc))
      else if steps > t.nodes then None
      else begin
        match t.succs.(node) with
        | [] -> None
        | (first, first_label) :: rest ->
            (* pick the least-labelled successor *)
            let best, _ =
              List.fold_left
                (fun (b, bl) (s, sl) -> if lt sl bl then (s, sl) else (b, bl))
                (first, first_label) rest
            in
            follow best (node :: acc) (steps + 1)
      end
    in
    follow src [] 0

  let pp_labels ppf t =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
      (fun ppf i -> Format.fprintf ppf "%d:%a" i L.pp t.labels.(i))
      ppf
      (List.init t.nodes Fun.id)
end
