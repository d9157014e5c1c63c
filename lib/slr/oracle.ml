type snapshot = {
  node : int;
  dst : int;
  order : Ordering.t;
  succs : (int * Ordering.t) list;
}

let check_edges snap =
  match
    List.find_opt
      (fun (_, ob) -> not (Ordering.precedes snap.order ob))
      snap.succs
  with
  | None -> Ok ()
  | Some (b, ob) ->
      Error
        (Format.asprintf
           "dst %d: node %d keeps successor %d out of order: %a not ⊑ %a"
           snap.dst snap.node b Ordering.pp snap.order Ordering.pp ob)

let check_acyclic ~dst ~successors n =
  match Dag.acyclic ~successors n with
  | Ok () -> Ok ()
  | Error cycle ->
      Error
        (Format.asprintf "dst %d: successor cycle %a" dst
           (Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "->")
              Format.pp_print_int)
           cycle)

(* Per destination we mirror each node's last reported ordering and
   successor id set; the orderings drive the monotonicity check, the id
   sets the global acyclicity check. *)
type dst_state = {
  orders : Ordering.t option array;
  succ_ids : int list array;
}

type t = {
  nodes : int;
  dsts : (int, dst_state) Hashtbl.t;
  mutable observations : int;
}

let create ~nodes = { nodes; dsts = Hashtbl.create 16; observations = 0 }

let dst_state t dst =
  match Hashtbl.find_opt t.dsts dst with
  | Some s -> s
  | None ->
      let s =
        { orders = Array.make t.nodes None; succ_ids = Array.make t.nodes [] }
      in
      Hashtbl.replace t.dsts dst s;
      s

let observations t = t.observations

(* Eq. 3 between two orderings of one node: the sequence number is
   destination-controlled and only moves forward; at the same sequence
   number the label never grows. Instance-generic — the theorem is about
   the ordering, not the concrete label set. *)
let check_monotonic state snap =
  match state.orders.(snap.node) with
  | None -> Ok ()
  | Some prev ->
      let next = snap.order in
      if
        Ordering.is_unassigned prev
        || Ordering.is_unassigned next
        || prev.Ordering.sn < next.Ordering.sn
        || prev.Ordering.sn = next.Ordering.sn
           && Label.compare next.Ordering.label prev.Ordering.label <= 0
      then Ok ()
      else
        Error
          (Format.asprintf
             "dst %d: node %d raised its label: %a then %a (Eq. 3)" snap.dst
             snap.node Ordering.pp prev Ordering.pp next)

let observe t snap =
  let valid i = i >= 0 && i < t.nodes in
  if not (valid snap.node && List.for_all (fun (b, _) -> valid b) snap.succs)
  then invalid_arg "Oracle.observe: node out of range";
  t.observations <- t.observations + 1;
  let state = dst_state t snap.dst in
  let result =
    Result.bind (check_edges snap) (fun () -> check_monotonic state snap)
  in
  (* record before the cycle check so it sees the new edge set *)
  state.orders.(snap.node) <- Some snap.order;
  state.succ_ids.(snap.node) <- List.map fst snap.succs;
  Result.bind result (fun () ->
      check_acyclic ~dst:snap.dst
        ~successors:(fun i -> state.succ_ids.(i))
        t.nodes)
