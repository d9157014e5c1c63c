module R = Protocols.Routing_intf

type layer = Receive | Originate | Link | Mac_enqueue

let index = function Receive -> 0 | Originate -> 1 | Link -> 2 | Mac_enqueue -> 3

type t = {
  ns : int array;
  entered : int array;
  mutable stack : int list;
  mutable last : int;
}

let create () = { ns = Array.make 4 0; entered = Array.make 4 0; stack = []; last = 0 }

let seconds t layer = float_of_int t.ns.(index layer) *. 1e-9
let calls t layer = t.entered.(index layer)

let charge t =
  let now = Obs.now_ns () in
  (match t.stack with top :: _ -> t.ns.(top) <- t.ns.(top) + now - t.last | [] -> ());
  t.last <- now

let enter t layer =
  charge t;
  let i = index layer in
  t.entered.(i) <- t.entered.(i) + 1;
  t.stack <- i :: t.stack

let leave t =
  charge t;
  match t.stack with _ :: rest -> t.stack <- rest | [] -> ()

let timed t layer f =
  enter t layer;
  match f () with
  | v ->
      leave t;
      v
  | exception e ->
      leave t;
      raise e

let instrument t ~fates ~make _node (ctx : R.ctx) =
  let a =
    make
      {
        ctx with
        R.mac_send = (fun frame -> timed t Mac_enqueue (fun () -> ctx.R.mac_send frame));
        deliver =
          (fun data ->
            Fates.deliver fates data;
            ctx.R.deliver data);
        drop_data =
          (fun data ~reason ->
            Fates.drop fates data;
            ctx.R.drop_data data ~reason);
      }
  in
  {
    a with
    R.originate =
      (fun data ~size ->
        Fates.originate fates data;
        timed t Originate (fun () -> a.R.originate data ~size));
    receive = (fun ~src frame -> timed t Receive (fun () -> a.R.receive ~src frame));
    unicast_failed = (fun ~frame ~dst -> timed t Link (fun () -> a.R.unicast_failed ~frame ~dst));
    unicast_ok = (fun ~frame ~dst -> timed t Link (fun () -> a.R.unicast_ok ~frame ~dst));
  }
