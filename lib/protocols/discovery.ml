let span_timer = Obs.span "proto.discovery.timer"

type state = { mutable timer : Des.Engine.handle option }

type t = {
  engine : Des.Engine.t;
  ttls : int array;
  node_traversal : float;
  rate_limit : float;
  holdoff_base : float;
  holdoff_max : float;
  send : dst:int -> ttl:int -> attempt:int -> unit;
  give_up : dst:int -> unit;
  states : (int, state) Hashtbl.t;
  (* per-destination failure backoff: (consecutive failures, holdoff end) *)
  holdoffs : (int, int * float) Hashtbl.t;
  (* token bucket for the per-node request rate limit *)
  mutable tokens : float;
  mutable last_refill : float;
}

(* RFC 3561's RREQ_RETRIES: network-wide attempts after the ring *)
let extra_retries = 1

let create engine ~ttls ~node_traversal ~send ~give_up =
  if ttls = [] then invalid_arg "Discovery.create: empty ttl schedule";
  {
    engine;
    ttls = Array.of_list ttls;
    node_traversal;
    (* RFC 3561's RREQ_RATELIMIT *)
    rate_limit = 10.0;
    holdoff_base = 1.0;
    holdoff_max = 10.0;
    send;
    give_up;
    states = Hashtbl.create 16;
    holdoffs = Hashtbl.create 16;
    tokens = 5.0;
    last_refill = Des.Engine.now engine;
  }

let active t ~dst = Hashtbl.mem t.states dst

let take_token t =
  let now = Des.Engine.now t.engine in
  t.tokens <-
    Stdlib.min 10.0 (t.tokens +. ((now -. t.last_refill) *. t.rate_limit));
  t.last_refill <- now;
  if t.tokens >= 1.0 then begin
    t.tokens <- t.tokens -. 1.0;
    true
  end
  else false

let in_holdoff t dst =
  match Hashtbl.find_opt t.holdoffs dst with
  | Some (_, until) -> Des.Engine.now t.engine < until
  | None -> false

let note_failure t dst =
  let failures =
    match Hashtbl.find_opt t.holdoffs dst with Some (n, _) -> n + 1 | None -> 1
  in
  let holdoff =
    Stdlib.min t.holdoff_max
      (t.holdoff_base *. (2.0 ** float_of_int (failures - 1)))
  in
  Hashtbl.replace t.holdoffs dst
    (failures, Des.Engine.now t.engine +. holdoff)

let note_success t dst = Hashtbl.remove t.holdoffs dst

let rec attempt t ~dst ~index =
  let ttl = t.ttls.(Stdlib.min index (Array.length t.ttls - 1)) in
  let state =
    match Hashtbl.find_opt t.states dst with
    | Some s -> s
    | None ->
        let s = { timer = None } in
        Hashtbl.replace t.states dst s;
        s
  in
  if take_token t then t.send ~dst ~ttl ~attempt:index;
  (* RFC 3561: each retry waits twice as long as the previous one *)
  let timeout =
    2.0 *. float_of_int ttl *. t.node_traversal
    *. (2.0 ** float_of_int index)
  in
  (* retry cap: the TTL schedule, then [extra_retries] more network-wide
     attempts, each still doubling the wait *)
  let handle =
    Des.Engine.schedule ~span:span_timer t.engine ~delay:timeout (fun () ->
        if index + 1 >= Array.length t.ttls + extra_retries then begin
          Hashtbl.remove t.states dst;
          note_failure t dst;
          t.give_up ~dst
        end
        else attempt t ~dst ~index:(index + 1))
  in
  state.timer <- Some handle

let start t ~dst =
  if (not (active t ~dst)) && not (in_holdoff t dst) then
    attempt t ~dst ~index:0

let succeed t ~dst =
  note_success t dst;
  match Hashtbl.find_opt t.states dst with
  | None -> ()
  | Some state ->
      (match state.timer with
      | Some handle -> Des.Engine.cancel handle
      | None -> ());
      Hashtbl.remove t.states dst
