module F = Wireless.Frame
module M = Sim.Metrics

type t = {
  originated : (int * int, unit) Hashtbl.t;
  delivered : (int * int, unit) Hashtbl.t;
  dropped : (int * int, unit) Hashtbl.t;
  mutable drop_events : int;
}

let create () =
  { originated = Hashtbl.create 1024; delivered = Hashtbl.create 1024;
    dropped = Hashtbl.create 256; drop_events = 0 }

let key (d : F.data) = (d.F.flow, d.F.seq)
let originate t d = Hashtbl.replace t.originated (key d) ()
let deliver t d = Hashtbl.replace t.delivered (key d) ()

let drop t d =
  t.drop_events <- t.drop_events + 1;
  Hashtbl.replace t.dropped (key d) ()

let problems t (r : M.result) =
  let count = Hashtbl.length in
  let dropped_only =
    Hashtbl.fold (fun k () n -> if Hashtbl.mem t.delivered k then n else n + 1) t.dropped 0
  in
  let metric_drops = List.fold_left (fun acc (_, n) -> acc + n) 0 r.M.drop_reasons in
  let unknown =
    Hashtbl.fold (fun k () n -> if Hashtbl.mem t.originated k then n else n + 1) t.delivered 0
    + Hashtbl.fold (fun k () n -> if Hashtbl.mem t.originated k then n else n + 1) t.dropped 0
  in
  List.filter_map
    (fun (bad, msg) -> if bad then Some msg else None)
    [
      ( count t.originated <> r.M.sent,
        Printf.sprintf "sent %d but %d packets originated" r.M.sent (count t.originated) );
      ( count t.delivered <> r.M.delivered,
        Printf.sprintf "delivered %d but %d packets reached ctx.deliver" r.M.delivered
          (count t.delivered) );
      ( t.drop_events <> metric_drops,
        Printf.sprintf "%d routing drops counted but %d reached ctx.drop_data" metric_drops
          t.drop_events );
      (unknown > 0, Printf.sprintf "%d delivered or dropped packets never originated" unknown);
      ( count t.delivered + dropped_only > r.M.sent,
        Printf.sprintf "conservation: delivered %d + dropped-only %d > sent %d"
          (count t.delivered) dropped_only r.M.sent );
    ]
