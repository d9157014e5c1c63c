type t = {
  name : string;
  summary : string;
  mobility : Wireless.Mobility.id;
  traffic : Traffic.Model.id;
  faults : Faults.Spec.t option;
}

let workload ?faults name summary ~mobility ~traffic =
  { name; summary; mobility; traffic; faults }

let all =
  [
    workload "default"
      "random waypoint + CBR — the paper's workload, byte-identical to \
       plain runs"
      ~mobility:Wireless.Mobility.Waypoint_rw ~traffic:Traffic.Model.Cbr_model;
    workload "manhattan"
      "street-grid mobility (axis-aligned hops between corners) + CBR"
      ~mobility:Wireless.Mobility.Manhattan ~traffic:Traffic.Model.Cbr_model;
    workload "rpgm"
      "reference-point group mobility (members orbit a leader) + CBR"
      ~mobility:Wireless.Mobility.Rpgm ~traffic:Traffic.Model.Cbr_model;
    workload "churn"
      "static topology with rare one-shot relocations + CBR"
      ~mobility:Wireless.Mobility.Churn ~traffic:Traffic.Model.Cbr_model;
    workload "bursty"
      "random waypoint + on/off bursty conversations"
      ~mobility:Wireless.Mobility.Waypoint_rw ~traffic:Traffic.Model.Bursty;
    workload "convergecast"
      "random waypoint + many-to-one traffic into a single sink"
      ~mobility:Wireless.Mobility.Waypoint_rw
      ~traffic:Traffic.Model.Convergecast;
    workload "flash-crowd"
      "random waypoint + all flows igniting in a narrow window"
      ~mobility:Wireless.Mobility.Waypoint_rw ~traffic:Traffic.Model.Flash;
    workload "downtown"
      "street-grid mobility + bursty conversations"
      ~mobility:Wireless.Mobility.Manhattan ~traffic:Traffic.Model.Bursty;
    workload "hostile"
      "random waypoint + CBR under the default fault plan (link flaps, \
       crashes, loss bursts)"
      ~mobility:Wireless.Mobility.Waypoint_rw ~traffic:Traffic.Model.Cbr_model
      ~faults:Faults.Spec.default;
  ]

let default = List.hd all

let names = List.map (fun t -> t.name) all

let find name = List.find_opt (fun t -> t.name = name) all

let apply t config =
  let config = Config.with_mobility config t.mobility in
  let config = Config.with_traffic config t.traffic in
  (* a scenario's fault plan yields to an explicitly requested one *)
  match t.faults with
  | Some f when Faults.Spec.is_none config.Config.faults ->
      Config.with_faults config f
  | _ -> config
