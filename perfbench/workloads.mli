(** The benchmark's named workloads. Each is a closed loop: one simulation
    at a time, in one process, on one domain. The workload seed becomes the
    simulation seed; the simulator receives only the generated
    {!Sim.Config.t}. *)

type t = {
  name : string;
  why : string;  (** why the workload was chosen, one line *)
  dominant : string;  (** the layer that owns most of its wall time *)
  expect : string;
      (** what local carrier sense (scanning only in-flight frames within
          carrier-sense range) should do here *)
  base : Sim.Config.t;  (** seed 0; {!cells} sets the workload seed *)
  campaign : int option;
      (** [Some trials]: every protocol x the paper's pause times x [trials]
          trial seeds, through {!Sim.Experiment.run}; [None]: the single
          world [base], through {!Sim.Runner.run} *)
}

val all : t list

val names : string list

(** [find name] is the workload called [name], or an error naming every
    known workload. *)
val find : string -> (t, string) result

(** Campaign pause scale: [duration /. 900], as the reduced campaigns of
    [bench/main.exe] use; 1.0 for a single world. *)
val pause_scale : t -> float

(** The runs that make up the workload at [seed], in the order
    {!Sim.Experiment.run} executes them (pause, then trial, then
    protocol). *)
val cells : t -> seed:int -> Sim.Config.t list

(** JSON members describing the workload at [seed]: reasons, base
    configuration and, for the campaign, its protocols, pause times, pause
    scale and trials. *)
val describe : t -> seed:int -> (string * Trace.Json.t) list

(** Which end-to-end metric each per-layer metric group should move, and on
    which workload: (layer, metrics, should move). *)
val predictions : (string * string * string) list
