(** One measured run of a workload: set-up passes, untraced repetitions
    for the end-to-end metrics, then one traced repetition for the
    per-layer metrics, with every repetition's outputs checked. *)

type metric = { name : string; value : float; unit : string }

type report = {
  rep_walls : float list;  (** wall seconds of each untraced repetition *)
  events : int;  (** engine events of one repetition *)
  digest : string;  (** result digest of the first untraced repetition *)
  attempted : int;  (** repetitions checked: [reps] untraced + 1 traced *)
  failed : int;  (** repetitions whose output check found a problem *)
  problems : string list;  (** what the output check found, one per line *)
  end_to_end : metric list;
  per_layer : metric list;
}

(** [run w ~seed ~seconds] sets the workload up [setup_passes] times
    (default 25) for [setup_s], repeats it untraced until at least
    [min_reps] repetitions (default 3) and [seconds] of wall time are
    done, then runs it once traced. Raises [Failure] if {!Obs} profiling
    is already enabled: untraced numbers must come from untraced runs. *)
val run :
  ?setup_passes:int ->
  ?min_reps:int ->
  Workloads.t ->
  seed:int ->
  seconds:float ->
  report

(** {1 Output check} *)

(** Digest of a single world's result: MD5 of its {!Sim.Metrics.result_json}. *)
val result_digest : Sim.Metrics.result -> string

(** Problems visible in a result alone: more packets delivered than sent,
    or (c) no engine event executed. Empty when the result is sound. The
    traced repetition adds the conservation law of {!Fates}. *)
val result_problems : Sim.Metrics.result -> string list

(** (a): a problem when the traced and untraced digests differ. *)
val digest_problems : untraced:string -> traced:string -> string list

(** Nearest-rank percentile of a non-empty list, [p] in (0, 1]. *)
val percentile : float list -> float -> float

val median : float list -> float
