(** Command line of [bench.exe]. *)

type opts = {
  workload : Workloads.t;
  seed : int;
  seconds : float;
  trace : bool;  (** print the per-layer metrics instead of the end-to-end ones *)
}

type mode =
  | Measure of opts
  | Pin
      (** run every workload once at seed 1 and print what was measured:
          configuration, engine events and result digest, with the
          reasons and predictions; [perfbench/pinned.json] holds this
          output, pretty-printed *)

(** Parse the arguments after the program name. [Error] carries the
    message to print before exiting with status 2; for an unknown workload
    it lists the known names. *)
val parse : string list -> (mode, string) result
