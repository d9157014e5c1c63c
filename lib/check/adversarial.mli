(** The adversarial replay the CLI offers as a [--scenario]: the van
    Glabbeek AODV counterexample (3 nodes, repair race, forged stale route
    reply) run against any of the five protocols over the {!Wire} harness
    with an online loop monitor armed. A checker, not a workload: it never
    enters a campaign. *)

(** One-line description for the CLI's scenario banner. *)
val summary : string

(** One protocol's outcome under the replay. *)
type verdict = {
  protocol : Sim.Config.protocol;
  flagged : bool;  (** the online monitor saw a routing loop mid-run *)
  final_cycle : bool;
      (** the next-hop graph toward the destination ends cyclic *)
  forged : bool;  (** a forged frame was injected for this protocol *)
  detail : string;  (** human-readable outcome *)
}

(** Did any monitor — online or final — see a loop? *)
val loop_detected : verdict -> bool

val pp_verdict : Format.formatter -> verdict -> unit

(** Run the replay for one protocol: discovery through the middle node,
    link break, repair race, forged stale advertisement in the protocol's
    own message vocabulary, 30 s of settling. Deterministic (fixed harness
    seed). *)
val run : protocol:Sim.Config.protocol -> verdict

(** {!run} for all five protocols, in {!Sim.Config.all_protocols} order. *)
val run_all : unit -> verdict list
