(** The workload scenario registry: one name ([--scenario NAME]) bundles a
    mobility model, a traffic model and an optional fault plan into a
    seeded, reproducible campaign workload, overlaid onto a configuration
    by {!apply}. The [default] entry pins the paper's random-waypoint +
    CBR workload and is byte-identical to a run with no scenario at all.

    The adversarial van Glabbeek replay is not a workload and is not
    registered here: it is a checker in the [check] library, which sits
    above this one, and the CLI offers it under its own [--scenario]
    name. *)

type t = {
  name : string;
  summary : string;
  mobility : Wireless.Mobility.id;
  traffic : Traffic.Model.id;
  faults : Faults.Spec.t option;
      (** a plan the scenario arms by default; an explicitly configured
          fault spec takes precedence in {!apply} *)
}

(** Registered scenarios, the [default] entry first. *)
val all : t list

val default : t

(** Registered names, in registry order (for usage listings). *)
val names : string list

val find : string -> t option

(** Overlay a scenario onto a campaign configuration: sets the mobility
    and traffic instances, and arms the scenario's fault plan unless the
    configuration already carries one. *)
val apply : t -> Config.t -> Config.t
