(** The pure property catalogue: label arithmetic, Algorithm 1, Farey
    interpolation, abstract SLR loop freedom ({!Slr.Simple_net} over the
    {!Slr.Label.S} instances), SRP-over-wire agreement with the one
    loop-freedom oracle {!Slr.Oracle}, and spatial-grid/naive channel
    equivalence ([channel-grid-equiv]). Everything here runs without the full
    simulator; the sim-level properties live in {!Fuzz}, whose
    {!Fuzz.catalogue} is the one place both catalogues are joined. *)

(** Reusable generators (also used by the unit-test suites). *)

(** Canonical proper fraction, denominators up to 10^4; occasionally the
    exact end points 0/1 and 1/1. *)
val fraction : Slr.Fraction.t Gen.t

(** Fractions whose components sit within ~2000 of the 32-bit bound, so
    mediant overflow — the MAX_DENOM / T-bit reset path — is common. *)
val near_bound_fraction : Slr.Fraction.t Gen.t

(** Ordering with a small sequence number (collisions likely) and a
    {!fraction} feasible distance. *)
val ordering : Slr.Ordering.t Gen.t

(** Like {!ordering} but over {!near_bound_fraction}. *)
val near_bound_ordering : Slr.Ordering.t Gen.t

(** The catalogue, in stable order; names are part of the replay
    interface. *)
val all : Runner.packed list
