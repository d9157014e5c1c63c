(** An abstract, message-less executor for SLR route computations over a
    static graph (paper §II): request floods breadth-first, a reply walks the
    reverse path, and each node relabels with {!Make.choose_label}.

    This is the idealised protocol used to state Theorems 1–4; the full
    message-passing implementation with losses and mobility is SRP
    (see [Protocols.Srp]). The executor reproduces the paper's Examples 1–2
    exactly and backs the loop-freedom property tests. It needs only the
    order, sentinels, next-element and split of a {!Label.S} instance. *)

module Make (L : Label.S) : sig
  type t

  (** [choose_label ~current ~cached_min ~adv] picks a label satisfying
      Eqs. 3–5 of Definition 1 for an advertisement labelled [adv], given
      the node's current label and the cached minimum predecessor label
      [M_i]:
      - [None] when the advertisement is infeasible ([adv >= current]) or no
        label fits (bounded-set overflow, or [adv >= cached_min]);
      - keep [current] when [current < cached_min] (Example 2's nodes G, H);
      - else the next-element of [adv] when it stays below the bound;
      - else a split strictly between [adv] and [cached_min].

      Eq. 6 is left to {!request}, which drops successors not below the
      new label (the paper's "eliminate certain existing successors"). *)
  val choose_label :
    current:Label.t -> cached_min:Label.t -> adv:Label.t -> Label.t option

  (** [create ~nodes ~dest] — all nodes unlabeled ([L.one]) except [dest],
      which takes [L.zero]. No links, no successor paths. *)
  val create : nodes:int -> dest:int -> t

  val node_count : t -> int

  val dest : t -> int

  (** Bidirectional link management. Self-links are rejected. *)
  val add_link : t -> int -> int -> unit

  val remove_link : t -> int -> int -> unit

  val linked : t -> int -> int -> bool

  val label : t -> int -> Label.t

  (** Successor entries with the advertised label recorded at adoption. *)
  val successors : t -> int -> (int * Label.t) list

  (** A node has an active route iff its successor set is non-empty. *)
  val has_route : t -> int -> bool

  type outcome =
    | Routed of { replier : int; reply_path : int list }
        (** [reply_path] runs from the replier to the requester inclusive. *)
    | No_route  (** the flood reached no node able to reply *)
    | Label_exhausted of int
        (** the bounded label set could not be split at this node —
            SRP's cue for a sequence-number path reset *)

  (** [request t ~src] runs one route computation for [src] toward the
      destination. No-op ([Routed] with an empty path) when [src] is the
      destination itself. *)
  val request : t -> src:int -> outcome

  (** [break_link t a b] removes the link and both nodes' successor entries
      through it. *)
  val break_link : t -> int -> int -> unit

  (** [seed_label t i l] forces a node's label, bypassing the protocol —
      for tests and demos that re-create the paper's figures, where nodes
      "once knew a route" and carry stale labels. Never use it mid-request. *)
  val seed_label : t -> int -> Label.t -> unit

  (** Checks Theorem 3's invariants with {!Oracle}: every successor edge
      descends in label order, and the successor graph is acyclic. *)
  val check_invariants : t -> (unit, string) result

  (** Follow least-label successors from [src]; [None] when no route. For
      demos and tests. *)
  val route_to_dest : t -> src:int -> int list option

  val pp_labels : Format.formatter -> t -> unit
end
