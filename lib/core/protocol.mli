(** Protocol reliability models.

    A protocol model classifies each failure configuration as safe
    and/or live, exactly as the paper's §3 does: "we deem a
    configuration safe if all of its system runs ensure agreement
    across non-failed nodes", and live if all runs commit all
    operations. The analysis engine then weights configurations by
    probability.

    A predicate's primary form is [mask]: a configuration given as two
    disjoint bitmasks, the crashed nodes and the Byzantine nodes (every
    other node is correct). The exact and Monte-Carlo engines evaluate
    it on plain integers, so they never build a configuration array.
    [full], the same predicate over a {!Config.t}, is derived from
    [mask] by every constructor below. When the predicate's truth
    depends only on the number of Byzantine and crashed nodes (true of
    Theorems 3.1 and 3.2), the [by_count] fast path lets the engine use
    the joint-count dynamic program instead of enumerating [2^N]
    subsets.

    Predicates are built only through the constructors, so the three
    forms always agree. Masks cover universes of up to 62 nodes (see
    {!Quorum.Subset}). *)

type predicate = private {
  mask : crashed:Quorum.Subset.t -> byz:Quorum.Subset.t -> bool;
  full : Config.t -> bool;
      (** [full c] is [mask ~crashed ~byz] on [c]'s crashed and
          Byzantine sets. *)
  by_count : (byz:int -> crashed:int -> bool) option;
}

type t = {
  name : string;
  n : int;  (** Cluster size the model is specialized to. *)
  safe : predicate;
  live : predicate;
}

val count_predicate : n:int -> (byz:int -> crashed:int -> bool) -> predicate
(** Build a predicate from a count function; its [mask] form takes the
    population counts of the two masks. *)

val mask_predicate :
  (crashed:Quorum.Subset.t -> byz:Quorum.Subset.t -> bool) -> predicate
(** A node-identity-dependent predicate, with no count form. The
    engines call it once per configuration, so it should allocate
    nothing: test bits with {!Quorum.Subset.mem} or intersect with a
    precomputed member mask, count with {!Quorum.Subset.cardinal}, and
    derive the correct set as
    [Quorum.Subset.complement n (Quorum.Subset.union crashed byz)].
    A liveness predicate that needs a majority of a fixed committee:
    {[
      let members = Quorum.Subset.of_list ids in
      mask_predicate (fun ~crashed ~byz ->
          let correct = Quorum.Subset.complement n (crashed lor byz) in
          Quorum.Subset.cardinal (Quorum.Subset.inter correct members)
          >= quorum)
    ]}
    Floats computed inside the closure stay unboxed; returning one
    from a helper function would allocate. *)

val pred_and : predicate -> predicate -> predicate
val pred_or : predicate -> predicate -> predicate
val pred_not : predicate -> predicate

val always : n:int -> predicate
val never : n:int -> predicate
