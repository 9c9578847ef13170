(** The uncertainty-weighted selectors as registry protocols.

    [raft-weighted] sizes flexible Raft quorums with
    {!Dynamic_quorum.best_raft_weighted}; [committee-weighted] picks
    the smallest sufficient committee with
    {!Committee.reliability_weighted}. Both take one optional quorum
    override, [target_nines] (default 3), and derive each node's
    uncertainty from the spread of its failure process's marginal
    across the scenario's mission window — static fleets (or scenarios
    with no [at]/[horizon]) get zero uncertainty and reduce to the
    unweighted selectors.

    The entries {!Probcons.Registry.register} themselves when this
    module is linked (the library is built with [-linkall], so linking
    [probnative] suffices — the CLI, service and tests all see them). *)

val committee_protocol : n:int -> Committee.committee -> Probcons.Protocol.t
(** The [committee-weighted] model over an [n]-node fleet: always safe,
    live while a majority of the committee's members is correct. The
    liveness predicate depends on node identity, so analysis runs on
    the enumeration engine. *)

val raft_weighted : Probcons.Registry.entry
val committee_weighted : Probcons.Registry.entry
