(** Bitmask subsets of a small universe [0..n-1].

    Failure configurations and quorums over clusters of up to 62 nodes
    are represented as [int] bitmasks; these helpers keep the
    enumeration engines branch-light. *)

type t = int
(** Bit [u] set iff element [u] is in the subset. *)

val empty : t
val full : int -> t
val mem : t -> int -> bool
val add : t -> int -> t
val remove : t -> int -> t
val cardinal : t -> int
(** Population count, branch-free (the enumeration engines call it
    per configuration). *)

val inter : t -> t -> t
val union : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
(** [subset a b] iff every element of [a] is in [b]. *)

val of_list : int list -> t
val to_list : t -> int list
val complement : int -> t -> t
(** [complement n s] relative to universe size [n]. *)

val max_universe : int
(** Largest universe a subset can describe: [Sys.int_size - 1] (62 on
    64-bit hosts). *)

val max_enumeration : int
(** Largest universe size the exhaustive iterators accept (24). *)

val iter_subsets : int -> (t -> unit) -> unit
(** Apply to all [2^n] subsets of [0..n-1]. Raises [Invalid_argument]
    when [n > 24] — beyond that use sampling. *)

val iter_subsets_range : int -> lo:t -> hi:t -> (t -> unit) -> unit
(** [iter_subsets_range n ~lo ~hi f] applies [f] to the bitmasks
    [lo, lo+1, ..., hi-1], in order — the contiguous slice of
    {!iter_subsets}' sequence that chunked parallel enumeration hands
    to one worker. Requires [0 <= lo <= hi <= 2^n]. Concatenating the
    ranges of any partition of [0, 2^n) reproduces {!iter_subsets}
    exactly. *)

val iter_ksubsets : int -> int -> (t -> unit) -> unit
(** Apply to all size-[k] subsets of [0..n-1], in Gosper order. *)

val fold_subsets : int -> init:'a -> f:('a -> t -> 'a) -> 'a

(** {1 Prefix tables}

    Exact enumeration weighs every subset [s] of [0..n-1] by a fold
    over its elements in ascending order — a product of per-node
    probabilities, a sum of per-node stakes. A prefix table holds that
    fold for every subset of the low [bits] elements, so one lookup
    replaces [bits] steps; the elements from [bits] up are folded on
    after the lookup, in the same order, which reproduces the
    element-by-element fold bit for bit. *)

val table_bits : int
(** 16: the width of the tables the enumeration engines build. A
    [2^16]-entry float table is 512 KiB, built once per run in [2^16]
    steps, and covers every universe of up to 16 elements with no
    per-subset fold at all. *)

val prefix_table :
  [ `Product | `Sum ] -> inside:float array -> outside:float array -> bits:int ->
  float array
(** [prefix_table op ~inside ~outside ~bits] has, at index [m] (a
    subset of [0..bits-1]), the left fold of [op] from its identity
    ([1.] for [`Product], [0.] for [`Sum]) over [u = 0, 1, ...,
    bits-1], taking [inside.(u)] when [u] is in [m] and [outside.(u)]
    otherwise: [(...((id op x0) op x1) ...) op x(bits-1)], in exactly
    that evaluation order. Raises [Invalid_argument] when [bits] is
    outside [0, table_bits] or exceeds either array's length. *)

val pp : Format.formatter -> t -> unit
