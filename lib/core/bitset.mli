(** Fixed-width packed bitsets over native ints.

    The planner's hot paths (interference adjacency rows, coloring
    partition masks, DNNK chosen sets) all reduce to word-parallel bit
    tests over these. *)

type t

val create : int -> t
(** [create width] is the empty set over bits [0 .. width-1]. *)

val width : t -> int

val set : t -> int -> unit
val clear : t -> int -> unit

val mem : t -> int -> bool
(** All three raise [Invalid_argument] on out-of-range bits. *)

val mem_any : t -> int array -> int -> bool
(** [mem_any t indices len] is whether any of [indices.(0 .. len-1)] is
    in [t]: one word load and mask test per index, stopping at the first
    member.  Indices at or past the width read as absent when they fall
    in the last word and raise [Invalid_argument] beyond it. *)

val reset : t -> unit
(** Clear every bit in place. *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] ors [src] into [dst]; widths must match. *)

val inter_empty : t -> t -> bool
(** Whether the two sets are disjoint, one word at a time. *)

val cardinal : t -> int
(** Population count. *)

val iter : (int -> unit) -> t -> unit
(** Visit set bits in ascending order. *)
