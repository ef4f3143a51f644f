(** Size-minimizing buffer coloring.

    Register-allocation-style graph coloring over the interference graph,
    with the paper's twist (section 3.1): the objective is the total
    *byte* size of the buffers, not their count — a color's cost is the
    largest member assigned to it.  The default heuristic places items in
    decreasing size order into the compatible buffer whose size grows the
    least; [First_fit] (classic lowest-index color) is kept for the
    ablation bench.

    Both strategies reduce to "the first compatible buffer in creation
    order", which the implementation finds with an early-exit scan.
    Under [Min_growth] items arrive in decreasing size, so every open
    buffer is already at least as large as the item being placed: every
    compatible buffer's growth is 0, and the least-growth rule, ties to
    the earliest, picks the first one. *)

type strategy =
  | Min_growth  (** Decreasing size, cheapest compatible buffer (the
                    first, as the growth is always 0). *)
  | First_fit   (** Decreasing degree, lowest-index compatible buffer. *)

val color :
  ?strategy:strategy -> Interference.t -> sizes:int array -> Vbuffer.t list
(** Group the interference graph's items into virtual buffers; [sizes]
    gives each item's byte size (same indexing as the graph).  Buffers
    are returned with dense ids in creation order.  Raises
    [Invalid_argument] on a size-array length mismatch. *)

val total_bytes : Vbuffer.t list -> int
(** Sum of buffer sizes — the coloring objective. *)
