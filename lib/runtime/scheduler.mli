(** Cross-tenant transfer scheduling.

    The arbiter splits bandwidth among the transfers the scheduler lets
    onto a DDR channel; the scheduler decides *which* pending transfers
    those are, independently per channel.  [Greedy] is the
    work-conserving baseline: every tenant's head-of-queue transfer
    contends as soon as it is released.  [Edf] (earliest deadline first)
    instead dedicates each channel to its most urgent transfer: each
    weight prefetch carries a deadline equal to its release time plus
    its slack (the isolated-schedule distance from its PDG source to its
    target — how long the load may take before the target node stalls),
    and demand loads and streamed-weight transfers are due immediately.
    Draining urgent transfers at full bandwidth instead of fair-sharing
    everything is what turns prefetches that contention would expose
    back into hidden ones.

    [Optimized] executes a searched transfer order: the schedule
    optimizer ({!Optimizer}) explores orders over the PDG with
    per-channel busy timelines and encodes the chosen order as per-
    transfer ranks; the engine then always grants the lowest-ranked
    pending transfer of each channel.  With no rank table (all ranks 0)
    it degenerates to exactly [Edf]. *)

type t = Greedy | Edf | Optimized

val to_string : t -> string

val of_string : string -> t option

val all : t list

type pending = {
  key : int;        (** Unique transfer key (creation order). *)
  deadline : float; (** Absolute time by which it should finish. *)
  priority : int;   (** Owning tenant's priority (lower = higher). *)
  rank : float;     (** Searched-order rank (lower = earlier); 0 when
                        no rank table is in force. *)
}

val eligible_into : t -> pending array -> int -> bool array -> unit
(** [eligible_into t ready n chosen] sets [chosen.(i)] for every
    position [i < n] of [ready] allowed to contend for bandwidth right
    now, and clears it for the others (the engine calls this once per
    channel, with that channel's pending transfers in arrival order, and
    reuses both arrays from round to round; nothing is allocated): all
    of them under [Greedy], the single most urgent one under [Edf]
    (earliest deadline, ties by priority then key), the lowest-ranked
    one under [Optimized] (ties broken as [Edf]).  [n = 0] chooses
    nothing. *)
