(** DDR bandwidth arbitration between tenants.

    The board exposes [Fpga.Device.ddr_channels] independently
    schedulable DRAM channels, each an equal stripe of the aggregate
    bandwidth; the engine arbitrates each channel separately.  When
    several tenants have a transfer on the same channel at once, the
    arbiter decides what fraction of that channel's stripe each gets.
    Rates are fractions of the full isolated bandwidth (the one every
    tenant's load times were computed against), so a transfer running at
    rate [r] takes [1/r] times its isolated duration.

    The pre-channel aggregate model is exactly the 1-channel special
    case: with one channel the engine's single channel group holds every
    pending transfer in arrival order and its stripe scales rates by
    exactly 1.0, so every 1-channel run is float-for-float the old
    fluid-bus run. *)

type t =
  | Fair_share  (** Every active transfer gets an equal bandwidth share. *)
  | Priority
      (** Strict priority: the active transfer of the highest-priority
          tenant (lowest priority number, ties to the lowest job key)
          gets the full bandwidth; the rest stall until it finishes. *)

val to_string : t -> string

val of_string : string -> t option
(** Accepts ["fair"] (also ["fair-share"]/["fair_share"]) and
    ["priority"]. *)

val all : t list

val rates_into :
  t -> keys:int array -> priorities:int array -> int -> float array -> unit
(** [rates_into t ~keys ~priorities n rates] assigns a bandwidth
    fraction to each of the [n] contenders at positions [0 .. n-1] —
    contender [i] is transfer [keys.(i)] of a tenant with priority
    [priorities.(i)] — and writes it to [rates.(i)].  The fractions sum
    to 1 when [n > 0] (the bus is work-conserving); [n = 0] writes
    nothing.  The engine reuses all three arrays from round to round,
    so the call allocates nothing. *)
