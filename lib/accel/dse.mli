(** Tile-configuration design-space exploration.

    The frameworks the paper integrates with ([12, 18, 22]) pick the PE
    array and tile buffer structure by DSE; LCMM runs after that.  This
    module reproduces that search.  The sweep crosses the
    {!candidate_tiles} grid with the {!dsp_fractions} ladder, keeps the
    design points whose compute resources fit the device, and picks the
    one minimizing whole-network UMM latency.  Ties break toward smaller
    tile buffers (leaving more SRAM to LCMM), then toward the earlier
    point in sweep order (ladder rung first, then tile).

    {b Factoring.}  Eq. 1 prices a node as [max(latc, transfer)]:
    [latc] depends only on the PE array (set by the rung) and the clock
    (set by the style), the transfer bound only on the tiling.  The sweep
    therefore builds the graph's {!Latency.layer_table} once, evaluates
    each distinct row's transfer bound once per tile and its compute term
    once per (rung, clock), and scores a point as the sum over nodes, in
    node order from [0.], of [max(latc, transfer)] of the node's row.
    Scoring stops early once the partial sum exceeds the best score so
    far: every term is [>= 0] and rounded addition is monotone, so that
    point's total exceeds the best too.  A point that ties the best is
    summed to the end, so the tie-break sees it.

    {b Bit-identity.}  Those are exactly the float operations
    [Latency.umm_total (Latency.profile_graph cfg g)] performs on the
    point's config, the fit filter and tie-break are the same, and the
    points are visited in the same order, so every chosen config and
    [umm_latency] is bit-identical to profiling the whole graph once per
    design point.  A point that exits early keeps a partial sum, not its
    score; it can never win, so the winner's [umm_latency] is always a
    full score.  The [dse-exhaustive] oracle keeps the per-point sweep
    as its reference. *)

type result = {
  config : Config.t;
  umm_latency : float;      (** Seconds per inference under UMM. *)
  resources : Fpga.Resource.t;
}

val candidate_tiles : unit -> Tiling.t list
(** The sweep grid: tm/tn in powers of two 16..64, square spatial tiles
    7..56. *)

val dsp_fractions : float list
(** The DSP-budget ladder [0.83; 0.6; 0.4; 0.25; 0.12], in sweep order.
    Large parts close timing with the full 83 % DSP budget; smaller
    parts (or LUT-hungry precisions) need a smaller array, so the sweep
    also descends the ladder, sizing the PE array with
    {!Pe_array.default_for} at each rung. *)

type work = {
  nodes : int;           (** Graph nodes. *)
  rows : int;            (** Distinct layer-table rows. *)
  transfer_terms : int;  (** Row transfer bounds evaluated: rows x tiles used. *)
  compute_terms : int;
      (** Row compute terms evaluated: rows x (rung, clock) pairs used. *)
  configs_scored : int;  (** Fitting design points scored, over all styles. *)
  score_adds : int;
      (** Max-adds performed while scoring, over all styles: at most
          [nodes x configs_scored], fewer when points exit early. *)
}
(** Deterministic work counts of one exploration. *)

val explore :
  ?device:Fpga.Device.t -> ?tiles:Tiling.t list -> styles:Config.style list ->
  Tensor.Dtype.t -> Dnn_graph.Graph.t -> result list * work
(** One sweep for several clock styles: the winner for each style, in
    [styles] order, and the work done.  The styles share the layer table
    and the per-tile transfer bounds; only the compute terms are
    per-style.  Each winner equals [run ~style].  Raises
    [Invalid_argument] when no candidate fits the device. *)

val run :
  ?device:Fpga.Device.t -> ?tiles:Tiling.t list -> style:Config.style ->
  Tensor.Dtype.t -> Dnn_graph.Graph.t -> result
(** Explore and return the best design point for the graph.  Raises
    [Invalid_argument] when no candidate fits the device. *)
