(** Per-layer latency model (the paper's Eq. 1).

    For each node the model produces its compute time and one transfer
    term per data source: each input feature value it reads (resolved
    through transparent concats), its weight tensor and its output value.
    Compute and transfers overlap through double buffering, so a node's
    latency is the maximum of its compute time and its per-interface
    streaming times — an on-chip tensor contributes zero streaming time.

    Transfer terms include the tile-reload factors of the design's
    {!Tiling} configuration: streamed inputs are re-read once per
    output-channel group (plus halo overread), streamed weights once per
    spatial tile.  A pinned tensor is read from SRAM and pays no reload
    at all; pinned weights are loaded exactly once per inference, off the
    critical path when prefetching succeeds. *)

type profile = {
  node_id : int;
  latc : float;                    (** Compute seconds. *)
  if_terms : (int * float) list;   (** (value id, streaming seconds). *)
  wt_term : float;                 (** Weight streaming seconds; 0 if none. *)
  wt_load_once : float;            (** Seconds to load the weights once. *)
  of_term : float;                 (** Output write-back seconds. *)
  of_value : int option;           (** Value id written, when one exists. *)
  if_stream_bytes : (int * int) list;
      (** (value id, DDR bytes streamed incl. tile reloads). *)
  wt_stream_bytes : int;           (** DDR bytes for streamed weights. *)
  wt_once_bytes : int;             (** Bytes of one whole weight load. *)
  of_stream_bytes : int;           (** DDR bytes written back. *)
}

val profile_node : Config.t -> Dnn_graph.Graph.t -> int -> profile

val profile_graph : Config.t -> Dnn_graph.Graph.t -> profile array
(** One profile per node, indexed by node id. *)

(** {2 Layer table}

    Everything Eq. 1 reads from the graph — operator kind, output and
    input dimensions, kernel, the bytes of each source value, of the
    weights and of the output at one precision, and which of them eltwise
    fusion would consume from a drain — does not depend on the design
    point.  The layer table holds these facts once per graph; nodes with
    identical facts share one row.  {!profile_node} derives a profile from
    the same row, and the row-level terms below are the exact floats its
    profiles carry, so a design-space sweep can evaluate each factor of
    Eq. 1 once per row instead of once per node and design point. *)

type table

val layer_table : Tensor.Dtype.t -> Dnn_graph.Graph.t -> table

val table_rows : table -> int
(** Number of distinct rows. *)

val node_row : table -> int -> int
(** Row index of a node. *)

val row_compute : Config.t -> table -> int -> float
(** [latc] of every node with this row: depends on the design's PE array
    and clock only. *)

val row_transfer : Config.t -> table -> int -> float
(** The UMM transfer bound [max(sum of if terms, wt term, of term)] of
    every node with this row: depends on the design's tiling (and the
    fixed bandwidth, burst overhead and fusion setting) only, never on
    the PE array or the clock.  For every node [id] with row [r],
    [umm_node_latency (profile_node cfg g id)] is bit-equal to
    [max (row_compute cfg t r) (row_transfer cfg t r)].  Raises
    [Invalid_argument] when [cfg]'s precision is not the table's. *)

val node_latency :
  profile -> if_on_chip:(int -> bool) -> wt_on_chip:bool -> of_on_chip:bool ->
  float
(** Eq. 1 for one node under the given allocation: latency is
    [max(latc, sum of off-chip if terms, wt term, of term)], where pinned
    sources contribute zero. *)

val umm_node_latency : profile -> float
(** Node latency with everything streamed from DDR. *)

val umm_total : profile array -> float
(** Whole-network latency under uniform memory management (nodes run
    sequentially, as in the paper's architecture). *)

val is_memory_bound : profile -> bool
(** True when some streaming term exceeds the node's compute time under
    UMM — the paper's memory-bounded layer classification. *)

val memory_bound_count : profile array -> int * int
(** [(memory_bound, with_any_traffic)] — the second component counts
    nodes that move any data at all (excludes transparent/input nodes),
    the denominator of the paper's "58 % of layers" statistic. *)
