(** Allocation items, metric tables and the exact latency evaluator.

    An *item* is one pinnable unit of data: a feature value (covering the
    producer's output stream and every consumer's input stream of that
    value) or the weight tensor of one node.  The metric tables bind the
    per-node latency profiles of {!Accel.Latency} to the items they
    depend on, so allocation algorithms can ask two questions: the exact
    whole-network latency of an allocation, and the marginal latency
    reduction of pinning one more item (the paper's Eq. 2, evaluated
    against an explicit allocation instead of a static table). *)

type item =
  | Feature_value of int  (** Value id = producing node id. *)
  | Weight_of of int      (** Node id owning the weight tensor. *)
  | Weight_slice of { node : int; index : int; of_k : int }
      (** One of [of_k] equal channel-group slices of a node's weight
          tensor — partial weight pinning, an extension beyond the
          paper's whole-tensor granularity.  A node's weights appear
          either as one [Weight_of] or as [of_k] slices, never both. *)

module Item_set : Set.S with type elt = item

type t = private {
  graph : Dnn_graph.Graph.t;
  profiles : Accel.Latency.profile array;
  affected : (item, int list) Hashtbl.t;
      (** Nodes whose Eq. 1 latency depends on each item. *)
  slices : int array;
      (** Weight slicing granularity per node (1 = whole tensor). *)
  weight_items : item array;
      (** The weight items in id order: item [i] has id
          [Array.length profiles + i] (see {!item_id}). *)
  weight_base : int array;
      (** Id of each node's first weight item; -1 without weights. *)
  queries : int array array;
      (** Per node, the ids {!node_latency_id} reads, in query order:
          the weight (or its [k] slices), the inputs in [if_terms]
          order, then the output.  DNNK's compensation tables derive
          their memo-key bit layout from these arrays, so the layout and
          the evaluator cannot drift apart. *)
}

val build :
  ?weight_slices:(int -> int) -> Dnn_graph.Graph.t ->
  Accel.Latency.profile array -> t
(** [weight_slices node] (default [fun _ -> 1]) picks the slicing
    granularity per weight-carrying node; values above 1 replace the
    node's [Weight_of] item with that many [Weight_slice] items.

    [build] also numbers every item some node's Eq. 1 reads with a dense
    int id: feature value [v] is id [v], then each weight-carrying
    node's weight item (or its slices) in node order.  The set of ids
    covers every key of [affected]. *)

val id_count : t -> int
(** Number of dense item ids: ids are [0 .. id_count - 1]. *)

val item_id : t -> item -> int option
(** Dense id of an item; [None] for an item no node's latency reads
    (a weight of a weightless node, a slice of the wrong granularity, an
    out-of-range value). *)

val item_of_id : t -> int -> item
(** The inverse of {!item_id} on [0 .. id_count - 1]. *)

val item_size_bytes : Tensor.Dtype.t -> t -> item -> int
(** Storage the item needs on chip. *)

val affected_nodes : t -> item -> int list
(** Nodes whose latency changes when the item's placement changes. *)

val node_latency_id : t -> on:(int -> bool) -> int -> float
(** [node_latency_id t ~on id] is Eq. 1 latency of node [id] with the
    allocation given as a predicate over dense item ids: [max] of the
    compute term and each interface's streamed time, a sliced weight's
    term scaled by its off-chip share.  The one evaluator: every other
    latency query is a view over it.  [on] is called once per entry of
    [queries.(id)], in order. *)

val node_latency : t -> on_chip:Item_set.t -> int -> float
(** Eq. 1 latency of one node under the allocation. *)

val total_latency : t -> on_chip:Item_set.t -> float
(** Whole-network latency (sequential node execution). *)

val total_latency_id : t -> on:(int -> bool) -> float
(** {!total_latency} with the allocation as a predicate over ids: the
    node latencies summed in node order. *)

val gain_id :
  t -> before:(int -> bool) -> after:(int -> bool) -> int array -> float
(** [gain_id t ~before ~after nodes] folds, over [nodes] in order,
    [acc +. latency under before -. latency under after] from [0.] —
    the float shape of every marginal gain. *)

val marginal_gain : t -> on_chip:Item_set.t -> item -> float
(** Latency saved by adding the item to the allocation; >= 0. *)

val marginal_gain_many : t -> on_chip:Item_set.t -> item list -> float
(** Latency saved by adding all the items together. *)

val static_reduction : t -> item -> float
(** The paper's Eq. 2: the item's latency reduction computed against the
    all-off-chip state, per affected node with the next-largest term as
    the post-removal latency.  Used to seed DNNK's approximate tables. *)

val eligible_items :
  t -> memory_bound_only:bool -> item list
(** Pinnable items: feature values not produced by the graph input and
    with at least one consumer; weight tensors of weight-carrying nodes.
    With [memory_bound_only] (the paper's setting), an item qualifies
    only if at least one affected node is memory bound. *)

val pp_item : Format.formatter -> item -> unit
