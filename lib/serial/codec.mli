(** Graph (de)serialization.

    The on-disk format is a versioned JSON document listing nodes in
    topological order with their operator parameters, predecessors and
    block tags; decoding re-runs the full graph validation (shape
    inference included), so a loaded graph carries the same guarantees as
    a built one. *)

val format_version : int

val graph_to_json : Dnn_graph.Graph.t -> Json.t

val graph_of_json : Json.t -> (Dnn_graph.Graph.t, string) result

val to_string : ?pretty:bool -> Dnn_graph.Graph.t -> string
(** Serialize ([pretty] defaults to true). *)

val to_buffer : Buffer.t -> Dnn_graph.Graph.t -> unit
(** Append the compact serialization, [to_string ~pretty:false g], to the
    buffer. *)

val digest_string : string -> string
(** Hex digest (MD5) of an arbitrary canonical byte string — the same
    content-address scheme as {!digest}, for callers that fingerprint
    non-graph artifacts (e.g. plan fingerprints in the
    parallel-determinism tests). *)

val digest : Dnn_graph.Graph.t -> string
(** Hex digest (MD5) of the canonical compact serialization — a stable
    content address: two graphs digest equal iff their serialized forms
    are identical, independent of how they were built or pretty-printed.
    The plan-compilation service keys its cache on this. *)

val of_string : string -> (Dnn_graph.Graph.t, string) result
(** Parse and validate. *)

val write_file : path:string -> Dnn_graph.Graph.t -> unit

val read_file : path:string -> (Dnn_graph.Graph.t, string) result
(** [Error] covers unreadable files as well as malformed content. *)
