module G = Dnn_graph.Graph
module Op = Dnn_graph.Op
module Values = Dnn_graph.Values
module Shape = Tensor.Shape

type profile = {
  node_id : int;
  latc : float;
  if_terms : (int * float) list;
  wt_term : float;
  wt_load_once : float;
  of_term : float;
  of_value : int option;
  if_stream_bytes : (int * int) list;
  wt_stream_bytes : int;
  wt_once_bytes : int;
  of_stream_bytes : int;
}

(* The tile-independent facts of one node at one precision: everything
   Eq. 1 reads from the graph.  Every term of a profile is a function of
   the row and the design point alone, so nodes with equal rows share
   them. *)
type kind =
  | Input
  | Concat
  | Conv of {
      groups : int;
      out_channels : int;
      kernel : int * int;
      out : Shape.feature option;
      in_channels : int option;  (* Of the single feature input, if any. *)
    }
  | Dense of { out_features : int; in_features : int }
  | Aux of { ops : int }  (* Pooling, element-wise add, upsampling. *)

type row = {
  kind : kind;
  src_bytes : (int * bool) list;
      (* Per source value, in read order: its bytes and whether eltwise
         fusion consumes it from the producer's drain. *)
  wt_bytes : int;
  out_bytes : int;
  out_fused : bool;  (* Eltwise fusion consumes the output from the drain. *)
}

(* With eltwise fusion, a value whose only consumer is the very next node
   and that node is an element-wise add is consumed from the producing
   layer's drain: its write-back and its re-read both disappear. *)
let fusable g v =
  v + 1 < G.node_count g
  && (match (G.node g (v + 1)).G.op with
     | Op.Eltwise_add -> true
     | Op.Input _ | Op.Conv _ | Op.Pool _ | Op.Concat | Op.Upsample _
     | Op.Dense _ -> false)
  && (match Values.consumers g v with [ c ] -> c = v + 1 | _ -> false)

(* Source values read by a node (none for inputs and transparent
   concats, which move no data). *)
let node_sources g id =
  match (G.node g id).G.op with
  | Op.Input _ | Op.Concat -> []
  | Op.Conv _ | Op.Dense _ | Op.Pool _ | Op.Eltwise_add | Op.Upsample _ ->
    Values.source_values g id

let make_row dtype g ~fusable ~sources id =
  let bytes v = Shape.size_bytes dtype (G.output_shape g v) in
  let passive kind =
    { kind; src_bytes = []; wt_bytes = 0; out_bytes = 0; out_fused = false }
  in
  let active kind =
    { kind;
      src_bytes = List.map (fun v -> (bytes v, fusable v)) sources;
      wt_bytes =
        (match G.weight_shape g id with
         | None -> 0
         | Some shape -> Shape.size_bytes dtype shape);
      out_bytes = bytes id;
      out_fused = fusable id }
  in
  let single_input () =
    match G.input_shapes g id with [ s ] -> Some s | [] | _ :: _ :: _ -> None
  in
  match (G.node g id).G.op with
  | Op.Input _ -> passive Input
  | Op.Concat -> passive Concat
  | Op.Conv { groups; kernel; out_channels; _ } ->
    active
      (Conv
         { groups;
           out_channels;
           kernel;
           out = Shape.as_feature (G.output_shape g id);
           in_channels =
             Option.map
               (fun f -> f.Shape.channels)
               (Option.bind (single_input ()) Shape.as_feature) })
  | Op.Dense { out_features } ->
    active
      (Dense
         { out_features;
           in_features =
             (match single_input () with Some s -> Shape.elements s | None -> 0) })
  | Op.Pool _ | Op.Eltwise_add | Op.Upsample _ -> active (Aux { ops = G.aux_ops g id })

let cycles_to_seconds cfg cycles =
  float_of_int cycles /. (cfg.Config.freq_mhz *. 1e6)

(* Compute seconds for one row on this design's PE array and clock. *)
let compute_seconds cfg row =
  match row.kind with
  | Input | Concat -> 0.
  | Conv { groups; out_channels; kernel = kh, kw; out; in_channels } ->
    let hw = match out with Some f -> f.Shape.height * f.Shape.width | None -> 1 in
    let in_channels = Option.value in_channels ~default:0 in
    let per_group =
      Pe_array.conv_cycles cfg.Config.pe ~m:(out_channels / groups)
        ~c:(in_channels / groups) ~hw ~k2:(kh * kw)
    in
    cycles_to_seconds cfg (groups * per_group)
  | Dense { out_features; in_features } ->
    let cycles =
      Pe_array.conv_cycles cfg.Config.pe ~m:out_features ~c:in_features ~hw:1 ~k2:1
    in
    cycles_to_seconds cfg cycles
  | Aux { ops } ->
    let cycles = (ops + cfg.Config.aux_ops_per_cycle - 1) / cfg.Config.aux_ops_per_cycle in
    cycles_to_seconds cfg cycles

let no_reload = { Tiling.if_trips = 1; wt_trips = 1; halo = 1.0 }

(* Tile reload factors and DDR transaction counts per interface for the
   row's outer tile loops. *)
let tile_loops tile = function
  | Conv { kernel; out = Some out; in_channels; _ } ->
    let out_channels = out.Shape.channels
    and out_h = out.Shape.height
    and out_w = out.Shape.width in
    ( Tiling.trips tile ~out_channels ~out_h ~out_w ~kernel,
      match in_channels with
      | Some in_channels ->
        Tiling.transactions tile ~out_channels ~in_channels ~out_h ~out_w
      | None -> { Tiling.if_txn = 1; wt_txn = 1; of_txn = 1 } )
  | Conv { out = None; _ } -> (no_reload, { Tiling.if_txn = 1; wt_txn = 1; of_txn = 1 })
  | Dense { out_features; _ } ->
    (* Output-channel groups of the dense layer; weights stream once. *)
    let nm = (out_features + tile.Tiling.tm - 1) / tile.Tiling.tm in
    ( { Tiling.if_trips = nm; wt_trips = 1; halo = 1.0 },
      { Tiling.if_txn = nm; wt_txn = nm; of_txn = 1 } )
  | Input | Concat | Aux _ -> (no_reload, { Tiling.if_txn = 1; wt_txn = 0; of_txn = 1 })

(* The profile of node [id] with the given row, source values and compute
   time under the design's tiling and bandwidth. *)
let profile_row cfg row ~id ~sources ~latc =
  match row.kind with
  | Input | Concat ->
    { node_id = id; latc; if_terms = []; wt_term = 0.; wt_load_once = 0.;
      of_term = 0.;
      of_value = (match row.kind with Input -> Some id | _ -> None);
      if_stream_bytes = []; wt_stream_bytes = 0; wt_once_bytes = 0;
      of_stream_bytes = 0 }
  | Conv _ | Dense _ | Aux _ ->
    let bw = Config.interface_bandwidth cfg in
    let trips, txn = tile_loops cfg.Config.tile row.kind in
    let ovh = cfg.Config.burst_overhead in
    let fused f = cfg.Config.fused_eltwise && f in
    let streams =
      List.filter (fun (_, (_, f)) -> not (fused f)) (List.combine sources row.src_bytes)
    in
    (* Tile-load overhead of the input interface, split across the node's
       source values (convs read one value; element-wise nodes read each
       of theirs in one streaming pass). *)
    let if_ovh_each =
      match streams with
      | [] -> 0.
      | _ :: _ -> float_of_int txn.Tiling.if_txn *. ovh /. float_of_int (List.length streams)
    in
    let if_entries =
      List.map
        (fun (v, (bytes, _)) ->
          let streamed_bytes =
            int_of_float
              (float_of_int (bytes * trips.Tiling.if_trips) *. trips.Tiling.halo)
          in
          let streamed =
            (float_of_int streamed_bytes /. bw) +. if_ovh_each
          in
          (v, streamed, streamed_bytes))
        streams
    in
    let if_terms = List.map (fun (v, s, _) -> (v, s)) if_entries in
    let if_stream_bytes = List.map (fun (v, _, b) -> (v, b)) if_entries in
    let wt_bytes = row.wt_bytes in
    let wt_load_once =
      if wt_bytes = 0 then 0. else (float_of_int wt_bytes /. bw) +. ovh
    in
    let wt_term =
      if wt_bytes = 0 then 0.
      else
        float_of_int (wt_bytes * trips.Tiling.wt_trips) /. bw
        +. (float_of_int txn.Tiling.wt_txn *. ovh)
    in
    let of_bytes = if fused row.out_fused then 0 else row.out_bytes in
    { node_id = id; latc; if_terms; wt_term; wt_load_once;
      of_term =
        (if of_bytes = 0 then 0.
         else
           (float_of_int of_bytes /. bw) +. (float_of_int txn.Tiling.of_txn *. ovh));
      of_value = Some id;
      if_stream_bytes;
      wt_stream_bytes = wt_bytes * trips.Tiling.wt_trips;
      wt_once_bytes = wt_bytes;
      of_stream_bytes = of_bytes }

type table = {
  dtype : Tensor.Dtype.t;
  rows : row array;      (* Distinct rows, in order of first appearance. *)
  node_row : int array;  (* Node id -> row index. *)
}

let layer_table dtype g =
  let n = G.node_count g in
  let fusable = Array.init n (fusable g) in
  let index = Hashtbl.create 64 in
  let rows = ref [] and count = ref 0 in
  let node_row =
    Array.init n (fun id ->
        let row =
          make_row dtype g ~fusable:(Array.get fusable) ~sources:(node_sources g id) id
        in
        match Hashtbl.find_opt index row with
        | Some r -> r
        | None ->
          let r = !count in
          Hashtbl.add index row r;
          rows := row :: !rows;
          incr count;
          r)
  in
  { dtype; rows = Array.of_list (List.rev !rows); node_row }

let table_rows t = Array.length t.rows

let node_row t id = t.node_row.(id)

let row_compute cfg t r = compute_seconds cfg t.rows.(r)

let profile_node cfg g id =
  let sources = node_sources g id in
  (* The fusion flags only matter when fusion is on; skip their
     consumer scans otherwise. *)
  let fusable = if cfg.Config.fused_eltwise then fusable g else fun _ -> false in
  let row = make_row cfg.Config.dtype g ~fusable ~sources id in
  profile_row cfg row ~id ~sources ~latc:(compute_seconds cfg row)

let profile_graph cfg g = Array.init (G.node_count g) (profile_node cfg g)

(* The slowest interface's streaming time; pinned sources stream
   nothing. *)
let transfer_time p ~if_on_chip ~wt_on_chip ~of_on_chip =
  let if_time =
    List.fold_left
      (fun acc (v, t) -> if if_on_chip v then acc else acc +. t)
      0. p.if_terms
  in
  let wt_time = if wt_on_chip then 0. else p.wt_term in
  let of_time = if of_on_chip then 0. else p.of_term in
  max if_time (max wt_time of_time)

let node_latency p ~if_on_chip ~wt_on_chip ~of_on_chip =
  max p.latc (transfer_time p ~if_on_chip ~wt_on_chip ~of_on_chip)

let umm_transfer p =
  transfer_time p ~if_on_chip:(fun _ -> false) ~wt_on_chip:false ~of_on_chip:false

let umm_node_latency p = max p.latc (umm_transfer p)

(* Source values of a row that stream from DDR: those fusion does not
   consume from a drain. *)
let rec count_streams fusion n = function
  | [] -> n
  | (_, f) :: tl -> count_streams fusion (if fusion && f then n else n + 1) tl

(* [umm_transfer] of the row's profile without building it: the same
   float operations in the same order ([profile_row]'s per-source streamed
   bytes and [if_ovh_each], [transfer_time]'s left fold from [0.] and its
   [max]es), over the row's own source list.  The loops keep the float
   accumulators unboxed, so a term allocates only [tile_loops]' result. *)
let row_transfer cfg t r =
  if cfg.Config.dtype <> t.dtype then
    invalid_arg "Latency.row_transfer: design and layer table disagree on the precision";
  let row = t.rows.(r) in
  match row.kind with
  | Input | Concat -> 0.
  | Conv _ | Dense _ | Aux _ ->
    let bw = Config.interface_bandwidth cfg in
    let trips, txn = tile_loops cfg.Config.tile row.kind in
    let ovh = cfg.Config.burst_overhead in
    let fusion = cfg.Config.fused_eltwise in
    let streams = count_streams fusion 0 row.src_bytes in
    let if_ovh_each =
      if streams = 0 then 0.
      else float_of_int txn.Tiling.if_txn *. ovh /. float_of_int streams
    in
    let if_time = ref 0. and rest = ref row.src_bytes and more = ref true in
    while !more do
      match !rest with
      | [] -> more := false
      | (bytes, f) :: tl ->
        if not (fusion && f) then begin
          let streamed_bytes =
            int_of_float
              (float_of_int (bytes * trips.Tiling.if_trips) *. trips.Tiling.halo)
          in
          if_time := !if_time +. ((float_of_int streamed_bytes /. bw) +. if_ovh_each)
        end;
        rest := tl
    done;
    let wt_time =
      if row.wt_bytes = 0 then 0.
      else
        float_of_int (row.wt_bytes * trips.Tiling.wt_trips) /. bw
        +. (float_of_int txn.Tiling.wt_txn *. ovh)
    in
    let of_time =
      if (fusion && row.out_fused) || row.out_bytes = 0 then 0.
      else
        (float_of_int row.out_bytes /. bw)
        +. (float_of_int txn.Tiling.of_txn *. ovh)
    in
    (* [Stdlib.max]: [if a >= b then a else b], on floats. *)
    let wt_of = if wt_time >= of_time then wt_time else of_time in
    if !if_time >= wt_of then !if_time else wt_of

let umm_total profiles =
  Array.fold_left (fun acc p -> acc +. umm_node_latency p) 0. profiles

let has_traffic p = p.if_terms <> [] || p.wt_term > 0. || p.of_term > 0.

let is_memory_bound p = has_traffic p && umm_node_latency p > p.latc

let memory_bound_count profiles =
  Array.fold_left
    (fun (mb, total) p ->
      if has_traffic p then ((if is_memory_bound p then mb + 1 else mb), total + 1)
      else (mb, total))
    (0, 0) profiles
