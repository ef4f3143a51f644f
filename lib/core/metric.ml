module G = Dnn_graph.Graph
module Values = Dnn_graph.Values
module Latency = Accel.Latency
module Shape = Tensor.Shape

type item =
  | Feature_value of int
  | Weight_of of int
  | Weight_slice of { node : int; index : int; of_k : int }

module Item_set = Set.Make (struct
  type t = item

  let compare = Stdlib.compare
end)

type t = {
  graph : G.t;
  profiles : Latency.profile array;
  affected : (item, int list) Hashtbl.t;
  slices : int array;
  weight_items : item array;
  weight_base : int array;
  queries : int array array;
}

(* Dense item ids: feature value [v] is id [v] (every node queries its
   own output), then each weight-carrying node's [Weight_of] or its [k]
   slices, in node order. *)
let build ?(weight_slices = fun _ -> 1) graph profiles =
  let n = Array.length profiles in
  let affected = Hashtbl.create 256 in
  let slices = Array.make n 1 in
  let weight_base = Array.make n (-1) in
  let weights = ref [] and next = ref n in
  Array.iter
    (fun p ->
      let id = p.Latency.node_id in
      if p.Latency.wt_term > 0. then begin
        let k = max 1 (weight_slices id) in
        slices.(id) <- k;
        weight_base.(id) <- !next;
        if k = 1 then begin
          Hashtbl.replace affected (Weight_of id) [ id ];
          weights := Weight_of id :: !weights
        end
        else
          for index = 0 to k - 1 do
            let item = Weight_slice { node = id; index; of_k = k } in
            Hashtbl.replace affected item [ id ];
            weights := item :: !weights
          done;
        next := !next + k
      end)
    profiles;
  (* A feature value affects its producer (output stream) and every
     consumer (input stream). *)
  for v = 0 to G.node_count graph - 1 do
    if Values.is_value graph v then begin
      let consumers = Values.consumers graph v in
      let nodes =
        if profiles.(v).Latency.of_term > 0. then v :: consumers else consumers
      in
      if nodes <> [] then Hashtbl.replace affected (Feature_value v) nodes
    end
  done;
  let weight_items = Array.of_list (List.rev !weights) in
  (* Each node's queries in evaluation order: its weight (or its k
     slices), its inputs in [if_terms] order, then its output. *)
  let queries =
    Array.mapi
      (fun id p ->
        let w = if p.Latency.wt_term > 0. then slices.(id) else 0 in
        let q = Array.make (w + List.length p.Latency.if_terms + 1) id in
        for s = 0 to w - 1 do
          q.(s) <- weight_base.(id) + s
        done;
        List.iteri (fun i (v, _) -> q.(w + i) <- v) p.Latency.if_terms;
        q)
      profiles
  in
  { graph; profiles; affected; slices; weight_items; weight_base; queries }

let id_count t = Array.length t.profiles + Array.length t.weight_items

let item_of_id t id =
  let n = Array.length t.profiles in
  if id < n then Feature_value id else t.weight_items.(id - n)

let item_id t item =
  let n = Array.length t.profiles in
  match item with
  | Feature_value v -> if v >= 0 && v < n then Some v else None
  | Weight_of node ->
    if node >= 0 && node < n && t.weight_base.(node) >= 0 && t.slices.(node) = 1
    then Some t.weight_base.(node)
    else None
  | Weight_slice { node; index; of_k } ->
    if
      node >= 0 && node < n && t.weight_base.(node) >= 0 && of_k > 1
      && t.slices.(node) = of_k && index >= 0 && index < of_k
    then Some (t.weight_base.(node) + index)
    else None

let weight_bytes dtype t n =
  match G.weight_shape t.graph n with
  | None -> 0
  | Some shape -> Shape.size_bytes dtype shape

let item_size_bytes dtype t = function
  | Feature_value v -> Shape.size_bytes dtype (G.output_shape t.graph v)
  | Weight_of n -> weight_bytes dtype t n
  | Weight_slice { node; of_k; _ } ->
    (weight_bytes dtype t node + of_k - 1) / of_k

let affected_nodes t item =
  match Hashtbl.find_opt t.affected item with Some l -> l | None -> []

(* [Stdlib.max] specialised to floats: the same comparison, unboxed. *)
let fmax (a : float) b = if a >= b then a else b

(* Eq. 1 with fractional weight residency: the streamed share of a sliced
   weight tensor scales its transfer term. *)
let node_latency_id t ~on id =
  let p = t.profiles.(id) in
  let q = t.queries.(id) in
  let k = t.slices.(id) in
  let w = if p.Latency.wt_term > 0. then k else 0 in
  let wt_time =
    if w = 0 then 0.
    else if k = 1 then if on q.(0) then 0. else p.Latency.wt_term
    else begin
      let off = ref 0 in
      for s = 0 to k - 1 do
        if not (on q.(s)) then incr off
      done;
      p.Latency.wt_term *. float_of_int !off /. float_of_int k
    end
  in
  let rec inputs acc i = function
    | [] -> acc
    | (_, seconds) :: rest ->
      inputs (if on q.(i) then acc else acc +. seconds) (i + 1) rest
  in
  let if_time = inputs 0. w p.Latency.if_terms in
  let of_time = if on q.(Array.length q - 1) then 0. else p.Latency.of_term in
  fmax p.Latency.latc (fmax if_time (fmax wt_time of_time))

let total_latency_id t ~on =
  let sum = ref 0. in
  for id = 0 to Array.length t.profiles - 1 do
    sum := !sum +. node_latency_id t ~on id
  done;
  !sum

let gain_id t ~before ~after nodes =
  Array.fold_left
    (fun acc id ->
      acc +. node_latency_id t ~on:before id -. node_latency_id t ~on:after id)
    0. nodes

let mem_pred t on_chip id = Item_set.mem (item_of_id t id) on_chip

let node_latency t ~on_chip id = node_latency_id t ~on:(mem_pred t on_chip) id

let total_latency t ~on_chip = total_latency_id t ~on:(mem_pred t on_chip)

let marginal_gain_many t ~on_chip items =
  let nodes =
    List.concat_map (affected_nodes t) items |> List.sort_uniq compare
  in
  let with_items =
    List.fold_left (fun acc it -> Item_set.add it acc) on_chip items
  in
  gain_id t ~before:(mem_pred t on_chip) ~after:(mem_pred t with_items)
    (Array.of_list nodes)

let marginal_gain t ~on_chip item =
  let with_item = Item_set.add item on_chip in
  gain_id t ~before:(mem_pred t on_chip) ~after:(mem_pred t with_item)
    (Array.of_list (affected_nodes t item))

(* Eq. 2 against the all-off-chip state: per affected node, the node's
   UMM latency minus its latency with only this item pinned. *)
let static_reduction t item = marginal_gain t ~on_chip:Item_set.empty item

let eligible_items t ~memory_bound_only =
  let memory_bound = Array.map Latency.is_memory_bound t.profiles in
  let qualifies item =
    (not memory_bound_only)
    || List.exists (fun id -> memory_bound.(id)) (affected_nodes t item)
  in
  let is_input v =
    match (G.node t.graph v).G.op with
    | Dnn_graph.Op.Input _ -> true
    | Dnn_graph.Op.Conv _ | Dnn_graph.Op.Pool _ | Dnn_graph.Op.Eltwise_add
    | Dnn_graph.Op.Concat | Dnn_graph.Op.Upsample _ | Dnn_graph.Op.Dense _ ->
      false
  in
  Hashtbl.fold
    (fun item _nodes acc ->
      let keep =
        match item with
        | Feature_value v ->
          (not (is_input v)) && Values.consumers t.graph v <> [] && qualifies item
        | Weight_of _ | Weight_slice _ -> qualifies item
      in
      if keep then item :: acc else acc)
    t.affected []
  |> List.sort compare

let pp_item ppf = function
  | Feature_value v -> Format.fprintf ppf "f%d" v
  | Weight_of n -> Format.fprintf ppf "w%d" n
  | Weight_slice { node; index; of_k } -> Format.fprintf ppf "w%d.%d/%d" node index of_k
