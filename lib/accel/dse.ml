type result = {
  config : Config.t;
  umm_latency : float;
  resources : Fpga.Resource.t;
}

type work = {
  nodes : int;
  rows : int;
  transfer_terms : int;
  compute_terms : int;
  configs_scored : int;
  score_adds : int;
}

let candidate_tiles () =
  List.concat_map
    (fun tm ->
      List.concat_map
        (fun tn ->
          List.map (fun sp -> Tiling.make ~tm ~tn ~th:sp ~tw:sp) [ 7; 14; 28; 56 ])
        [ 16; 32; 64 ])
    [ 16; 32; 64 ]

let dsp_fractions = [ 0.83; 0.6; 0.4; 0.25; 0.12 ]

(* A design point whose compute resources fit the device; [tile] indexes
   the sweep's tile array. *)
type point = { dsp_fraction : float; tile : int; resources : Fpga.Resource.t }

(* Eq. 1 summed over the nodes in node order from 0., exactly as
   [Latency.umm_total] sums the node profiles, stopping early once the
   partial sum exceeds [bound].  Every term is >= 0 and rounded addition
   is monotone, so a partial sum above [bound] means a total above it:
   such a point can neither win nor tie, and its partial sum stands in
   for its score.  A point that ties [bound] is summed to the end.  The
   comparison is [Stdlib.max] on floats, written out so it compiles to a
   float compare.  [adds] counts the max-adds performed. *)
let score node_row latc xfer ~bound ~adds =
  let acc = ref 0. and id = ref 0 in
  let n = Array.length node_row in
  while !id < n && !acc <= bound do
    let r = node_row.(!id) in
    let c = latc.(r) and x = xfer.(r) in
    acc := !acc +. (if c >= x then c else x);
    incr id
  done;
  adds := !adds + !id;
  !acc

let explore ?(device = Fpga.Device.vu9p) ?tiles ~styles dtype g =
  let tiles =
    Array.of_list (match tiles with Some t -> t | None -> candidate_tiles ())
  in
  let table = Latency.layer_table dtype g in
  let rows = Latency.table_rows table in
  let node_row = Array.init (Dnn_graph.Graph.node_count g) (Latency.node_row table) in
  (* The resources a point needs do not depend on the clock, so every
     style sweeps the same fitting points, rung by rung. *)
  let ladder =
    List.map
      (fun dsp_fraction ->
        List.filter_map
          (fun tile ->
            let cfg =
              Config.make ~device ~dsp_fraction ~tile:tiles.(tile) ~style:Config.Umm dtype
            in
            let resources = Config.compute_resources cfg in
            if Fpga.Resource.fits resources ~within:device.Fpga.Device.total then
              Some { dsp_fraction; tile; resources }
            else None)
          (List.init (Array.length tiles) Fun.id))
      dsp_fractions
  in
  let transfer_terms = ref 0 and compute_terms = ref 0 and configs_scored = ref 0
  and score_adds = ref 0 in
  (* Transfer bounds depend on the tiling only: one vector per tile that
     some point uses, shared by every rung and style. *)
  let xfer =
    Array.map
      (fun tile ->
        lazy
          (transfer_terms := !transfer_terms + rows;
           let cfg = Config.make ~device ~tile ~style:Config.Umm dtype in
           Array.init rows (Latency.row_transfer cfg table)))
      tiles
  in
  let buffer_bytes p = Tiling.buffer_bytes dtype tiles.(p.tile) in
  let better ((la, pa) as a) ((lb, pb) as b) =
    if la < lb then a
    else if lb < la then b
    else if buffer_bytes pa <= buffer_bytes pb then a
    else b
  in
  let winner style =
    let best = ref None in
    List.iter
      (function
        | [] -> ()
        | { dsp_fraction; _ } :: _ as points ->
          (* Compute terms depend on the rung's PE array and the style's
             clock only. *)
          let cfg = Config.make ~device ~dsp_fraction ~style dtype in
          let latc = Array.init rows (Latency.row_compute cfg table) in
          compute_terms := !compute_terms + rows;
          List.iter
            (fun p ->
              incr configs_scored;
              let bound = match !best with None -> infinity | Some (l, _) -> l in
              let scored =
                ( score node_row latc (Lazy.force xfer.(p.tile)) ~bound ~adds:score_adds,
                  p )
              in
              best :=
                Some (match !best with None -> scored | Some b -> better b scored))
            points)
      ladder;
    match !best with
    | None -> invalid_arg "Dse.run: no tile configuration fits the device"
    | Some (umm_latency, p) ->
      { config =
          Config.make ~device ~dsp_fraction:p.dsp_fraction ~tile:tiles.(p.tile) ~style
            dtype;
        umm_latency;
        resources = p.resources }
  in
  let results = List.map winner styles in
  ( results,
    { nodes = Array.length node_row;
      rows;
      transfer_terms = !transfer_terms;
      compute_terms = !compute_terms;
      configs_scored = !configs_scored;
      score_adds = !score_adds } )

let run ?device ?tiles ~style dtype g =
  match explore ?device ?tiles ~styles:[ style ] dtype g with
  | [ r ], _ -> r
  | ([] | _ :: _ :: _), _ -> assert false
