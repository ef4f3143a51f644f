(* The accelerator performance model: PE array, tiling, latency (Eq. 1),
   roofline and DSE. *)

module Pe = Accel.Pe_array
module Tiling = Accel.Tiling
module Config = Accel.Config
module Latency = Accel.Latency
module Dtype = Tensor.Dtype

let test_pe_basics () =
  let a = Pe.make ~tm_unroll:32 ~tn_unroll:16 ~tsp_unroll:8 in
  Alcotest.(check int) "macs" 4096 (Pe.macs_per_cycle a);
  Alcotest.(check int) "dsp i16" 4096 (Pe.dsp_usage Dtype.I16 a);
  Alcotest.(check int) "dsp i8 packs" 2048 (Pe.dsp_usage Dtype.I8 a);
  Alcotest.(check bool) "dsp f32 biggest" true
    (Pe.dsp_usage Dtype.F32 a > Pe.dsp_usage Dtype.I16 a);
  Alcotest.check_raises "bad unroll"
    (Invalid_argument "Pe_array.make: non-positive unroll factor") (fun () ->
      ignore (Pe.make ~tm_unroll:0 ~tn_unroll:1 ~tsp_unroll:1))

let test_pe_cycles () =
  let a = Pe.make ~tm_unroll:8 ~tn_unroll:8 ~tsp_unroll:4 in
  (* Perfectly divisible dims: cycles = macs / array. *)
  Alcotest.(check int) "exact" (16 * 16 * 8 * 9 / 256)
    (Pe.conv_cycles a ~m:16 ~c:16 ~hw:8 ~k2:9);
  (* Padding rounds every dim up. *)
  Alcotest.(check int) "padded" (16 * 16 * 8 / 256)
    (Pe.conv_cycles a ~m:9 ~c:9 ~hw:5 ~k2:1);
  Alcotest.(check (float 1e-9)) "efficiency exact" 1.0 (Pe.efficiency a ~m:16 ~c:16 ~hw:8);
  Alcotest.(check bool) "efficiency < 1 when padded" true
    (Pe.efficiency a ~m:9 ~c:9 ~hw:5 < 1.

)

let test_pe_default_for () =
  let a = Pe.default_for Fpga.Device.vu9p Dtype.I16 ~dsp_fraction:0.83 in
  Alcotest.(check bool) "fits budget" true (Pe.dsp_usage Dtype.I16 a <= 5677);
  Alcotest.(check bool) "uses most of it" true (Pe.dsp_usage Dtype.I16 a > 4500);
  Alcotest.(check bool) "spatial unroll sane" true (a.Pe.tsp_unroll <= 32);
  (* i8 packing doubles the array for the same budget. *)
  let a8 = Pe.default_for Fpga.Device.vu9p Dtype.I8 ~dsp_fraction:0.83 in
  Alcotest.(check bool) "i8 array bigger" true
    (Pe.macs_per_cycle a8 > Pe.macs_per_cycle a);
  Alcotest.check_raises "fraction range"
    (Invalid_argument "Pe_array.default_for: dsp_fraction out of (0, 1]") (fun () ->
      ignore (Pe.default_for Fpga.Device.vu9p Dtype.I16 ~dsp_fraction:1.5))

let test_tiling_trips () =
  let t = Tiling.make ~tm:32 ~tn:32 ~th:14 ~tw:14 in
  (* Layer fits in one tile. *)
  let one = Tiling.trips t ~out_channels:32 ~out_h:14 ~out_w:14 ~kernel:(3, 3) in
  Alcotest.(check int) "if once" 1 one.Tiling.if_trips;
  Alcotest.(check int) "wt once" 1 one.Tiling.wt_trips;
  Alcotest.(check (float 1e-9)) "no halo" 1.0 one.Tiling.halo;
  (* Bigger layer: 4 channel groups, 16 spatial tiles. *)
  let big = Tiling.trips t ~out_channels:128 ~out_h:56 ~out_w:56 ~kernel:(3, 3) in
  Alcotest.(check int) "if trips" 4 big.Tiling.if_trips;
  Alcotest.(check int) "wt trips" 16 big.Tiling.wt_trips;
  Alcotest.(check bool) "halo overread" true (big.Tiling.halo > 1.0)

let test_tiling_transactions () =
  let t = Tiling.make ~tm:32 ~tn:32 ~th:14 ~tw:14 in
  let txn = Tiling.transactions t ~out_channels:64 ~in_channels:64 ~out_h:28 ~out_w:28 in
  (* nm=2, nc=2, nsp=4 *)
  Alcotest.(check int) "loads" 16 txn.Tiling.if_txn;
  Alcotest.(check int) "weight loads" 16 txn.Tiling.wt_txn;
  Alcotest.(check int) "stores" 8 txn.Tiling.of_txn

let test_tiling_buffers () =
  let small = Tiling.make ~tm:16 ~tn:16 ~th:7 ~tw:7 in
  let large = Tiling.make ~tm:64 ~tn:64 ~th:28 ~tw:28 in
  Alcotest.(check bool) "monotone in size" true
    (Tiling.buffer_bytes Dtype.I16 small < Tiling.buffer_bytes Dtype.I16 large);
  Alcotest.(check bool) "monotone in dtype" true
    (Tiling.buffer_bytes Dtype.I8 large < Tiling.buffer_bytes Dtype.F32 large);
  Alcotest.(check bool) "bram blocks cover bytes" true
    (Tiling.bram_blocks Dtype.I16 large * Fpga.Resource.bram36_bytes
    >= Tiling.buffer_bytes Dtype.I16 large)

let test_config () =
  let c = Config.make ~style:Config.Umm Dtype.I16 in
  Alcotest.(check (float 1e-9)) "umm freq" 190. c.Config.freq_mhz;
  let l = Config.make ~style:Config.Lcmm Dtype.I16 in
  Alcotest.(check (float 1e-9)) "lcmm freq lower" 180. l.Config.freq_mhz;
  Alcotest.(check bool) "bandwidth below theoretical" true
    (Config.interface_bandwidth c < Fpga.Device.interface_bandwidth Fpga.Device.vu9p);
  Alcotest.(check bool) "sram budget below device" true
    (Config.sram_budget_bytes c < Fpga.Device.sram_bytes Fpga.Device.vu9p);
  Alcotest.(check bool) "peak positive" true (Config.peak_ops c > 0.)

let profile_fixture () =
  let g = Helpers.chain () in
  let cfg = Config.make ~style:Config.Umm Dtype.I16 in
  (g, cfg, Latency.profile_graph cfg g)

let test_latency_profiles () =
  let _, _, profiles = profile_fixture () in
  Alcotest.(check int) "one profile per node" 4 (Array.length profiles);
  let input = profiles.(0) in
  Alcotest.(check (float 0.)) "input free" 0. (Latency.umm_node_latency input);
  let conv = profiles.(1) in
  Alcotest.(check bool) "conv compute positive" true (conv.Latency.latc > 0.);
  Alcotest.(check int) "one input stream" 1 (List.length conv.Latency.if_terms);
  Alcotest.(check bool) "weight stream positive" true (conv.Latency.wt_term > 0.);
  Alcotest.(check bool) "load once <= streamed" true
    (conv.Latency.wt_load_once <= conv.Latency.wt_term +. 1e-12)

let test_eq1_semantics () =
  let _, _, profiles = profile_fixture () in
  let p = profiles.(1) in
  let all_off = Latency.umm_node_latency p in
  let all_on =
    Latency.node_latency p ~if_on_chip:(fun _ -> true) ~wt_on_chip:true
      ~of_on_chip:true
  in
  Alcotest.(check (float 1e-12)) "fully pinned = compute" p.Latency.latc all_on;
  Alcotest.(check bool) "pinning never hurts" true (all_on <= all_off);
  (* Pinning one source is between the two. *)
  let wt_on =
    Latency.node_latency p ~if_on_chip:(fun _ -> false) ~wt_on_chip:true
      ~of_on_chip:false
  in
  Alcotest.(check bool) "partial between" true (all_on <= wt_on && wt_on <= all_off)

let test_memory_bound_count () =
  let g = Models.Zoo.build "inception_v4" in
  let cfg = Config.make ~style:Config.Umm Dtype.I16 in
  let profiles = Latency.profile_graph cfg g in
  let mb, total = Latency.memory_bound_count profiles in
  Alcotest.(check bool) "some memory bound" true (mb > 0);
  Alcotest.(check bool) "not all" true (mb < total);
  (* A substantial fraction, as the paper reports. *)
  Alcotest.(check bool) "fraction > 20%" true
    (float_of_int mb /. float_of_int total > 0.2)

let test_roofline () =
  let g = Helpers.chain () in
  let cfg = Config.make ~style:Config.Umm Dtype.I16 in
  let points = Accel.Roofline.points cfg g in
  Alcotest.(check int) "conv layers have points" 3 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check bool) "attainable <= peak" true
        (p.Accel.Roofline.attainable_tops <= (Config.peak_ops cfg /. 1e12) +. 1e-9);
      Alcotest.(check bool) "intensity positive" true (p.Accel.Roofline.intensity > 0.))
    points;
  let ridge = Accel.Roofline.ridge_point cfg in
  Alcotest.(check bool) "ridge positive" true (ridge > 0.);
  (* At the ridge, both roofs agree. *)
  Alcotest.(check (float 1e-6)) "roofs meet"
    (Config.peak_ops cfg /. 1e12)
    (Accel.Roofline.attainable_tops cfg ridge)

let test_dse () =
  let g = Helpers.chain () in
  let r = Accel.Dse.run ~style:Config.Umm Dtype.I16 g in
  Alcotest.(check bool) "fits device" true
    (Fpga.Resource.fits r.Accel.Dse.resources
       ~within:Fpga.Device.vu9p.Fpga.Device.total);
  (* DSE should never lose to an arbitrary fixed candidate. *)
  let fixed = Tiling.make ~tm:16 ~tn:16 ~th:7 ~tw:7 in
  let cfg = Config.make ~tile:fixed ~style:Config.Umm Dtype.I16 in
  let fixed_lat = Latency.umm_total (Latency.profile_graph cfg g) in
  Alcotest.(check bool) "dse at least as good" true
    (r.Accel.Dse.umm_latency <= fixed_lat +. 1e-12)

let test_dse_exhaustive_zoo () =
  (* The factored sweep against the per-point reference on every zoo
     model and precision, both clock styles. *)
  List.iter
    (fun e ->
      let g = e.Models.Zoo.build () in
      List.iter
        (fun dtype ->
          match Check.Oracle.check_dse_exhaustive_graph dtype g with
          | Ok () -> ()
          | Error msg ->
            Alcotest.failf "%s %s: %s" e.Models.Zoo.model_name
              (Dtype.to_string dtype) msg)
        [ Dtype.I8; Dtype.I16; Dtype.F32 ])
    Models.Zoo.all

let test_dse_work () =
  (* Exact work counts of one two-style sweep: a return to profiling the
     graph per design point changes them whatever the machine's speed. *)
  let g = Models.Zoo.build "resnet152" in
  let results, w =
    Accel.Dse.explore ~styles:[ Config.Umm; Config.Lcmm ] Dtype.I16 g
  in
  Alcotest.(check int) "winners" 2 (List.length results);
  Alcotest.(check int) "nodes" 209 w.Accel.Dse.nodes;
  Alcotest.(check int) "rows" 32 w.Accel.Dse.rows;
  Alcotest.(check bool) "rows < nodes" true (w.Accel.Dse.rows < w.Accel.Dse.nodes);
  Alcotest.(check int) "transfer terms: rows x 36 tiles" (32 * 36)
    w.Accel.Dse.transfer_terms;
  Alcotest.(check int) "compute terms: rows x 5 rungs x 2 clocks" (32 * 5 * 2)
    w.Accel.Dse.compute_terms;
  Alcotest.(check int) "configs scored: 180 points x 2 styles" 360
    w.Accel.Dse.configs_scored;
  (* Scoring exits early once a point's partial sum passes the best. *)
  Alcotest.(check int) "score adds" 37710 w.Accel.Dse.score_adds;
  Alcotest.(check bool) "score adds < nodes x configs scored" true
    (w.Accel.Dse.score_adds < w.Accel.Dse.nodes * w.Accel.Dse.configs_scored)

(* An add whose output fuses into the very next add, so its single
   streamed input carries the whole tile-load overhead and its write-back
   disappears: no zoo model has this shape. *)
let fused_adds () =
  let module B = Dnn_graph.Builder in
  let b = B.create () in
  let x = B.input b ~name:"in" ~channels:16 ~height:28 ~width:28 () in
  let y = B.conv b ~name:"y" ~kernel:(1, 1) ~out_channels:32 x in
  let p = B.conv b ~name:"p" ~kernel:(3, 3) ~out_channels:32 x in
  let q = B.conv b ~name:"q" ~kernel:(3, 3) ~out_channels:32 x in
  let s1 = B.add b ~name:"s1" [ p; q ] in
  let _s2 = B.add b ~name:"s2" [ s1; y ] in
  B.finish b

let test_row_transfer_bits () =
  (* The row-level Eq. 1 factors against the node profile, bit for bit,
     on every zoo node, precision and candidate tile, fusion off and on
     (the dse-exhaustive oracle covers fusion off only). *)
  let checks = ref 0 in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun dtype ->
          let table = Latency.layer_table dtype g in
          List.iter
            (fun tile ->
              List.iter
                (fun fused_eltwise ->
                  let cfg = Config.make ~tile ~fused_eltwise ~style:Config.Umm dtype in
                  for id = 0 to Dnn_graph.Graph.node_count g - 1 do
                    let r = Latency.node_row table id in
                    let rows =
                      max (Latency.row_compute cfg table r)
                        (Latency.row_transfer cfg table r)
                    in
                    let node =
                      Latency.node_latency (Latency.profile_node cfg g id)
                        ~if_on_chip:(fun _ -> false) ~wt_on_chip:false ~of_on_chip:false
                    in
                    incr checks;
                    if Int64.bits_of_float rows <> Int64.bits_of_float node then
                      Alcotest.failf "%s %s %a fused=%b node %d: rows %h, profile %h" name
                        (Dtype.to_string dtype) Tiling.pp tile fused_eltwise id rows node
                  done)
                [ false; true ])
            (Accel.Dse.candidate_tiles ()))
        [ Dtype.I8; Dtype.I16; Dtype.F32 ])
    (("fused adds", fused_adds ())
    :: List.map (fun e -> (e.Models.Zoo.model_name, e.Models.Zoo.build ())) Models.Zoo.all);
  (* (1,151 zoo nodes + 6) x 3 dtypes x 36 tiles x 2 fusion settings. *)
  Alcotest.(check int) "checks" (248616 + 1296) !checks

let test_fused_eltwise () =
  let g = Helpers.diamond () in
  let plain = Config.make ~style:Config.Umm Dtype.I16 in
  let fused = Config.make ~fused_eltwise:true ~style:Config.Umm Dtype.I16 in
  (* Node 3 (body2) feeds only the add at node 4: fused, its write-back
     disappears and the add no longer reads it. *)
  let p_plain = Latency.profile_graph plain g in
  let p_fused = Latency.profile_graph fused g in
  Alcotest.(check bool) "producer of-term removed" true
    (p_fused.(3).Latency.of_term = 0. && p_plain.(3).Latency.of_term > 0.);
  Alcotest.(check int) "add loses one input stream"
    (List.length p_plain.(4).Latency.if_terms - 1)
    (List.length p_fused.(4).Latency.if_terms);
  (* The shortcut input (node 1, consumed by the add too) still streams:
     it has another consumer ordering (not the immediately preceding
     node). *)
  Alcotest.(check bool) "shortcut still streams" true
    (List.mem_assoc 1 p_fused.(4).Latency.if_terms);
  Alcotest.(check bool) "fusion only helps" true
    (Latency.umm_total p_fused <= Latency.umm_total p_plain +. 1e-15)

let prop_umm_upper_bound =
  Helpers.qtest ~count:30 "umm latency bounds any allocation"
    Helpers.random_graph_gen (fun g ->
      let cfg = Config.make ~style:Config.Umm Dtype.I16 in
      let profiles = Latency.profile_graph cfg g in
      let umm = Latency.umm_total profiles in
      let all_on =
        Array.fold_left
          (fun acc p ->
            acc
            +. Latency.node_latency p ~if_on_chip:(fun _ -> true) ~wt_on_chip:true
                 ~of_on_chip:true)
          0. profiles
      in
      all_on <= umm +. 1e-12)

let suite =
  [ Alcotest.test_case "pe basics" `Quick test_pe_basics;
    Alcotest.test_case "pe cycles" `Quick test_pe_cycles;
    Alcotest.test_case "pe default_for" `Quick test_pe_default_for;
    Alcotest.test_case "tiling trips" `Quick test_tiling_trips;
    Alcotest.test_case "tiling transactions" `Quick test_tiling_transactions;
    Alcotest.test_case "tiling buffers" `Quick test_tiling_buffers;
    Alcotest.test_case "config" `Quick test_config;
    Alcotest.test_case "latency profiles" `Quick test_latency_profiles;
    Alcotest.test_case "eq1 semantics" `Quick test_eq1_semantics;
    Alcotest.test_case "memory bound count" `Quick test_memory_bound_count;
    Alcotest.test_case "roofline" `Quick test_roofline;
    Alcotest.test_case "dse" `Quick test_dse;
    Alcotest.test_case "dse exhaustive zoo" `Quick test_dse_exhaustive_zoo;
    Alcotest.test_case "dse work counters" `Quick test_dse_work;
    Alcotest.test_case "row transfer bit-equal to profiles" `Quick test_row_transfer_bits;
    Alcotest.test_case "fused eltwise" `Quick test_fused_eltwise;
    prop_umm_upper_bound ]
