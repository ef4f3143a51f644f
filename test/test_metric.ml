(* Metric tables: the exact evaluator and marginal gains. *)

module Metric = Lcmm.Metric
module Latency = Accel.Latency

let fixture () = Helpers.metric_of (Helpers.inception_snippet ())

let test_affected_nodes () =
  let _, m = fixture () in
  (* C2's output value affects C2 (writer) and C3 (reader). *)
  Alcotest.(check (list int)) "feature" [ 2; 3 ]
    (List.sort compare (Metric.affected_nodes m (Metric.Feature_value 2)));
  (* C1's value is read by C6 through the concat. *)
  Alcotest.(check (list int)) "through concat" [ 1; 7 ]
    (List.sort compare (Metric.affected_nodes m (Metric.Feature_value 1)));
  Alcotest.(check (list int)) "weight" [ 3 ]
    (Metric.affected_nodes m (Metric.Weight_of 3));
  Alcotest.(check (list int)) "unknown item" []
    (Metric.affected_nodes m (Metric.Weight_of 0))

let test_total_latency_matches_umm () =
  let _, m = fixture () in
  Alcotest.(check (float 1e-12)) "empty allocation = UMM"
    (Latency.umm_total m.Metric.profiles)
    (Metric.total_latency m ~on_chip:Metric.Item_set.empty)

let test_marginal_gain_positive () =
  let _, m = fixture () in
  let items = Metric.eligible_items m ~memory_bound_only:false in
  Alcotest.(check bool) "has items" true (items <> []);
  List.iter
    (fun item ->
      let gain = Metric.marginal_gain m ~on_chip:Metric.Item_set.empty item in
      Alcotest.(check bool) "gain >= 0" true (gain >= 0.))
    items

let test_gain_equals_latency_delta () =
  let _, m = fixture () in
  let item = Metric.Feature_value 2 in
  let before = Metric.total_latency m ~on_chip:Metric.Item_set.empty in
  let after =
    Metric.total_latency m ~on_chip:(Metric.Item_set.singleton item)
  in
  Alcotest.(check (float 1e-12)) "marginal = delta" (before -. after)
    (Metric.marginal_gain m ~on_chip:Metric.Item_set.empty item)

let test_gain_many_joint () =
  let _, m = fixture () in
  let items = [ Metric.Feature_value 2; Metric.Weight_of 3 ] in
  let joint = Metric.marginal_gain_many m ~on_chip:Metric.Item_set.empty items in
  let direct =
    Metric.total_latency m ~on_chip:Metric.Item_set.empty
    -. Metric.total_latency m ~on_chip:(Metric.Item_set.of_list items)
  in
  Alcotest.(check (float 1e-12)) "joint gain = delta" direct joint

let test_static_reduction_is_eq2 () =
  let _, m = fixture () in
  (* For a node whose largest term is the weight stream, Eq. 2 says the
     reduction is (wt - next largest term). *)
  let p = m.Metric.profiles.(3) in
  let if_sum = List.fold_left (fun a (_, t) -> a +. t) 0. p.Latency.if_terms in
  let others = List.sort compare [ p.Latency.latc; if_sum; p.Latency.of_term ] in
  let next = List.nth others 2 in
  if p.Latency.wt_term > next then
    Alcotest.(check (float 1e-12)) "eq2"
      (p.Latency.wt_term -. next)
      (Metric.static_reduction m (Metric.Weight_of 3))

let test_eligibility () =
  let _, m = fixture () in
  let all = Metric.eligible_items m ~memory_bound_only:false in
  (* The input's value is never eligible (cannot avoid the first DMA). *)
  Alcotest.(check bool) "input excluded" false
    (List.mem (Metric.Feature_value 0) all);
  (* The sink's value has no consumers. *)
  Alcotest.(check bool) "sink excluded" false
    (List.mem (Metric.Feature_value 7) all);
  (* Weight items for every conv. *)
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "w%d eligible" n)
        true
        (List.mem (Metric.Weight_of n) all))
    [ 1; 2; 3; 4; 5; 7 ];
  (* memory_bound_only is a subset. *)
  let bounded = Metric.eligible_items m ~memory_bound_only:true in
  List.iter
    (fun item ->
      Alcotest.(check bool) "subset" true (List.mem item all))
    bounded

let test_item_sizes () =
  let _, m = fixture () in
  (* Value 1 is 64x8x8 at i16. *)
  Alcotest.(check int) "feature size" (64 * 8 * 8 * 2)
    (Metric.item_size_bytes Tensor.Dtype.I16 m (Metric.Feature_value 1));
  (* Weight of C3: 128x96x3x3. *)
  Alcotest.(check int) "weight size" (128 * 96 * 9 * 2)
    (Metric.item_size_bytes Tensor.Dtype.I16 m (Metric.Weight_of 3));
  Alcotest.(check int) "no weights" 0
    (Metric.item_size_bytes Tensor.Dtype.I16 m (Metric.Weight_of 0))

let prop_latency_monotone =
  (* Adding items never increases total latency. *)
  Helpers.qtest ~count:40 "latency monotone in allocation"
    QCheck2.Gen.(pair Helpers.random_graph_gen (list_size (int_range 0 10) (int_range 0 1000)))
    (fun (g, picks) ->
      let _, m = Helpers.metric_of g in
      let items = Array.of_list (Metric.eligible_items m ~memory_bound_only:false) in
      if Array.length items = 0 then true
      else
        let subset =
          List.map (fun k -> items.(k mod Array.length items)) picks
          |> Metric.Item_set.of_list
        in
        let rest = Metric.Item_set.of_list (Array.to_list items) in
        let l0 = Metric.total_latency m ~on_chip:Metric.Item_set.empty in
        let l1 = Metric.total_latency m ~on_chip:subset in
        let l2 = Metric.total_latency m ~on_chip:rest in
        l2 <= l1 +. 1e-12 && l1 <= l0 +. 1e-12)

let prop_joint_gain_dominates_solo =
  (* The max-structure of Eq. 1 makes gains super-additive (the paper's
     pivot effect): pinning everything gains at least as much as any
     single item alone. *)
  Helpers.qtest ~count:40 "joint gain >= each solo gain"
    Helpers.random_graph_gen (fun g ->
      let _, m = Helpers.metric_of g in
      let items = Metric.eligible_items m ~memory_bound_only:false in
      let joint = Metric.marginal_gain_many m ~on_chip:Metric.Item_set.empty items in
      List.for_all
        (fun it ->
          Metric.marginal_gain m ~on_chip:Metric.Item_set.empty it <= joint +. 1e-9)
        items)

let test_eq1_ids_zoo () =
  (* The dense-id evaluator against the item-predicate reference on
     every zoo model and precision, with whole weights and 3- and 4-way
     slices (a non-power-of-two count exposes any reordered rounding). *)
  List.iter
    (fun e ->
      let g = e.Models.Zoo.build () in
      List.iter
        (fun dtype ->
          List.iter
            (fun weight_slices ->
              match Check.Oracle.check_eq1_ids_graph ~weight_slices dtype g with
              | Ok () -> ()
              | Error msg ->
                Alcotest.failf "%s %s, %d slices: %s" e.Models.Zoo.model_name
                  (Tensor.Dtype.to_string dtype) weight_slices msg)
            [ 1; 3; 4 ])
        [ Tensor.Dtype.I8; Tensor.Dtype.I16; Tensor.Dtype.F32 ])
    Models.Zoo.all

let suite =
  [ Alcotest.test_case "affected nodes" `Quick test_affected_nodes;
    Alcotest.test_case "total latency = UMM when empty" `Quick test_total_latency_matches_umm;
    Alcotest.test_case "marginal gain positive" `Quick test_marginal_gain_positive;
    Alcotest.test_case "gain equals latency delta" `Quick test_gain_equals_latency_delta;
    Alcotest.test_case "joint gain" `Quick test_gain_many_joint;
    Alcotest.test_case "static reduction is Eq.2" `Quick test_static_reduction_is_eq2;
    Alcotest.test_case "eligibility" `Quick test_eligibility;
    Alcotest.test_case "item sizes" `Quick test_item_sizes;
    Alcotest.test_case "eq1 ids zoo" `Quick test_eq1_ids_zoo;
    prop_latency_monotone;
    prop_joint_gain_dominates_solo ]
