(* The pass-timing contract: one pass enumeration names every timed
   compile-time pass, plans carry their own per-pass table, and every
   timed pass (planner, fusion, runtime) lands in the process-wide
   cumulative total the service's stats op reports. *)

module Json = Dnn_serial.Json
module F = Lcmm.Framework
module Fusion = Lcmm_fusion.Fusion
module Rt = Lcmm_runtime

let names =
  [ "liveness_us"; "interference_us"; "coloring_us"; "prefetch_us";
    "dnnk_us"; "splitting_us"; "segmentation_us"; "channel_assign_us";
    "schedule_us" ]

let plan ?(fusion = false) g =
  F.plan
    ~options:{ F.default_options with F.fusion }
    (Helpers.default_config ()) g

let test_names_match_stats () =
  Alcotest.(check (list string)) "nine passes, report order" names
    (List.map F.pass_name F.passes);
  let engine = Lcmm_service.Engine.create () in
  Fun.protect
    ~finally:(fun () -> Lcmm_service.Engine.shutdown engine)
    (fun () ->
      let line = Lcmm_service.Engine.handle_line engine {|{"op":"stats"}|} in
      let member k v =
        match Json.member k v with
        | Ok x -> x
        | Error msg -> Alcotest.failf "field %s: %s" k msg
      in
      match Json.of_string (String.trim line) with
      | Error msg -> Alcotest.failf "bad stats line: %s" msg
      | Ok v -> (
        match member "pass_times_us" (member "result" v) with
        | Json.Obj fields ->
          Alcotest.(check (list string)) "stats keys" names
            (List.map fst fields)
        | _ -> Alcotest.fail "pass_times_us is not an object"))

let test_plan_own_times () =
  let p = plan (Helpers.inception_snippet ()) in
  List.iter
    (fun pass ->
      let us = F.pass_us p.F.pass_times pass in
      match pass with
      | F.Segmentation | F.Channel_assign | F.Schedule ->
        Alcotest.(check (float 0.)) (F.pass_name pass) 0. us
      | _ ->
        Alcotest.(check bool) (F.pass_name pass ^ " >= 0") true (us >= 0.))
    F.passes

(* Single domain: nothing else times a pass between the snapshots, and
   each pass of a plan is timed once, so the total grows by exactly the
   plan's own cells. *)
let test_total_grows_by_plan () =
  let g = Helpers.inception_snippet () in
  let before = F.pass_times_total () in
  let p = plan g in
  let after = F.pass_times_total () in
  List.iter
    (fun pass ->
      Alcotest.(check (float 0.)) (F.pass_name pass)
        (F.pass_us before pass +. F.pass_us p.F.pass_times pass)
        (F.pass_us after pass))
    F.passes

let test_fusion_carries_segmentation () =
  let p = plan ~fusion:true (Models.Zoo.build "alexnet") in
  let before = F.pass_times_total () in
  let fz = Fusion.apply p in
  let after = F.pass_times_total () in
  Alcotest.(check bool) "fusion decided something" true (Fusion.active fz);
  let eff = (Fusion.effective_plan fz).F.pass_times in
  let seg = F.pass_us eff F.Segmentation in
  Alcotest.(check bool) "segmentation timed" true (seg > 0.);
  Alcotest.(check (float 0.)) "cumulative segmentation"
    (F.pass_us before F.Segmentation +. seg)
    (F.pass_us after F.Segmentation);
  Alcotest.(check (float 0.)) "base plan's table untouched" 0.
    (F.pass_us p.F.pass_times F.Segmentation);
  List.iter
    (fun pass ->
      if pass <> F.Segmentation then
        Alcotest.(check (float 0.)) (F.pass_name pass)
          (F.pass_us p.F.pass_times pass) (F.pass_us eff pass))
    F.passes

let test_runtime_schedule_time () =
  let g = Models.Zoo.build "alexnet" in
  let specs =
    List.init 2 (fun k ->
        { Rt.Runtime.name = Printf.sprintf "alexnet#%d" k;
          model = "alexnet";
          graph = g;
          priority = 0;
          arrival = 0. })
  in
  let before = F.pass_us (F.pass_times_total ()) F.Schedule in
  ignore
    (Rt.Runtime.run
       { Rt.Runtime.default_options with
         Rt.Runtime.scheduler = Rt.Scheduler.Optimized }
       specs);
  let after = F.pass_us (F.pass_times_total ()) F.Schedule in
  Alcotest.(check bool) "schedule time added" true (after > before)

let suite =
  [ Alcotest.test_case "pass names match stats keys" `Quick
      test_names_match_stats;
    Alcotest.test_case "plan times only its own passes" `Quick
      test_plan_own_times;
    Alcotest.test_case "total grows by the plan's times" `Quick
      test_total_grows_by_plan;
    Alcotest.test_case "effective plan carries segmentation" `Quick
      test_fusion_carries_segmentation;
    Alcotest.test_case "optimized run adds schedule time" `Quick
      test_runtime_schedule_time ]
