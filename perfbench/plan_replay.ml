(* Framework.plan replayed pass by pass through the public pass
   functions, one span per pass.  The replay stops after splitting: the
   stall prune and the UMM safety net that follow have no public entry
   point, so their time stays unattributed.  The replay's vbuf count and
   splitting iterations must equal the real plan's. *)

module F = Lcmm.Framework
module Metric = Lcmm.Metric
module Latency = Accel.Latency

type counts = { items : int; vbufs : int; iterations : int }

let is_weight = function
  | Metric.Weight_of _ | Metric.Weight_slice _ -> true
  | Metric.Feature_value _ -> false

let never_share_class item = if is_weight item then 1 else 0

let run tr ~(options : F.options) config g =
  Span.with_ tr "core.plan" (fun () ->
      let profiles =
        Span.with_ tr "accel.profile" (fun () -> Latency.profile_graph config g)
      in
      let metric = Span.with_ tr "core.metric" (fun () -> Metric.build g profiles) in
      let items =
        Metric.eligible_items metric
          ~memory_bound_only:options.F.memory_bound_only
        |> List.filter (fun item ->
               if is_weight item then options.F.weight_prefetch
               else options.F.feature_reuse)
        |> Array.of_list
      in
      let dtype = config.Accel.Config.dtype in
      let sizes = Array.map (Metric.item_size_bytes dtype metric) items in
      let targets =
        Array.to_list items
        |> List.filter_map (function
             | Metric.Weight_of n | Metric.Weight_slice { node = n; _ } -> Some n
             | Metric.Feature_value _ -> None)
        |> List.sort_uniq compare
      in
      let pdg =
        if targets = [] then None
        else
          Span.with_ tr "core.prefetch" (fun () ->
              Some
                (Lcmm.Prefetch.build metric ~targets ~node_latency:(fun id ->
                     Latency.umm_node_latency profiles.(id))))
      in
      let prefetch_source n =
        match pdg with None -> None | Some p -> Lcmm.Prefetch.source_of p n
      in
      let intervals =
        Span.with_ tr "core.liveness" (fun () ->
            Array.map (Lcmm.Liveness.item_interval g ~prefetch_source) items)
      in
      let interference =
        Span.with_ tr "core.interference" (fun () ->
            Lcmm.Interference.build ~never_share_class ~items ~intervals ())
      in
      let vbufs =
        Span.with_ tr "core.coloring" (fun () ->
            Lcmm.Coloring.color ~strategy:options.F.coloring interference ~sizes)
      in
      let capacity_bytes =
        let budget = Accel.Config.sram_budget_bytes config in
        match options.F.capacity_override with
        | None -> budget
        | Some cap -> min cap budget
      in
      let workspace = Lcmm.Dnnk.workspace () in
      let initial =
        Span.with_ tr "core.dnnk" (fun () ->
            Lcmm.Dnnk.allocate ~compensation:options.F.compensation ~workspace
              metric ~capacity_bytes vbufs)
      in
      let outcome =
        Span.with_ tr "core.splitting" (fun () ->
            Lcmm.Splitting.run ~compensation:options.F.compensation
              ~strategy:options.F.coloring ~workspace metric interference ~sizes
              ~capacity_bytes initial)
      in
      let r = outcome.Lcmm.Splitting.result in
      { items = Array.length items;
        vbufs = List.length r.Lcmm.Dnnk.chosen + List.length r.Lcmm.Dnnk.spilled;
        iterations = outcome.Lcmm.Splitting.iterations })

let matches counts (p : F.plan) =
  counts.vbufs = List.length p.F.vbufs
  && counts.iterations = p.F.splitting_iterations
