(* large-graph-plan: in-process Framework.plan on seeded mixed-family
   graphs of 1024 and 4096 nodes, 16-bit LCMM design, a quarter of the
   SRAM budget.  The planner passes do all the work; DSE, codec, cache
   and transport do none of it.

   Generated graphs of one size differ in planning cost several-fold, so
   the graphs are pinned to the generator seed `lcmm bench perf` uses
   (2026) and the run-to-run spread reflects the planner, not the draw.
   The workload seed orders the plans; --graph-seed N plans other
   graphs, for held-out checks. *)

module F = Lcmm.Framework

let sizes = [ 1024; 4096 ]

let config () = Accel.Config.make ~style:Accel.Config.Lcmm Tensor.Dtype.I16

let options cfg =
  { F.default_options with
    F.capacity_override = Some (Accel.Config.sram_budget_bytes cfg / 4) }

let graphs seed =
  List.map
    (fun nodes ->
      let st = Random.State.make [| seed; nodes |] in
      Check.Gen.sized_graph ~family:Check.Gen.Mixed st ~nodes)
    sizes

let fingerprint p = Dnn_serial.Codec.digest_string (F.fingerprint p)

let counters (p : F.plan) =
  ( List.length p.F.vbufs,
    p.F.splitting_iterations,
    p.F.tensor_sram_bytes )

let umm_ratio (p : F.plan) =
  Accel.Latency.umm_total p.F.metric.Lcmm.Metric.profiles /. p.F.predicted_latency

let run (c : Ctx.t) =
  let r = Util.new_run () in
  Util.configure ~trace:c.Ctx.trace ();
  let cfg = config () in
  let options = options cfg in
  (* Set-up: generate the graphs fifteen times; the generator must give
     the same graphs every time. *)
  let gs = graphs c.Ctx.graph_seed in
  let digests = List.map Dnn_serial.Codec.digest gs in
  let setups =
    List.init 15 (fun _ ->
        Gc.compact ();
        let g, dt = Util.op (fun () -> graphs c.Ctx.graph_seed) in
        Util.attempt r;
        Util.check r
          (List.map Dnn_serial.Codec.digest g = digests)
          "graph generation is not deterministic";
        dt)
  in
  let plan g = F.plan ~options cfg g in
  (* The first plan of each graph fixes the expected fingerprint and work
     counters; every later plan must repeat them exactly. *)
  let refs =
    List.map
      (fun g ->
        Gc.compact ();
        plan g)
      gs
  in
  (* The plans so far are fixed work in a fixed order, so the peak heap
     read here does not depend on the seed or on how many sweeps the
     run has time for. *)
  let heap_mb = Util.peak_heap_mb () in
  let timed_plan k g =
    Gc.compact ();
    let p, dt = Util.scaled (fun () -> plan g) in
    let expected = List.nth refs k in
    Util.attempt r;
    Util.check r
      (fingerprint p = fingerprint expected && counters p = counters expected)
      (Printf.sprintf "plan of the %d-node graph changed between repetitions"
         (List.nth sizes k));
    dt
  in
  let order_st = Random.State.make [| c.Ctx.seed |] in
  let sweep () =
    Util.calibrate ();
    let times = Array.make (List.length gs) 0. in
    List.iter
      (fun k -> times.(k) <- timed_plan k (List.nth gs k))
      (Util.shuffle order_st (List.init (List.length gs) Fun.id));
    Array.to_list times
  in
  let budget = if c.Ctx.trace then 0. else c.Ctx.seconds in
  let t_end = Util.now () +. budget in
  let rec loop acc =
    let acc = sweep () :: acc in
    if List.length acc >= 3 && Util.now () >= t_end then List.rev acc
    else loop acc
  in
  let samples = loop [] in
  let sweep_s = List.map Util.sum samples in
  if not c.Ctx.trace then begin
    Util.add_median r "setup_s" "s" setups;
    Util.add_median r "sweep_s" "s" sweep_s;
    let of_size n =
      List.concat_map
        (fun s ->
          List.concat
            (List.map2 (fun m dt -> if m = n then [ dt *. 1e3 ] else []) sizes s))
        samples
    in
    Util.add_median r "op_p50_ms" "ms" (of_size 1024);
    Util.add_median r "op_tail_ms" "ms" (of_size 4096);
    let n = float_of_int (List.length sizes) in
    Util.add_median r "rate_per_s" "1/s" (List.map (fun s -> n /. s) sweep_s);
    Util.add r "peak_heap_mb" "MB" heap_mb;
    Util.add r "model_ms" "model-ms"
      (Util.geomean (List.map (fun (p : F.plan) -> p.F.predicted_latency *. 1e3) refs));
    Util.add r "model_gain" "x" (Util.geomean (List.map umm_ratio refs))
  end
  else begin
    let tr = Span.create () in
    let replays, traced_s =
      Util.time (fun () ->
          List.mapi
            (fun k g ->
              Span.set_request tr k;
              Span.with_ tr "bench.plan" (fun () ->
                  Plan_replay.run tr ~options cfg g))
            gs)
    in
    List.iter2
      (fun counts p ->
        Util.attempt r;
        Util.check r
          (Plan_replay.matches counts p)
          "the traced replay planned differently from Framework.plan")
      replays refs;
    Span.write_file tr ~path:(Ctx.trace_path c);
    Ctx.span_metrics r tr ~untraced_s:(Util.median sweep_s) ~traced_s;
    let total f = float_of_int (List.fold_left (fun a p -> a + f p) 0 refs) in
    Util.add r "core.items" "count"
      (float_of_int
         (List.fold_left (fun a x -> a + x.Plan_replay.items) 0 replays));
    Util.add r "core.vbufs" "count" (total (fun p -> List.length p.F.vbufs));
    Util.add r "core.splitting_iterations" "count"
      (total (fun p -> p.F.splitting_iterations));
    Util.add r "core.pinned_bytes" "bytes" (total (fun p -> p.F.tensor_sram_bytes))
  end;
  r
