(* zoo-cold-compile: the served cold compile.  One client in a closed
   loop sends `compile` for all 13 zoo models x i8/i16/f32 (39 distinct
   digests, in a seeded order) through a 2-shard tier whose caches start
   empty on every sweep, so every request is a miss followed by a cache
   write.  DSE is most of each compile.

   The shards are service engines in this process (Served.local), so
   the process CPU clock sees all of the work.  With [lcmm serve] child
   processes as shards, the compile time followed the host's load from
   run to run (spread over ten seeds 29-32 % in two batches) in a way no
   calibration in this process could follow; the socket transport is
   measured by tier-warm-zipf. *)

let run (c : Ctx.t) =
  let r = Util.new_run () in
  Util.configure ~trace:c.Ctx.trace ();
  let ref_ = Served.reference () in
  let n = Array.length ref_.Served.lines in
  let order_st = Random.State.make [| c.Ctx.seed |] in
  (* One sweep on a fresh tier, one calibrated segment: set-up time,
     per-request latency, the router's counter deltas and the peak heap.
     The order is seeded unless given. *)
  let sweep ?order () =
    Util.calibrate ();
    let fleet, setup_s =
      Util.scaled (fun () -> Served.local ~router_cache_entries:512)
    in
    Fun.protect
      ~finally:(fun () -> Served.stop fleet)
      (fun () ->
        let before = Served.counters fleet in
        let order =
          match order with
          | Some o -> o
          | None -> Util.shuffle order_st (List.init n Fun.id)
        in
        let lats =
          List.map
            (fun k ->
              Gc.compact ();
              let reply, dt =
                Util.scaled (fun () ->
                    Lcmm_tier.Tier.handle_line fleet.Served.tier ref_.Served.lines.(k))
              in
              Served.check_reply r ref_ k reply;
              dt *. 1e3)
            order
        in
        let sweep_s = Util.sum lats /. 1e3 in
        (* Heap statistics are per domain and the sweep's worker domain
           goes with its tier, so the peak is read while it lives. *)
        let heap_mb = Util.peak_heap_mb () in
        let delta = Served.counter_delta before (Served.counters fleet) in
        (* Every request is a miss that the owner computes. *)
        Util.attempt r;
        Util.check r
          (Served.counter "computes" delta = n
          && Served.counter "router_hits" delta = 0
          && Served.counter "shard_hits" delta = 0)
          "a cold sweep did not compute every digest exactly once";
        (setup_s, sweep_s, lats, delta, heap_mb))
  in
  if not c.Ctx.trace then begin
    (* A first sweep in request order warms up and gives the peak heap:
       fixed work in a fixed order, so it does not depend on the seed or
       on how many sweeps the run has time for (the heap of later
       sweeps grows with their number). *)
    let _, _, _, _, heap_mb = sweep ~order:(List.init n Fun.id) () in
    let t_end = Util.now () +. c.Ctx.seconds in
    let rec loop acc =
      let acc = sweep () :: acc in
      if List.length acc >= 3 && Util.now () >= t_end then List.rev acc
      else loop acc
    in
    let sweeps = loop [] in
    let lats = List.concat_map (fun (_, _, l, _, _) -> l) sweeps in
    let sweep_s = List.map (fun (_, s, _, _, _) -> s) sweeps in
    Util.add_median r "setup_s" "s" (List.map (fun (s, _, _, _, _) -> s) sweeps);
    Util.add_median r "sweep_s" "s" sweep_s;
    Util.add r ~samples:lats "op_p50_ms" "ms" (Util.quantile lats 0.5);
    Util.add r ~samples:lats "op_tail_ms" "ms" (Util.quantile lats 0.9);
    Util.add_median r "rate_per_s" "1/s"
      (List.map (fun s -> float_of_int n /. s) sweep_s);
    Util.add r "peak_heap_mb" "MB" heap_mb;
    Util.add r "model_ms" "model-ms" (Util.geomean (Array.to_list ref_.Served.lcmm_ms));
    Util.add r "model_gain" "x" (Util.geomean (Array.to_list ref_.Served.speedup))
  end
  else begin
    (* Untraced sweeps give the operation time the replay must cover. *)
    let sweeps = List.init 3 (fun _ -> sweep ()) in
    let untraced_s = Util.median (List.map (fun (_, s, _, _, _) -> s) sweeps) in
    let _, _, _, delta, _ = List.hd sweeps in
    let tr = Span.create () in
    let traced_s =
      Served.with_fleet (fun () -> Served.local ~router_cache_entries:512) (fun fleet ->
          snd
            (Util.time (fun () ->
                 Array.iteri
                   (fun k line ->
                     Span.set_request tr k;
                     let reply =
                       Span.with_ tr "bench.request" (fun () ->
                           Served.replay_cold tr fleet line ref_.Served.replies.(k))
                     in
                     Served.check_reply r ref_ k reply)
                   ref_.Served.lines)))
    in
    Span.write_file tr ~path:(Ctx.trace_path c);
    Ctx.span_metrics r tr ~untraced_s ~traced_s;
    Served.add_tier_counters r delta
  end;
  r
