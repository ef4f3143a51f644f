(* runtime-mixes: multi-tenant co-simulation.  The ten runtime mixes of
   `bench/main.exe runtime`, each through Runtime.run with the optimized
   scheduler on one DDR channel.  The only workload where the runtime and
   the simulator do the work: DSE, partitioned replans, isolated sims,
   the schedule search and its engine runs. *)

module F = Lcmm.Framework
module Rt = Lcmm_runtime
module Report = Lcmm_runtime.Report

let mixes =
  let fair = Rt.Arbiter.Fair_share and prio = Rt.Arbiter.Priority in
  [ ("alexnet x2", fair, [ ("alexnet", 2, 0) ]);
    ("googlenet x2", fair, [ ("googlenet", 2, 0) ]);
    ("vgg16 x2", fair, [ ("vgg16", 2, 0) ]);
    ("resnet50 x2", fair, [ ("resnet50", 2, 0) ]);
    ("googlenet + vgg16", fair, [ ("googlenet", 1, 0); ("vgg16", 1, 0) ]);
    ("resnet50! + vgg16 x2", prio, [ ("resnet50", 1, 0); ("vgg16", 2, 1) ]);
    ( "googlenet!x2 + alexnet x2", prio,
      [ ("googlenet", 2, 0); ("alexnet", 2, 1) ] );
    ( "mobilenet! + resnet152 + vgg16", prio,
      [ ("mobilenet_v2", 1, 0); ("resnet152", 1, 1); ("vgg16", 1, 1) ] );
    ( "squeezenet!x2 + inception x2", prio,
      [ ("squeezenet", 2, 0); ("inception_v4", 2, 1) ] );
    ( "alexnet! + vgg16 + resnet50", prio,
      [ ("alexnet", 1, 0); ("vgg16", 1, 1); ("resnet50", 1, 1) ] ) ]

let specs_of mix =
  List.concat_map
    (fun (model, count, priority) ->
      let graph = Models.Zoo.build model in
      List.init count (fun k ->
          { Rt.Runtime.name = Printf.sprintf "%s#%d" model k;
            model; graph; priority; arrival = 0. }))
    mix

let options arbitration =
  { Rt.Runtime.default_options with
    Rt.Runtime.scheduler = Rt.Scheduler.Optimized; arbitration; channels = 1 }

(* Worst slowdown among the highest-priority tenants. *)
let hp_slowdown (r : Report.t) =
  let hp =
    List.fold_left (fun acc (t : Report.tenant_report) -> min acc t.Report.priority)
      max_int r.Report.tenants
  in
  List.fold_left
    (fun acc (t : Report.tenant_report) ->
      if t.Report.priority = hp then Float.max acc t.Report.slowdown else acc)
    1. r.Report.tenants

let schedule (r : Report.t) =
  match r.Report.schedule with
  | Some s -> s
  | None -> failwith "optimized run without a schedule block"

(* The optimized makespan may not exceed the greedy or EDF candidate of
   its own report. *)
let never_worse (r : Report.t) =
  let s = schedule r in
  List.for_all
    (fun (label, ms) ->
      (label <> "greedy" && label <> "edf") || r.Report.makespan_ms <= ms +. 1e-9)
    s.Report.sched_candidates

(* Deterministic outcome of one mix: makespan, rounds, candidates. *)
let outcome r =
  let s = schedule r in
  (r.Report.makespan_ms, s.Report.sched_rounds, List.length s.Report.sched_candidates)

let run (c : Ctx.t) =
  let r = Util.new_run () in
  Util.configure ~trace:c.Ctx.trace ();
  let order = Util.shuffle (Random.State.make [| c.Ctx.seed |]) (List.init (List.length mixes) Fun.id) in
  (* Set-up: build every mix's tenant graphs; repeated 31 times, as it
     takes under a millisecond. *)
  let build () = Array.of_list (List.map (fun (_, _, m) -> specs_of m) mixes) in
  let setups =
    List.init 31 (fun _ ->
        Gc.compact ();
        snd (Util.op build))
  in
  let specs = build () in
  let run_mix k =
    let _, arb, _ = List.nth mixes k in
    Util.scaled (fun () -> Rt.Runtime.run (options arb) specs.(k))
  in
  (* Every mix runs on a collected heap.  A first pass in mix order
     fixes each mix's report, which every later run must repeat, and
     gives the peak heap: fixed work in a fixed order, so it does not
     depend on the seed or on how many sweeps the run has time for. *)
  let check_mix k report =
    Util.attempt r;
    let label, _, _ = List.nth mixes k in
    Util.check r (never_worse report)
      (Printf.sprintf "%s: optimized makespan exceeds greedy or edf" label)
  in
  let first =
    List.init (List.length mixes) (fun k ->
        Gc.compact ();
        let report, _ = run_mix k in
        check_mix k report;
        (k, report))
  in
  let heap_mb = Util.peak_heap_mb () in
  let sweep () =
    Util.calibrate ();
    List.map
      (fun k ->
        Gc.compact ();
        let report, dt = run_mix k in
        check_mix k report;
        let label, _, _ = List.nth mixes k in
        Util.check r
          (outcome (List.assoc k first) = outcome report)
          (Printf.sprintf "%s: outcome changed between sweeps" label);
        (k, dt))
      order
  in
  let budget = if c.Ctx.trace then 0. else c.Ctx.seconds in
  let t_end = Util.now () +. budget in
  let rec loop acc =
    let acc = sweep () :: acc in
    if List.length acc >= 3 && Util.now () >= t_end then List.rev acc
    else loop acc
  in
  let sweeps = loop [] in
  let sweep_s = List.map (fun s -> Util.sum (List.map snd s)) sweeps in
  let reports = List.map snd first in
  if not c.Ctx.trace then begin
    (* Each mix's median time; the mixes differ several-fold, so the
       figures are the median mix and the slowest one. *)
    let per_mix =
      List.init (List.length mixes) (fun k ->
          Util.median
            (List.concat_map
               (List.filter_map (fun (k', dt) ->
                    if k' = k then Some (dt *. 1e3) else None))
               sweeps))
    in
    Util.add_median r "setup_s" "s" setups;
    Util.add_median r "sweep_s" "s" sweep_s;
    Util.add r ~samples:per_mix "op_p50_ms" "ms" (Util.median per_mix);
    Util.add r ~samples:per_mix "op_tail_ms" "ms" (List.fold_left Float.max 0. per_mix);
    Util.add_median r "rate_per_s" "1/s"
      (List.map (fun s -> float_of_int (List.length mixes) /. s) sweep_s);
    Util.add r "peak_heap_mb" "MB" heap_mb;
    Util.add r "model_ms" "model-ms"
      (Util.geomean (List.map (fun rep -> rep.Report.makespan_ms) reports));
    Util.add r "model_gain" "x"
      (1. /. Util.geomean (List.map hp_slowdown reports))
  end
  else begin
    let tr = Span.create () in
    let replays, traced_s =
      Util.time (fun () ->
          List.map
            (fun k ->
              Span.set_request tr k;
              let _, arb, _ = List.nth mixes k in
              (k, Span.with_ tr "bench.mix" (fun () -> Mix_replay.run tr (options arb) specs.(k))))
            order)
    in
    List.iter
      (fun (k, (rp : Mix_replay.result)) ->
        let rep = List.assoc k first in
        let s = schedule rep in
        Util.attempt r;
        Util.check r
          (rp.Mix_replay.makespan *. 1e3 = rep.Report.makespan_ms
          && rp.Mix_replay.rounds = s.Report.sched_rounds
          && rp.Mix_replay.chosen = s.Report.sched_chosen)
          "the traced replay scheduled differently from Runtime.run")
      replays;
    Span.write_file tr ~path:(Ctx.trace_path c);
    Ctx.span_metrics r tr ~untraced_s:(Util.median sweep_s) ~traced_s;
    let total f = float_of_int (List.fold_left (fun a (_, x) -> a + f x) 0 replays) in
    Util.add r "runtime.transfers" "count" (total (fun x -> x.Mix_replay.transfers));
    Util.add r "runtime.candidates" "count"
      (float_of_int
         (List.fold_left
            (fun a rep -> a + List.length (schedule rep).Report.sched_candidates)
            0 reports));
    Util.add r "runtime.rounds" "count"
      (float_of_int
         (List.fold_left (fun a rep -> a + (schedule rep).Report.sched_rounds) 0 reports))
  end;
  r
