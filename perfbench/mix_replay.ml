(* Runtime.run replayed step by step through the public functions of the
   runtime, simulator, planner and DSE, one span per call.  Mirrors the
   path the benchmark measures: optimized scheduler, one DDR channel, no
   faults, no fusion, no domain pool.  The engine runs inside
   Optimizer.search are delimited by its per-candidate [make_faults]
   callback, which the optimizer calls right before each Engine.run.
   The replay's makespan, rounds and chosen candidate must equal the
   report of the real run. *)

module F = Lcmm.Framework
module Rt = Lcmm_runtime
module Engine = Lcmm_runtime.Engine
module Optimizer = Lcmm_runtime.Optimizer
module Admission = Lcmm_runtime.Admission

type result = {
  makespan : float;  (* seconds *)
  rounds : int;
  chosen : string;
  transfers : int;  (* transfers in the chosen schedule *)
}

let isolated tr (p : F.plan) =
  Span.with_ tr "sim.iso" (fun () ->
      Sim.Engine.simulate ?prefetch:p.F.prefetch p.F.metric
        ~on_chip:p.F.allocation.Lcmm.Dnnk.on_chip)

let slack_of (p : F.plan) (iso : Sim.Engine.run) =
  match p.F.prefetch with
  | None -> fun _ -> 0.
  | Some pdg -> (
    fun target ->
      match Lcmm.Prefetch.source_of pdg target with
      | Some s ->
        iso.Sim.Engine.timings.(target).Sim.Engine.start
        -. iso.Sim.Engine.timings.(s).Sim.Engine.start
      | None -> 0.)

let used_bytes (p : F.plan) =
  p.F.allocation.Lcmm.Dnnk.used_blocks * Lcmm.Dnnk.block_bytes

let run tr (o : Rt.Runtime.options) (specs : Rt.Runtime.spec list) =
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let fw = o.Rt.Runtime.fw_options in
  (* Each distinct model: DSE, unconstrained plan, isolated run, demand. *)
  let compiled = Hashtbl.create 8 in
  Array.iter
    (fun (s : Rt.Runtime.spec) ->
      if not (Hashtbl.mem compiled s.Rt.Runtime.model) then begin
        let g = s.Rt.Runtime.graph in
        let dse =
          Span.with_ tr "accel.dse" (fun () ->
              Accel.Dse.run ~device:o.Rt.Runtime.device ~style:Accel.Config.Lcmm
                o.Rt.Runtime.dtype g)
        in
        let config = dse.Accel.Dse.config in
        let base = Span.with_ tr "core.plan" (fun () -> F.plan ~options:fw config g) in
        let iso = isolated tr base in
        let traffic =
          Lcmm.Traffic.of_allocation base.F.metric
            ~on_chip:base.F.allocation.Lcmm.Dnnk.on_chip
        in
        let bandwidth =
          if iso.Sim.Engine.total > 0. then
            float_of_int (Lcmm.Traffic.total_bytes traffic) /. iso.Sim.Engine.total
          else 0.
        in
        let demand =
          { Admission.sram_bytes = max (used_bytes base) base.F.tensor_sram_bytes;
            bandwidth }
        in
        Hashtbl.replace compiled s.Rt.Runtime.model (config, base, iso, demand)
      end)
    specs;
  let compiled = Array.map (fun s -> Hashtbl.find compiled s.Rt.Runtime.model) specs in
  let budget_bytes =
    Array.fold_left
      (fun acc (c, _, _, _) -> min acc (Accel.Config.sram_budget_bytes c))
      max_int compiled
  in
  let board_bandwidth =
    Array.fold_left
      (fun acc (c, _, _, _) -> Float.min acc (Accel.Config.interface_bandwidth c))
      Float.max_float compiled
    *. 3.
  in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match compare specs.(a).Rt.Runtime.priority specs.(b).Rt.Runtime.priority with
      | 0 -> compare a b
      | c -> c)
    order;
  let sorted =
    Span.with_ tr "runtime.admission" (fun () ->
        Admission.decide ~min_grant_bytes:o.Rt.Runtime.min_grant_bytes
          ~partition:o.Rt.Runtime.partition ~budget_bytes ~board_bandwidth
          ~overcommit:o.Rt.Runtime.overcommit
          (Array.map (fun i -> let _, _, _, d = compiled.(i) in d) order))
  in
  let decisions = Array.make n (Admission.Queued { reason = "" }) in
  Array.iteri (fun rank i -> decisions.(i) <- sorted.(rank)) order;
  (* Per-grant replans, each distinct (model, grant, scale) once per
     table: one table for the admission grants, a fresh one per
     co-iteration round, as Runtime.run keeps them. *)
  let replan solved ?(scale = 1.) i grant =
    let key = (specs.(i).Rt.Runtime.model, grant, scale) in
    match Hashtbl.find_opt solved key with
    | Some pi -> pi
    | None ->
      let config, _, _, _ = compiled.(i) in
      let p =
        Span.with_ tr "runtime.replan" (fun () ->
            if scale = 1. then
              F.plan_partitioned ~options:fw ~capacity_bytes:grant config
                specs.(i).Rt.Runtime.graph
            else
              F.plan_partitioned ~options:fw ~stall_scale:scale
                ~capacity_bytes:grant config specs.(i).Rt.Runtime.graph)
      in
      let pi = (p, isolated tr p) in
      Hashtbl.replace solved key pi;
      pi
  in
  let granted = Hashtbl.create 8 in
  let admitted =
    Array.to_list decisions
    |> List.mapi (fun i d -> (i, d))
    |> List.filter_map (fun (i, d) ->
           match d with
           | Admission.Admitted { grant_bytes } ->
             let _, base, iso, _ = compiled.(i) in
             let plan, iso =
               if grant_bytes >= base.F.tensor_sram_bytes then (base, iso)
               else replan granted i grant_bytes
             in
             Some (i, grant_bytes, plan, iso)
           | _ -> None)
    |> Array.of_list
  in
  let inputs_of plans =
    Array.map
      (fun (i, _, (plan : F.plan), iso) ->
        { Engine.label = specs.(i).Rt.Runtime.name;
          metric = plan.F.metric;
          on_chip = plan.F.allocation.Lcmm.Dnnk.on_chip;
          prefetch = plan.F.prefetch;
          arrival = specs.(i).Rt.Runtime.arrival;
          priority = specs.(i).Rt.Runtime.priority;
          slack = slack_of plan iso;
          replan = None })
      plans
  in
  let search plans =
    Span.with_ tr "runtime.optimizer" (fun () ->
        let last = ref None in
        let mark () =
          let t = Util.now () in
          Option.iter (fun t0 -> Span.add tr "runtime.engine" ~t0 ~t1:t) !last;
          last := Some t
        in
        let out =
          Optimizer.search
            ~hp_first:(o.Rt.Runtime.arbitration = Rt.Arbiter.Priority)
            ~arbitration:o.Rt.Runtime.arbitration ~channels:1
            ~make_faults:(fun () ->
              mark ();
              None)
            ~isos:(Array.map (fun (_, _, _, iso) -> iso) plans)
            (inputs_of plans)
        in
        mark ();
        out)
  in
  let scales_of plans (out : Optimizer.outcome) =
    Array.mapi
      (fun k (_, _, _, (iso : Sim.Engine.run)) ->
        let tr_k = out.Optimizer.result.Engine.tenants.(k) in
        if iso.Sim.Engine.total > 0. then
          Float.max 1. (tr_k.Engine.latency /. iso.Sim.Engine.total)
        else 1.)
      plans
  in
  let replan_scaled plans scales =
    let solved = Hashtbl.create 8 in
    Array.mapi
      (fun k ((i, grant, _, _) as p) ->
        if scales.(k) <= 1. +. 1e-9 then p
        else
          let plan, iso = replan solved ~scale:scales.(k) i grant in
          (i, grant, plan, iso))
      plans
  in
  let rounds_bound = max 1 o.Rt.Runtime.schedule_rounds in
  let best = ref None and converged = ref false in
  let plans = ref admitted in
  let prev = ref (Array.map (fun _ -> 1.) admitted) in
  let round = ref 0 in
  while !round < rounds_bound && not !converged do
    let out = search !plans in
    let improved =
      match !best with
      | None ->
        best := Some out;
        true
      | Some (b : Optimizer.outcome) ->
        let bm = b.Optimizer.result.Engine.makespan in
        let m = out.Optimizer.result.Engine.makespan in
        if m < bm || (m = bm && out.Optimizer.hp_slowdown < b.Optimizer.hp_slowdown)
        then begin
          best := Some out;
          true
        end
        else false
    in
    if !round > 0 && not improved then converged := true
    else begin
      let scales = scales_of !plans out in
      if Array.for_all2 (fun s p -> Float.abs (s -. p) <= 1e-9) scales !prev then
        converged := true
      else begin
        if !round + 1 < rounds_bound then plans := replan_scaled !plans scales;
        prev := scales
      end
    end;
    incr round
  done;
  let out = Option.get !best in
  { makespan = out.Optimizer.result.Engine.makespan;
    rounds = !round;
    chosen = out.Optimizer.chosen;
    transfers = List.length out.Optimizer.result.Engine.transfers }
