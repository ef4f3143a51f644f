(* What every workload receives from the command line. *)

type t = {
  seed : int;
  graph_seed : int;  (* generator seed of the large-graph-plan graphs *)
  seconds : float;  (* measurement budget of one run *)
  trace : bool;  (* the separate traced run: per-layer metrics *)
  lcmm : string;  (* the lcmm executable tier-warm-zipf spawns as shards *)
  out_dir : string;  (* result records and Chrome traces *)
  workload : string;
}

let trace_path c =
  Filename.concat c.out_dir
    (Printf.sprintf "trace-%s-seed%d.json" c.workload c.seed)

(* Per-layer metrics a traced run derives from its spans and the
   workload's untraced sweep time. *)
let span_metrics (run : Util.run) tr ~untraced_s ~traced_s =
  let us name =
    let total, n = Span.total tr name in
    if n = 0 then 0. else total /. float_of_int n *. 1e6
  in
  let ms name = fst (Span.total tr name) *. 1e3 in
  List.iter
    (fun (metric, span) -> Util.add run metric "us" (us span))
    [ ("serial.parse_us", "serial.parse");
      ("service.route_digest_us", "service.route_digest");
      ("serial.digest_us", "serial.digest");
      ("tier.ring_lookup_us", "tier.ring_lookup");
      ("tier.shard_call_us", "tier.shard_call") ];
  List.iter
    (fun (metric, span) -> Util.add run metric "ms" (ms span))
    [ ("accel.dse_ms", "accel.dse"); ("accel.profile_ms", "accel.profile");
      ("core.liveness_ms", "core.liveness");
      ("core.interference_ms", "core.interference");
      ("core.coloring_ms", "core.coloring");
      ("core.prefetch_ms", "core.prefetch"); ("core.dnnk_ms", "core.dnnk");
      ("core.splitting_ms", "core.splitting");
      ("runtime.replan_ms", "runtime.replan"); ("sim.iso_ms", "sim.iso");
      ("runtime.optimizer_ms", "runtime.optimizer");
      ("runtime.engine_ms", "runtime.engine") ];
  Util.add run "accel.dse_calls" "count"
    (float_of_int (snd (Span.total tr "accel.dse")));
  let self = Span.layer_self tr in
  List.iter
    (fun layer ->
      Util.add run ("self." ^ layer ^ "_ms") "ms"
        (Option.value ~default:0. (Hashtbl.find_opt self layer) *. 1e3))
    [ "serial"; "service"; "models"; "tier"; "accel"; "core"; "sim"; "runtime" ];
  let covered = Span.covered_by_children tr in
  Util.add run "unattributed_frac" "frac"
    (if untraced_s > 0. then Float.max 0. (1. -. (covered /. untraced_s)) else 0.);
  Util.add run "trace_overhead_ms" "ms" ((traced_s -. untraced_s) *. 1e3);
  Util.note run "trace"
    (Dnn_serial.Json.Obj
       [ ("untraced_sweep_s", Dnn_serial.Json.Float untraced_s);
         ("traced_sweep_s", Dnn_serial.Json.Float traced_s);
         ("covered_s", Dnn_serial.Json.Float covered);
         ("root_s", Dnn_serial.Json.Float (Span.root_seconds tr));
         ("spans", Dnn_serial.Json.Int (List.length (Span.spans tr))) ])
