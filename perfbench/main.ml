(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --lcmm PATH [--out DIR] [--graph-seed N]

   Runs one workload through the public entry points of the system,
   checks every output, prints a human-readable summary and, as the last
   line of standard output, one JSON object:

     {"correct": bool, "attempted": int, "failed": int,
      "metrics": {NAME: {"value": float, "unit": string}, ...}}

   With --trace 0 the metrics are the end-to-end ones, measured with
   tracing off; with --trace 1 the per-layer ones, from a separate
   traced replay.  The full record (raw samples, quartiles, environment)
   goes to DIR/result-<workload>-seed<N>-trace<T>.json and the traced
   run's spans to DIR/trace-<workload>-seed<N>.json.  Exits 1 when any
   output check failed. *)

module Json = Dnn_serial.Json

let workloads =
  [ ("zoo-cold-compile", W_cold.run); ("large-graph-plan", W_plan.run);
    ("tier-warm-zipf", W_warm.run); ("runtime-mixes", W_mixes.run) ]

(* Every workload reports every end-to-end metric; what each one
   measures on each workload is documented in README.md. *)
let end_to_end =
  [ "setup_s"; "ok_frac"; "sweep_s"; "op_p50_ms"; "op_tail_ms"; "rate_per_s";
    "model_ms"; "model_gain"; "peak_heap_mb" ]

let per_layer =
  [ ("serial.parse_us", "us"); ("service.route_digest_us", "us");
    ("serial.digest_us", "us"); ("tier.ring_lookup_us", "us");
    ("tier.shard_call_us", "us"); ("tier.router_hit_ratio", "ratio");
    ("tier.shard_hit_ratio", "ratio"); ("tier.computes", "count");
    ("tier.retries", "count"); ("tier.errors", "count"); ("tier.shed", "count");
    ("loadgen.lag_p99_ms", "ms"); ("loadgen.p50_ms", "ms");
    ("loadgen.p99_ms", "ms"); ("accel.dse_ms", "ms");
    ("accel.dse_calls", "count"); ("accel.profile_ms", "ms");
    ("core.liveness_ms", "ms"); ("core.interference_ms", "ms");
    ("core.coloring_ms", "ms"); ("core.prefetch_ms", "ms");
    ("core.dnnk_ms", "ms"); ("core.splitting_ms", "ms");
    ("core.items", "count"); ("core.vbufs", "count");
    ("core.splitting_iterations", "count"); ("core.pinned_bytes", "bytes");
    ("runtime.replan_ms", "ms"); ("sim.iso_ms", "ms");
    ("runtime.optimizer_ms", "ms"); ("runtime.engine_ms", "ms");
    ("runtime.transfers", "count"); ("runtime.candidates", "count");
    ("runtime.rounds", "count"); ("unattributed_frac", "frac");
    ("trace_overhead_ms", "ms"); ("self.serial_ms", "ms");
    ("self.service_ms", "ms"); ("self.models_ms", "ms"); ("self.tier_ms", "ms");
    ("self.accel_ms", "ms"); ("self.core_ms", "ms"); ("self.sim_ms", "ms");
    ("self.runtime_ms", "ms") ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 --lcmm \
     PATH [--out DIR] [--graph-seed N]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int_of k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let workload = get "workload" in
  if not (List.mem_assoc workload workloads) then usage ();
  { Ctx.seed = int_of "seed";
    graph_seed =
      (match List.assoc_opt "graph-seed" kv with
      | None -> 2026
      | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ()));
    seconds = float_of_int (max 1 (int_of "seconds"));
    trace;
    lcmm = get "lcmm";
    out_dir = Option.value ~default:".perfbench" (List.assoc_opt "out" kv);
    workload }

let env_json (c : Ctx.t) =
  Json.Obj
    [ ("workload", Json.String c.Ctx.workload); ("seed", Json.Int c.Ctx.seed);
      ("graph_seed", Json.Int c.Ctx.graph_seed);
      ("seconds", Json.Float c.Ctx.seconds); ("trace", Json.Bool c.Ctx.trace);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ( "commit",
        Json.String
          (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT")) ) ]

let () =
  (* A terminated run still unwinds, so every shard it spawned is
     stopped and reaped. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> failwith "terminated")))
    [ Sys.sigterm; Sys.sigint ];
  let c = parse_args () in
  Served.ensure_dir c.Ctx.out_dir;
  let run = (List.assoc c.Ctx.workload workloads) c in
  let names =
    if c.Ctx.trace then List.map fst per_layer else end_to_end
  in
  if not c.Ctx.trace then begin
    Util.note run "calibration" (Util.calibration_json ());
    Util.add run "ok_frac" "frac" (1. -. Util.failed_frac run)
  end
  else
    (* Layers a workload never enters read zero. *)
    List.iter
      (fun (name, unit) ->
        if not (List.exists (fun m -> m.Util.m_name = name) run.Util.metrics)
        then Util.add run name unit 0.)
      per_layer;
  let metrics =
    List.map
      (fun name ->
        match List.find_opt (fun m -> m.Util.m_name = name) run.Util.metrics with
        | Some m -> m
        | None -> failwith ("workload did not report " ^ name))
      names
  in
  if run.Util.attempted = 0 then Util.fail run "no operation was attempted";
  let correct = run.Util.failed = 0 in
  List.iter
    (fun m ->
      let q1, q3 = Util.quartiles m.Util.m_samples in
      Printf.printf "%-26s %14.6g %-8s (n=%d, q1 %.6g, q3 %.6g)\n"
        m.Util.m_name m.Util.m_value m.Util.m_unit
        (List.length m.Util.m_samples) q1 q3)
    metrics;
  List.iter (fun msg -> Printf.printf "FAILED CHECK: %s\n" msg)
    (List.rev run.Util.failures);
  let record =
    Json.Obj
      [ ("env", env_json c); ("correct", Json.Bool correct);
        ("attempted", Json.Int run.Util.attempted);
        ("failed", Json.Int run.Util.failed);
        ("failed_frac", Json.Float (Util.failed_frac run));
        ( "metrics",
          Json.Obj
            (List.rev_map (fun m -> (m.Util.m_name, Util.metric_json m))
               run.Util.metrics) );
        ("notes", Json.Obj (List.rev run.Util.notes)) ]
  in
  let path =
    Filename.concat c.Ctx.out_dir
      (Printf.sprintf "result-%s-seed%d-trace%d.json" c.Ctx.workload c.Ctx.seed
         (if c.Ctx.trace then 1 else 0))
  in
  let oc = open_out path in
  output_string oc (Json.to_string ~indent:1 record);
  close_out oc;
  Printf.printf "record: %s\n" path;
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int run.Util.attempted);
            ("failed", Json.Int run.Util.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m ->
                     ( m.Util.m_name,
                       Json.Obj
                         [ ("value", Json.Float m.Util.m_value);
                           ("unit", Json.String m.Util.m_unit) ] ))
                   metrics) ) ]));
  exit (if correct then 0 else 1)
