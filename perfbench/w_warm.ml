(* tier-warm-zipf: warm tier traffic.  After a warm-up that compiles all
   39 digests once, requests are drawn from a seeded Zipf(1.0) over them
   (rank order: zoo order x i8/i16/f32) and sent through a 2-shard tier
   whose router LRU (8 entries) is smaller than the working set.  It
   exercises codec, route digest, router LRU, ring, transport and shard
   cache; it never plans.

   Measurements on one warm tier:
   - closed-loop passes (one client) over a fixed draw sequence, each
     preceded by the same 8 priming requests so the router LRU starts
     every pass in the same state: pass time, per-request p50 and p90,
     and exact router counters;
   - the knee: the highest offered rate whose open-loop window keeps p99
     from the due time within the limit and drains its backlog, found by
     bisection;
   - in the traced run, one open-loop window at a fixed 400 rps: p50 and
     p99 from the due time and the generator's lateness. *)

module Tier = Lcmm_tier.Tier
module Lru = Lcmm_service.Lru

let router_lru = 8
let fixed_rps = 400.

(* Requests per knee probe: long enough that a growing backlog shows in
   the drain time and p99 has 20 samples beyond it. *)
let probe_len = 2000
let senders = min 2 (Domain.recommended_domain_count ())

(* Zipf(1.0) over request indices (index k has rank k + 1), drawn in
   blocks of [block] requests: each block holds every index exactly as
   often as the distribution says (rounded) and only the order comes from
   the seed.  Every seed thus sends the same mix of cheap and expensive
   digests, and the seed decides what the router's LRU sees. *)
let block = 500

let stream n seed =
  let w = Array.init n (fun k -> 1. /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let quota =
    List.concat
      (List.init n (fun k ->
           List.init
             (int_of_float (Float.round (float_of_int block *. w.(k) /. total)))
             (fun _ -> k)))
  in
  let st = Random.State.make [| seed; 0x21f |] in
  let pending = ref [] in
  fun () ->
    if !pending = [] then pending := Util.shuffle st quota;
    match !pending with
    | k :: rest ->
      pending := rest;
      k
    | [] -> assert false

(* The least popular digests, in a fixed order: requesting them leaves
   the router LRU holding exactly these, whatever it held before. *)
let priming n = List.init router_lru (fun k -> n - 1 - k)

let run (c : Ctx.t) =
  let r = Util.new_run () in
  Util.configure ~cpu:false ~trace:c.Ctx.trace ();
  let ref_ = Served.reference () in
  let n = Array.length ref_.Served.lines in
  let draw = stream n c.Ctx.seed in
  let send tier k = Tier.handle_line tier ref_.Served.lines.(k) in
  (* Set-up: spawn the fleet and warm every digest once; the cold
     replies must equal the in-process answers.  Done three times; the
     last fleet is measured. *)
  let setup () =
    Util.op (fun () ->
        let fleet = Served.spawn ~lcmm:c.Ctx.lcmm ~router_cache_entries:router_lru in
        for k = 0 to n - 1 do
          Served.check_reply r ref_ k (send fleet.Served.tier k)
        done;
        fleet)
  in
  let rec setups k acc =
    let fleet, dt = setup () in
    if k <= 1 then (fleet, List.rev (dt :: acc))
    else begin
      Served.stop fleet;
      setups (k - 1) (dt :: acc)
    end
  in
  let fleet, setups = setups (if c.Ctx.trace then 1 else 3) [] in
  Fun.protect ~finally:(fun () -> Served.stop fleet) @@ fun () ->
  let tier = fleet.Served.tier in
  let t_measure = Util.now () in
  let sequence = Array.init block (fun _ -> draw ()) in
  let prime () = List.iter (fun k -> ignore (send tier k)) (priming n) in
  (* One closed-loop pass: its time and the router counter deltas. *)
  let pass () =
    Util.calibrate ~runs:3 ();
    prime ();
    let before = Served.counters fleet in
    let lats =
      Array.to_list
        (Array.map
           (fun k ->
             let reply, dt = Util.scaled (fun () -> send tier k) in
             Served.check_reply r ref_ k reply;
             dt *. 1e3)
           sequence)
    in
    (Util.sum lats /. 1e3, lats, Served.counter_delta before (Served.counters fleet))
  in
  (* An open-loop window over fresh draws; replies are checked after the
     window so the sender threads only send. *)
  let window ~rate ~count =
    Util.calibrate ~runs:3 ();
    let ks = Array.init count (fun _ -> draw ()) in
    let replies = Array.make count "" in
    let res =
      Openloop.run ~threads:senders ~rate ~n:count (fun i ->
          let reply = send tier ks.(i) in
          replies.(i) <- reply;
          reply = ref_.Served.replies.(ks.(i)))
    in
    Array.iteri (fun i k -> Served.check_reply r ref_ k replies.(i)) ks;
    res
  in
  (* Closed-loop passes until 40% of the budget is spent; the knee search
     gets the rest. *)
  let passes_until = if c.Ctx.trace then 0. else 0.4 *. c.Ctx.seconds in
  let rec passes acc =
    let acc = pass () :: acc in
    if List.length acc >= 3 && Util.now () -. t_measure >= passes_until then
      List.rev acc
    else passes acc
  in
  let passes = passes [] in
  let pass_s = List.map (fun (s, _, _) -> s) passes in
  let pass_lats = List.concat_map (fun (_, l, _) -> l) passes in
  let delta = (fun (_, _, d) -> d) (List.hd passes) in
  (* With one client the router's decisions are a function of the
     sequence alone, so every pass must count exactly the same. *)
  List.iter
    (fun (_, _, d) ->
      Util.attempt r;
      Util.check r (d = delta) "router counters differ between identical passes")
    passes;
  Util.note r "pass_counters"
    (Dnn_serial.Json.Obj (List.map (fun (k, v) -> (k, Dnn_serial.Json.Int v)) delta));
  if not c.Ctx.trace then begin
    let cap = Openloop.ceiling ~threads:senders ~n:20000 in
    let probe_factors = ref [] in
    (* The single client's pass rate is the first guess at the knee. *)
    let guess = float_of_int block /. Util.median pass_s in
    let knee =
      Openloop.find_knee ~guess ~step:1.25 ~floor:fixed_rps ~cap ~tolerance:0.05
        ~max_probes:8
        (fun rate ->
          let res = window ~rate ~count:probe_len in
          probe_factors := !Util.factor :: !probe_factors;
          (Openloop.passes res, res.Openloop.p99_ms))
    in
    if not knee.Openloop.saturated then
      Printf.printf
        "tier-warm-zipf: not saturated at %.0f rps (generator ceiling %.0f rps)\n"
        knee.Openloop.max_rps cap;
    Util.note r "knee"
      (Dnn_serial.Json.Obj
         [ ("saturated", Dnn_serial.Json.Bool knee.Openloop.saturated);
           ("generator_ceiling_rps", Dnn_serial.Json.Float cap);
           ( "probes",
             Dnn_serial.Json.List
               (List.map
                  (fun (rate, ok, p99) ->
                    Dnn_serial.Json.Obj
                      [ ("rps", Dnn_serial.Json.Float rate);
                        ("passed", Dnn_serial.Json.Bool ok);
                        ("p99_ms", Dnn_serial.Json.Float p99) ])
                  knee.Openloop.probes) ) ]);
    Util.add_median r "setup_s" "s" setups;
    Util.add_median r "sweep_s" "s" pass_s;
    (* Latency from the due time at the fixed rate sits on the senders'
       wake-up jitter: its p99 swings several-fold between identical
       runs and even its p50 moves more than the bound allows.  The
       reported p50 and tail are those of the closed-loop requests; the
       open-loop figures are the per-layer loadgen.p50_ms and p99_ms. *)
    Util.add r ~samples:pass_lats "op_p50_ms" "ms" (Util.quantile pass_lats 0.5);
    Util.add r ~samples:pass_lats "op_tail_ms" "ms" (Util.quantile pass_lats 0.9);
    (* The knee is an offered rate: it scales by the inverse of the
       factor its probes ran under. *)
    Util.add r "rate_per_s" "1/s" (knee.Openloop.max_rps /. Util.median !probe_factors);
    let served f = Array.to_list (Array.map (fun k -> f.(k)) sequence) in
    Util.add r "model_ms" "model-ms" (Util.geomean (served ref_.Served.lcmm_ms));
    Util.add r "model_gain" "x" (Util.geomean (served ref_.Served.speedup));
    Util.add r "peak_heap_mb" "MB" (Util.peak_heap_mb ())
  end
  else begin
    let lag = window ~rate:fixed_rps ~count:block in
    Util.add r "loadgen.lag_p99_ms" "ms" lag.Openloop.lag_p99_ms;
    Util.add r "loadgen.p50_ms" "ms" lag.Openloop.p50_ms;
    Util.add r "loadgen.p99_ms" "ms" lag.Openloop.p99_ms;
    let tr = Span.create () in
    (* The replay keeps its own LRU of the router's size, primed the same
       way, so it takes the router's hit/miss path request by request. *)
    let lru = Lru.create ~max_entries:router_lru ~max_bytes:max_int in
    List.iter
      (fun k ->
        ignore
          (Lru.add lru ~key:ref_.Served.digests.(k) ~bytes:1
             (Served.payload_of ref_.Served.replies.(k))))
      (priming n);
    prime ();
    let hits = ref 0 in
    let (), traced_s =
      Util.time (fun () ->
          Array.iteri
            (fun i k ->
              Span.set_request tr i;
              let reply =
                Span.with_ tr "bench.request" (fun () ->
                    Served.replay_warm tr fleet lru hits ref_.Served.lines.(k))
              in
              Served.check_reply r ref_ k reply)
            sequence)
    in
    Util.attempt r;
    Util.check r
      (!hits = Served.counter "router_hits" delta)
      "the traced replay's router hits differ from the tier's";
    Span.write_file tr ~path:(Ctx.trace_path c);
    Ctx.span_metrics r tr ~untraced_s:(Util.median pass_s) ~traced_s;
    Served.add_tier_counters r delta
  end;
  r
