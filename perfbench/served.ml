(* The served path: the zoo compile requests, the 2-shard tier that
   answers them, reply checks, and the traced replay of one request's
   steps through the public functions of each layer. *)

module Json = Dnn_serial.Json
module P = Lcmm_service.Protocol
module Engine = Lcmm_service.Engine
module Tier = Lcmm_tier.Tier
module Shard = Lcmm_tier.Shard
module Ring = Lcmm_tier.Ring

let dtypes = [ "i8"; "i16"; "f32" ]

(* One compile request per zoo model and precision: 13 x 3 = 39 distinct
   digests.  The id names the digest, so a warm reply for a digest is
   byte-identical to its cold reply. *)
let requests () =
  List.concat_map
    (fun (e : Models.Zoo.entry) ->
      List.map
        (fun d ->
          let name = e.Models.Zoo.model_name in
          Json.to_string
            (Json.Obj
               [ ("op", Json.String "compile");
                 ("id", Json.String (name ^ "/" ^ d));
                 ("model", Json.String name); ("dtype", Json.String d) ]))
        dtypes)
    Models.Zoo.all
  |> Array.of_list

(* --- reference answers --- *)

type reference = {
  lines : string array;  (* the requests *)
  replies : string array;  (* in-process answers, timing off *)
  utils_ok : bool array;  (* every *_util of the reply is <= 1 *)
  lcmm_ms : float array;  (* modelled LCMM latency from the reply *)
  speedup : float array;
  digests : string array;  (* route digest of each request *)
}

let util_fields = [ "dsp_util"; "clb_util"; "sram_util"; "bram_util"; "uram_util" ]

let number = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

let field path doc =
  List.fold_left
    (fun acc k -> Option.bind acc (Json.member_opt k))
    (Some doc) path

let reply_facts line =
  match Json.of_string line with
  | Error _ -> (false, nan, nan)
  | Ok doc ->
    let utils =
      List.for_all
        (fun style ->
          List.for_all
            (fun u ->
              match Option.bind (field [ "result"; style; u ] doc) number with
              | Some v -> v <= 1.
              | None -> false)
            util_fields)
        [ "umm"; "lcmm" ]
    in
    let get path =
      Option.value ~default:nan (Option.bind (field path doc) number)
    in
    (utils, get [ "result"; "lcmm"; "latency_ms" ], get [ "result"; "speedup" ])

let route_digest line =
  match P.request_of_line line with
  | Error e -> failwith e
  | Ok env -> (
    match Engine.route_digest env.P.request with
    | Ok (Some d) -> d
    | Ok None -> failwith "request has no route digest"
    | Error e -> failwith e)

(* The in-process answer every served reply must equal byte for byte.
   The engine's own reply lines end in a newline; the tier's do too. *)
let reference () =
  let lines = requests () in
  let eng = Engine.create () in
  let replies =
    Fun.protect
      ~finally:(fun () -> Engine.shutdown eng)
      (fun () -> Array.map (Engine.handle_line ~timing:false eng) lines)
  in
  let facts = Array.map reply_facts replies in
  { lines;
    replies;
    utils_ok = Array.map (fun (u, _, _) -> u) facts;
    lcmm_ms = Array.map (fun (_, l, _) -> l) facts;
    speedup = Array.map (fun (_, _, s) -> s) facts;
    digests = Array.map route_digest lines }

(* Check one served reply for request [k]. *)
let check_reply (run : Util.run) (r : reference) k reply =
  Util.attempt run;
  Util.check run
    (reply = r.replies.(k) && r.utils_ok.(k))
    (Printf.sprintf "reply for %s differs from the in-process answer" r.lines.(k))

(* --- the tier under test --- *)

(* Unix socket paths are limited to ~108 bytes, so they stay relative to
   the working directory, which the shard children inherit. *)
let socket_dir = ".perfbench"

let ensure_dir d =
  try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let spawn_count = ref 0

type fleet = {
  tier : Tier.t;
  ring : Ring.t;
  shards : Shard.t list;
  engines : Engine.t list;  (* the in-process shards' engines *)
}

let fleet ~router_cache_entries shards engines =
  let ring = Ring.create (List.map Shard.name shards) in
  let tier = Tier.create ~router_cache_entries ~timing:false ~ring ~shards () in
  { tier; ring; shards; engines }

(* A 2-shard tier: two [lcmm serve --socket] children with one worker
   each (two shards on two cores), and the router in this process. *)
let spawn ~lcmm ~router_cache_entries =
  ensure_dir socket_dir;
  incr spawn_count;
  let started = ref [] in
  let shard i =
    let name = Printf.sprintf "shard-%d" i in
    let socket =
      Filename.concat socket_dir
        (Printf.sprintf "%d-%d-%d.sock" (Unix.getpid ()) !spawn_count i)
    in
    let argv =
      [| lcmm; "serve"; "--socket"; socket; "--workers"; "1";
         "--cache-entries"; "256" |]
    in
    match Shard.spawn ~name ~socket argv with
    | Ok s ->
      started := s :: !started;
      s
    | Error msg ->
      List.iter Shard.stop !started;
      failwith ("shard spawn failed: " ^ msg)
  in
  fleet ~router_cache_entries (List.init 2 shard) []

(* A 2-shard tier whose shards are service engines in this process:
   router, ring, shard client, protocol, cache, DSE and planner, without
   the socket transport.  Each engine has its own cache; the two share
   one worker domain, which is all a single closed-loop client keeps
   busy, so every collection stops two domains rather than three. *)
let local ~router_cache_entries =
  let pool = Lcmm.Pool.create ~domains:1 () in
  let engines = List.init 2 (fun _ -> Engine.create ~pool ()) in
  let shards =
    List.mapi
      (fun i eng ->
        Shard.local ~name:(Printf.sprintf "shard-%d" i)
          (Engine.handle_line ~timing:false eng))
      engines
  in
  fleet ~router_cache_entries shards engines

let stop f =
  Tier.shutdown f.tier;
  List.iter Engine.shutdown f.engines

let with_fleet make f =
  let fleet = make () in
  Fun.protect ~finally:(fun () -> stop fleet) (fun () -> f fleet)

let counters f = Tier.counter_list f.tier

let counter_delta before after =
  List.map2 (fun (k, a) (_, b) -> (k, b - a)) before after

let counter k cs = Option.value ~default:0 (List.assoc_opt k cs)

(* --- traced replay of one served request --- *)

let cache_get_line digest =
  Json.to_string
    (Json.Obj
       [ ("op", Json.String "cache_get"); ("digest", Json.String digest);
         ("id", Json.String digest); ("checksum", Json.Bool true) ])

let compile_spec env =
  match env.P.request with
  | P.Compile spec -> spec
  | _ -> failwith "not a compile request"

(* The router's digest computation, step by step: resolve the zoo graph,
   then the cache key over its codec rendering. *)
let replay_route_digest tr (spec : P.compile_spec) =
  Span.with_ tr "service.route_digest" (fun () ->
      let g =
        Span.with_ tr "models.build" (fun () ->
            Models.Zoo.build (P.target_name spec.P.target))
      in
      let d =
        Span.with_ tr "serial.digest" (fun () ->
            Lcmm_service.Cache_key.request_digest ~extra:[ "compile" ]
              ~dtype:spec.P.dtype ~device:spec.P.device ~options:spec.P.options
              g)
      in
      (g, d))

let replay_parse tr line =
  let json =
    Span.with_ tr "serial.parse" (fun () ->
        match Json.of_string line with Ok j -> j | Error e -> failwith e)
  in
  Span.with_ tr "service.protocol" (fun () ->
      match P.request_of_json json with Ok env -> env | Error e -> failwith e)

let payload_of reply =
  match Json.of_string reply with
  | Ok doc -> Option.value ~default:Json.Null (Json.member_opt "result" doc)
  | Error e -> failwith e

(* The router renders the client's reply from a payload. *)
let replay_render tr env payload =
  Span.with_ tr "service.render" (fun () ->
      Dnn_serial.Wire.to_line
        (Dnn_serial.Wire.ok ?id:env.P.id ~op:(P.op_name env.P.request) payload))

let find_shard fleet name =
  List.find (fun s -> Shard.name s = name) fleet.shards

(* One cold request: the router parses and digests it, probes the
   owner's cache and then the peer's (both miss on a cold fleet), and
   forwards it.  The shard's side cannot be opened from outside, so its
   steps are replayed in-process through the same public functions: parse
   the forwarded envelope, digest it again, run the UMM and LCMM DSE and
   the planner passes.  Finally the router renders the client's reply
   from the payload. *)
let replay_cold tr fleet line reply =
  let env = replay_parse tr line in
  let spec = compile_spec env in
  let _, digest = replay_route_digest tr spec in
  let owners =
    Span.with_ tr "tier.ring_lookup" (fun () -> Ring.successors fleet.ring digest)
  in
  List.iter
    (fun name ->
      ignore
        (Span.with_ tr "tier.shard_call" (fun () ->
             Shard.call (find_shard fleet name) (cache_get_line digest))))
    owners;
  let forwarded =
    Json.to_string
      (P.envelope_to_json
         { env with P.id = Some (Json.String digest); P.checksum = true })
  in
  let spec' = compile_spec (replay_parse tr forwarded) in
  let g, _ = replay_route_digest tr spec' in
  let dse style =
    Span.with_ tr "accel.dse" (fun () ->
        Accel.Dse.run ~device:spec'.P.device ~style spec'.P.dtype g)
  in
  ignore (dse Accel.Config.Umm);
  let lcmm = dse Accel.Config.Lcmm in
  ignore (Plan_replay.run tr ~options:spec'.P.options lcmm.Accel.Dse.config g);
  let payload =
    Span.with_ tr "serial.reply_parse" (fun () -> payload_of reply)
  in
  replay_render tr env payload

(* One warm request: parse and digest it, look the digest up in the
   router's LRU ([lru] replays it, one entry per payload), and on a miss
   ask the owner shard's cache, parse its reply and remember the payload.
   [hits] counts the LRU hits. *)
let replay_warm tr fleet lru hits line =
  let env = replay_parse tr line in
  let _, digest = replay_route_digest tr (compile_spec env) in
  let payload =
    match Span.with_ tr "tier.router_lru" (fun () -> Lcmm_service.Lru.find lru digest) with
    | Some p ->
      incr hits;
      p
    | None ->
      let owner =
        Span.with_ tr "tier.ring_lookup" (fun () -> Ring.lookup fleet.ring digest)
      in
      let reply =
        Span.with_ tr "tier.shard_call" (fun () ->
            Shard.call (find_shard fleet owner) (cache_get_line digest))
      in
      let reply =
        match reply with Ok l -> l | Error e -> failwith (Shard.error_message e)
      in
      let p = Span.with_ tr "serial.reply_parse" (fun () -> payload_of reply) in
      Span.with_ tr "tier.router_lru" (fun () ->
          ignore (Lcmm_service.Lru.add lru ~key:digest ~bytes:1 p));
      p
  in
  replay_render tr env payload

(* The router's counter deltas as per-layer metrics. *)
let add_tier_counters (r : Util.run) delta =
  let get k = float_of_int (counter k delta) in
  let requests = get "requests" and router = get "router_hits" in
  Util.add r "tier.router_hit_ratio" "ratio"
    (if requests > 0. then router /. requests else 0.);
  Util.add r "tier.shard_hit_ratio" "ratio"
    (if requests > router then get "shard_hits" /. (requests -. router) else 0.);
  List.iter
    (fun k -> Util.add r ("tier." ^ k) "count" (get k))
    [ "computes"; "retries"; "errors"; "shed" ]
