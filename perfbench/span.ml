(* In-memory spans for the traced run.

   Each span records a name ("<layer>.<call>"), monotonic start and end,
   its parent span and the request it belongs to.  Spans are kept in
   memory while the workload runs and written out at the end as a
   Chrome-trace document.  Traced replays run on one thread, so the open
   span stack needs no lock. *)

module Json = Dnn_serial.Json

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root *)
  req : int;
  t0 : float;
  t1 : float;
}

type t = {
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : int list;
  mutable req : int;
  origin : float;
}

let create () =
  { spans = []; next_id = 0; stack = []; req = 0; origin = Util.now () }

let set_request t req = t.req <- req

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let record t ~id ~name ~parent ~t0 ~t1 =
  t.spans <- { id; name; parent; req = t.req; t0; t1 } :: t.spans

let current t = match t.stack with p :: _ -> p | [] -> -1

(* [with_ t name f] runs [f] inside a span nested under the innermost
   open one. *)
let with_ t name f =
  let id = fresh t in
  let parent = current t in
  t.stack <- id :: t.stack;
  let t0 = Util.now () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Util.now () in
      t.stack <- List.tl t.stack;
      record t ~id ~name ~parent ~t0 ~t1)
    f

(* A span whose bounds were observed from outside the call, e.g. between
   two callbacks of a library function; nested under the open span. *)
let add t name ~t0 ~t1 = record t ~id:(fresh t) ~name ~parent:(current t) ~t0 ~t1

let spans t = List.rev t.spans

let duration s = s.t1 -. s.t0

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time of every span: its duration minus the time its children
   cover.  Children of one span never overlap (replays are sequential),
   so the covered time is the sum of their durations. *)
let self_times t =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    t.spans;
  List.map
    (fun s ->
      let covered = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      (s, Float.max 0. (duration s -. covered)))
    (spans t)

(* Total self seconds per layer. *)
let layer_self t =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let l = layer_of s.name in
      Hashtbl.replace acc l
        (self +. Option.value ~default:0. (Hashtbl.find_opt acc l)))
    (self_times t);
  acc

(* Total inclusive seconds and call count of every span with [name]. *)
let total t name =
  List.fold_left
    (fun (s_acc, n) s ->
      if s.name = name then (s_acc +. duration s, n + 1) else (s_acc, n))
    (0., 0) t.spans

(* Seconds of root spans covered by their direct children: the part of
   each replayed operation that some layer span attributes. *)
let covered_by_children t =
  let roots = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent < 0 then Hashtbl.replace roots s.id ()) t.spans;
  List.fold_left
    (fun acc s -> if Hashtbl.mem roots s.parent then acc +. duration s else acc)
    0. t.spans

let root_seconds t =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. duration s else acc)
    0. t.spans

(* The Chrome-trace event array, in the shape lib/sim/trace.ml writes
   (complete "X" events, microsecond timestamps), with the span identity
   in [args]. *)
let to_json t =
  let us x = Json.Float ((x -. t.origin) *. 1e6) in
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [ ("name", Json.String s.name);
             ("cat", Json.String (layer_of s.name)); ("ph", Json.String "X");
             ("ts", us s.t0); ("dur", Json.Float (duration s *. 1e6));
             ("pid", Json.Int 1); ("tid", Json.Int 1);
             ( "args",
               Json.Obj
                 [ ("id", Json.Int s.id); ("parent", Json.Int s.parent);
                   ("request", Json.Int s.req) ] ) ])
       (spans t))

let write_file t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_json t)))
