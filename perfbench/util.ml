(* Clock, summary statistics and the per-run result record shared by every
   workload. *)

module Json = Dnn_serial.Json

(* Monotonic seconds (CLOCK_MONOTONIC). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear-interpolation quantile ("type 7"). *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so the spread the benchmark reports
   is the one a reader recomputes from the raw samples. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let at j =
      (* Exclusive method: position j * (n + 1) / 4, 1-based. *)
      let m = n + 1 in
      let jm = j * m in
      let k = max 1 (min (n - 1) (jm / 4)) in
      let delta = float_of_int (jm - (k * 4)) /. 4. in
      let lo = a.(k - 1) and hi = a.(k) in
      lo +. ((hi -. lo) *. delta)
    in
    (at 1, at 3)

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0. xs

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* --- the run record --- *)

(* One reported metric: its value plus the raw samples it summarizes. *)
type metric = {
  m_name : string;
  m_unit : string;
  m_value : float;
  m_samples : float list;
}

type run = {
  mutable metrics : metric list;  (* reverse insertion order *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (* first few failure messages *)
  mutable notes : (string * Json.t) list;
}

let new_run () =
  { metrics = [];
    attempted = 0;
    failed = 0;
    failures = [];
    notes = [] }

let attempt r = r.attempted <- r.attempted + 1

(* Count a failed check.  Messages beyond the first few are dropped, the
   count is not. *)
let fail r msg =
  r.failed <- r.failed + 1;
  if List.length r.failures < 8 then r.failures <- msg :: r.failures

let check r cond msg = if not cond then fail r msg

let add r ?(samples = []) name unit value =
  let samples = if samples = [] then [ value ] else samples in
  r.metrics <-
    { m_name = name; m_unit = unit; m_value = value; m_samples = samples }
    :: List.filter (fun m -> m.m_name <> name) r.metrics

(* A metric summarized by the median of its samples. *)
let add_median r name unit samples = add r ~samples name unit (median samples)

let note r key json = r.notes <- (key, json) :: r.notes

let failed_frac r =
  if r.attempted = 0 then 0.
  else float_of_int r.failed /. float_of_int r.attempted

let metric_json m =
  let q1, q3 = quartiles m.m_samples in
  Json.Obj
    [ ("value", Json.Float m.m_value); ("unit", Json.String m.m_unit);
      ("n", Json.Int (List.length m.m_samples));
      ("median", Json.Float (median m.m_samples));
      ("q1", Json.Float q1); ("q3", Json.Float q3);
      ("iqr", Json.Float (q3 -. q1));
      ("samples", Json.List (List.map (fun x -> Json.Float x) m.m_samples)) ]

(* --- a deterministic request stream --- *)

(* Fisher-Yates under a seeded state. *)
let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* --- calibration --- *)

(* Two things move a timing on a shared host besides the code under
   test.  Other tenants take the cores away for a while: wall time grows
   by whatever they take, which process CPU time does not count, so the
   calibrated runs time operations on the process CPU clock (getrusage:
   user + system time of every thread, the worker domains' included).
   And the host's speed per CPU second drifts, by half within a minute at
   worst (clock frequency, a busy sibling hyperthread, cache pressure).
   For that, a short fixed reference computation, independent of the
   code under test, runs [runs] times at the start of each measured
   segment ([calibrate]: a sweep, or one operation with [op]), and the
   times measured in the segment are reported scaled by
   [cal_nominal_s / median kernel time], so a slow spell slows the
   kernel and the operations alike and cancels out.  Every kernel time
   goes to the run record, so raw figures can be recovered.  Traced runs
   and workloads whose work runs in other processes use the wall clock,
   unscaled. *)

type clock = Wall | Cpu

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let clock = ref Wall
let scaling = ref false

(* The clock of every measured operation: the process CPU clock with
   scaling unless [trace], else the wall clock.  [cpu] false keeps the
   wall clock for work done outside this process. *)
let configure ?(cpu = true) ~trace () =
  scaling := not trace;
  clock := if cpu && not trace then Cpu else Wall

let read_clock () = match !clock with Wall -> now () | Cpu -> cpu_now ()

let time_op f =
  let t0 = read_clock () in
  let r = f () in
  (r, read_clock () -. t0)

let cal_nominal_s = 0.005

(* The kernel mixes what the workloads do: sorting floats, hashing,
   building and sorting a list of short strings, appending to a buffer.
   Like them it allocates.  Over eight runs of zoo-cold-compile, sweep
   CPU times scaled by it spread 5 % (IQR / median), against 11 % when
   scaled by an allocation-free kernel and 17 % unscaled. *)
let kernel () =
  let n = 5_000 in
  let st = Random.State.make [| 42 |] in
  let a = Array.init n (fun _ -> Random.State.float st 1.) in
  Array.sort Float.compare a;
  let h = Hashtbl.create 1024 in
  Array.iteri (fun i x -> Hashtbl.replace h (i * 7919 mod 65521) x) a;
  let l = List.init n (fun i -> string_of_int ((i * 31) mod 1000)) in
  let l = List.sort compare l in
  let b = Buffer.create 4096 in
  List.iter (fun s -> Buffer.add_string b s) l;
  ignore (Sys.opaque_identity (Hashtbl.length h + Buffer.length b))

let factor = ref 1.
let kernel_s = ref []

(* Start a calibrated segment: time the kernel [runs] times and scale
   what follows by the median. *)
let calibrate ?(runs = 5) () =
  if !scaling then begin
    let ks = List.init runs (fun _ -> snd (time_op kernel)) in
    kernel_s := ks @ !kernel_s;
    factor := cal_nominal_s /. median ks
  end

(* [time] on the operations' clock, scaled by the current segment's
   factor. *)
let scaled f =
  let r, dt = time_op f in
  (r, if !scaling then dt *. !factor else dt)

(* One measured operation in a segment of its own. *)
let op f =
  calibrate ();
  scaled f

let calibration_json () =
  let ks = !kernel_s in
  let q1, q3 = quartiles ks in
  Json.Obj
    [ ("scaled", Json.Bool !scaling);
      ("clock", Json.String (match !clock with Wall -> "wall" | Cpu -> "process-cpu"));
      ("nominal_s", Json.Float cal_nominal_s);
      ("kernel_runs", Json.Int (List.length ks));
      ("kernel_median_s", Json.Float (if ks = [] then 0. else median ks));
      ("kernel_q1_s", Json.Float (if ks = [] then 0. else q1));
      ("kernel_q3_s", Json.Float (if ks = [] then 0. else q3)) ]
