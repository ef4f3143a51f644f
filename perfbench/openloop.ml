(* Open-loop load generator.

   Request [i] is due at [t0 + i / rate] whatever happened to earlier
   requests.  Latency is measured from the due time, not from the send:
   a stall makes every request queued behind it late, and that wait is
   part of what the client sees.  At most [threads] sender threads share
   the schedule; each takes the next due request, sleeps until it is due
   (if it is not late already), sends it and records when it finished.
   The generator's own lateness (send time minus due time) is reported so
   a late generator cannot pass for a slow system. *)

(* The latency limit on p99 and on the backlog left at the end of a
   window.  50 ms puts the knee at the tier's capacity, not at scheduler
   jitter. *)
let limit_ms = 50.

type result = {
  failed : int;  (* failed, shed or mismatched replies *)
  p50_ms : float;  (* latency from the due time *)
  p99_ms : float;
  lag_p99_ms : float;
  drain_ms : float;  (* last finish minus the window's scheduled end *)
  achieved_rps : float;
}

(* A window passes when nothing failed, p99 from the due time is within
   the limit, and the backlog drained within the limit after the last
   request was due — so a growing queue fails even when the window is too
   short for it to reach p99. *)
let passes r =
  r.failed = 0 && r.p99_ms <= limit_ms && r.drain_ms <= limit_ms

let run ~threads ~rate ~n (send : int -> bool) =
  let due = Array.init n (fun i -> float_of_int i /. rate) in
  let start = Array.make n 0. and finish = Array.make n 0. in
  let ok = Array.make n false in
  let next = Atomic.make 0 in
  let t0 = Util.now () +. 0.002 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let wait = t0 +. due.(i) -. Util.now () in
        if wait > 0. then Thread.delay wait;
        start.(i) <- Util.now ();
        ok.(i) <- (try send i with _ -> false);
        finish.(i) <- Util.now ();
        loop ()
      end
    in
    loop ()
  in
  let ths = List.init (max 1 threads) (fun _ -> Thread.create worker ()) in
  List.iter Thread.join ths;
  let lat = List.init n (fun i -> (finish.(i) -. (t0 +. due.(i))) *. 1e3) in
  let lag = List.init n (fun i -> (start.(i) -. (t0 +. due.(i))) *. 1e3) in
  let last = Array.fold_left Float.max t0 finish in
  let window_end = t0 +. (float_of_int n /. rate) in
  { failed = Array.fold_left (fun a b -> if b then a else a + 1) 0 ok;
    p50_ms = Util.quantile lat 0.5;
    p99_ms = Util.quantile lat 0.99;
    lag_p99_ms = Util.quantile lag 0.99;
    drain_ms = Float.max 0. ((last -. window_end) *. 1e3);
    achieved_rps = float_of_int n /. Float.max 1e-9 (last -. t0) }

(* The generator's own ceiling: the rate it reaches against a handler
   that answers instantly. *)
let ceiling ~threads ~n =
  (run ~threads ~rate:1e9 ~n (fun _ -> true)).achieved_rps

type knee = {
  max_rps : float;  (* highest rate that passed *)
  saturated : bool;  (* some rate failed; false = "not saturated" *)
  probes : (float * bool * float) list;  (* rate, passed, p99 ms *)
}

(* The knee by bisection.  [probe rate] runs one window and says whether
   it passed.  From a first guess the bracket steps up by [step] (up to
   [cap], the generator's ceiling) or down (to [floor], a rate known to
   pass) until one end passes and the other fails; then it halves
   geometrically until it is within [tolerance] of its lower end.
   [max_probes] bounds the whole search. *)
let find_knee ~guess ~step ~floor ~cap ~tolerance ~max_probes probe =
  let probes = ref [] in
  let try_rate r =
    let passed, p99 = probe r in
    probes := (r, passed, p99) :: !probes;
    passed
  in
  let spent () = List.length !probes >= max_probes in
  let rec grow lo =
    let hi = Float.min cap (step *. lo) in
    if hi <= lo || spent () then (lo, None)
    else if try_rate hi then grow hi
    else (lo, Some hi)
  in
  let rec shrink hi =
    let lo = Float.max floor (hi /. step) in
    if lo >= hi || spent () || try_rate lo then (lo, Some hi) else shrink lo
  in
  let guess = Float.min cap (Float.max floor guess) in
  let lo, hi = if try_rate guess then grow guess else shrink guess in
  match hi with
  | None -> { max_rps = lo; saturated = false; probes = List.rev !probes }
  | Some hi ->
    let rec bisect lo hi =
      if (hi -. lo) /. lo <= tolerance || spent () then lo
      else
        let mid = sqrt (lo *. hi) in
        if try_rate mid then bisect mid hi else bisect lo mid
    in
    let best = bisect lo hi in
    { max_rps = best; saturated = true; probes = List.rev !probes }
