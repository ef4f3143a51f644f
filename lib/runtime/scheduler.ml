type t = Greedy | Edf | Optimized

let to_string = function
  | Greedy -> "greedy"
  | Edf -> "edf"
  | Optimized -> "optimized"

let of_string = function
  | "greedy" -> Some Greedy
  | "edf" -> Some Edf
  | "optimized" -> Some Optimized
  | _ -> None

let all = [ Greedy; Edf; Optimized ]

type pending = {
  key : int;
  deadline : float;
  priority : int;
  rank : float;
}

(* Earliest deadline, ties by priority, then key. *)
let edf_before p best =
  p.deadline < best.deadline
  || (p.deadline = best.deadline
     && (p.priority < best.priority
        || (p.priority = best.priority && p.key < best.key)))

(* A searched static order: ranks come from the schedule optimizer's
   chosen transfer order; EDF breaks ties among equally-ranked
   transfers, so with all ranks 0 (no rank table) Optimized degenerates
   to exactly Edf. *)
let optimized_before p best =
  p.rank < best.rank || (p.rank = best.rank && edf_before p best)

(* Choose the most urgent of [ready.(0 .. n-1)], scanning left to right
   (the earlier entry keeps a tie). *)
let choose_most_urgent before ready n chosen =
  Array.fill chosen 0 n false;
  if n > 0 then begin
    let best = ref 0 in
    for i = 1 to n - 1 do
      if before ready.(i) ready.(!best) then best := i
    done;
    chosen.(!best) <- true
  end

let eligible_into t ready n chosen =
  match t with
  | Greedy -> Array.fill chosen 0 n true
  | Edf -> choose_most_urgent edf_before ready n chosen
  | Optimized -> choose_most_urgent optimized_before ready n chosen
