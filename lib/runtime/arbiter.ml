type t = Fair_share | Priority

let to_string = function Fair_share -> "fair" | Priority -> "priority"

let of_string = function
  | "fair" | "fair-share" | "fair_share" -> Some Fair_share
  | "priority" -> Some Priority
  | _ -> None

let all = [ Fair_share; Priority ]

let rates_into t ~keys ~priorities n rates =
  if n > 0 then
    match t with
    | Fair_share -> Array.fill rates 0 n (1. /. float_of_int n)
    | Priority ->
      let best = ref 0 in
      for i = 1 to n - 1 do
        let p = priorities.(i) and bp = priorities.(!best) in
        if p < bp || (p = bp && keys.(i) < keys.(!best)) then best := i
      done;
      Array.fill rates 0 n 0.;
      rates.(!best) <- 1.
