type strategy = Min_growth | First_fit

(* Mutable buffer accumulator during coloring: item indices in placement
   order. *)
type partial = {
  mutable size : int;
  mutable members : int array;
  mutable count : int;
}

let order strategy interference sizes =
  let indices = List.init (Array.length sizes) Fun.id in
  match strategy with
  | Min_growth ->
    List.sort (fun a b -> compare sizes.(b) sizes.(a)) indices
  | First_fit ->
    (* Degrees are popcounts over adjacency rows; computing all of them
       once keeps the sort comparator allocation- and scan-free. *)
    let degree = Array.init (Array.length sizes) (Interference.degree interference) in
    List.sort (fun a b -> compare degree.(b) degree.(a)) indices

let push part index =
  if part.count = Array.length part.members then begin
    let grown = Array.make (2 * part.count) 0 in
    Array.blit part.members 0 grown 0 part.count;
    part.members <- grown
  end;
  part.members.(part.count) <- index;
  part.count <- part.count + 1

(* Both strategies place each item into the first compatible buffer in
   creation order.  First_fit does so by definition.  Min_growth picks
   the compatible buffer whose size grows least, ties to the earliest;
   but it places items in decreasing size, so every open buffer is
   already at least as large as the item, every growth is 0, and the
   earliest compatible buffer wins.  A buffer is compatible when none of
   its members' bits is set in the item's packed adjacency row; the test
   stops at the first conflicting member. *)
let color ?(strategy = Min_growth) interference ~sizes =
  let n = Array.length sizes in
  if n <> Interference.item_count interference then
    invalid_arg "Coloring.color: sizes length mismatch";
  let buffers = Array.make n { size = 0; members = [||]; count = 0 } in
  let count = ref 0 in
  let place index =
    let row = Interference.row interference index in
    let rec first b =
      if b = !count then None
      else
        let part = buffers.(b) in
        if Bitset.mem_any row part.members part.count then first (b + 1)
        else Some part
    in
    match first 0 with
    | Some part ->
      part.size <- max part.size sizes.(index);
      push part index
    | None ->
      buffers.(!count) <- { size = sizes.(index); members = [| index; 0 |]; count = 1 };
      incr count
  in
  List.iter place (order strategy interference sizes);
  List.init !count (fun vbuf_id ->
      let part = buffers.(vbuf_id) in
      (* Newest member first, as [Vbuffer.make]'s stable sort expects. *)
      let sized = ref [] in
      for k = 0 to part.count - 1 do
        let i = part.members.(k) in
        sized := (Interference.item interference i, sizes.(i)) :: !sized
      done;
      Vbuffer.make ~vbuf_id ~sized_members:!sized)

let total_bytes buffers =
  List.fold_left (fun acc b -> acc + b.Vbuffer.size_bytes) 0 buffers
