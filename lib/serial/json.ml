type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- rendering --- *)

(* Copies each run of bytes that needs no escape whole. *)
let escape_into buf s =
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !start (i - !start);
      (match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (String.length s - !start)

(* [string_of_int i] written straight into [buf], through a 20-byte
   [scratch] (the 19 digits and sign of [min_int]).  The digits come from
   the non-positive [-|i|], which exists for [min_int] too. *)
let add_int buf scratch i =
  if i >= 0 && i < 10 then Buffer.add_char buf (Char.unsafe_chr (48 + i))
  else begin
    let n = ref (if i < 0 then i else -i) and pos = ref 20 in
    while !n <> 0 do
      decr pos;
      Bytes.unsafe_set scratch !pos (Char.unsafe_chr (48 - (!n mod 10)));
      n := !n / 10
    done;
    if i < 0 then begin
      decr pos;
      Bytes.unsafe_set scratch !pos '-'
    end;
    Buffer.add_subbytes buf scratch !pos (20 - !pos)
  end

let add_string buf s =
  Buffer.add_char buf '"';
  escape_into buf s;
  Buffer.add_char buf '"'

let rec add_compact buf scratch = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf scratch i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | String s -> add_string buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        add_compact buf scratch item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (key, item) ->
        if i > 0 then Buffer.add_char buf ',';
        add_string buf key;
        Buffer.add_char buf ':';
        add_compact buf scratch item)
      fields;
    Buffer.add_char buf '}'

let to_buffer buf value = add_compact buf (Bytes.create 20) value

let add_pretty buf ~indent value =
  let scratch = Bytes.create 20 in
  let newline depth =
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make (indent * depth) ' ')
  in
  let rec emit depth = function
    | (Null | Bool _ | Int _ | Float _ | String _) as v -> add_compact buf scratch v
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          newline (depth + 1);
          emit (depth + 1) item)
        items;
      newline depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (key, item) ->
          if i > 0 then Buffer.add_char buf ',';
          newline (depth + 1);
          add_string buf key;
          Buffer.add_string buf ": ";
          emit (depth + 1) item)
        fields;
      newline depth;
      Buffer.add_char buf '}'
  in
  emit 0 value

let to_string ?(indent = 0) value =
  let buf = Buffer.create 1024 in
  if indent > 0 then add_pretty buf ~indent value else to_buffer buf value;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string ~indent:2 v)

let equal = ( = )

(* --- parsing: recursive descent over a string with an index --- *)

exception Parse_error of int * string

let of_string input =
  let n = String.length input in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> fail (Printf.sprintf "expected %c, found %c" c d)
    | None -> fail (Printf.sprintf "expected %c, found end of input" c)
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub input !pos len = word then begin
      pos := !pos + len;
      value
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        match input.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match input.[!pos] with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'n' -> Buffer.add_char buf '\n'
             | 'r' -> Buffer.add_char buf '\r'
             | 't' -> Buffer.add_char buf '\t'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'u' ->
               if !pos + 4 >= n then fail "truncated \\u escape"
               else begin
                 let hex = String.sub input (!pos + 1) 4 in
                 (match int_of_string_opt ("0x" ^ hex) with
                 | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
                 | Some _ -> Buffer.add_char buf '?'
                 | None -> fail "invalid \\u escape");
                 pos := !pos + 4
               end
             | c -> fail (Printf.sprintf "invalid escape \\%c" c));
          advance ();
          loop ()
        | c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> number_char c | None -> false) do
      advance ()
    done;
    let text = String.sub input start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "invalid number %S" text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          (key, value)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some ('0' .. '9' | '-') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing content";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
    Error (Printf.sprintf "JSON error at offset %d: %s" at msg)

(* --- accessors --- *)

let member key = function
  | Obj fields -> (
    match List.assoc_opt key fields with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" key))
  | Null | Bool _ | Int _ | Float _ | String _ | List _ ->
    Error (Printf.sprintf "expected an object with field %S" key)

let member_opt key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let to_int = function
  | Int i -> Ok i
  | Null | Bool _ | Float _ | String _ | List _ | Obj _ -> Error "expected an integer"

let to_float = function
  | Float f -> Ok f
  | Int i -> Ok (float_of_int i)
  | Null | Bool _ | String _ | List _ | Obj _ -> Error "expected a number"

let to_bool = function
  | Bool b -> Ok b
  | Null | Int _ | Float _ | String _ | List _ | Obj _ -> Error "expected a boolean"

let to_str = function
  | String s -> Ok s
  | Null | Bool _ | Int _ | Float _ | List _ | Obj _ -> Error "expected a string"

let to_list = function
  | List l -> Ok l
  | Null | Bool _ | Int _ | Float _ | String _ | Obj _ -> Error "expected an array"
