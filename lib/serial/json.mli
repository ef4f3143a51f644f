(** A minimal JSON implementation (the sealed environment has no JSON
    package).  Covers the subset the graph codec needs: objects, arrays,
    strings, integers, floats, booleans and null; strings support the
    standard escapes; numbers parse as [Int] when they are exact
    integers. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Render; [indent > 0] pretty-prints with that step (default 0 =
    compact). *)

val to_buffer : Buffer.t -> t -> unit
(** Append the compact rendering, [to_string v], to the buffer. *)

val of_string : string -> (t, string) result
(** Parse a complete document; the error carries a byte offset. *)

(* Accessors used by decoders: all return [Error] with a path-qualified
   message rather than raising. *)

val member : string -> t -> (t, string) result
(** Field of an object; missing fields and non-objects are errors. *)

val member_opt : string -> t -> t option
(** [Some] field value when present on an object. *)

val to_int : t -> (int, string) result

val to_float : t -> (float, string) result
(** Accepts both [Float] and [Int] (integer-valued JSON numbers parse as
    [Int]; decoders of numeric fields usually want either). *)

val to_bool : t -> (bool, string) result

val to_str : t -> (string, string) result

val to_list : t -> (t list, string) result

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
