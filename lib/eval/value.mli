(** Runtime values shared by both evaluation backends. *)

type con = { tag : int; name : string }
(** A constructor.  [Lower] resolves every constructor to one of these: a
    datatype constructor's [tag] is its position in its declaration
    ([nil] 0, [::] 1), an exception constructor's [tag] is unique among the
    exceptions of the process.  Matching compares tags; [name] is for
    printing. *)

type t =
  | Vint of int
  | Vbool of bool
  | Vchar of char
  | Vstring of string
  | Vtuple of t array  (** [Vtuple [||]] is the unit value *)
  | Varray of t array
  | Vtag of con  (** a nullary constructor *)
  | Vcon of con * t  (** a constructor applied to its payload *)
  | Vfun of (t -> t)
  | Vref of t ref  (** mutable reference cell *)

exception Runtime_error of string

exception Dml_exn of t
(** A raised surface-language exception, carrying its constructor value. *)

exception Subscript
(** A failed run-time bound/tag check (re-exported as {!Prims.Subscript}). *)

val nil : con
val cons : con
(** The basis list constructors, at their declaration positions. *)

val subscript_exn : con
val div_exn : con
(** The basis exceptions the run time raises itself: tags 0 and 1. *)

val exn_value_of : exn -> t option
(** The exception value a [handle] observes for an OCaml-level exception:
    [Dml_exn] unwraps, {!Subscript} and [Division_by_zero] map to the basis
    constructors, anything else is not observable. *)

val as_int : t -> int
val as_bool : t -> bool
val as_char : t -> char
val as_string : t -> string
val as_array : t -> t array
val as_fun : t -> t -> t
(** @raise Runtime_error when the value has the wrong shape. *)

val of_bool : bool -> t
val of_char : char -> t
(** Shared, preallocated values. *)

val unit_v : t
val of_int_list : int list -> t
(** Builds a runtime ['a list] value. *)

val to_int_list : t -> int list
val of_int_array : int array -> t
val to_int_array : t -> int array

val equal : t -> t -> bool
(** Structural equality; functions are never equal.  Used by tests. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
