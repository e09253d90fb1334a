(** Index variables.

    Every variable carries a globally unique id so that alpha-conversion and
    capture-avoiding substitution never confuse two binders that share a
    source name. *)

type t = private { name : string; id : int }

val fresh : string -> t
(** A new variable with a globally unique id. *)

val refresh : t -> t
(** A fresh variable with the same source name. *)

val name : t -> string
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints the source name, disambiguated with the id ([n#3]) only when the
    name alone would be ambiguous in context; plain printing is [name]. *)

val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
