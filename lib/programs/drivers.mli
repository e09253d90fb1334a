(** Workload drivers for the Section 4 experiments, one per kernel, for
    every backend.

    A driver builds deterministic pseudo-random inputs, runs the kernel's
    entry point [scale] times its base iteration count, and returns a
    deterministic one-line summary of what it computed.  The summaries are
    the cross-backend contract: {!Workloads} instantiates {!Make} over host
    values, and {!Native_drivers} compiles this module's own text into each
    generated native program, so a binary's summary can be compared
    byte-for-byte against any host backend's.  Sizes are scaled-down
    versions of the paper's.

    The implementation uses the OCaml standard library only. *)

exception Verification_failure of string
(** A kernel returned a wrong result (instances with [verify] only). *)

(** How a backend represents the kernels' arguments and results. *)
module type REPR = sig
  type arr  (** an [int array] *)

  type mat  (** an [int array array] *)

  type lst  (** an [int list] *)

  val of_array : int array -> arr
  val to_array : arr -> int array
  val of_matrix : int array array -> mat
  val to_matrix : mat -> int array array
  val of_list : int list -> lst
  val fold : ('a -> int -> 'a) -> 'a -> lst -> 'a

  val verify : bool
  (** Check every result against an OCaml reference implementation and
      raise {!Verification_failure} on a mismatch.  When [false] a driver
      does no reference work at all. *)
end

(** Each driver takes the kernel's typed entry point, then [scale]. *)
module Make (K : REPR) : sig
  val bcopy : (K.arr * K.arr -> unit) -> int -> string
  val bsearch : (int * K.arr -> (int * int) option) -> int -> string
  val bubblesort : (K.arr -> unit) -> int -> string
  val matmult : (K.mat * K.mat * K.mat -> unit) -> int -> string
  val queens : (int -> int) -> int -> string
  val quicksort : (K.arr -> unit) -> int -> string
  val hanoi : (K.arr * K.arr * int -> int) -> int -> string
  val listaccess : (K.lst -> int) -> int -> string
  val dotprod : (K.arr * K.arr -> int) -> int -> string
  val reverse : (K.lst -> K.lst) -> int -> string
  val filter : ((int -> bool) -> K.lst -> K.lst) -> int -> string
  val kmp : (K.arr * K.arr -> int) -> int -> string
end
