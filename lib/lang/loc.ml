type pos = { line : int; col : int }

type t = { start_pos : pos; end_pos : pos }

let dummy = { start_pos = { line = 0; col = 0 }; end_pos = { line = 0; col = 0 } }
let make start_pos end_pos = { start_pos; end_pos }
let merge a b = { start_pos = a.start_pos; end_pos = b.end_pos }

(* Built directly: the [dml-check/1] report renders one per obligation. *)
let to_string l =
  let n = string_of_int in
  if l.start_pos.line = 0 then "<unknown>"
  else if l.start_pos.line = l.end_pos.line then
    String.concat ""
      [ "line "; n l.start_pos.line; ", characters "; n l.start_pos.col; "-"; n l.end_pos.col ]
  else
    String.concat ""
      [ "lines "; n l.start_pos.line; "."; n l.start_pos.col; "-"; n l.end_pos.line; "."; n l.end_pos.col ]

let pp fmt l = Format.pp_print_string fmt (to_string l)
