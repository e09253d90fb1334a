(* Unit-grain re-parsing of an edited text.

   An editor sends the whole buffer on every keystroke, but an edit rarely
   reaches more than one top-level declaration.  A parsed text is kept as
   its declarations ("units"), each with its byte range, the position of
   its first token and the extent of the bytes that determine it
   ({!Parser.unit_parse}).  A new text is compared with the last one byte
   by byte: the longest common prefix and, disjoint from it, the longest
   common suffix.  Then
   - a leading unit is reused when the common prefix covers every byte that
     determines it: its own tokens, the parser's two tokens of lookahead
     after it and the lexer's one byte past those;
   - lexing and parsing restart at the end of the last reused unit, at its
     recorded position, and run declaration by declaration;
   - they stop at the first top-level boundary whose token lies in the
     common suffix at exactly the shifted offset of an old unit's first
     token, with the same line and column.  From there on the lexer sees
     the same bytes from the same position as it did last time, so the old
     units are the new ones, locations included, and are taken as they are.
   An edit that adds or removes a line moves every later unit to another
   line, so those units are parsed again; nothing is relocated.

   Any lexical or syntax error falls back to parsing the whole text, which
   raises exactly the error a cold parse raises. *)

type unit_ = { u : Parser.unit_parse; fingerprint : string }

type t = {
  text : string;
  units : unit_ array;
  reparsed : int;
}

let fingerprint top = Digest.string (Marshal.to_string top [ Marshal.No_sharing ])
let fresh u = { u; fingerprint = fingerprint u.Parser.top }

let full src =
  let units, _ = Parser.parse_units src in
  { text = src; units = Array.of_list (List.map fresh units); reparsed = List.length units }

let common_prefix a b =
  let n = min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i < n && String.unsafe_get a !i = String.unsafe_get b !i do
    incr i
  done;
  !i

(* at most [limit] bytes, so that prefix and suffix never overlap *)
let common_suffix a b limit =
  let la = String.length a and lb = String.length b in
  let i = ref 0 in
  while !i < limit && String.unsafe_get a (la - 1 - !i) = String.unsafe_get b (lb - 1 - !i) do
    incr i
  done;
  !i

let same_pos (a : Loc.pos) (b : Loc.pos) = a.line = b.line && a.col = b.col

let incremental old src =
  let lo = String.length old.text and ln = String.length src in
  let prefix = common_prefix old.text src in
  let suffix = common_suffix old.text src (min lo ln - prefix) in
  let delta = ln - lo in
  let n = Array.length old.units in
  let keep = ref 0 in
  while !keep < n && old.units.(!keep).u.Parser.look <= prefix do
    incr keep
  done;
  let keep = !keep in
  let pos, at =
    if keep = 0 then (0, { Loc.line = 1; col = 1 })
    else
      let u = old.units.(keep - 1).u in
      (u.Parser.last, u.Parser.last_pos)
  in
  (* boundaries arrive in increasing order, so one cursor over the old
     units finds the candidate for each *)
  let j = ref keep in
  let stop off at =
    let o = off - delta in
    o >= lo - suffix
    && begin
         while !j < n && old.units.(!j).u.Parser.first < o do
           incr j
         done;
         !j < n
         && old.units.(!j).u.Parser.first = o
         && same_pos old.units.(!j).u.Parser.first_pos at
       end
  in
  let parsed, stopped = Parser.parse_units ~pos ~at ~stop src in
  let shift { u; fingerprint } =
    {
      u =
        {
          u with
          Parser.first = u.Parser.first + delta;
          last = u.Parser.last + delta;
          look = u.Parser.look + delta;
        };
      fingerprint;
    }
  in
  let tail = if stopped then Array.map shift (Array.sub old.units !j (n - !j)) else [||] in
  {
    text = src;
    units = Array.concat [ Array.sub old.units 0 keep; Array.of_list (List.map fresh parsed); tail ];
    reparsed = List.length parsed;
  }

let parse ?last src =
  match last with
  | None -> full src
  | Some old when String.equal old.text src -> { old with reparsed = 0 }
  | Some old -> ( try incremental old src with Lexer.Error _ | Parser.Error _ -> full src)

let program t = Array.fold_right (fun x acc -> x.u.Parser.top :: acc) t.units []
let spans t = List.concat_map (fun x -> x.u.Parser.spans) (Array.to_list t.units)
let fingerprints t = Array.fold_right (fun x acc -> x.fingerprint :: acc) t.units []
let reparsed t = t.reparsed
