type span = {
  sp_name : string;
  mutable sp_start : float;
  mutable sp_dur : float;
  mutable sp_attrs : (string * Json.t) list;  (* most recent first *)
  mutable sp_children : span list;  (* most recent first *)
}

type sink = {
  mutable sk_roots : span list;  (* most recent first *)
  mutable sk_stack : span list;  (* innermost open span first *)
}

let null_span = { sp_name = ""; sp_start = 0.; sp_dur = 0.; sp_attrs = []; sp_children = [] }

let current : sink option ref = ref None

let create_sink () = { sk_roots = []; sk_stack = [] }
let set_sink s = current := s
let current_sink () = !current
let enabled () = !current <> None
let real sp = sp != null_span

let start name =
  match !current with
  | None -> null_span
  | Some sk ->
      let sp =
        { sp_name = name; sp_start = Clock.now (); sp_dur = 0.; sp_attrs = []; sp_children = [] }
      in
      sk.sk_stack <- sp :: sk.sk_stack;
      sp

let set sp k v = if sp != null_span then sp.sp_attrs <- (k, v) :: sp.sp_attrs
let set_str sp k s = set sp k (Json.String s)
let set_int sp k n = set sp k (Json.Int n)
let set_bool sp k b = set sp k (Json.Bool b)

let attach sk sp =
  match sk.sk_stack with
  | parent :: _ -> parent.sp_children <- sp :: parent.sp_children
  | [] -> sk.sk_roots <- sp :: sk.sk_roots

let finish sp =
  if sp != null_span then
    match !current with
    | None -> () (* sink removed while the span was open: drop it *)
    | Some sk ->
        if List.memq sp sk.sk_stack then begin
          let t = Clock.now () in
          sp.sp_dur <- t -. sp.sp_start;
          (* pop down to [sp]; children abandoned open (an exception crossed
             them) are closed here so nesting stays well-formed *)
          let rec pop () =
            match sk.sk_stack with
            | [] -> ()
            | top :: rest ->
                sk.sk_stack <- rest;
                if top != sp then begin
                  top.sp_dur <- t -. top.sp_start;
                  attach sk top;
                  pop ()
                end
                else attach sk sp
          in
          pop ()
        end

let with_span name f =
  let sp = start name in
  Fun.protect ~finally:(fun () -> finish sp) (fun () -> f sp)

let adopt sp =
  if sp != null_span then
    match !current with None -> () | Some sk -> attach sk sp

let roots sk = List.rev sk.sk_roots
let span_name sp = sp.sp_name
let span_children sp = List.rev sp.sp_children
let span_dur sp = sp.sp_dur

let span_attr sp k = List.assoc_opt k sp.sp_attrs

(* last write to a key wins: [sp_attrs] is most-recent-first, so keep the
   first occurrence while restoring write order *)
let attrs_in_order sp =
  List.fold_left
    (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc)
    [] sp.sp_attrs

let rec span_json sp =
  let base =
    [ ("name", Json.String sp.sp_name); ("start_s", Json.Float sp.sp_start);
      ("dur_s", Json.Float sp.sp_dur) ]
  in
  let attrs = match attrs_in_order sp with [] -> [] | kvs -> [ ("attrs", Json.Obj kvs) ] in
  let children =
    match sp.sp_children with
    | [] -> []
    | cs -> [ ("children", Json.List (List.rev_map span_json cs)) ]
  in
  Json.Obj (base @ attrs @ children)

let span_to_json = span_json

let to_json sk =
  Json.Obj
    [
      ("schema", Json.String "dml-trace/1");
      ("spans", Json.List (List.map span_json (roots sk)));
    ]
