open Value

(* Run-time environment: one frame per activation of a [fn] or of a [fun]
   clause, chained to the frame of the lexically enclosing activation.  The
   slots are laid out by [Lower]. *)
type frame = { slots : Value.t array; up : frame }

(* Top-level code and top-level functions hang off [root], at depth 0. *)
let rec root = { slots = [||]; up = root }

exception Match_failure_dml of string

(* The compiled code of one [fun] defined in the activation at [def_depth]
   (0 at top level).  [body] tries the clauses on a frame whose parameter
   slots are filled. *)
type fn_code = { fd : Ir.fundef; def_depth : int; mutable body : frame -> Value.t }

type compiled_env = {
  lower : Lower.env;  (* top-level names in scope *)
  cells : (int, Value.t ref) Hashtbl.t;  (* top-level bindings, by id *)
  fns : (int, fn_code) Hashtbl.t;  (* compiled [fun]s, by key, for known calls *)
  impl : bool -> Prims.prim -> Prims.fast;  (* [true]: the checked flavour *)
  cost : (int -> unit) option;  (* cost-model hook: charges each node's cycles *)
}

(* [table mode] gives the primitive implementations of one discipline. *)
let with_prims ?degraded ?cost table mode =
  let fast = table mode in
  let checked = if mode = Prims.Checked then fast else table Prims.Checked in
  {
    lower = Lower.init mode ?degraded ();
    cells = Hashtbl.create 64;
    fns = Hashtbl.create 64;
    impl = (fun c -> if c then checked else fast);
    cost;
  }

let initial_fast mode ?counters ?degraded () =
  with_prims ?degraded (fun mode -> Prims.fast_table mode ?counters ()) mode

let initial_costed ?degraded mode counters =
  let costed mode =
    let impl = Prims.fast_table mode ~counters () in
    fun p -> Prims.with_cost counters p.Prims.flat_cost (impl p)
  in
  let tick n = counters.Prims.cycles <- counters.Prims.cycles + n in
  with_prims ?degraded ~cost:tick costed mode

(* --- frames ------------------------------------------------------------------ *)

let new_slots n =
  let d = unit_v in
  match n with
  | 0 -> [||]
  | 1 -> [| d |]
  | 2 -> [| d; d |]
  | 3 -> [| d; d; d |]
  | 4 -> [| d; d; d; d |]
  | 5 -> [| d; d; d; d; d |]
  | 6 -> [| d; d; d; d; d; d |]
  | 7 -> [| d; d; d; d; d; d; d |]
  | 8 -> [| d; d; d; d; d; d; d; d |]
  | n -> Array.make n d

let rec hop fr n = if n = 0 then fr else hop fr.up (n - 1)

(* The frame of the activation at depth [target], seen from depth [depth]. *)
let frame_at ~depth ~target : frame -> frame =
  if target = 0 then fun _ -> root
  else
    match depth - target with
    | 0 -> fun fr -> fr
    | 1 -> fun fr -> fr.up
    | 2 -> fun fr -> fr.up.up
    | n -> fun fr -> hop fr n

let access ce depth = function
  | Ir.Local (d, s, _) -> (
      match depth - d with
      | 0 -> fun fr -> Array.unsafe_get fr.slots s
      | 1 -> fun fr -> Array.unsafe_get fr.up.slots s
      | 2 -> fun fr -> Array.unsafe_get fr.up.up.slots s
      | n -> fun fr -> Array.unsafe_get (hop fr n).slots s)
  | Ir.Global (id, _) ->
      let c = Hashtbl.find ce.cells id in
      fun _ -> !c
  | Ir.Prim (p, checked) ->
      let v = Prims.value_of_fast (ce.impl checked p) in
      fun _ -> v

let lookup ce x =
  match Lower.resolve ce.lower x with
  | Some ((Ir.Global _ | Ir.Prim _) as v) -> access ce 1 v root
  | Some (Ir.Local _) | None -> raise (Runtime_error ("unbound variable at run time: " ^ x))

(* Where a pattern variable's value goes: its slot in the current frame, or
   a fresh top-level cell. *)
let binder ce = function
  | Ir.Local (_, s, _) -> fun fr v -> Array.unsafe_set fr.slots s v
  | Ir.Global (id, _) ->
      let c = ref unit_v in
      Hashtbl.replace ce.cells id c;
      fun _ v -> c := v
  | Ir.Prim _ as v -> invalid_arg ("Compile.binder: " ^ Ir.var_name v)

(* --- patterns ------------------------------------------------------------------ *)

(* A pattern compiles to a matcher that writes the values it binds and says
   whether the value matched.  A failed match may leave some of its slots
   written; nothing reads them.  Constructors match by tag. *)
let rec compile_pat ce (p : Ir.pat) : frame -> Value.t -> bool =
  match p with
  | Ir.Pwild -> fun _ _ -> true
  | Ir.Pvar (Ir.Local (_, s, _)) ->
      fun fr v ->
        Array.unsafe_set fr.slots s v;
        true
  | Ir.Pvar v ->
      let write = binder ce v in
      fun fr v ->
        write fr v;
        true
  | Ir.Pint n -> (fun _ -> function Vint m -> m = n | _ -> false)
  | Ir.Pbool b -> (fun _ -> function Vbool c -> c = b | _ -> false)
  | Ir.Pchar a -> (fun _ -> function Vchar b -> b = a | _ -> false)
  | Ir.Pstring a -> (fun _ -> function Vstring b -> b = a | _ -> false)
  | Ir.Ptuple ps -> (
      match List.map (compile_pat ce) ps with
      | [ m1; m2 ] -> (fun fr -> function Vtuple [| v1; v2 |] -> m1 fr v1 && m2 fr v2 | _ -> false)
      | [ m1; m2; m3 ] -> (
          fun fr -> function
          | Vtuple [| v1; v2; v3 |] -> m1 fr v1 && m2 fr v2 && m3 fr v3
          | _ -> false)
      | ms ->
          let ms = Array.of_list ms in
          let n = Array.length ms in
          let rec go fr vs i = i = n || (ms.(i) fr (Array.unsafe_get vs i) && go fr vs (i + 1)) in
          fun fr -> function Vtuple vs when Array.length vs = n -> go fr vs 0 | _ -> false)
  | Ir.Pcon ({ Ir.con = { tag; _ }; _ }, None) -> (fun _ -> function Vtag c -> c.tag = tag | _ -> false)
  | Ir.Pcon ({ Ir.con = { tag; _ }; _ }, Some argp) ->
      let m = compile_pat ce argp in
      fun fr -> function Vcon (c, v) when c.tag = tag -> m fr v | _ -> false

(* --- operands ------------------------------------------------------------------ *)

(* An operand of a primitive or known call: a slot of the current or the
   enclosing activation, a constant, or code.  The first three are read in
   place, with no closure call.  Only the timed instance fuses them: the
   cost model charges every variable and literal node on its own. *)
type 'a operand = Here of int | Up of int | Const of 'a | Code of (frame -> 'a)

(* Value's projections and [of_bool], inlined: the default (dev) build
   compiles with -opaque, so a call into another module is never inlined,
   and the run-time paths below box and unbox on every step. *)
let[@inline] int_of = function Vint n -> n | v -> as_int v
let[@inline] bool_of = function Vbool b -> b | v -> as_bool v
let[@inline] boxed_bool b = if b then Vbool true else Vbool false
let[@inline] fun_of = function Vfun f -> f | v -> as_fun v

let[@inline] get o fr =
  match o with
  | Here s -> Array.unsafe_get fr.slots s
  | Up s -> Array.unsafe_get fr.up.slots s
  | Const v -> v
  | Code c -> c fr

let[@inline] iget o fr =
  match o with
  | Here s -> int_of (Array.unsafe_get fr.slots s)
  | Up s -> int_of (Array.unsafe_get fr.up.slots s)
  | Const n -> n
  | Code c -> c fr

(* The slot an atom operand reads, if any. *)
let slot ce depth (e : Ir.exp) =
  match (ce.cost, e) with
  | None, Ir.Var (Ir.Local (d, s, _)) when d = depth -> Some (Here s)
  | None, Ir.Var (Ir.Local (d, s, _)) when d = depth - 1 -> Some (Up s)
  | _ -> None

(* --- expressions --------------------------------------------------------------- *)

(* A node's closure charges its cost-model cycles on entry.  Without a hook
   the closure is returned as it is. *)
let charge ce n (c : frame -> 'a) =
  match ce.cost with
  | None -> c
  | Some tick ->
      fun fr ->
        tick n;
        c fr

(* A first-class value for a [fun] whose frames hang off [up]. *)
let fun_value code up =
  let size = code.fd.Ir.size in
  let frame () = { slots = new_slots size; up } in
  let fail () = raise (Match_failure_dml (Ir.var_name code.fd.Ir.var)) in
  match (code.fd.Ir.spread, code.fd.Ir.arity) with
  | Some 2, _ ->
      Vfun
        (function
        | Vtuple [| v0; v1 |] ->
            let fr = frame () in
            Array.unsafe_set fr.slots 0 v0;
            Array.unsafe_set fr.slots 1 v1;
            code.body fr
        | _ -> fail ())
  | Some n, _ ->
      Vfun
        (function
        | Vtuple vs when Array.length vs = n ->
            let fr = frame () in
            Array.blit vs 0 fr.slots 0 n;
            code.body fr
        | _ -> fail ())
  | None, 1 ->
      Vfun
        (fun v ->
          let fr = frame () in
          Array.unsafe_set fr.slots 0 v;
          code.body fr)
  | None, k ->
      (* collect the curried arguments, then fill the frame in order *)
      let rec curry collected i =
        if i = k then begin
          let fr = frame () in
          List.iteri (fun j v -> Array.unsafe_set fr.slots (k - 1 - j) v) collected;
          code.body fr
        end
        else Vfun (fun v -> curry (v :: collected) (i + 1))
      in
      curry [] 0

(* Operands run in SML's order, function before argument and then left to
   right: every compound node let-binds its operands, because OCaml leaves
   the order of an application's or constructor's arguments unspecified.
   [depth] is the depth of the activation being compiled.

   [compile] gives a node's value; [compile_int] and [compile_bool] give an
   int- or bool-valued node's result unboxed, for the operands of the typed
   primitives ({!Prims.fast}) and for conditions.  Each charges the cost
   model exactly what [compile] charges for the same node. *)
let rec compile ce depth (e : Ir.exp) : frame -> Value.t =
  let const v = charge ce 1 (fun _ -> v) in
  match e with
  | Ir.Int n -> const (Vint n)
  | Ir.Bool b -> const (of_bool b)
  | Ir.Char c -> const (of_char c)
  | Ir.String s -> const (Vstring s)
  | Ir.Var v -> charge ce 1 (access ce depth v)
  | Ir.Con ({ Ir.con = c; _ }, None) -> const (Vtag c)
  | Ir.Con_fn { Ir.con = c; _ } -> const (Vfun (fun v -> Vcon (c, v)))
  | Ir.Con ({ Ir.con = c; _ }, Some arg) ->
      let carg = compile ce depth arg in
      charge ce 3 (fun fr -> Vcon (c, carg fr))
  | Ir.Tuple es ->
      charge ce
        (2 + List.length es)
        (match List.map (operand ce depth) es with
        | [ o1; o2 ] ->
            fun fr ->
              let v1 = get o1 fr in
              Vtuple [| v1; get o2 fr |]
        | [ o1; o2; o3 ] ->
            fun fr ->
              let v1 = get o1 fr in
              let v2 = get o2 fr in
              Vtuple [| v1; v2; get o3 fr |]
        | os ->
            let os = Array.of_list os in
            fun fr ->
              let vs = Array.make (Array.length os) unit_v in
              for i = 0 to Array.length os - 1 do
                Array.unsafe_set vs i (get (Array.unsafe_get os i) fr)
              done;
              Vtuple vs)
  | Ir.Prim_call { prim; checked; args } -> (
      match (ce.impl checked prim, args) with
      | Prims.I2 g, [ a; b ] ->
          let a = int_operand ce depth a and b = int_operand ce depth b in
          fun fr ->
            let x = iget a fr in
            Vint (g x (iget b fr))
      | Prims.I1 g, [ a ] ->
          let a = int_operand ce depth a in
          fun fr -> Vint (g (iget a fr))
      | Prims.N1 g, [ a ] ->
          let a = operand ce depth a in
          fun fr -> Vint (g (get a fr))
      | (Prims.C2 _ | Prims.B1 _), _ ->
          let c = compile_bool ce depth e in
          fun fr -> boxed_bool (c fr)
      | Prims.F1 g, [ a ] ->
          let a = operand ce depth a in
          fun fr -> g (get a fr)
      | Prims.F2 g, [ a; b ] ->
          let a = operand ce depth a and b = operand ce depth b in
          fun fr ->
            let x = get a fr in
            g x (get b fr)
      | Prims.F3 g, [ a; b; c ] ->
          let a = operand ce depth a and b = operand ce depth b and c = operand ce depth c in
          fun fr ->
            let x = get a fr in
            let y = get b fr in
            g x y (get c fr)
      | Prims.X2 g, [ a; i ] ->
          let a = operand ce depth a and i = int_operand ce depth i in
          fun fr ->
            let x = get a fr in
            g x (iget i fr)
      | Prims.X3 g, [ a; i; v ] ->
          let a = operand ce depth a and i = int_operand ce depth i and v = operand ce depth v in
          fun fr ->
            let x = get a fr in
            let j = iget i fr in
            g x j (get v fr)
      | _ -> invalid_arg "Compile.compile: primitive arity")
  | Ir.Known_call { key; spread; args; _ } ->
      let code = Hashtbl.find ce.fns key in
      (* the call stands for the nodes of the application it replaces, all
         charged on entry: a tupled call for app 2 + var 1 + tuple 2+n, a
         curried one of k operands for k apps and the var *)
      let n = match spread with Some n -> 5 + n | None -> (2 * List.length args) + 1 in
      charge ce n (compile_known_call ce depth code args)
  | Ir.App (f, a) ->
      let cf = compile ce depth f in
      let ca = compile ce depth a in
      charge ce 2 (fun fr ->
          let fv = cf fr in
          let av = ca fr in
          fun_of fv av)
  | Ir.If (c, t, f) -> (
      let ct = compile ce depth t in
      let cf = compile ce depth f in
      match comparison ce depth c with
      | Some (g, a, b) ->
          (* the comparison is tested in the [if]'s own closure *)
          charge ce 1 (fun fr ->
              let x = iget a fr in
              if g x (iget b fr) then ct fr else cf fr)
      | None ->
          let cc = compile_bool ce depth c in
          charge ce 1 (fun fr -> if cc fr then ct fr else cf fr))
  | Ir.Case (scrut, arms)
    when List.for_all (function Ir.Pcon ({ Ir.exn = false; _ }, None), _ -> true | _ -> false) arms
    ->
      (* every arm tests one nullary datatype constructor: dispatch on its
         tag, a position in the datatype *)
      let cs = compile ce depth scrut in
      let tag = function Ir.Pcon ({ Ir.con = c; _ }, None), _ -> c.tag | _ -> 0 in
      let table = Array.make (List.fold_left (fun m arm -> max m (tag arm + 1)) 0 arms) None in
      List.iter
        (fun ((_, body) as arm) ->
          if Option.is_none table.(tag arm) then table.(tag arm) <- Some (compile ce depth body))
        arms;
      let n = Array.length table in
      charge ce 1 (fun fr ->
          match cs fr with
          | Vtag c as v when c.tag < n -> (
              match Array.unsafe_get table c.tag with
              | Some body -> body fr
              | None -> raise (Match_failure_dml (Value.to_string v)))
          | v -> raise (Match_failure_dml (Value.to_string v)))
  | Ir.Case (scrut, arms) ->
      let cs = compile ce depth scrut in
      let chain =
        List.fold_right
          (fun (m, cbody) next ->
            let arm fr v = if m fr v then cbody fr else next fr v in
            arm)
          (compile_arms ce depth arms)
          (fun _ v -> raise (Match_failure_dml (Value.to_string v)))
      in
      charge ce 1 (fun fr -> chain fr (cs fr))
  | Ir.Fn (p, size, body) ->
      let m = compile_pat ce p in
      let cbody = compile ce (depth + 1) body in
      charge ce 3 (fun fr ->
          Vfun
            (fun v ->
              let fr' = { slots = new_slots size; up = fr } in
              if m fr' v then cbody fr' else raise (Match_failure_dml (Value.to_string v))))
  | Ir.Let (decs, body) -> compile_let ce depth decs (fun () -> compile ce depth body)
  | Ir.Andalso _ | Ir.Orelse _ ->
      let c = compile_bool ce depth e in
      fun fr -> boxed_bool (c fr)
  | Ir.Raise inner ->
      let ce' = compile ce depth inner in
      charge ce 2 (fun fr -> raise (Dml_exn (ce' fr)))
  | Ir.Handle (body, arms) ->
      let cbody = compile ce depth body in
      let arms = compile_arms ce depth arms in
      charge ce 1 (fun fr ->
          try cbody fr
          with e -> (
            match Value.exn_value_of e with
            | None -> raise e
            | Some v ->
                let rec try_arms = function
                  | [] -> raise e
                  | (m, carm) :: rest -> if m fr v then carm fr else try_arms rest
                in
                try_arms arms))

and compile_int ce depth (e : Ir.exp) : frame -> int =
  match e with
  | Ir.Int n -> charge ce 1 (fun _ -> n)
  | Ir.Prim_call { prim; checked; args } -> (
      match (ce.impl checked prim, args) with
      | Prims.I2 g, [ a; b ] ->
          let a = int_operand ce depth a and b = int_operand ce depth b in
          fun fr ->
            let x = iget a fr in
            g x (iget b fr)
      | Prims.I1 g, [ a ] ->
          let a = int_operand ce depth a in
          fun fr -> g (iget a fr)
      | Prims.N1 g, [ a ] ->
          let a = operand ce depth a in
          fun fr -> g (get a fr)
      | Prims.X2 g, [ a; i ] ->
          let a = operand ce depth a and i = int_operand ce depth i in
          fun fr ->
            let x = get a fr in
            int_of (g x (iget i fr))
      | _ ->
          let c = compile ce depth e in
          fun fr -> int_of (c fr))
  | Ir.Var (Ir.Local (d, s, _)) when d = depth ->
      charge ce 1 (fun fr -> int_of (Array.unsafe_get fr.slots s))
  | Ir.If (c, t, f) ->
      let cc = compile_bool ce depth c in
      let ct = compile_int ce depth t in
      let cf = compile_int ce depth f in
      charge ce 1 (fun fr -> if cc fr then ct fr else cf fr)
  | Ir.Let (decs, body) -> compile_let ce depth decs (fun () -> compile_int ce depth body)
  | _ ->
      let c = compile ce depth e in
      fun fr -> int_of (c fr)

and compile_bool ce depth (e : Ir.exp) : frame -> bool =
  match e with
  | Ir.Bool b -> charge ce 1 (fun _ -> b)
  | Ir.Prim_call { prim; checked; args } -> (
      match (ce.impl checked prim, args) with
      | Prims.C2 g, [ a; b ] ->
          let a = int_operand ce depth a and b = int_operand ce depth b in
          fun fr ->
            let x = iget a fr in
            g x (iget b fr)
      | Prims.B1 g, [ a ] ->
          let c = compile_bool ce depth a in
          fun fr -> g (c fr)
      | _ ->
          let c = compile ce depth e in
          fun fr -> bool_of (c fr))
  | Ir.Andalso (a, b) ->
      let ca = compile_bool ce depth a in
      let cb = compile_bool ce depth b in
      charge ce 1 (fun fr -> ca fr && cb fr)
  | Ir.Orelse (a, b) ->
      let ca = compile_bool ce depth a in
      let cb = compile_bool ce depth b in
      charge ce 1 (fun fr -> ca fr || cb fr)
  | Ir.If (c, t, f) ->
      let cc = compile_bool ce depth c in
      let ct = compile_bool ce depth t in
      let cf = compile_bool ce depth f in
      charge ce 1 (fun fr -> if cc fr then ct fr else cf fr)
  | Ir.Let (decs, body) -> compile_let ce depth decs (fun () -> compile_bool ce depth body)
  | _ ->
      let c = compile ce depth e in
      fun fr -> bool_of (c fr)

(* A condition that is one int comparison: its test and operands. *)
and comparison ce depth (e : Ir.exp) =
  match e with
  | Ir.Prim_call { prim; checked; args = [ a; b ] } -> (
      match ce.impl checked prim with
      | Prims.C2 g ->
          let a = int_operand ce depth a in
          Some (g, a, int_operand ce depth b)
      | _ -> None)
  | _ -> None

and operand ce depth (e : Ir.exp) : Value.t operand =
  match (slot ce depth e, ce.cost, e) with
  | Some o, _, _ -> o
  | None, None, Ir.Int n -> Const (Vint n)
  | None, None, Ir.Bool b -> Const (of_bool b)
  | None, None, Ir.Char c -> Const (of_char c)
  | None, None, Ir.String s -> Const (Vstring s)
  | _ -> Code (compile ce depth e)

and int_operand ce depth (e : Ir.exp) : int operand =
  match (slot ce depth e, ce.cost, e) with
  | Some o, _, _ -> o
  | None, None, Ir.Int n -> Const n
  | _ -> Code (compile_int ce depth e)

(* In order: a declaration's cells and functions exist before the code
   after it, down to the body [body ()], is compiled. *)
and compile_let : 'a. compiled_env -> int -> Ir.dec list -> (unit -> frame -> 'a) -> frame -> 'a =
 fun ce depth decs body ->
  match decs with
  | [] -> body ()
  | Ir.Dval (Ir.Pwild, e) :: rest ->
      let c = compile ce depth e in
      let crest = compile_let ce depth rest body in
      fun fr ->
        ignore (c fr);
        crest fr
  | Ir.Dval (Ir.Pvar (Ir.Local (_, s, _)), e) :: rest ->
      let c = compile ce depth e in
      let crest = compile_let ce depth rest body in
      fun fr ->
        Array.unsafe_set fr.slots s (c fr);
        crest fr
  | d :: rest ->
      let cd = compile_dec ce depth d in
      let crest = compile_let ce depth rest body in
      fun fr ->
        cd fr;
        crest fr

and compile_arms ce depth arms =
  List.map
    (fun (p, body) ->
      let m = compile_pat ce p in
      (m, compile ce depth body))
    arms

(* A call to a statically known [fun]: the operands go straight into the
   parameter slots of the callee's new frame. *)
and compile_known_call ce depth code operands =
  let up = frame_at ~depth ~target:code.def_depth in
  let size = code.fd.Ir.size in
  let frame slots fr = code.body { slots; up = up fr } in
  (* a frame of just the parameters is built whole *)
  match (List.map (operand ce depth) operands, size) with
  | [ o0 ], 1 -> fun fr -> frame [| get o0 fr |] fr
  | [ o0; o1 ], 2 ->
      fun fr ->
        let v0 = get o0 fr in
        frame [| v0; get o1 fr |] fr
  | [ o0; o1; o2 ], 3 ->
      fun fr ->
        let v0 = get o0 fr in
        let v1 = get o1 fr in
        frame [| v0; v1; get o2 fr |] fr
  | [ o0; o1; o2; o3 ], 4 ->
      fun fr ->
        let v0 = get o0 fr in
        let v1 = get o1 fr in
        let v2 = get o2 fr in
        frame [| v0; v1; v2; get o3 fr |] fr
  | [ o0 ], _ ->
      fun fr ->
        let s = new_slots size in
        Array.unsafe_set s 0 (get o0 fr);
        frame s fr
  | [ o0; o1 ], _ ->
      fun fr ->
        let s = new_slots size in
        Array.unsafe_set s 0 (get o0 fr);
        Array.unsafe_set s 1 (get o1 fr);
        frame s fr
  | [ o0; o1; o2 ], _ ->
      fun fr ->
        let s = new_slots size in
        Array.unsafe_set s 0 (get o0 fr);
        Array.unsafe_set s 1 (get o1 fr);
        Array.unsafe_set s 2 (get o2 fr);
        frame s fr
  | os, _ ->
      let os = Array.of_list os in
      fun fr ->
        let s = new_slots size in
        for i = 0 to Array.length os - 1 do
          Array.unsafe_set s i (get (Array.unsafe_get os i) fr)
        done;
        frame s fr

(* The code that binds a declaration's slots in the activation at [depth]. *)
and compile_dec ce depth (d : Ir.dec) : frame -> unit =
  match d with
  | Ir.Dexn _ -> ignore
  | Ir.Dval (Ir.Pwild, e) ->
      let c = compile ce depth e in
      fun fr -> ignore (c fr)
  | Ir.Dval (Ir.Pvar (Ir.Local (_, s, _)), e) ->
      let c = compile ce depth e in
      fun fr -> Array.unsafe_set fr.slots s (c fr)
  | Ir.Dval (p, e) ->
      let c = compile ce depth e in
      let m = compile_pat ce p in
      fun fr ->
        let v = c fr in
        if not (m fr v) then raise (Match_failure_dml (Value.to_string v))
  | Ir.Dfun fds -> compile_funs ce depth fds

(* A [fun] group defined in the activation at [depth] (0 at top level): every
   function's place and code record exist before any clause compiles, and
   the returned code stores the function values. *)
and compile_funs ce depth fds =
  let group =
    List.map
      (fun (fd : Ir.fundef) ->
        let code = { fd; def_depth = depth; body = (fun _ -> assert false) } in
        Hashtbl.replace ce.fns fd.Ir.key code;
        (code, binder ce fd.Ir.var))
      fds
  in
  List.iter (fun (code, _) -> code.body <- compile_clauses ce code) group;
  fun fr -> List.iter (fun (code, write) -> write fr (fun_value code fr)) group

(* A variable or wildcard parameter needs no test: [Lower] made a variable
   parameter its slot.  Other parameter patterns match against their slot. *)
and compile_clauses ce code =
  let depth = code.def_depth + 1 in
  let clause (params, body) =
    let tests =
      List.concat
        (List.mapi
           (fun j -> function
             | Ir.Pvar _ | Ir.Pwild -> []
             | p ->
                 let m = compile_pat ce p in
                 [ (fun fr -> m fr (Array.unsafe_get fr.slots j)) ])
           params)
    in
    let test =
      match tests with
      | [] -> None
      | [ t ] -> Some t
      | ts -> Some (fun fr -> List.for_all (fun t -> t fr) ts)
    in
    (test, compile ce depth body)
  in
  let name = Ir.var_name code.fd.Ir.var in
  List.fold_right
    (fun (test, cbody) next ->
      match test with None -> cbody | Some t -> fun fr -> if t fr then cbody fr else next fr)
    (List.map clause code.fd.Ir.clauses)
    (fun _ -> raise (Match_failure_dml name))

(* Top-level code runs in an activation of its own at depth 1. *)
let run_top ce e size = (compile ce 1 e) { slots = new_slots size; up = root }

let run_program ce prog =
  List.fold_left
    (fun ce ttop ->
      let lower, top = Lower.top ce.lower ttop in
      let ce = { ce with lower } in
      (match top with
      | Some (Ir.Tdec (Ir.Dval (p, e), size)) ->
          let v = run_top ce e size in
          if not (compile_pat ce p root v) then raise (Match_failure_dml (Value.to_string v))
      | Some (Ir.Tdec (Ir.Dfun fds, _)) -> compile_funs ce 0 fds root
      | Some (Ir.Tdec (Ir.Dexn _, _)) | Some (Ir.Tdatatype _) | None -> ());
      ce)
    ce prog
