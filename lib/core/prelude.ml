open Dml_lang
open Dml_mltype

type t = {
  tprog : Tast.tprogram;
  mlenv : Infer.env;
  ectx : Elab.ectx;
  obligations : Elab.obligation list;
}

let prelude =
  lazy
    (let ast = Parser.parse_program Basis.source in
     let mlenv, tprog = Infer.infer_program (Infer.initial Tyenv.builtin []) ast in
     let ectx = Elab.initial_ectx (Denv.builtin mlenv.Infer.tyenv) in
     let ectx, obligations = Elab.elaborate_tops ectx tprog in
     { tprog; mlenv; ectx; obligations })

let get () = Lazy.force prelude

let env p = { p.mlenv with Infer.warnings = ref !(p.mlenv.Infer.warnings) }

let start p user_prog =
  let mlenv, user_tprog = Infer.infer_program (env p) user_prog in
  (mlenv, user_tprog, Elab.with_tyenv p.ectx mlenv.tyenv)
