open Dml_solver
module Json = Dml_obs.Json

type solve_config = {
  sc_method : Solver.method_;
  sc_fuel : int option;
  sc_timeout_ms : int option;
  sc_max_eliminations : int option;
}

let default_solve_config =
  {
    sc_method = Solver.Fm_tightened;
    sc_fuel = None;
    sc_timeout_ms = None;
    sc_max_eliminations = None;
  }

(* A fresh budget per obligation: one pathological constraint exhausts its
   own allowance and degrades its own site, without starving the rest of
   the program. *)
let budget_of_solve_config c =
  match (c.sc_fuel, c.sc_timeout_ms, c.sc_max_eliminations) with
  | None, None, None -> None
  | fuel, timeout_ms, max_eliminations ->
      Some (Budget.create ?fuel ?timeout_ms ?max_eliminations ())

type options = {
  op_solve : solve_config;
  op_cache : Dml_cache.Cache.config option;
  op_jobs : int option;
  op_infer : bool;
  op_incremental : bool;
}

let default_options =
  {
    op_solve = default_solve_config;
    op_cache = None;
    op_jobs = None;
    op_infer = false;
    op_incremental = false;
  }

let json_of_int_opt = function None -> Json.Null | Some n -> Json.Int n

let options_fields o =
  [
      ( "solve",
        Json.Obj
          [
            ("method", Json.String (Solver.method_slug o.op_solve.sc_method));
            ("fuel", json_of_int_opt o.op_solve.sc_fuel);
            ("timeout_ms", json_of_int_opt o.op_solve.sc_timeout_ms);
            ("max_eliminations", json_of_int_opt o.op_solve.sc_max_eliminations);
          ] );
      ( "cache",
        match o.op_cache with
        | None -> Json.Null
        | Some c -> Dml_cache.Cache.config_to_json c );
      ("jobs", json_of_int_opt o.op_jobs);
    ]
    (* emitted only when set: every pre-inference fingerprint, memo key and
       golden transcript stays byte-stable, while inferring and
       non-inferring checks can never share a memo or cache entry *)
    @ (if o.op_infer then [ ("infer", Json.Bool true) ] else [])
    (* same conditional-emission rule: an incremental server keeps its own
       memo space (its per-declaration verdict store is warm state the
       fingerprint must witness), while every pre-existing fingerprint and
       memo key stays byte-stable with the flag unset *)
    @ if o.op_incremental then [ ("incremental", Json.Bool true) ] else []

let options_to_json o = Json.Obj (options_fields o)

let fingerprint o = Digest.to_hex (Digest.string (Json.to_string (options_to_json o)))

type t = {
  t_options : options;
  t_cache : Dml_cache.Cache.t option;
  t_sink : Dml_obs.Trace.sink option;
}

let create ?sink ?cache ?(options = default_options) () =
  let cache =
    match cache with
    | Some _ as c -> c
    | None -> Option.map (fun config -> Dml_cache.Cache.create ~config ()) options.op_cache
  in
  { t_options = options; t_cache = cache; t_sink = sink }

let options t = t.t_options
let solve t = t.t_options.op_solve
let cache t = t.t_cache
let sink t = t.t_sink

let with_options t options = { t with t_options = options }
