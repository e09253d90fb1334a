open Dml_obs
module Session = Dml_core.Session
module Solver = Dml_solver.Solver

let version = "dml-server/1"
let max_frame = 16 * 1024 * 1024

type request =
  | Check of { program : string option; source : string; options : Json.t option }
  | Check_patch of {
      program : string option;
      source : string;
      base : string option;
      options : Json.t option;
    }
  | Batch of { programs : (string * string) list; options : Json.t option }
  | Status
  | Metrics
  | Shutdown

type envelope = { id : Json.t; req : request }

let op_name = function
  | Check _ -> "check"
  | Check_patch _ -> "check_patch"
  | Batch _ -> "batch"
  | Status -> "status"
  | Metrics -> "metrics"
  | Shutdown -> "shutdown"

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

let field_string name v =
  match Json.member name v with
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
  | None -> Ok None

(* Unknown fields are protocol errors: a misspelled option silently doing
   nothing is worse than a rejected request. *)
let check_fields ~allowed v =
  match v with
  | Json.Obj kvs -> (
      match List.find_opt (fun (k, _) -> not (List.mem k allowed)) kvs with
      | Some (k, _) -> Error (Printf.sprintf "unknown field %S" k)
      | None -> Ok ())
  | _ -> Error "request must be a JSON object"

let parse_program_entry i v =
  match check_fields ~allowed:[ "source"; "program" ] v with
  | Error e -> Error (Printf.sprintf "programs[%d]: %s" i e)
  | Ok () -> (
      match (field_string "source" v, field_string "program" v) with
      | Ok (Some source), Ok name ->
          Ok (Option.value name ~default:(Printf.sprintf "p%d" i), source)
      | Ok None, _ -> Error (Printf.sprintf "programs[%d]: missing \"source\"" i)
      | Error e, _ | _, Error e -> Error (Printf.sprintf "programs[%d]: %s" i e))

let parse_request v =
  let id = Option.value (Json.member "id" v) ~default:Json.Null in
  let ret req = Ok { id; req } in
  match Json.member "op" v with
  | None -> Error "missing \"op\""
  | Some (Json.String op) -> (
      let options = Json.member "options" v in
      match op with
      | "check" -> (
          match check_fields ~allowed:[ "op"; "id"; "source"; "program"; "options" ] v with
          | Error e -> Error e
          | Ok () -> (
              match (field_string "source" v, field_string "program" v) with
              | Ok (Some source), Ok program -> ret (Check { program; source; options })
              | Ok None, _ -> Error "check: missing \"source\""
              | Error e, _ | _, Error e -> Error ("check: " ^ e)))
      | "check_patch" -> (
          match
            check_fields ~allowed:[ "op"; "id"; "source"; "base"; "program"; "options" ] v
          with
          | Error e -> Error e
          | Ok () -> (
              (* [base] is the source id of an earlier successful check to
                 patch against; null or absent means a cold establishing
                 check.  It is advisory — the store is content-addressed, so
                 a stale base only costs reuse, never correctness — but an
                 unknown id is rejected loudly so editors learn their chain
                 broke. *)
              let base =
                match Json.member "base" v with
                | None | Some Json.Null -> Ok None
                | Some (Json.String s) -> Ok (Some s)
                | Some _ -> Error "field \"base\" must be a string or null"
              in
              match (field_string "source" v, field_string "program" v, base) with
              | Ok (Some source), Ok program, Ok base ->
                  ret (Check_patch { program; source; base; options })
              | Ok None, _, _ -> Error "check_patch: missing \"source\""
              | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error ("check_patch: " ^ e)))
      | "batch" -> (
          match check_fields ~allowed:[ "op"; "id"; "programs"; "options" ] v with
          | Error e -> Error e
          | Ok () -> (
              match Json.member "programs" v with
              | Some (Json.List entries) -> (
                  let parsed = List.mapi parse_program_entry entries in
                  match List.find_opt Result.is_error parsed with
                  | Some (Error e) -> Error ("batch: " ^ e)
                  | _ -> ret (Batch { programs = List.filter_map Result.to_option parsed; options })
                  )
              | Some _ -> Error "batch: \"programs\" must be an array"
              | None -> Error "batch: missing \"programs\""))
      | "status" | "metrics" | "shutdown" -> (
          match check_fields ~allowed:[ "op"; "id" ] v with
          | Error e -> Error e
          | Ok () ->
              ret (match op with "status" -> Status | "metrics" -> Metrics | _ -> Shutdown))
      | op -> Error (Printf.sprintf "unknown op %S" op))
  | Some _ -> Error "\"op\" must be a string"

(* ------------------------------------------------------------------ *)
(* Per-request option overrides                                        *)
(* ------------------------------------------------------------------ *)

let method_of_slug = function
  | "fm" -> Ok Solver.Fm_tightened
  | "fm-plain" -> Ok Solver.Fm_plain
  | "simplex" -> Ok Solver.Simplex_rational
  | s -> Error (Printf.sprintf "unknown solver %S" s)

let int_opt_field name v k =
  match Json.member name v with
  | None -> Ok ()
  | Some Json.Null -> Ok (k None)
  | Some (Json.Int n) -> Ok (k (Some n))
  | Some _ -> Error (Printf.sprintf "option %S must be an integer or null" name)

let apply_overrides (base : Session.options) v =
  let allowed =
    [
      "solver";
      "fuel";
      "timeout_ms";
      "max_eliminations";
      "infer";
    ]
  in
  match check_fields ~allowed v with
  | Error e -> Error e
  | Ok () -> (
      let ( let* ) = Result.bind in
      let solve = ref base.Session.op_solve in
      let infer = ref base.Session.op_infer in
      let* () =
        match Json.member "solver" v with
        | None -> Ok ()
        | Some (Json.String s) ->
            Result.map (fun m -> solve := { !solve with Session.sc_method = m }) (method_of_slug s)
        | Some _ -> Error "option \"solver\" must be a string"
      in
      let* () = int_opt_field "fuel" v (fun n -> solve := { !solve with Session.sc_fuel = n }) in
      let* () =
        int_opt_field "timeout_ms" v (fun n -> solve := { !solve with Session.sc_timeout_ms = n })
      in
      let* () =
        int_opt_field "max_eliminations" v (fun n ->
            solve := { !solve with Session.sc_max_eliminations = n })
      in
      let* () =
        match Json.member "infer" v with
        | None -> Ok ()
        | Some (Json.Bool b) ->
            infer := b;
            Ok ()
        | Some _ -> Error "option \"infer\" must be a boolean"
      in
      Ok { base with Session.op_solve = !solve; op_infer = !infer })

(* ------------------------------------------------------------------ *)
(* Envelopes and transport                                             *)
(* ------------------------------------------------------------------ *)

let ok_response ~id ~op ?(memo = false) result =
  Json.Obj
    ([
       ("schema", Json.String version);
       ("id", id);
       ("op", Json.String op);
       ("ok", Json.Bool true);
     ]
    @ (if memo then [ ("memo", Json.Bool true) ] else [])
    @ [ ("result", result) ])

let error_response ~id ~code msg =
  Json.Obj
    [
      ("schema", Json.String version);
      ("id", id);
      ("ok", Json.Bool false);
      ("error", Json.Obj [ ("code", Json.String code); ("msg", Json.String msg) ]);
    ]

let send fd v = Dml_par.Frame.write_raw fd (Json.to_string v)

let recv ?(max = max_frame) fd =
  match Dml_par.Frame.read_raw ~max fd with
  | Ok payload -> (
      match Json.of_string payload with
      | Ok v -> Ok v
      | Error msg -> Error (`Bad_json msg))
  | Error (`Eof | `Oversized _ | `Error _) as e -> e
