(** The [dml-server/1] wire protocol.

    Transport: length-prefixed frames ({!Dml_par.Frame.write_raw}/
    {!Dml_par.Frame.read_raw} — the worker pool's framing discipline with a
    verbatim payload) whose payload is one UTF-8 JSON document
    ({!Dml_obs.Json}), over a Unix-domain socket or stdin/stdout
    ([dmld --stdio]).  One request frame yields exactly one response frame;
    a connection may pipeline requests.  Without a worker pool responses
    come back in request order; with one, a memo hit or [status] may
    overtake an in-flight check, so clients correlate by the envelope
    ["id"].

    Request envelope (unknown fields are rejected, so typos fail loudly):
    {v
      { "op": "check" | "check_patch" | "batch" | "status" | "metrics"
            | "shutdown",
        "id": <any JSON, echoed back>?,          // correlation id
        ... op-specific fields ... }
    v}
    - [check]: ["source"] (program text, required), ["program"] (display
      name, default ["-"]), ["options"] (solve overrides).
    - [check_patch]: like [check] plus ["base"] (a prior response's
      ["source_id"], or null) — declaration-grain incremental recheck,
      served only by [dmld --incremental] (see {!request}).
    - [batch]: ["programs"]: array of [{"source", "program"?}], ["options"].
    - [status], [metrics], [shutdown]: no extra fields.

    Options overrides (["options"]): ["solver"] (["fm"]/["fm-plain"]/
    ["simplex"]), ["fuel"], ["timeout_ms"], ["max_eliminations"],
    ["infer"].  Only the solving policy and [infer] may change per
    request; the verdict cache and parallelism shape belong to the
    server.

    Response envelope:
    {v
      { "schema": "dml-server/1", "id": <echoed>, "op": <echoed>,
        "ok": true, "memo": true?, "result": <document> }
      { "schema": "dml-server/1", "id": <echoed>, "ok": false,
        "error": { "code": <slug>, "msg": <human-readable> } }
    v}
    The [check] result is a [dml-check/1] document ({!Dml_core.Report_json})
    — the same bytes [dmlc check --json] prints, modulo schedule-dependent
    fields; the [batch] result is the deterministic [dml-batch/1] document;
    [metrics] is [dml-metrics/1].

    Error codes: ["bad-json"] (unparseable payload), ["bad-request"]
    (envelope/field errors), ["unknown-base"] (a [check_patch] named a base
    source id the server has not successfully checked, or has evicted:
    the registry keeps the {!Server.memo_capacity} (128) most recently
    used sources), ["oversized-frame"] (a header
    announcing a negative length or more than {!max_frame}, on either
    transport; the connection is closed: the stream cannot be resynchronized). *)

open Dml_obs

val version : string
(** ["dml-server/1"]. *)

val max_frame : int
(** Default payload cap (16 MiB): far above any real program, small enough
    that a corrupt or hostile header cannot trigger a giant allocation. *)

type request =
  | Check of { program : string option; source : string; options : Json.t option }
  | Check_patch of {
      program : string option;
      source : string;
      base : string option;
      options : Json.t option;
    }
      (** Incremental recheck ([dmld --incremental] servers only): [source]
          is the {e full} replacement text, [base] the ["source_id"] of an
          earlier successful check to patch against ([null]/absent: a cold
          establishing check; an unknown id is an ["unknown-base"] error).
          The result is [{"check": <dml-check doc>, "incr": {"units",
          "dirty", "reused", "solver_calls", "source_id"}}] — the check
          document has the same bytes a cold full check would produce,
          modulo schedule-dependent fields and (under a shared verdict
          cache) the solver-stats block, but only the units whose digest
          changed were re-solved.  Chain edits by passing each response's
          ["source_id"] as the next request's [base]. *)
  | Batch of { programs : (string * string) list; options : Json.t option }
      (** (display name, source) pairs *)
  | Status
  | Metrics
  | Shutdown

type envelope = { id : Json.t; req : request }
(** [id] is [Json.Null] when the request carried none. *)

val op_name : request -> string

val parse_request : Json.t -> (envelope, string) result

val apply_overrides :
  Dml_core.Session.options -> Json.t -> (Dml_core.Session.options, string) result
(** Apply a request's ["options"] object to the server's base options;
    errors name the offending field. *)

val ok_response : id:Json.t -> op:string -> ?memo:bool -> Json.t -> Json.t
val error_response : id:Json.t -> code:string -> string -> Json.t

val send : Unix.file_descr -> Json.t -> unit
(** One compact-JSON frame. *)

val recv :
  ?max:int ->
  Unix.file_descr ->
  (Json.t, [ `Eof | `Oversized of int | `Bad_json of string | `Error of string ]) result
(** One frame, parsed.  [`Bad_json] is a well-framed but unparseable
    payload — the stream is still in sync, so the connection can continue;
    [`Oversized] (a header outside [[0, max]]) and [`Error] (truncation)
    leave it unresynchronizable. *)
