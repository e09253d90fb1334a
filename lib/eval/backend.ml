type exec = { lookup : string -> Value.t }

type request = {
  rq_name : string;
  rq_tprog : Dml_mltype.Tast.tprogram;
  rq_degraded : (Dml_lang.Loc.t -> bool) option;
  rq_scale : int;
  rq_run : exec -> scale:int -> string;
  rq_native_driver : string option;
}

type measurement = {
  ms_checked : float;
  ms_unchecked : float;
  ms_eliminated : int;
  ms_residual : int;
}

type paper_column = Alpha | Sparc

type t = {
  b_key : string;
  b_aliases : string list;
  b_name : string;
  b_unit : string;
  b_table : string;
  b_paper : paper_column;
  b_available : unit -> (unit, string) result;
  b_measure : request -> (measurement, string) result;
}

(* --- paired timing ---------------------------------------------------------- *)

(* Interleaved paired measurement: the two disciplines are timed
   alternately and each takes its best of five rounds, so slow drift of the
   machine state cannot bias one side.  Timed with [Clock.now] — the same
   monotonic wall clock as the pipeline's gen/solve times — not [Sys.time],
   whose CPU seconds are not comparable to the rest of the system's
   timings. *)
let time_pair f g =
  let once h =
    Gc.full_major ();
    let t0 = Dml_obs.Clock.now () in
    h ();
    Dml_obs.Clock.now () -. t0
  in
  let best_f = ref infinity and best_g = ref infinity in
  for _ = 1 to 5 do
    best_f := Stdlib.min !best_f (once f);
    best_g := Stdlib.min !best_g (once g)
  done;
  (!best_f, !best_g)

let exec ce tprog : exec = { lookup = Compile.lookup (Compile.run_program ce tprog) }

(* --- platform A: the closure compiler charging the cost model --------------- *)

let measure_cost_model rq =
  (* account virtual cycles under both disciplines *)
  let cycles ?degraded mode =
    let counters = Prims.new_counters () in
    let ex = exec (Compile.initial_costed ?degraded mode counters) rq.rq_tprog in
    ignore (rq.rq_run ex ~scale:rq.rq_scale);
    counters
  in
  let checked = cycles Prims.Checked in
  let unchecked = cycles ?degraded:rq.rq_degraded Prims.Unchecked in
  Ok
    {
      ms_checked = float_of_int checked.Prims.cycles /. 1e6;
      ms_unchecked = float_of_int unchecked.Prims.cycles /. 1e6;
      ms_eliminated = unchecked.Prims.eliminated_checks;
      ms_residual = unchecked.Prims.dynamic_checks;
    }

(* --- platform B: compiled closures ------------------------------------------- *)

let exec_compiled mode ?counters ?degraded tprog =
  exec (Compile.initial_fast mode ?counters ?degraded ()) tprog

let measure_compiled rq =
  (* timed runs without instrumentation, then a counting run *)
  let degraded = rq.rq_degraded in
  let ex_checked = exec_compiled Prims.Checked rq.rq_tprog in
  let ex_unchecked = exec_compiled Prims.Unchecked ?degraded rq.rq_tprog in
  let checked_s, unchecked_s =
    time_pair
      (fun () -> ignore (rq.rq_run ex_checked ~scale:rq.rq_scale))
      (fun () -> ignore (rq.rq_run ex_unchecked ~scale:rq.rq_scale))
  in
  let counters = Prims.new_counters () in
  let ex = exec_compiled Prims.Unchecked ~counters ?degraded rq.rq_tprog in
  ignore (rq.rq_run ex ~scale:rq.rq_scale);
  Ok
    {
      ms_checked = checked_s;
      ms_unchecked = unchecked_s;
      ms_eliminated = counters.Prims.eliminated_checks;
      ms_residual = counters.Prims.dynamic_checks;
    }

(* --- platform C: compiled native binaries -------------------------------------- *)

let measure_native rq =
  let ( let* ) = Result.bind in
  let* driver =
    Option.to_result rq.rq_native_driver
      ~none:(rq.rq_name ^ ": no native driver for this benchmark")
  in
  let build ~mode ?degraded ~instrument () =
    Codegen.build_and_run ~name:rq.rq_name ~mode ?degraded ~instrument ~driver
      ~scale:rq.rq_scale rq.rq_tprog
  in
  let fail fmt = Printf.ksprintf Result.error fmt in
  (* three builds: both disciplines timed bare, then the unchecked program
     once more with counting accessors for the check columns *)
  let* checked = build ~mode:Prims.Checked ~instrument:false () in
  let* unchecked = build ~mode:Prims.Unchecked ?degraded:rq.rq_degraded ~instrument:false () in
  let summary r = r.Codegen.nr_summary in
  if summary checked <> summary unchecked then
    fail "%s: checked/unchecked native results differ: %S vs %S" rq.rq_name (summary checked)
      (summary unchecked)
  else
    let* counted = build ~mode:Prims.Unchecked ?degraded:rq.rq_degraded ~instrument:true () in
    match (checked.Codegen.nr_time_s, unchecked.Codegen.nr_time_s) with
    | _ when summary counted <> summary unchecked ->
        fail "%s: instrumented native run diverged" rq.rq_name
    | Some c, Some u ->
        Ok
          {
            ms_checked = c;
            ms_unchecked = u;
            ms_eliminated = Option.value counted.Codegen.nr_eliminated ~default:0;
            ms_residual = Option.value counted.Codegen.nr_dynamic ~default:0;
          }
    | _ -> fail "%s: native binary reported no timing" rq.rq_name

(* --- the three platforms ------------------------------------------------------------ *)

let cost_model =
  {
    b_key = "cost-model";
    b_aliases = [ "cycles" ];
    b_name = "cost-model VM, virtual Mcycles (platform A, cf. Table 2 SML/NJ on Alpha)";
    b_unit = "Mcyc";
    b_table = "2";
    b_paper = Alpha;
    b_available = (fun () -> Ok ());
    b_measure = measure_cost_model;
  }

let compiled =
  {
    b_key = "compiled";
    b_aliases = [ "closure" ];
    b_name = "compiled closures, wall seconds (platform B, cf. Table 3 MLWorks on SPARC)";
    b_unit = "s";
    b_table = "3";
    b_paper = Sparc;
    b_available = (fun () -> Ok ());
    b_measure = measure_compiled;
  }

let native =
  {
    b_key = "native";
    b_aliases = [];
    b_name = "compiled native binaries, wall seconds (platform C, cf. Table 3 MLWorks on SPARC)";
    b_unit = "s";
    b_table = "3";
    b_paper = Sparc;
    b_available = (fun () -> Result.map ignore (Codegen.find_toolchain ()));
    b_measure = measure_native;
  }

(* --- registry ------------------------------------------------------------- *)

let all () = [ cost_model; compiled; native ]
let find key = List.find_opt (fun b -> b.b_key = key || List.mem key b.b_aliases) (all ())
