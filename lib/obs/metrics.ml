type counter = { c_name : string; mutable c_value : int }

type histogram = {
  h_name : string;
  h_bounds : float array;  (* increasing upper bounds; overflow bucket implicit *)
  h_buckets : int array;  (* length = Array.length h_bounds + 1 *)
  mutable hm_count : int;
  mutable hm_sum : float;
  mutable hm_min : float;
  mutable hm_max : float;
}

type instrument = Counter of counter | Histogram of histogram

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64

let counter name =
  match Hashtbl.find_opt registry name with
  | Some (Counter c) -> c
  | Some (Histogram _) -> invalid_arg ("Metrics.counter: " ^ name ^ " is a histogram")
  | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.replace registry name (Counter c);
      c

let incr ?(by = 1) c = if by > 0 then c.c_value <- c.c_value + by
let value c = c.c_value

(* 10µs .. 10s, a decade per bucket: solve latencies span exactly this range
   between a warm cache hit and a budget-limited pathological goal. *)
let default_bounds = [| 0.01; 0.1; 1.; 10.; 100.; 1000.; 10000. |]

let histogram ?(bounds = default_bounds) name =
  match Hashtbl.find_opt registry name with
  | Some (Histogram h) -> h
  | Some (Counter _) -> invalid_arg ("Metrics.histogram: " ^ name ^ " is a counter")
  | None ->
      let h =
        {
          h_name = name;
          h_bounds = bounds;
          h_buckets = Array.make (Array.length bounds + 1) 0;
          hm_count = 0;
          hm_sum = 0.;
          hm_min = infinity;
          hm_max = neg_infinity;
        }
      in
      Hashtbl.replace registry name (Histogram h);
      h

let observe h x =
  let nb = Array.length h.h_bounds in
  let rec bucket i = if i >= nb || x <= h.h_bounds.(i) then i else bucket (i + 1) in
  let i = bucket 0 in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1;
  h.hm_count <- h.hm_count + 1;
  h.hm_sum <- h.hm_sum +. x;
  if x < h.hm_min then h.hm_min <- x;
  if x > h.hm_max then h.hm_max <- x

let h_count h = h.hm_count
let h_sum h = h.hm_sum

let reset () =
  Hashtbl.iter
    (fun _ instr ->
      match instr with
      | Counter c -> c.c_value <- 0
      | Histogram h ->
          Array.fill h.h_buckets 0 (Array.length h.h_buckets) 0;
          h.hm_count <- 0;
          h.hm_sum <- 0.;
          h.hm_min <- infinity;
          h.hm_max <- neg_infinity)
    registry

(* Cross-process aggregation: a serializable image of the registry, shipped
   from worker processes and added into the parent's instruments. *)
type edatum =
  | Ecounter of int
  | Ehistogram of {
      eh_bounds : float array;
      eh_buckets : int array;
      eh_count : int;
      eh_sum : float;
      eh_min : float;
      eh_max : float;
    }

type export = (string * edatum) list

let export () =
  Hashtbl.fold
    (fun name instr acc ->
      match instr with
      | Counter c -> if c.c_value = 0 then acc else (name, Ecounter c.c_value) :: acc
      | Histogram h ->
          if h.hm_count = 0 then acc
          else
            ( name,
              Ehistogram
                {
                  eh_bounds = Array.copy h.h_bounds;
                  eh_buckets = Array.copy h.h_buckets;
                  eh_count = h.hm_count;
                  eh_sum = h.hm_sum;
                  eh_min = h.hm_min;
                  eh_max = h.hm_max;
                } )
            :: acc)
    registry []

let absorb ex =
  List.iter
    (fun (name, d) ->
      match d with
      | Ecounter v -> ( try incr ~by:v (counter name) with Invalid_argument _ -> ())
      | Ehistogram e -> (
          match histogram ~bounds:e.eh_bounds name with
          | exception Invalid_argument _ -> ()
          | h ->
              h.hm_count <- h.hm_count + e.eh_count;
              h.hm_sum <- h.hm_sum +. e.eh_sum;
              if e.eh_count > 0 then begin
                if e.eh_min < h.hm_min then h.hm_min <- e.eh_min;
                if e.eh_max > h.hm_max then h.hm_max <- e.eh_max
              end;
              if Array.length h.h_buckets = Array.length e.eh_buckets then
                Array.iteri (fun i c -> h.h_buckets.(i) <- h.h_buckets.(i) + c) e.eh_buckets
              else begin
                (* bounds mismatch (should not happen within one binary):
                   keep the totals honest by folding into the overflow bucket *)
                let last = Array.length h.h_buckets - 1 in
                h.h_buckets.(last) <-
                  h.h_buckets.(last) + Array.fold_left ( + ) 0 e.eh_buckets
              end))
    ex

let sorted_instruments () =
  Hashtbl.fold (fun name instr acc -> (name, instr) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histogram_json h =
  Json.Obj
    [
      ("count", Json.Int h.hm_count);
      ("sum", Json.Float h.hm_sum);
      ("min", if h.hm_count = 0 then Json.Null else Json.Float h.hm_min);
      ("max", if h.hm_count = 0 then Json.Null else Json.Float h.hm_max);
      ("bounds", Json.List (Array.to_list (Array.map (fun b -> Json.Float b) h.h_bounds)));
      ("buckets", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.h_buckets)));
    ]

let to_json () =
  let instruments = sorted_instruments () in
  let counters =
    List.filter_map
      (fun (name, i) -> match i with Counter c -> Some (name, Json.Int c.c_value) | _ -> None)
      instruments
  in
  let histograms =
    List.filter_map
      (fun (name, i) -> match i with Histogram h -> Some (name, histogram_json h) | _ -> None)
      instruments
  in
  Json.Obj
    [
      ("schema", Json.String "dml-metrics/1");
      ("counters", Json.Obj counters);
      ("histograms", Json.Obj histograms);
    ]

let pp fmt () =
  List.iter
    (fun (name, instr) ->
      match instr with
      | Counter c -> Format.fprintf fmt "%-32s %d@." name c.c_value
      | Histogram h ->
          if h.hm_count = 0 then Format.fprintf fmt "%-32s count=0@." name
          else
            Format.fprintf fmt "%-32s count=%d sum=%.3f min=%.4f max=%.4f mean=%.4f@." name
              h.hm_count h.hm_sum h.hm_min h.hm_max
              (h.hm_sum /. float_of_int h.hm_count))
    (sorted_instruments ())
