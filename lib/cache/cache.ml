type verdict = Store.verdict =
  | Valid
  | Not_valid of string
  | Unsupported of string
  | Timeout of string

type config = { dir : string option }

let default_config = { dir = None }

type snapshot = {
  s_hits : int;
  s_disk_hits : int;
  s_misses : int;
  s_stores : int;
  s_evictions : int;
  s_corrupt : int;
  s_quarantined : int;
  s_disk_evictions : int;
  s_entries : int;
  s_lookup_time : float;
  s_persist_time : float;
}

type t = {
  store : Store.t;
  mutable hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable lookup_time : float;
}

let create ?(config = default_config) () =
  {
    store = Store.create ?dir:config.dir ();
    hits = 0;
    disk_hits = 0;
    misses = 0;
    stores = 0;
    lookup_time = 0.;
  }

let key ~digest ~method_ = digest ^ ":" ^ method_

let definitive = function Valid | Not_valid _ -> true | Unsupported _ | Timeout _ -> false

(* process-wide registry mirrors of the per-cache counters *)
let m_lookups = Dml_obs.Metrics.counter "cache.lookups"
let m_hits = Dml_obs.Metrics.counter "cache.hits"
let m_disk_hits = Dml_obs.Metrics.counter "cache.disk_hits"
let m_misses = Dml_obs.Metrics.counter "cache.misses"
let m_stores = Dml_obs.Metrics.counter "cache.stores"

let find t ~digest ~method_ ~tier =
  let t0 = Dml_obs.Clock.now () in
  Dml_obs.Metrics.incr m_lookups;
  let result =
    match Store.find t.store (key ~digest ~method_) with
    | None -> None
    | Some (e, origin) ->
        (* a definitive verdict is budget-independent; a circumstantial one
           only tells us what happens with at most the cached resources *)
        if definitive e.Store.e_verdict || tier <= e.Store.e_tier then begin
          if origin = `Disk then begin
            t.disk_hits <- t.disk_hits + 1;
            Dml_obs.Metrics.incr m_disk_hits
          end;
          Some e.Store.e_verdict
        end
        else None
  in
  t.lookup_time <- t.lookup_time +. (Dml_obs.Clock.now () -. t0);
  (match result with
  | None ->
      t.misses <- t.misses + 1;
      Dml_obs.Metrics.incr m_misses
  | Some _ ->
      t.hits <- t.hits + 1;
      Dml_obs.Metrics.incr m_hits);
  result

let add t ~digest ~method_ ~tier verdict =
  let k = key ~digest ~method_ in
  let keep_existing =
    match Store.peek t.store k with
    | None -> false
    | Some e ->
        (* never downgrade: a definitive verdict survives circumstantial
           ones, and among circumstantial verdicts the larger budget wins *)
        (definitive e.Store.e_verdict && not (definitive verdict))
        || ((not (definitive e.Store.e_verdict)) && not (definitive verdict)
           && e.Store.e_tier >= tier)
  in
  if not keep_existing then begin
    Store.add t.store k { Store.e_tier = tier; e_verdict = verdict };
    t.stores <- t.stores + 1;
    Dml_obs.Metrics.incr m_stores
  end

let snapshot t =
  {
    s_hits = t.hits;
    s_disk_hits = t.disk_hits;
    s_misses = t.misses;
    s_stores = t.stores;
    s_evictions = Store.evictions t.store;
    s_corrupt = Store.corrupt_entries t.store;
    s_quarantined = Store.quarantined t.store;
    s_disk_evictions = Store.disk_evictions t.store;
    s_entries = Store.size t.store;
    s_lookup_time = t.lookup_time;
    s_persist_time = Store.persist_time t.store;
  }

let diff later earlier =
  {
    s_hits = later.s_hits - earlier.s_hits;
    s_disk_hits = later.s_disk_hits - earlier.s_disk_hits;
    s_misses = later.s_misses - earlier.s_misses;
    s_stores = later.s_stores - earlier.s_stores;
    s_evictions = later.s_evictions - earlier.s_evictions;
    s_corrupt = later.s_corrupt - earlier.s_corrupt;
    s_quarantined = later.s_quarantined - earlier.s_quarantined;
    s_disk_evictions = later.s_disk_evictions - earlier.s_disk_evictions;
    s_entries = later.s_entries;
    s_lookup_time = later.s_lookup_time -. earlier.s_lookup_time;
    s_persist_time = later.s_persist_time -. earlier.s_persist_time;
  }

let pp_snapshot fmt s =
  Format.fprintf fmt
    "hits: %d (%d from disk), misses: %d, stores: %d, evictions: %d, entries: %d%s%s, \
     lookup: %.4fs, persist: %.4fs"
    s.s_hits s.s_disk_hits s.s_misses s.s_stores s.s_evictions s.s_entries
    (if s.s_corrupt > 0 then
       Printf.sprintf ", corrupt: %d (%d quarantined)" s.s_corrupt s.s_quarantined
     else "")
    (if s.s_disk_evictions > 0 then Printf.sprintf ", disk evictions: %d" s.s_disk_evictions
     else "")
    s.s_lookup_time s.s_persist_time

let snapshot_to_json s =
  Dml_obs.Json.Obj
    [
      ("hits", Dml_obs.Json.Int s.s_hits);
      ("disk_hits", Dml_obs.Json.Int s.s_disk_hits);
      ("misses", Dml_obs.Json.Int s.s_misses);
      ("stores", Dml_obs.Json.Int s.s_stores);
      ("evictions", Dml_obs.Json.Int s.s_evictions);
      ("corrupt", Dml_obs.Json.Int s.s_corrupt);
      ("quarantined", Dml_obs.Json.Int s.s_quarantined);
      ("disk_evictions", Dml_obs.Json.Int s.s_disk_evictions);
      ("entries", Dml_obs.Json.Int s.s_entries);
      ("lookup_s", Dml_obs.Json.Float s.s_lookup_time);
      ("persist_s", Dml_obs.Json.Float s.s_persist_time);
    ]

let config_to_json c =
  Dml_obs.Json.Obj
    [ ("dir", match c.dir with None -> Dml_obs.Json.Null | Some d -> Dml_obs.Json.String d) ]

let digest_goal = Canon.digest
