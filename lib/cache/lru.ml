type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;  (* towards the most recent end *)
  mutable next : ('k, 'v) node option;  (* towards the least recent end *)
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable mru : ('k, 'v) node option;
  mutable lru : ('k, 'v) node option;
  mutable evictions : int;
}

let create capacity =
  {
    capacity;
    table = Hashtbl.create (if capacity > 0 then min capacity 256 else 256);
    mru = None;
    lru = None;
    evictions = 0;
  }

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.mru <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.lru <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.mru;
  (match t.mru with Some m -> m.prev <- Some n | None -> t.lru <- Some n);
  t.mru <- Some n

let touch t n =
  match t.mru with
  | Some m when m == n -> ()
  | _ ->
      unlink t n;
      push_front t n

let find t k =
  match Hashtbl.find_opt t.table k with
  | Some n ->
      touch t n;
      Some n.value
  | None -> None

let peek t k = Option.map (fun n -> n.value) (Hashtbl.find_opt t.table k)

let rec trim t n =
  match t.lru with
  | Some oldest when Hashtbl.length t.table > n ->
      unlink t oldest;
      Hashtbl.remove t.table oldest.key;
      t.evictions <- t.evictions + 1;
      trim t n
  | _ -> ()

let add t k v =
  match Hashtbl.find_opt t.table k with
  | Some n ->
      n.value <- v;
      touch t n
  | None -> (
      let n = { key = k; value = v; prev = None; next = None } in
      Hashtbl.replace t.table k n;
      push_front t n;
      if t.capacity > 0 then trim t t.capacity)

let length t = Hashtbl.length t.table
let evictions t = t.evictions
