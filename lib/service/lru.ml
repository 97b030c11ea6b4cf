(** Bounded LRU cache — see the interface. *)

type 'v node = {
  mutable key : string;
  mutable value : 'v;
  mutable prev : 'v node option;  (** toward most-recent *)
  mutable next : 'v node option;  (** toward least-recent *)
}

type 'v t = {
  capacity : int;
  tbl : (string, 'v node) Hashtbl.t;
  mutable head : 'v node option;  (** most recently used *)
  mutable tail : 'v node option;  (** least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable removed : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  removed : int;
  size : int;
  capacity : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  {
    capacity;
    tbl = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    removed = 0;
  }

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some nx -> nx.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let find (t : _ t) key =
  match Hashtbl.find_opt t.tbl key with
  | Some node ->
    t.hits <- t.hits + 1;
    unlink t node;
    push_front t node;
    Some node.value
  | None ->
    t.misses <- t.misses + 1;
    None

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some lru ->
    unlink t lru;
    Hashtbl.remove t.tbl lru.key;
    t.evictions <- t.evictions + 1

let add (t : _ t) key value =
  if t.capacity > 0 then begin
    (match Hashtbl.find_opt t.tbl key with
    | Some node ->
      node.value <- value;
      unlink t node;
      push_front t node
    | None ->
      let node = { key; value; prev = None; next = None } in
      Hashtbl.add t.tbl key node;
      push_front t node);
    while Hashtbl.length t.tbl > t.capacity do
      evict_lru t
    done
  end

let mem (t : _ t) key = Hashtbl.mem t.tbl key

(* Nodes matching the predicate, least-recent first so that re-keyed
   survivors keep their relative recency when callers re-insert. The
   snapshot makes the subsequent mutation safe. *)
let matching_nodes t p =
  let rec walk acc = function
    | None -> acc
    | Some node ->
      walk (if p node.key node.value then node :: acc else acc) node.prev
  in
  walk [] t.tail |> List.rev

let drop_node t node =
  unlink t node;
  Hashtbl.remove t.tbl node.key;
  t.removed <- t.removed + 1

let remove_if (t : _ t) p =
  let victims = matching_nodes t p in
  List.iter (drop_node t) victims;
  List.length victims

let remap (t : _ t) ~prefix f =
  let nodes =
    matching_nodes t (fun key _ -> String.starts_with ~prefix key)
  in
  let kept = ref 0 and removed = ref 0 in
  List.iter
    (fun node ->
      match f node.key node.value with
      | None -> drop_node t node; incr removed
      | Some (key', value') ->
        if key' <> node.key && Hashtbl.mem t.tbl key' then begin
          (* The target key is already live (a KB cycle re-keying onto
             itself): the resident entry wins, the stale one goes. *)
          drop_node t node;
          incr removed
        end
        else begin
          Hashtbl.remove t.tbl node.key;
          node.key <- key';
          node.value <- value';
          Hashtbl.add t.tbl key' node;
          incr kept
        end)
    nodes;
  (!kept, !removed)

let stats (t : _ t) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    removed = t.removed;
    size = Hashtbl.length t.tbl;
    capacity = t.capacity;
  }

(* The mutex-guarded wrapper: every operation — including [find], which
   rewires the recency list and bumps counters — runs under one lock.
   Coarse by design: operations are O(1) hash/list work, so the lock is
   held for nanoseconds and a sharded scheme would buy nothing. *)
module Sync = struct
  type nonrec 'v t = { m : Mutex.t; c : 'v t }

  let create ~capacity = { m = Mutex.create (); c = create ~capacity }
  let find t key = Mutex.protect t.m (fun () -> find t.c key)
  let add t key value = Mutex.protect t.m (fun () -> add t.c key value)
  let remove_if t p = Mutex.protect t.m (fun () -> remove_if t.c p)
  let remap t ~prefix f = Mutex.protect t.m (fun () -> remap t.c ~prefix f)
  let stats t = Mutex.protect t.m (fun () -> stats t.c)
end
