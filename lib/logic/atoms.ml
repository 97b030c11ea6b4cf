(** Atoms of a unary vocabulary (Section 6).

    Given unary predicates [P_1, …, P_k], an *atom* is a maximal
    consistent conjunction [±P_1(x) ∧ … ∧ ±P_k(x)]. A world's
    statistical content, for a unary knowledge base, is exactly the
    vector of atom proportions, which is why degrees of belief for
    unary KBs reduce to reasoning over the [2^k]-simplex.

    Atoms are encoded as bitmasks: bit [j] set means [P_j] holds, with
    predicates ordered alphabetically.

    This module also provides the small propositional reasoner used by
    the syntactic rule engine: a boolean combination of unary
    predicates (applied to a single variable or constant) denotes the
    set of atoms satisfying it, and entailment between such formulas —
    possibly modulo a background theory of universal facts — is bitset
    inclusion. *)

open Syntax

type universe = { preds : string array (* sorted *) }

let max_preds = 16

(** [universe preds] fixes the atom universe for a list of unary
    predicate names. Raises [Invalid_argument] beyond {!max_preds}
    predicates (2^k atoms would be unreasonable). *)
let universe preds =
  let preds = List.sort_uniq String.compare preds in
  if List.length preds > max_preds then
    invalid_arg "Atoms.universe: too many predicates"
  else { preds = Array.of_list preds }

let num_preds u = Array.length u.preds
let num_atoms u = 1 lsl num_preds u
let predicates u = Array.to_list u.preds

let pred_index u p =
  let rec go i =
    if i >= Array.length u.preds then None
    else if u.preds.(i) = p then Some i
    else go (i + 1)
  in
  go 0

(** [atom_satisfies u atom p] is whether predicate [p] holds in [atom]. *)
let atom_satisfies u atom p =
  match pred_index u p with
  | Some j -> atom land (1 lsl j) <> 0
  | None -> invalid_arg (Printf.sprintf "Atoms.atom_satisfies: unknown predicate %s" p)

(** [project u ~onto] maps an atom of [u] to the atom of [onto] that
    agrees with it on [onto]'s predicates. *)
let project u ~onto =
  let bits = Array.map (fun p -> 1 lsl Option.get (pred_index u p)) onto.preds in
  fun atom ->
    let r = ref 0 in
    Array.iteri (fun i b -> if atom land b <> 0 then r := !r lor (1 lsl i)) bits;
    !r

(* ------------------------------------------------------------------ *)
(* Atom sets                                                          *)
(* ------------------------------------------------------------------ *)

(** Sets of atoms, as width-aware bitsets (a plain [int] bitmask would
    silently overflow beyond 62 atoms, i.e. 6 predicates). *)
module Set = struct
  let bits_per_cell = 62

  type t = { width : int; cells : int array }

  let create width =
    { width; cells = Array.make ((width + bits_per_cell - 1) / bits_per_cell) 0 }

  let full width =
    let t = create width in
    for a = 0 to width - 1 do
      let c = a / bits_per_cell and b = a mod bits_per_cell in
      t.cells.(c) <- t.cells.(c) lor (1 lsl b)
    done;
    t

  let check_same a b =
    if a.width <> b.width then invalid_arg "Atoms.Set: width mismatch"

  let mem t a =
    if a < 0 || a >= t.width then false
    else t.cells.(a / bits_per_cell) land (1 lsl (a mod bits_per_cell)) <> 0

  let add t a =
    if a < 0 || a >= t.width then invalid_arg "Atoms.Set.add: out of range"
    else begin
      let cells = Array.copy t.cells in
      cells.(a / bits_per_cell) <-
        cells.(a / bits_per_cell) lor (1 lsl (a mod bits_per_cell));
      { t with cells }
    end

  let inter a b =
    check_same a b;
    { a with cells = Array.mapi (fun i x -> x land b.cells.(i)) a.cells }

  let union a b =
    check_same a b;
    { a with cells = Array.mapi (fun i x -> x lor b.cells.(i)) a.cells }

  (** [diff a b] — atoms in [a] but not [b]. *)
  let diff a b =
    check_same a b;
    { a with cells = Array.mapi (fun i x -> x land lnot b.cells.(i)) a.cells }

  let complement a = diff (full a.width) a

  let is_empty a = Array.for_all (fun x -> x = 0) a.cells

  (** [subset a b] — [a ⊆ b]. *)
  let subset a b = is_empty (diff a b)

  let equal a b = a.width = b.width && a.cells = b.cells

  let members a =
    List.filter (mem a) (List.init a.width Fun.id)

  let cardinal a = List.length (members a)

  let of_list width atoms = List.fold_left add (create width) atoms
end

exception Not_boolean of formula
(** Raised when a formula is not a boolean combination of unary
    predicates over the expected subject term. *)

(* Check whether [f] is a boolean combination of unary predicate
   applications to the term [subject], and evaluate it at [atom]. *)
let rec eval_at u ~subject atom f =
  match f with
  | True -> true
  | False -> false
  | Pred (p, [ t ]) when t = subject -> atom_satisfies u atom p
  | Not g -> not (eval_at u ~subject atom g)
  | And (g, h) -> eval_at u ~subject atom g && eval_at u ~subject atom h
  | Or (g, h) -> eval_at u ~subject atom g || eval_at u ~subject atom h
  | Implies (g, h) -> (not (eval_at u ~subject atom g)) || eval_at u ~subject atom h
  | Iff (g, h) -> eval_at u ~subject atom g = eval_at u ~subject atom h
  | Pred _ | Eq _ | Forall _ | Exists _ | Compare _ -> raise (Not_boolean f)

(** [is_boolean_over u ~subject f] recognises boolean combinations of
    unary predicates of [u] applied to [subject]: a structural check of
    every leaf, so it holds exactly where {!eval_at} is total. *)
let rec is_boolean_over u ~subject f =
  match f with
  | True | False -> true
  | Pred (p, [ t ]) -> t = subject && pred_index u p <> None
  | Not g -> is_boolean_over u ~subject g
  | And (g, h) | Or (g, h) | Implies (g, h) | Iff (g, h) ->
    is_boolean_over u ~subject g && is_boolean_over u ~subject h
  | Pred _ | Eq _ | Forall _ | Exists _ | Compare _ -> false

(** [extension u ~subject f] is the set of atoms satisfying the
    boolean combination [f].

    @raise Not_boolean if [f] is not a boolean combination over
    [subject]. *)
let extension u ~subject f =
  let n = num_atoms u in
  let sats = List.filter (fun a -> eval_at u ~subject a f) (List.init n Fun.id) in
  Set.of_list n sats

(** [extension_var u x f] — extension with a variable subject. *)
let extension_var u x f = extension u ~subject:(Var x) f

let full_set u = Set.full (num_atoms u)

(** A background theory: the conjunction of universal facts
    [∀x β_i(x)] restricts the atoms that can be non-empty. [theory u
    fs] is the set of atoms consistent with all the [β_i]. Each
    [f ∈ fs] must be of the form [Forall (x, β)] with [β] boolean over
    [x]. *)
let theory u fs =
  List.fold_left
    (fun acc f ->
      match f with
      | Forall (x, body) -> Set.inter acc (extension_var u x body)
      | _ -> invalid_arg "Atoms.theory: expected a universal fact")
    (full_set u) fs

(** [entails ~theory u f g] decides [T ⊨ ∀x (f ⇒ g)] for boolean
    combinations [f], [g] over the variable [x]: every atom allowed by
    the theory and satisfying [f] satisfies [g]. *)
let entails ?theory u x f g =
  let ef = extension_var u x f in
  let ef = match theory with Some t -> Set.inter ef t | None -> ef in
  Set.subset ef (extension_var u x g)

(** [disjoint ~theory u x f g] decides [T ⊨ ∀x (f ⇒ ¬g)]. *)
let disjoint ?theory u x f g =
  let s = Set.inter (extension_var u x f) (extension_var u x g) in
  let s = match theory with Some t -> Set.inter s t | None -> s in
  Set.is_empty s

(** [equivalent ~theory u x f g] decides extensional equality under the
    theory. *)
let equivalent ?theory u x f g =
  let ef = extension_var u x f and eg = extension_var u x g in
  match theory with
  | Some t -> Set.equal (Set.inter ef t) (Set.inter eg t)
  | None -> Set.equal ef eg

(** [members u set] lists the atom indices in a set (the universe
    argument is kept for call-site uniformity). *)
let members u set =
  ignore (num_atoms u);
  Set.members set

let pp_atom u ppf atom =
  let parts =
    List.mapi
      (fun j p -> if atom land (1 lsl j) <> 0 then p else "~" ^ p)
      (predicates u)
  in
  Fmt.pf ppf "%s" (String.concat "&" parts)
