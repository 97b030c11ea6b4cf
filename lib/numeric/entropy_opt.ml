(** Entropy maximisation over the probability simplex subject to linear
    constraints.

    This is the numeric core of Section 6 of the paper: a unary
    knowledge base induces linear constraints on the vector of atom
    proportions, and degrees of belief concentrate at the
    maximum-entropy point of the constrained set.

    One solver covers every system: projected Newton on the convex
    dual. The maximum-entropy point has the exponential-family form
    [p_A ∝ exp(−(aᵀλ)_A)], so the problem reduces to minimising

      F(λ) = log Σ_{A ∉ Z} exp(−(aᵀλ)_A) + λ·b

    over [m] multipliers, where [Z] is the set of coordinates pinned to
    zero by an [Eq (a, 0)] row with one-signed [a]. [Le] rows carry
    [λ_j ≥ 0]; every other [Eq] row carries a free multiplier. The
    gradient of [F] is [b − a·p] and its Hessian is the covariance of
    the constraint rows under [p], an [m × m] matrix with [m] in the
    single digits for the paper's knowledge bases, so each step is a
    tiny dense Cholesky solve and convergence is quadratic. The primal
    point is recovered in closed form, accurate to near machine
    precision — which matters when later computations condition on sets
    whose mass is of the order of the tolerances.

    Constraints are affine in the proportion vector [p]:
    - [Eq (a, b)]: [a·p = b]
    - [Le (a, b)]: [a·p <= b]
    The simplex constraints ([p >= 0], [Σp = 1]) are implicit. *)

type constraint_ = Eq of Vec.t * float | Le of Vec.t * float

type result = {
  point : Vec.t;  (** the maximum-entropy point found *)
  entropy : float;  (** its entropy *)
  max_violation : float;  (** worst constraint violation at [point] *)
  multipliers : float array;
      (** the dual multiplier of each constraint, in order; 0 for a
          zero-pinning row, which is eliminated rather than priced *)
  iterations : int;  (** Newton iterations used *)
}

let constraint_dim = function Eq (a, _) | Le (a, _) -> Vec.dim a

(** [violation c p] is how far [p] is from satisfying [c] (0 when
    satisfied; equality violations are absolute values). *)
let violation c (p : Vec.t) =
  match c with
  | Eq (a, b) -> Float.abs (Vec.dot a p -. b)
  | Le (a, b) -> Float.max 0.0 (Vec.dot a p -. b)

let max_violation cs p =
  List.fold_left (fun m c -> Float.max m (violation c p)) 0.0 cs

(* An infeasible system has an unbounded dual, so the iteration cap is
   what ends its solve; feasible ones converge in a few dozen steps. *)
let max_iters = 200

(* Solves [h x = r] in place for a symmetric positive-definite [h],
   which is overwritten by its lower Cholesky factor; [false] when a
   pivot is not positive. *)
let cholesky_solve h r =
  let n = Array.length r in
  match
    for j = 0 to n - 1 do
      for i = j to n - 1 do
        let s = ref h.(i).(j) in
        for k = 0 to j - 1 do
          s := !s -. (h.(i).(k) *. h.(j).(k))
        done;
        if i > j then h.(i).(j) <- !s /. h.(j).(j)
        else if !s <= 0.0 then raise Exit
        else h.(j).(j) <- Float.sqrt !s
      done
    done
  with
  | exception Exit -> false
  | () ->
    for i = 0 to n - 1 do
      for k = 0 to i - 1 do
        r.(i) <- r.(i) -. (h.(i).(k) *. r.(k))
      done;
      r.(i) <- r.(i) /. h.(i).(i)
    done;
    for i = n - 1 downto 0 do
      for k = i + 1 to n - 1 do
        r.(i) <- r.(i) -. (h.(k).(i) *. r.(k))
      done;
      r.(i) <- r.(i) /. h.(i).(i)
    done;
    true

(* Projected Newton on the dual. [rows.(j)] is constraint [j]'s row
   restricted to the live atoms, [bs.(j)] its bound and [signed.(j)]
   whether its multiplier is projected onto [λ_j ≥ 0]. Returns the live
   point, the multipliers and the iterations used. *)
let newton rows bs signed nl =
  let m = Array.length rows in
  let p = Array.make nl 0.0 and ap = Array.make m 0.0 in
  (* Sets [p] and [ap] (= a·p) for [lambda]; returns F(λ). *)
  let eval lambda =
    let mx = ref Float.neg_infinity in
    for k = 0 to nl - 1 do
      let s = ref 0.0 in
      for j = 0 to m - 1 do
        s := !s +. (lambda.(j) *. rows.(j).(k))
      done;
      p.(k) <- -. !s;
      mx := Float.max !mx p.(k)
    done;
    let z = ref 0.0 in
    for k = 0 to nl - 1 do
      p.(k) <- Float.exp (p.(k) -. !mx);
      z := !z +. p.(k)
    done;
    for k = 0 to nl - 1 do
      p.(k) <- p.(k) /. !z
    done;
    let f = ref (!mx +. Float.log !z) in
    for j = 0 to m - 1 do
      let s = ref 0.0 in
      for k = 0 to nl - 1 do
        s := !s +. (rows.(j).(k) *. p.(k))
      done;
      ap.(j) <- !s;
      f := !f +. (lambda.(j) *. bs.(j))
    done;
    !f
  in
  (* KKT residual: gradient components that are not excused by an
     active bound. *)
  let residual lambda =
    let r = ref 0.0 in
    for j = 0 to m - 1 do
      let g = bs.(j) -. ap.(j) in
      let rj =
        if signed.(j) && lambda.(j) <= 0.0 then Float.max 0.0 (-.g)
        else Float.abs g
      in
      r := Float.max !r rj
    done;
    !r
  in
  let lambda = Array.make m 0.0 in
  let f = ref (eval lambda) in
  let res = ref (residual lambda) in
  let iters = ref 0 and stop = ref false in
  while (not !stop) && !iters < max_iters && !res > 1e-15 do
    (* The service's request budget: the solve is the costliest step
       of a maxent dispatch, so it polls like the other engines. *)
    Rw_pool.Budget.check ();
    incr iters;
    let g = Array.init m (fun j -> bs.(j) -. ap.(j)) in
    (* Hessian = covariance of the rows under p, centred for accuracy. *)
    let c =
      Array.init m (fun j -> Array.init nl (fun k -> rows.(j).(k) -. ap.(j)))
    in
    let hess j l =
      let s = ref 0.0 in
      for k = 0 to nl - 1 do
        s := !s +. (p.(k) *. c.(j).(k) *. c.(l).(k))
      done;
      !s
    in
    let hfull = Array.make_matrix m m 0.0 in
    for j = 0 to m - 1 do
      for l = 0 to j do
        let v = hess j l in
        hfull.(j).(l) <- v;
        hfull.(l).(j) <- v
      done
    done;
    (* A bound at zero whose gradient pushes outward stays fixed. *)
    let fixed =
      Array.init m (fun j -> signed.(j) && lambda.(j) <= 0.0 && g.(j) > 0.0)
    in
    (* Newton direction on the free block; a free multiplier at its
       bound that the step would push below zero joins the fixed set,
       so the direction is feasible and a descent direction. *)
    let rec direction () =
      let free =
        Array.of_list (List.filter (fun j -> not fixed.(j)) (List.init m Fun.id))
      in
      let nf = Array.length free in
      let d = Array.make m 0.0 in
      if nf > 0 then begin
        let scale = ref 0.0 in
        Array.iter (fun j -> scale := Float.max !scale hfull.(j).(j)) free;
        let rec attempt reg =
          let h =
            Array.init nf (fun a ->
                Array.init nf (fun b ->
                    hfull.(free.(a)).(free.(b)) +. if a = b then reg else 0.0))
          in
          let r = Array.map (fun j -> -.g.(j)) free in
          if cholesky_solve h r then r else attempt (reg *. 100.0)
        in
        let x = attempt (1e-12 *. Float.max !scale 1e-300) in
        Array.iteri (fun a j -> d.(j) <- x.(a)) free
      end;
      let blocked = ref false in
      Array.iteri
        (fun j dj ->
          if signed.(j) && lambda.(j) <= 0.0 && (not fixed.(j)) && dj < 0.0
          then begin
            fixed.(j) <- true;
            blocked := true
          end)
        d;
      if !blocked then direction () else d
    in
    let d = direction () in
    (* Armijo backtracking along the projected path. Near the optimum
       the decrease in F falls below its rounding, so a step that halves
       the KKT residual without raising F is accepted too. *)
    let rec search t =
      if t < 1e-20 then None
      else begin
        let cand =
          Array.init m (fun j ->
              let x = lambda.(j) +. (t *. d.(j)) in
              if signed.(j) then Float.max 0.0 x else x)
        in
        let fc = eval cand in
        let decrease = ref 0.0 in
        Array.iteri
          (fun j x -> decrease := !decrease +. (g.(j) *. (x -. lambda.(j))))
          cand;
        let rc = residual cand in
        if Float.is_finite fc
           && (fc <= !f +. (1e-4 *. !decrease)
              || (fc <= !f +. (1e-15 *. (1.0 +. Float.abs !f))
                 && rc <= 0.5 *. !res))
        then Some (cand, fc, rc)
        else search (t /. 2.0)
      end
    in
    match search 1.0 with
    | Some (cand, fc, rc) ->
      Array.blit cand 0 lambda 0 m;
      f := fc;
      res := rc
    | None -> stop := true
  done;
  (* [p] must describe the accepted [lambda], not the last rejected
     candidate of a failed search. *)
  ignore (eval lambda);
  (p, lambda, !iters)

(** [solve ~dim cs] maximises entropy over the simplex of dimension
    [dim] subject to [cs].

    Raises [Invalid_argument] if a constraint has the wrong dimension. *)
let solve ~dim cs =
  List.iter
    (fun c ->
      if constraint_dim c <> dim then
        invalid_arg "Entropy_opt.solve: constraint dimension mismatch")
    cs;
  let zero = Array.make dim false in
  (* Constraint index, row, bound and sign of each priced row. *)
  let priced =
    List.concat
      (List.mapi
         (fun i c ->
           match c with
           | Eq (a, 0.0)
             when Array.for_all (fun x -> x >= 0.0) a
                  || Array.for_all (fun x -> x <= 0.0) a ->
             Array.iteri (fun k x -> if x <> 0.0 then zero.(k) <- true) a;
             []
           | Eq (a, b) -> [ (i, a, b, false) ]
           | Le (a, b) -> [ (i, a, b, true) ])
         cs)
    |> Array.of_list
  in
  let live_idx =
    Array.of_list (List.filter (fun i -> not zero.(i)) (List.init dim Fun.id))
  in
  let multipliers = Array.make (List.length cs) 0.0 in
  let nl = Array.length live_idx in
  let point, iterations =
    if nl = 0 then
      (* Every atom is pinned to zero: no distribution satisfies the
         system, and the uniform point reports the violation. *)
      (Vec.create dim (1.0 /. float_of_int dim), 0)
    else begin
      let rows =
        Array.map (fun (_, a, _, _) -> Array.map (fun i -> a.(i)) live_idx) priced
      in
      let bs = Array.map (fun (_, _, b, _) -> b) priced in
      let signed = Array.map (fun (_, _, _, s) -> s) priced in
      let pl, lambda, iters = newton rows bs signed nl in
      Array.iteri (fun j (i, _, _, _) -> multipliers.(i) <- lambda.(j)) priced;
      let p = Vec.create dim 0.0 in
      Array.iteri (fun k i -> p.(i) <- pl.(k)) live_idx;
      (p, iters)
    end
  in
  {
    point;
    entropy = Vec.entropy point;
    max_violation = max_violation cs point;
    multipliers;
    iterations;
  }

(** [solve_feasible ~dim cs] is {!solve}, raising [Failure] when the
    result violates a constraint by more than [feas_tol] — used by
    callers that must distinguish "inconsistent KB" from a numeric
    answer. *)
let solve_feasible ?(feas_tol = 1e-7) ~dim cs =
  let r = solve ~dim cs in
  if r.max_violation > feas_tol then
    failwith
      (Printf.sprintf
         "Entropy_opt.solve_feasible: infeasible (violation %.3g)"
         r.max_violation)
  else r
