(** Shared infrastructure for optimization passes: operand substitution,
    fresh variables, structural rebuilding, and effect/purity queries. *)

open Parad_ir

type ctx = { mutable next : int }

let ctx_of (f : Func.t) = { next = f.var_count }

let fresh ctx ty name =
  let v = Var.make ~id:ctx.next ~ty ~name in
  ctx.next <- ctx.next + 1;
  v

(* Apply a variable substitution to every operand of an instruction
   (regions are NOT entered — callers recurse explicitly). An instruction
   whose operands all map to themselves is returned as is. *)
let rec map_vars s vs =
  match vs with
  | [] -> vs
  | v :: rest ->
    let v' = s v and rest' = map_vars s rest in
    if v' == v && rest' == rest then vs else v' :: rest'

let map_uses (s : Var.t -> Var.t) (i : Instr.t) : Instr.t =
  let open Instr in
  match i with
  | Const _ | While _ | Barrier | Return None -> i
  | Bin (v, op, a, b) ->
    let a' = s a and b' = s b in
    if a' == a && b' == b then i else Bin (v, op, a', b')
  | Cmp (v, op, a, b) ->
    let a' = s a and b' = s b in
    if a' == a && b' == b then i else Cmp (v, op, a', b')
  | Un (v, op, a) ->
    let a' = s a in
    if a' == a then i else Un (v, op, a')
  | Select (v, c, a, b) ->
    let c' = s c and a' = s a and b' = s b in
    if c' == c && a' == a && b' == b then i else Select (v, c', a', b')
  | Alloc (v, t, n, k) ->
    let n' = s n in
    if n' == n then i else Alloc (v, t, n', k)
  | Free p ->
    let p' = s p in
    if p' == p then i else Free p'
  | Load (v, p, ix) ->
    let p' = s p and ix' = s ix in
    if p' == p && ix' == ix then i else Load (v, p', ix')
  | Store (p, ix, x) ->
    let p' = s p and ix' = s ix and x' = s x in
    if p' == p && ix' == ix && x' == x then i else Store (p', ix', x')
  | Gep (v, p, ix) ->
    let p' = s p and ix' = s ix in
    if p' == p && ix' == ix then i else Gep (v, p', ix')
  | AtomicAdd (p, ix, x) ->
    let p' = s p and ix' = s ix and x' = s x in
    if p' == p && ix' == ix && x' == x then i else AtomicAdd (p', ix', x')
  | Call (v, f, args) ->
    let args' = map_vars s args in
    if args' == args then i else Call (v, f, args')
  | Spawn (v, f, args) ->
    let args' = map_vars s args in
    if args' == args then i else Spawn (v, f, args')
  | Sync h ->
    let h' = s h in
    if h' == h then i else Sync h'
  | If (rs, c, t, e) ->
    let c' = s c in
    if c' == c then i else If (rs, c', t, e)
  | For r ->
    let lo = s r.lo and hi = s r.hi and step = s r.step in
    if lo == r.lo && hi == r.hi && step == r.step then i
    else For { r with lo; hi; step }
  | Fork r ->
    let nth = s r.nth in
    if nth == r.nth then i else Fork { r with nth }
  | Workshare r ->
    let lo = s r.lo and hi = s r.hi in
    if lo == r.lo && hi == r.hi then i else Workshare { r with lo; hi }
  | Return (Some v) ->
    let v' = s v in
    if v' == v then i else Return (Some v')
  | Yield vs ->
    let vs' = map_vars s vs in
    if vs' == vs then i else Yield vs'

(* Replace sub-regions wholesale. *)
let with_regions (i : Instr.t) (rs : Instr.region list) : Instr.t =
  let open Instr in
  match i, rs with
  | If (res, c, _, _), [ t; e ] -> If (res, c, t, e)
  | For r, [ body ] -> For { r with body }
  | While _, [ cond; body ] -> While { cond; body }
  | Fork r, [ body ] -> Fork { r with body }
  | Workshare r, [ body ] -> Workshare { r with body }
  | _, [] -> i
  | _ -> invalid_arg "with_regions: arity mismatch"

(* Recursively apply a substitution everywhere (operands at all depths). *)
let rec subst_deep (s : Var.t -> Var.t) (instrs : Instr.t list) =
  List.map
    (fun i ->
      let i = map_uses s i in
      let rs =
        List.map
          (fun (r : Instr.region) -> { r with Instr.body = subst_deep s r.body })
          (Instr.regions i)
      in
      with_regions i rs)
    instrs

(* The substitution a pass accumulates while deleting instructions: a
   removed variable maps to the one that replaces it. [apply] skips the
   final whole-body rewrite when nothing was ever recorded. *)
type subst = { alias : Var.t Vtbl.t; mutable recorded : bool }

let subst_create (f : Func.t) = { alias = Vtbl.create f.var_count; recorded = false }

let alias s v target =
  Vtbl.replace s.alias (Var.id v) target;
  s.recorded <- true

let unalias s v = Vtbl.remove s.alias (Var.id v)

let rec resolve s v =
  match Vtbl.find_opt s.alias (Var.id v) with
  | Some v' -> resolve s v'
  | None -> v

let apply s body = if s.recorded then subst_deep (resolve s) body else body

(* Pure instructions: no side effects, freely removable / movable
   (integer division excluded: it can trap). *)
let pure (i : Instr.t) =
  let open Instr in
  match i with
  | Const _ | Cmp _ | Select _ | Gep _ -> true
  | Bin (v, (Div | Rem), _, _) -> Ty.equal (Var.ty v) Ty.Float
  | Bin _ -> true
  | Un _ -> true
  | Call (_, ("mpi.rank" | "mpi.size" | "omp.max_threads"), _) -> true
  | _ -> false

(* Instructions with observable effects that must be preserved even if
   their results are unused. *)
let rec has_effects (i : Instr.t) =
  let open Instr in
  match i with
  | Store _ | AtomicAdd _ | Free _ | Spawn _ | Sync _ | Barrier | Return _
  | Yield _ -> true
  | Call _ -> not (pure i)
  | Alloc _ -> false
  | Load _ -> false
  | Const _ | Bin _ | Cmp _ | Un _ | Select _ | Gep _ -> false
  | If (_, _, t, e) ->
    List.exists has_effects t.body || List.exists has_effects e.body
  | For { body; _ } -> List.exists has_effects body.body
  | While { cond; body } ->
    List.exists has_effects cond.body || List.exists has_effects body.body
  | Fork { body; _ } -> List.exists has_effects body.body
  | Workshare { body; _ } -> List.exists has_effects body.body

(* Does this instruction (or any nested one) write memory or synchronize?
   Used to decide whether loads can move across it. *)
let rec clobbers (i : Instr.t) =
  let open Instr in
  match i with
  | Store _ | AtomicAdd _ | Free _ | Spawn _ | Sync _ | Barrier -> true
  | Call (_, n, _) ->
    not
      (List.mem n [ "mpi.rank"; "mpi.size"; "omp.max_threads"; "cache.get" ])
  | Const _ | Bin _ | Cmp _ | Un _ | Select _ | Gep _ | Alloc _ | Load _
  | Return _ | Yield _ -> false
  | If (_, _, t, e) ->
    List.exists clobbers t.body || List.exists clobbers e.body
  | For { body; _ } -> List.exists clobbers body.body
  | While { cond; body } ->
    List.exists clobbers cond.body || List.exists clobbers body.body
  | Fork { body; _ } -> List.exists clobbers body.body
  | Workshare { body; _ } -> List.exists clobbers body.body
