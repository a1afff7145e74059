(** Scalar and loop optimization passes: constant folding with algebraic
    simplification, common-subexpression elimination, dead-code
    elimination, and loop-invariant code motion (including loads when the
    loop body is store-free).

    Running these *before* differentiation shrinks both the primal and the
    generated adjoint (paper §V-E); the benchmark harness measures that
    ablation. *)

open Parad_ir
open Rewrite

(* ---- constant folding + algebraic simplification ---- *)

type cval = CI of int | CF of float | CB of bool

let fold_func (f : Func.t) : Func.t =
  let consts : cval Vtbl.t = Vtbl.create f.var_count in
  let subst = subst_create f in
  let sub = resolve subst in
  let cv v = Vtbl.find_opt consts (Var.id (sub v)) in
  let rec go instrs =
    List.filter_map
      (fun i ->
        let i = map_uses sub i in
        let open Instr in
        let keep_const v c k =
          Vtbl.replace consts (Var.id v) k;
          Some (Const (v, c))
        in
        match i with
        | Const (v, Cint x) ->
          Vtbl.replace consts (Var.id v) (CI x);
          Some i
        | Const (v, Cfloat x) ->
          Vtbl.replace consts (Var.id v) (CF x);
          Some i
        | Const (v, Cbool x) ->
          Vtbl.replace consts (Var.id v) (CB x);
          Some i
        | Bin (v, op, a, b) -> (
          match op, cv a, cv b with
          | Add, Some (CI x), Some (CI y) -> keep_const v (Cint (x + y)) (CI (x + y))
          | Sub, Some (CI x), Some (CI y) -> keep_const v (Cint (x - y)) (CI (x - y))
          | Mul, Some (CI x), Some (CI y) -> keep_const v (Cint (x * y)) (CI (x * y))
          | Min, Some (CI x), Some (CI y) ->
            keep_const v (Cint (min x y)) (CI (min x y))
          | Max, Some (CI x), Some (CI y) ->
            keep_const v (Cint (max x y)) (CI (max x y))
          | Add, Some (CF x), Some (CF y) -> keep_const v (Cfloat (x +. y)) (CF (x +. y))
          | Sub, Some (CF x), Some (CF y) -> keep_const v (Cfloat (x -. y)) (CF (x -. y))
          | Mul, Some (CF x), Some (CF y) -> keep_const v (Cfloat (x *. y)) (CF (x *. y))
          | Div, Some (CF x), Some (CF y) -> keep_const v (Cfloat (x /. y)) (CF (x /. y))
          | (Add | Sub), _, Some (CI 0) | Mul, _, Some (CI 1)
          | Div, _, Some (CI 1) ->
            alias subst v (sub a);
            None
          | Add, Some (CI 0), _ | Mul, Some (CI 1), _ ->
            alias subst v (sub b);
            None
          | Mul, Some (CI 0), _ ->
            alias subst v (sub a);
            None
          | Mul, _, Some (CI 0) ->
            alias subst v (sub b);
            None
          | (Add | Sub), _, Some (CF 0.0) | (Mul | Div), _, Some (CF 1.0) ->
            alias subst v (sub a);
            None
          | Add, Some (CF 0.0), _ | Mul, Some (CF 1.0), _ ->
            alias subst v (sub b);
            None
          | _ -> Some i)
        | Un (v, op, a) -> (
          match op, cv a with
          | Neg, Some (CI x) -> keep_const v (Cint (-x)) (CI (-x))
          | Neg, Some (CF x) -> keep_const v (Cfloat (-.x)) (CF (-.x))
          | ToFloat, Some (CI x) ->
            keep_const v (Cfloat (float_of_int x)) (CF (float_of_int x))
          | Not, Some (CB x) -> keep_const v (Cbool (not x)) (CB (not x))
          | _ -> Some i)
        | Cmp (v, op, a, b) -> (
          match cv a, cv b with
          | Some (CI x), Some (CI y) ->
            let r =
              match op with
              | Eq -> x = y
              | Ne -> x <> y
              | Lt -> x < y
              | Le -> x <= y
              | Gt -> x > y
              | Ge -> x >= y
            in
            keep_const v (Cbool r) (CB r)
          | _ -> Some i)
        | Select (v, c, a, b) -> (
          match cv c with
          | Some (CB true) ->
            alias subst v (sub a);
            None
          | Some (CB false) ->
            alias subst v (sub b);
            None
          | _ -> Some i)
        | Gep (v, p, ix) -> (
          match cv ix with
          | Some (CI 0) ->
            alias subst v (sub p);
            None
          | _ -> Some i)
        | i ->
          let rs =
            List.map
              (fun (r : Instr.region) -> { r with Instr.body = go r.body })
              (Instr.regions i)
          in
          Some (with_regions i rs))
      instrs
  in
  let body = go f.body in
  { f with body = apply subst body }

(* ---- common subexpression elimination (pure ops, region-scoped) ---- *)

(* What makes two pure instructions the same expression. Float constants
   compare by bit pattern, except that every NaN of one sign is one key,
   as [%h] prints them all as [nan] or [-nan]. *)
type cse_key =
  | KBin of Instr.binop * int * int
  | KCmp of Instr.cmpop * int * int
  | KUn of Instr.unop * int
  | KGep of int * int
  | KSelect of int * int * int
  | KInt of int
  | KBool of bool
  | KFloat of int64

let float_key x =
  if Float.is_nan x then
    KFloat (if Float.sign_bit x then 0xfff8000000000000L else 0x7ff8000000000000L)
  else KFloat (Int64.bits_of_float x)

let cse_func (f : Func.t) : Func.t =
  let subst = subst_create f in
  let sub = resolve subst in
  let key (i : Instr.t) =
    let open Instr in
    let id = Var.id in
    match i with
    | Bin (_, op, a, b) -> Some (KBin (op, id a, id b))
    | Cmp (_, op, a, b) -> Some (KCmp (op, id a, id b))
    | Un (_, op, a) -> Some (KUn (op, id a))
    | Gep (_, p, ix) -> Some (KGep (id p, id ix))
    | Select (_, c, a, b) -> Some (KSelect (id c, id a, id b))
    | Const (_, Cint x) -> Some (KInt x)
    | Const (_, Cbool x) -> Some (KBool x)
    | Const (_, Cfloat x) -> Some (float_key x)
    | _ -> None
  in
  (* one table for the whole walk; a region removes the keys it added
     when it ends, so siblings and the parent never see them *)
  let seen : (cse_key, Var.t) Hashtbl.t = Hashtbl.create 256 in
  let rec go instrs =
    let added = ref [] in
    let out =
      List.filter_map
        (fun i ->
          let i = map_uses sub i in
          match key i, Instr.def i with
          | Some k, Some v -> (
            match Hashtbl.find_opt seen k with
            | Some prior ->
              alias subst v prior;
              None
            | None ->
              Hashtbl.add seen k v;
              added := k :: !added;
              Some i)
          | _ ->
            let rs =
              List.map
                (fun (r : Instr.region) -> { r with Instr.body = go r.body })
                (Instr.regions i)
            in
            Some (with_regions i rs))
        instrs
    in
    List.iter (Hashtbl.remove seen) !added;
    out
  in
  let body = go f.body in
  { f with body = apply subst body }

(* ---- dead code elimination ---- *)

(* An instruction is deleted when it is removable and none of its defs is
   used by a remaining instruction: pure ops, loads and allocations by
   themselves, region instructions when their body has no effects. Use
   counts cover every remaining instruction, nested ones included, and
   deleting an instruction (a region with its whole body) releases its
   uses, which may make their definitions deletable in turn. Deletion only
   ever enables more deletion, so the result is the unique fixpoint, found
   in one pass over the body plus one step per released use. *)
let dce_func (f : Func.t) : Func.t =
  let n = Instr.fold_instrs (fun n _ -> n + 1) 0 f.body in
  (* instructions in preorder; [stop.(k)] is one past the last
     instruction nested inside [code.(k)] *)
  let code = Array.make n Instr.Barrier and stop = Array.make n 0 in
  let uses = Array.make f.var_count 0 in
  let sites = Array.make f.var_count [] in
  let rec number k instrs =
    List.fold_left
      (fun k (i : Instr.t) ->
        code.(k) <- i;
        List.iter (fun v -> uses.(Var.id v) <- uses.(Var.id v) + 1) (Instr.uses i);
        List.iter (fun v -> sites.(Var.id v) <- k :: sites.(Var.id v)) (Instr.defs i);
        let next =
          List.fold_left
            (fun k (r : Instr.region) -> number k r.Instr.body)
            (k + 1) (Instr.regions i)
        in
        stop.(k) <- next;
        next)
      k instrs
  in
  ignore (number 0 f.body);
  let dead = Bytes.make n '\000' in
  let deletable i =
    List.for_all (fun v -> uses.(Var.id v) = 0) (Instr.defs i)
    &&
    match i with
    | Instr.Load _ | Instr.Alloc _ -> true
    | Instr.If _ | Instr.For _ | Instr.While _ | Instr.Fork _
    | Instr.Workshare _ -> not (has_effects i)
    | _ -> pure i
  in
  let work = Stack.create () in
  let delete k =
    for j = k to stop.(k) - 1 do
      if Bytes.get dead j = '\000' then begin
        Bytes.set dead j '\001';
        List.iter
          (fun v ->
            let id = Var.id v in
            uses.(id) <- uses.(id) - 1;
            if uses.(id) = 0 then List.iter (fun s -> Stack.push s work) sites.(id))
          (Instr.uses code.(j))
      end
    done
  in
  for k = n - 1 downto 0 do
    Stack.push k work
  done;
  while not (Stack.is_empty work) do
    let k = Stack.pop work in
    if Bytes.get dead k = '\000' && deletable code.(k) then delete k
  done;
  let pos = ref 0 in
  let rec keep instrs =
    List.filter_map
      (fun (i : Instr.t) ->
        let k = !pos in
        if Bytes.get dead k <> '\000' then begin
          pos := stop.(k);
          None
        end
        else begin
          incr pos;
          Some
            (with_regions i
               (List.map
                  (fun (r : Instr.region) -> { r with Instr.body = keep r.body })
                  (Instr.regions i)))
        end)
      instrs
  in
  { f with body = keep f.body }

(* ---- loop-invariant code motion ---- *)

let licm_func (f : Func.t) : Func.t =
  (* the variables visible at the current point, as one bitmap; a region
     binds onto its own trail and unbinds it when it ends *)
  let visible = Bytes.make f.var_count '\000' in
  let mem v = Bytes.get visible (Var.id v) <> '\000' in
  let bind trail v =
    if not (mem v) then begin
      Bytes.set visible (Var.id v) '\001';
      trail := v :: !trail
    end
  in
  let unbind trail =
    List.iter (fun v -> Bytes.set visible (Var.id v) '\000') !trail
  in
  let rec walk trail instrs =
    let out = ref [] in
    List.iter
      (fun (i : Instr.t) ->
        let i =
          with_regions i
            (List.map
               (fun (r : Instr.region) ->
                 (* inner defs become visible inside *)
                 let inner = ref [] in
                 List.iter (bind inner) (Instr.defs i);
                 List.iter (bind inner) r.Instr.params;
                 let body = walk inner r.body in
                 unbind inner;
                 { r with Instr.body })
               (Instr.regions i))
        in
        (match i with
        | Instr.For ({ body; _ } as r) ->
          let store_free =
            not (List.exists clobbers body.Instr.body)
          in
          (* hoisted defs are visible to the rest of this loop's scan only *)
          let hoistable = ref [] in
          let hoisted = ref [] and kept = ref [] in
          List.iter
            (fun (j : Instr.t) ->
              let movable =
                (pure j
                || match j with Instr.Load _ -> store_free | _ -> false)
                && List.for_all mem (Instr.uses j)
              in
              if movable then begin
                List.iter (bind hoistable) (Instr.defs j);
                hoisted := j :: !hoisted
              end
              else kept := j :: !kept)
            body.Instr.body;
          unbind hoistable;
          out :=
            Instr.For { r with body = { body with body = List.rev !kept } }
            :: (!hoisted @ !out)
        | i -> out := i :: !out);
        List.iter (bind trail) (Instr.defs i))
      instrs;
    List.rev !out
  in
  let top = ref [] in
  List.iter (bind top) f.params;
  { f with body = walk top f.body }
