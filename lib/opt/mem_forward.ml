(** Store-to-load forwarding, redundant-store elimination, and adjoint
    slot promotion for non-escaping allocations accessed at constant
    indices.

    The reverse-mode transform materializes SSA adjoints as slots in an
    "adjoint register" buffer; a real compiler (LLVM's SROA/mem2reg,
    which Enzyme relies on) promotes those slots to registers. This pass
    models that promotion:

    - within a segment, a load from a non-escaping allocation at a known
      constant index is replaced by the last value stored there, and
      stores overwritten (or freed) before any possible read are deleted;
    - allocations are zero-initialized ([Memory.alloc] fills with
      [zero_of]), so loads from never-written cells fold to a literal
      constant, and stores of that same value are dropped as redundant;
    - knowledge survives region boundaries: a child region only kills
      the cells it may write (per a syntactic write summary), and loop
      bodies are re-analyzed with a seeded entry state when a cell
      provably holds the same value at every iteration entry
      (the adjoint accumulate-then-zero pattern);
    - constant-index cells live through [If] regions via a per-branch
      merge: when the two branch exits disagree, the cell's value is
      promoted to a fresh [If] result fed by extra [Yield] operands —
      the SROA/mem2reg phi;
    - barriers only kill knowledge about buffers that are *shared*
      across the team; an allocation made inside the current [Fork]
      body is private to the executing strand (the same provenance fact
      [Race.analyze] uses) and keeps its forwarding state.

    Eligible buffers never escape (their pointer is used only as the
    direct operand of Load/Store/AtomicAdd/Free), so no call, spawn, or
    captured pointer can touch them; cross-strand interference on them
    is limited to the enclosing parallel region re-executing the same
    instructions, which the write summaries and barrier kills cover
    under the usual data-race-freedom assumption. *)

open Parad_ir
open Rewrite

module IH = Hashtbl

(* bases eligible for tracking: Alloc results used only as the direct
   pointer of Load/Store/AtomicAdd/Free *)
let eligible_bases (f : Func.t) =
  let alloc = Bytes.make f.var_count '\000' in
  let bad = Bytes.make f.var_count '\000' in
  Instr.iter_instrs
    (fun i ->
      (match i with
      | Instr.Alloc (v, _, _, _) -> Bytes.set alloc (Var.id v) '\001'
      | _ -> ());
      let direct_ptr =
        match i with
        | Instr.Load (_, p, _) | Instr.Store (p, _, _)
        | Instr.AtomicAdd (p, _, _) | Instr.Free p -> Var.id p
        | _ -> -1
      in
      List.iter
        (fun u ->
          if Var.id u <> direct_ptr && Ty.is_ptr (Var.ty u) then
            Bytes.set bad (Var.id u) '\001')
        (Instr.uses i))
    f.body;
  fun id ->
    id < f.var_count
    && Bytes.get alloc id <> '\000'
    && Bytes.get bad id = '\000'

(* What a cell is known to hold: a specific SSA value, the allocation's
   zero fill (never written since), or nothing. *)
type aval = Val of Var.t | Zero | Unk

(* Syntactic may-write summary of an instruction list over eligible
   bases: constant-index cells written, and bases written at unknown
   indices / atomically / freed (treated as whole-base kills). *)
type summary = {
  s_cells : (int * int, unit) IH.t;
  s_bases : (int, unit) IH.t;
}

let summarize eligible cint instrs =
  let s = { s_cells = IH.create 16; s_bases = IH.create 8 } in
  let rec walk is = List.iter visit is
  and visit (i : Instr.t) =
    (match i with
    | Instr.Store (p, ix, _) | Instr.AtomicAdd (p, ix, _)
      when eligible (Var.id p) -> (
      match cint ix with
      | Some idx -> IH.replace s.s_cells (Var.id p, idx) ()
      | None -> IH.replace s.s_bases (Var.id p) ())
    | Instr.Free p when eligible (Var.id p) ->
      IH.replace s.s_bases (Var.id p) ()
    | _ -> ());
    List.iter region (Instr.regions i)
  and region (r : Instr.region) = walk r.Instr.body in
  walk instrs;
  s

let run_func (f : Func.t) : Func.t =
  let eligible = eligible_bases f in
  let ctx = ctx_of f in
  (* constant environments; fresh zero constants register themselves *)
  let consts : int Vtbl.t = Vtbl.create f.var_count in
  let fconsts : float Vtbl.t = Vtbl.create f.var_count in
  let note_const (i : Instr.t) =
    match i with
    | Instr.Const (v, Instr.Cint x) -> Vtbl.replace consts (Var.id v) x
    | Instr.Const (v, Instr.Cfloat x) -> Vtbl.replace fconsts (Var.id v) x
    | _ -> ()
  in
  Instr.iter_instrs note_const f.body;
  let subst = subst_create f in
  let sub = resolve subst in
  let cint v = Vtbl.find_opt consts (Var.id v) in
  (* value equality strong enough to drop a redundant store: same SSA
     var, or two constants with identical bits *)
  let same_val a b =
    Var.id a = Var.id b
    || (match Vtbl.find_opt fconsts (Var.id a), Vtbl.find_opt fconsts (Var.id b)
        with
       | Some x, Some y ->
         Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
       | _ -> (
         match cint a, cint b with Some x, Some y -> x = y | _ -> false))
  in
  let is_plus_zero v =
    match Vtbl.find_opt fconsts (Var.id v) with
    | Some x -> Int64.equal (Int64.bits_of_float x) 0L
    | None -> (match cint v with Some 0 -> true | _ -> false)
  in
  (* the zero fill of an allocation, as a constant, when representable *)
  let zero_const_of (ty : Ty.t) =
    match ty with
    | Ty.Float -> Some (Instr.Cfloat 0.0)
    | Ty.Int -> Some (Instr.Cint 0)
    | _ -> None
  in
  (* abstract state: explicit cell facts + per-base "still all zero"
     defaults (for eligible allocations never written at unknown index) *)
  let lookup known zerodef (key : int * int) =
    match IH.find_opt known key with
    | Some a -> a
    | None -> if IH.mem zerodef (fst key) then Zero else Unk
  in
  let kill_base known zerodef pending b =
    IH.filter_map_inplace
      (fun (b', _) v -> if b' = b then None else Some v)
      known;
    IH.remove zerodef b;
    (* pending stores to the base become observable *)
    IH.filter_map_inplace
      (fun (b', _) c -> if b' = b then None else Some c)
      pending
  in
  (* apply a child region's may-write summary to the parent state *)
  let apply_summary (s : summary) known zerodef pending =
    IH.iter (fun key () -> IH.replace known key Unk) s.s_cells;
    IH.iter (fun b () -> kill_base known zerodef pending b) s.s_bases
  in
  (* [go known zerodef private_tbl instrs] rewrites one region body,
     mutating [known]/[zerodef] to the body's exit state. [private_tbl]
     holds bases allocated inside the current Fork body (barrier-immune);
     [None] outside any fork. *)
  let rec go known zerodef private_tbl instrs =
    let pending : (int * int, Instr.t option ref) IH.t = IH.create 32 in
    let observe_all () = IH.reset pending in
    let out : Instr.t option ref list ref = ref [] in
    let emit i =
      let cell = ref (Some i) in
      out := cell :: !out;
      cell
    in
    (* rewrite a child region body from a seed copied off the parent *)
    let walk_child ?private_tbl:(pt = private_tbl) seed_known seed_zerodef
        (r : Instr.region) =
      { r with Instr.body = go seed_known seed_zerodef pt r.Instr.body }
    in
    let conservative_regions i =
      (* For / While / Fork / Workshare: kill the summary footprint in
         the parent, then walk children seeded with the surviving facts
         (sound for any trip count / strand interleaving: seeds only
         contain cells no execution of the region writes). *)
      let s =
        summarize eligible cint
          (List.concat_map (fun (r : Instr.region) -> r.Instr.body)
             (Instr.regions i))
      in
      observe_all ();
      apply_summary s known zerodef pending;
      s
    in
    (* Re-analyze a loop body with cells seeded to their loop-entry value
       when iteration provably re-establishes it (the adjoint
       accumulate-then-zero pattern): the entry value from outside
       matches the body-exit value of a conservative first analysis. *)
    let loop_body_with_seed ~outer_vals (s : summary) (r : Instr.region) =
      let pass seed_extra =
        let k = IH.copy known and z = IH.copy zerodef in
        List.iter (fun (key, a) -> IH.replace k key a) seed_extra;
        let r' = walk_child k z r in
        r', k, z
      in
      let r1, k1, z1 = pass [] in
      let stable =
        IH.fold
          (fun key () acc ->
            match IH.find_opt outer_vals key with
            | Some (Val v) -> (
              match lookup k1 z1 key with
              | Val v' when same_val v v' -> (key, Val v) :: acc
              | _ -> acc)
            | Some Zero -> (
              match lookup k1 z1 key with
              | Val v' when is_plus_zero v' -> (key, Zero) :: acc
              | Zero -> (key, Zero) :: acc
              | _ -> acc)
            | _ -> acc)
          s.s_cells []
      in
      if stable = [] then r1
      else begin
        let r2, k2, z2 = pass stable in
        (* the body re-establishes these at exit; republish them *)
        List.iter
          (fun (key, a) ->
            let ok =
              match a, lookup k2 z2 key with
              | Val v, Val v' -> same_val v v'
              | Zero, Zero -> true
              | Zero, Val v' -> is_plus_zero v'
              | _ -> false
            in
            if ok then IH.replace known key a)
          stable;
        r2
      end
    in
    List.iter
      (fun (i : Instr.t) ->
        let i = map_uses sub i in
        note_const i;
        match i with
        | Instr.If (rs, c, t, e) ->
          (* branches may read anything still pending *)
          observe_all ();
          let kt = IH.copy known and zt = IH.copy zerodef in
          let ke = IH.copy known and ze = IH.copy zerodef in
          let t' = walk_child kt zt t in
          let e' = walk_child ke ze e in
          (* merge the branch exits; disagreeing known cells become
             fresh If results (the mem2reg phi) *)
          let keys : (int * int, unit) IH.t = IH.create 16 in
          IH.iter (fun k _ -> IH.replace keys k ()) kt;
          IH.iter (fun k _ -> IH.replace keys k ()) ke;
          IH.reset known;
          IH.reset zerodef;
          IH.iter
            (fun b () -> if IH.mem ze b then IH.replace zerodef b ())
            zt;
          let promote = ref [] in
          IH.iter
            (fun key () ->
              let mt = lookup kt zt key and me = lookup ke ze key in
              let merged =
                match mt, me with
                | Unk, _ | _, Unk -> Unk
                | Zero, Zero -> Zero
                | Val a, Val b when same_val a b -> Val a
                | Val a, (Zero | Val _) when is_plus_zero a -> (
                  match me with
                  | Zero -> Zero
                  | Val b when is_plus_zero b -> Val a
                  | _ -> promote := (key, mt, me) :: !promote; Unk)
                | Zero, Val b when is_plus_zero b -> Zero
                | (Val _ | Zero), (Val _ | Zero) ->
                  promote := (key, mt, me) :: !promote;
                  Unk
              in
              match merged with
              | Unk ->
                if IH.mem zerodef (fst key) then IH.replace known key Unk
              | a -> IH.replace known key a)
            keys;
          (* materialize promoted cells: extend results and both yields *)
          let extra_res = ref [] and extra_t = ref [] and extra_e = ref [] in
          let materialize (extras : Instr.t list ref) side_zero_ty a =
            match a with
            | Val v -> Some v
            | Zero -> (
              match zero_const_of side_zero_ty with
              | Some c ->
                let z = fresh ctx side_zero_ty "mf.zero" in
                extras := Instr.Const (z, c) :: !extras;
                note_const (Instr.Const (z, c));
                Some z
              | None -> None)
            | Unk -> None
          in
          (* Reuse an existing result whose then/else yields already carry
             exactly these merged values — typically a phi a previous run
             of this pass materialized.  Without this, re-running the pass
             re-promotes the same cells into fresh results every time and
             the post-AD pipeline stops being idempotent. *)
          let matches a y =
            match a with
            | Val v -> same_val v y
            | Zero -> is_plus_zero y
            | Unk -> false
          in
          let reuse =
            let yields (r : Instr.region) =
              match List.rev r.Instr.body with
              | Instr.Yield vs :: _ -> Some vs
              | _ -> None
            in
            match yields t', yields e' with
            | Some yt, Some ye ->
              fun ty mt me ->
                let rec find rs yt ye =
                  match rs, yt, ye with
                  | r :: _, a :: _, bv :: _
                    when Var.ty r = ty && matches mt a && matches me bv ->
                    Some r
                  | _ :: rs', _ :: yt', _ :: ye' -> find rs' yt' ye'
                  | _ -> None
                in
                find rs yt ye
            | _ -> fun _ _ _ -> None
          in
          let aval_eq a bv =
            match a, bv with
            | Val x, Val y -> same_val x y
            | Zero, Zero -> true
            | _ -> false
          in
          let created = ref [] in
          let tpre = ref [] and epre = ref [] in
          List.iter
            (fun (key, mt, me) ->
              let ty =
                match mt, me with
                | Val v, _ | _, Val v -> Var.ty v
                | _ -> Ty.Float
              in
              match reuse ty mt me with
              | Some r -> IH.replace known key (Val r)
              | None -> (
                match
                  List.find_opt
                    (fun (ty', mt', me', _) ->
                      ty = ty' && aval_eq mt mt' && aval_eq me me')
                    !created
                with
                | Some (_, _, _, r) -> IH.replace known key (Val r)
                | None -> (
                  match materialize tpre ty mt, materialize epre ty me with
                  | Some vt, Some ve ->
                    let r = fresh ctx ty "mf.phi" in
                    extra_res := r :: !extra_res;
                    extra_t := vt :: !extra_t;
                    extra_e := ve :: !extra_e;
                    created := (ty, mt, me, r) :: !created;
                    IH.replace known key (Val r)
                  | _ -> ())))
            !promote;
          let extend (r : Instr.region) pre extras =
            match List.rev r.Instr.body with
            | Instr.Yield vs :: rest ->
              { r with
                Instr.body =
                  List.rev_append rest
                    (List.rev pre @ [ Instr.Yield (vs @ extras) ])
              }
            | _ -> r (* unterminated branch: leave untouched *)
          in
          if !extra_res = [] then ignore (emit (Instr.If (rs, c, t', e')))
          else begin
            let t' = extend t' !tpre (List.rev !extra_t) in
            let e' = extend e' !epre (List.rev !extra_e) in
            ignore
              (emit (Instr.If (rs @ List.rev !extra_res, c, t', e')))
          end
        | Instr.For r ->
          let outer_vals : (int * int, aval) IH.t = IH.create 16 in
          let s =
            summarize eligible cint r.body.Instr.body
          in
          IH.iter
            (fun key () ->
              IH.replace outer_vals key (lookup known zerodef key))
            s.s_cells;
          observe_all ();
          apply_summary s known zerodef pending;
          let body = loop_body_with_seed ~outer_vals s r.body in
          ignore (emit (Instr.For { r with body }))
        | Instr.Workshare r ->
          let outer_vals : (int * int, aval) IH.t = IH.create 16 in
          let s = summarize eligible cint r.body.Instr.body in
          IH.iter
            (fun key () ->
              IH.replace outer_vals key (lookup known zerodef key))
            s.s_cells;
          observe_all ();
          apply_summary s known zerodef pending;
          let body = loop_body_with_seed ~outer_vals s r.body in
          ignore (emit (Instr.Workshare { r with body }))
        | Instr.While { cond; body } ->
          let s =
            summarize eligible cint
              (cond.Instr.body @ body.Instr.body)
          in
          observe_all ();
          apply_summary s known zerodef pending;
          let cond' =
            walk_child (IH.copy known) (IH.copy zerodef) cond
          in
          let body' =
            walk_child (IH.copy known) (IH.copy zerodef) body
          in
          ignore (emit (Instr.While { cond = cond'; body = body' }))
        | Instr.Fork r ->
          ignore (conservative_regions i);
          let body =
            walk_child
              ~private_tbl:(Some (IH.create 16))
              (IH.copy known) (IH.copy zerodef) r.body
          in
          ignore (emit (Instr.Fork { r with body }))
        | Instr.Alloc (v, ety, _, _) ->
          ignore (emit i);
          if eligible (Var.id v) then begin
            (match private_tbl with
            | Some t -> IH.replace t (Var.id v) ()
            | None -> ());
            if zero_const_of ety <> None then
              IH.replace zerodef (Var.id v) ()
          end
        | Instr.Store (p, ix, x) when eligible (Var.id p) -> (
          match cint ix with
          | Some idx -> (
            let key = Var.id p, idx in
            let cur = lookup known zerodef key in
            let redundant =
              match cur with
              | Val y -> same_val y x
              | Zero -> is_plus_zero x
              | Unk -> false
            in
            if redundant then ()
            else begin
              (* previous unobserved store to the same cell is dead *)
              (match IH.find_opt pending key with
              | Some cell -> cell := None
              | None -> ());
              IH.replace known key (Val x);
              IH.replace pending key (emit i)
            end)
          | None ->
            kill_base known zerodef pending (Var.id p);
            ignore (emit i))
        | Instr.Load (v, p, ix) when eligible (Var.id p) -> (
          let observe_base () =
            IH.filter_map_inplace
              (fun (b, _) c -> if b = Var.id p then None else Some c)
              pending
          in
          match cint ix with
          | Some idx -> (
            let key = Var.id p, idx in
            match lookup known zerodef key with
            | Val value -> alias subst v value
            | Zero -> (
              (* the cell still holds the allocation's zero fill;
                 materialize it as a constant in place of the load *)
              match zero_const_of (Var.ty v) with
              | Some c ->
                unalias subst v;
                let ci = Instr.Const (v, c) in
                note_const ci;
                IH.replace known key (Val v);
                ignore (emit ci)
              | None ->
                observe_base ();
                unalias subst v;
                IH.replace known key (Val v);
                ignore (emit i))
            | Unk ->
              (* reading an unknown cell observes all pending stores to
                 this base *)
              observe_base ();
              unalias subst v;
              IH.replace known key (Val v);
              ignore (emit i))
          | None ->
            observe_base ();
            unalias subst v;
            ignore (emit i))
        | Instr.AtomicAdd (p, ix, _) when eligible (Var.id p) -> (
          match cint ix with
          | Some idx ->
            let key = Var.id p, idx in
            IH.replace known key Unk;
            IH.remove pending key;
            ignore (emit i)
          | None ->
            kill_base known zerodef pending (Var.id p);
            ignore (emit i))
        | Instr.Free p when eligible (Var.id p) ->
          (* stores never observed before the free are dead *)
          IH.iter
            (fun (b, _) cell -> if b = Var.id p then cell := None)
            pending;
          kill_base known zerodef pending (Var.id p);
          ignore (emit i)
        | Instr.Barrier ->
          (* other strands may publish writes to shared buffers here;
             allocations made inside this Fork body stay private *)
          observe_all ();
          let is_private b =
            match private_tbl with
            | Some t -> IH.mem t b
            | None -> false
          in
          IH.filter_map_inplace
            (fun (b, _) v -> if is_private b then Some v else None)
            known;
          IH.filter_map_inplace
            (fun b v -> if is_private b then Some v else None)
            zerodef;
          ignore (emit i)
        | Instr.Return _ | Instr.Yield _ ->
          observe_all ();
          ignore (emit i)
        | i -> ignore (emit i))
      instrs;
    List.fold_left
      (fun acc cell -> match !cell with Some i -> i :: acc | None -> acc)
      [] !out
  in
  let body = go (IH.create 32) (IH.create 8) None f.body in
  { f with body = apply subst body; var_count = ctx.next }
