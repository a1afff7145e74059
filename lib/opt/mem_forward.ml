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
      the SROA/mem2reg phi. Promoted cells take their fresh ids in
      ascending (base, index) order;
    - barriers only kill knowledge about buffers that are *shared*
      across the team; an allocation made inside the current [Fork]
      body is private to the executing strand (the same provenance fact
      [Race.analyze] uses) and keeps its forwarding state.

    The abstract state is one mutable table of cell facts plus per-base
    "still all zero" bits. Child regions run on it in place; every write
    goes on one undo trail, and a child is undone by popping the trail
    back to where it started. The [If] merge reads the cells each branch
    touched off the trail.

    Eligible buffers never escape (their pointer is used only as the
    direct operand of Load/Store/AtomicAdd/Free), so no call, spawn, or
    captured pointer can touch them; cross-strand interference on them
    is limited to the enclosing parallel region re-executing the same
    instructions, which the write summaries and barrier kills cover
    under the usual data-race-freedom assumption. *)

open Parad_ir
open Rewrite

(* Per-variable kinds. During [scan] the alloc and escape bits
   accumulate beside the constant kinds; afterwards a variable is at most
   one of an integer constant, a float constant, or an eligible base. *)
let k_int = 1
let k_float = 2
let k_base = 3
let k_alloc = 4
let k_escapes = 8

(* One walk over [f]: [visit] sees every instruction, and [kind] gains
   the alloc bit for every Alloc result and the escape bit for every
   pointer used other than as the direct pointer of a
   Load/Store/AtomicAdd/Free. *)
let scan (f : Func.t) kind visit =
  let set id bit =
    Bytes.unsafe_set kind id
      (Char.unsafe_chr (Char.code (Bytes.get kind id) lor bit))
  in
  (* [u] escapes unless it is the direct pointer [p] of the access *)
  let use p u =
    if Ty.is_ptr (Var.ty u) && Var.id u <> p then set (Var.id u) k_escapes
  in
  let esc u = use (-1) u in
  let rec walk instrs = List.iter step instrs
  and step (i : Instr.t) =
    visit i;
    match i with
    | Instr.Const _ | Instr.Barrier | Instr.Return None | Instr.Free _ -> ()
    | Instr.Bin (_, _, a, b) | Instr.Cmp (_, _, a, b) -> esc a; esc b
    | Instr.Un (_, _, a) | Instr.Sync a | Instr.Return (Some a) -> esc a
    | Instr.Select (_, c, a, b) -> esc c; esc a; esc b
    | Instr.Alloc (v, _, n, _) ->
      set (Var.id v) k_alloc;
      esc n
    | Instr.Load (_, p, ix) -> use (Var.id p) ix
    | Instr.Store (p, ix, x) | Instr.AtomicAdd (p, ix, x) ->
      use (Var.id p) ix;
      use (Var.id p) x
    | Instr.Gep (_, p, ix) -> esc p; esc ix
    | Instr.Call (_, _, vs) | Instr.Spawn (_, _, vs) | Instr.Yield vs ->
      List.iter esc vs
    | Instr.If (_, c, t, e) ->
      esc c;
      walk t.body;
      walk e.body
    | Instr.For { lo; hi; step; body; _ } ->
      esc lo; esc hi; esc step;
      walk body.body
    | Instr.While { cond; body } ->
      walk cond.body;
      walk body.body
    | Instr.Fork { nth; body; _ } ->
      esc nth;
      walk body.body
    | Instr.Workshare { lo; hi; body; _ } ->
      esc lo; esc hi;
      walk body.body
  in
  walk f.body

(* What a cell is known to hold: a specific SSA value, the allocation's
   zero fill (never written since), or nothing. [Dflt] is the stored
   fact of a cell with no fact of its own: it reads as [Zero] while its
   base is still all zero and as [Unk] otherwise. *)
type aval = Val of Var.t | Zero | Unk | Dflt

(* A cell is keyed by one int: the base's variable id above [idx_bits]
   bits of constant index, so ascending keys are ascending (base, index)
   pairs. A constant index outside [0, 2^idx_bits) is never packed:
   accesses there take the unknown-index path. *)
let idx_bits = 31
let packable idx = idx >= 0 && idx < 1 lsl idx_bits

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* fold the base onto the index bits, then mix upward and back *)
  let hash k =
    let h = (k lxor (k lsr idx_bits)) * 0x3C79AC492BA7B653 in
    h lxor (h lsr 29)
end)

(* [a] (or [b]) of length [n], doubled; new entries are [x] (or zero) *)
let grow a n x =
  let a' = Array.make (2 * n) x in
  Array.blit a 0 a' 0 n;
  a'

let grow_bytes b n =
  let b' = Bytes.make (2 * n) '\000' in
  Bytes.blit b 0 b' 0 n;
  b'

(* a growable int stack *)
type ibuf = { mutable a : int array; mutable n : int }

let ibuf () = { a = Array.make 64 0; n = 0 }

let push b x =
  if b.n = Array.length b.a then b.a <- grow b.a b.n 0;
  Array.unsafe_set b.a b.n x;
  b.n <- b.n + 1

let contents b = Array.sub b.a 0 b.n

(* Syntactic may-write summary of a region over eligible bases: the
   cells written at a constant index, and the bases written at an
   unknown index or freed (treated as whole-base kills). *)
type summary = { s_cells : int array; s_bases : int array }

let run_func (f : Func.t) : Func.t =
  let ctx = ctx_of f in
  let nvars = f.var_count in
  (* ---- per variable: its kind, and in [info] an integer constant's
     value, the slot of a float constant in [floats], or a base's dense
     number. Fresh zero constants register themselves. [epoch] counts the
     variables of [f] that became integer constants after the start,
     which is all a cached summary depends on ---- *)
  let kind = ref (Bytes.make nvars '\000') in
  let info = ref (Array.make nvars 0) in
  let floats = ref (Array.make 64 0.0) and nfloats = ref 0 in
  let epoch = ref 0 in
  let kind_of id =
    if id < Bytes.length !kind then Char.code (Bytes.unsafe_get !kind id) else 0
  in
  let set_kind id k x =
    let n = Bytes.length !kind in
    if id >= n then begin
      let m = max (id + 1) (2 * n) in
      let a = Array.make m 0 and k' = Bytes.make m '\000' in
      Array.blit !info 0 a 0 n;
      Bytes.blit !kind 0 k' 0 n;
      info := a;
      kind := k'
    end;
    Bytes.set !kind id (Char.chr k);
    !info.(id) <- x
  in
  let note_const (i : Instr.t) =
    match i with
    | Instr.Const (v, Instr.Cint x) ->
      let id = Var.id v in
      if id < nvars && not (kind_of id = k_int && !info.(id) = x) then
        incr epoch;
      set_kind id k_int x
    | Instr.Const (v, Instr.Cfloat x) when kind_of (Var.id v) <> k_float ->
      let n = !nfloats in
      if n = Array.length !floats then floats := grow !floats n 0.0;
      !floats.(n) <- x;
      nfloats := n + 1;
      set_kind (Var.id v) k_float n
    | _ -> ()
  in
  scan f !kind note_const;
  let nbases = ref 0 in
  for id = 0 to nvars - 1 do
    let k = Char.code (Bytes.get !kind id) in
    if k land (k_alloc lor k_escapes) = k_alloc then begin
      set_kind id k_base !nbases;
      incr nbases
    end
    else if k >= k_alloc then Bytes.set !kind id (Char.chr (k land 3))
  done;
  let nbases = !nbases in
  (* the dense base number of pointer [p], or -1 *)
  let bix p =
    let id = Var.id p in
    if kind_of id = k_base then !info.(id) else -1
  in
  let subst = subst_create f in
  let sub = resolve subst in
  let is_int v = kind_of (Var.id v) = k_int in
  let is_float v = kind_of (Var.id v) = k_float in
  let float_bits v = Int64.bits_of_float !floats.(!info.(Var.id v)) in
  (* the packable constant index [v] holds, or -1 *)
  let cidx v =
    if is_int v && packable !info.(Var.id v) then !info.(Var.id v) else -1
  in
  (* value equality strong enough to drop a redundant store: same SSA
     var, or two constants with identical bits *)
  let same_val a b =
    Var.id a = Var.id b
    || (is_float a && is_float b && Int64.equal (float_bits a) (float_bits b))
    || (is_int a && is_int b && !info.(Var.id a) = !info.(Var.id b))
  in
  let is_plus_zero v =
    (is_float v && Int64.equal (float_bits v) 0L)
    || (is_int v && !info.(Var.id v) = 0)
  in
  (* the zero fill of an allocation, as a constant, when representable *)
  let zero_const_of (ty : Ty.t) =
    match ty with
    | Ty.Float -> Some (Instr.Cfloat 0.0)
    | Ty.Int -> Some (Instr.Cint 0)
    | _ -> None
  in
  (* ---- cells, numbered densely on first sight ---- *)
  let cell_ids : int Itbl.t = Itbl.create 256 in
  let ncells = ref 0 in
  let cap = ref 256 in
  let key = ref (Array.make !cap 0) in
  let cbase = ref (Array.make !cap 0) in
  let fact = ref (Array.make !cap Dflt) in
  (* the output slot of the cell's unobserved store, or -1 *)
  let pend = ref (Array.make !cap (-1)) in
  let mark = ref (Array.make !cap 0) in
  (* ---- per base, by dense number ---- *)
  let zero = Bytes.make nbases '\000' in
  let cells_of = Array.make nbases [] in
  let nfacts = Array.make nbases 0 in (* cells of the base not at [Dflt] *)
  let bmark = Array.make nbases 0 in
  (* If-merge scratch: 1 then-branch wrote the zero bit, 2 its exit bit;
     4 and 8 the same for the else branch *)
  let zside = Array.make nbases 0 in
  let pend_of = Array.make nbases [] in
  let pend_bases = ref [] in
  (* the Fork body each base was allocated in; [cur_fork] 0 is none *)
  let fork_of = Array.make nbases 0 in
  let nforks = ref 0 and cur_fork = ref 0 in
  let stamp = ref 0 in
  let fresh_stamp () = incr stamp; !stamp in
  (* the cell of eligible pointer [p] at packable index [idx] *)
  let cell p idx =
    let k = (Var.id p lsl idx_bits) lor idx in
    match Itbl.find cell_ids k with
    | c -> c
    | exception Not_found ->
      let c = !ncells and b = bix p in
      if c = !cap then begin
        key := grow !key c 0;
        cbase := grow !cbase c 0;
        fact := grow !fact c Dflt;
        pend := grow !pend c (-1);
        mark := grow !mark c 0;
        cap := 2 * c
      end;
      !key.(c) <- k;
      !cbase.(c) <- b;
      ncells := c + 1;
      cells_of.(b) <- c :: cells_of.(b);
      Itbl.add cell_ids k c;
      c
  in
  let base c = !cbase.(c) in
  let is_zero b = Bytes.get zero b <> '\000' in
  let lookup c =
    match !fact.(c) with
    | Dflt -> if is_zero (base c) then Zero else Unk
    | a -> a
  in
  (* ---- the undo trail: a slot >= 0 is a cell and its old fact; a
     slot < 0 is [lnot base] and its old zero bit as [Zero]/[Dflt] ---- *)
  let tr_slot = ref (Array.make 256 0) in
  let tr_old = ref (Array.make 256 Dflt) in
  let top = ref 0 in
  let trail slot old =
    let n = !top in
    if n = Array.length !tr_slot then begin
      tr_slot := grow !tr_slot n 0;
      tr_old := grow !tr_old n Dflt
    end;
    !tr_slot.(n) <- slot;
    !tr_old.(n) <- old;
    top := n + 1
  in
  let count_fact c old a =
    if old == Dflt then nfacts.(base c) <- nfacts.(base c) + 1
    else if a == Dflt then nfacts.(base c) <- nfacts.(base c) - 1
  in
  let set_fact c a =
    let old = !fact.(c) in
    if old != a then begin
      trail c old;
      count_fact c old a;
      !fact.(c) <- a
    end
  in
  let set_zero b z =
    if is_zero b <> z then begin
      trail (lnot b) (if z then Dflt else Zero);
      Bytes.set zero b (if z then '\001' else '\000')
    end
  in
  let rollback p =
    while !top > p do
      decr top;
      let s = !tr_slot.(!top) and old = !tr_old.(!top) in
      if s >= 0 then begin
        count_fact s !fact.(s) old;
        !fact.(s) <- old
      end
      else Bytes.set zero (lnot s) (if old == Zero then '\001' else '\000')
    done
  in
  (* the cells (ascending by key) and bases written since trail mark [p] *)
  let touched p =
    let st = fresh_stamp () in
    let cs = ibuf () and bs = ibuf () in
    for k = p to !top - 1 do
      let s = !tr_slot.(k) in
      if s >= 0 then begin
        if !mark.(s) <> st then begin
          !mark.(s) <- st;
          push cs s
        end
      end
      else if bmark.(lnot s) <> st then begin
        bmark.(lnot s) <- st;
        push bs (lnot s)
      end
    done;
    let cs = contents cs in
    Array.sort (fun a b -> Int.compare !key.(a) !key.(b)) cs;
    cs, contents bs
  in
  (* ---- pending (unobserved) stores of the region being walked. Every
     child region starts with none: its parent observes all before
     entering it ---- *)
  let clear_pending b =
    List.iter (fun c -> !pend.(c) <- -1) pend_of.(b);
    pend_of.(b) <- []
  in
  let observe_all () =
    List.iter clear_pending !pend_bases;
    pend_bases := []
  in
  let set_pending c r =
    if !pend.(c) < 0 then begin
      let b = base c in
      if pend_of.(b) = [] then pend_bases := b :: !pend_bases;
      pend_of.(b) <- c :: pend_of.(b)
    end;
    !pend.(c) <- r
  in
  let kill_base b =
    if nfacts.(b) > 0 then List.iter (fun c -> set_fact c Dflt) cells_of.(b);
    set_zero b false;
    (* pending stores to the base become observable *)
    clear_pending b
  in
  (* apply a child region's may-write summary to the parent state *)
  let apply_summary (s : summary) =
    Array.iter (fun c -> set_fact c Unk) s.s_cells;
    Array.iter kill_base s.s_bases
  in
  (* ---- write summaries. A loop's (or Fork's) summary is cached under
     its induction (thread) variable and reused for the same body while
     no variable of [f] has become a constant since, so a nest is
     summarized once ---- *)
  let cached : (int * Instr.t list * summary) Itbl.t = Itbl.create 16 in
  let scells = ibuf () and sbases = ibuf () in
  let rec prepare instrs =
    List.iter
      (fun (i : Instr.t) ->
        match i with
        | Instr.For { iv = k; body; _ }
        | Instr.Workshare { iv = k; body; _ }
        | Instr.Fork { tid = k; body; _ } -> ignore (loop_summary k body)
        | Instr.If (_, _, t, e) -> prepare t.body; prepare e.body
        | Instr.While { cond; body } -> prepare cond.body; prepare body.body
        | _ -> ())
      instrs
  and loop_summary k (body : Instr.region) =
    match Itbl.find_opt cached (Var.id k) with
    | Some (e, b, s) when e = !epoch && b == body.body -> s
    | _ ->
      let s = summarize [ body.body ] in
      Itbl.replace cached (Var.id k) (!epoch, body.body, s);
      s
  and summarize bodies =
    (* nested summaries first: the walk below only reads them *)
    List.iter prepare bodies;
    let st = fresh_stamp () in
    scells.n <- 0;
    sbases.n <- 0;
    let add_cell c =
      if !mark.(c) <> st then begin
        !mark.(c) <- st;
        push scells c
      end
    in
    let add_base b =
      if bmark.(b) <> st then begin
        bmark.(b) <- st;
        push sbases b
      end
    in
    let rec walk instrs = List.iter visit instrs
    and visit (i : Instr.t) =
      match i with
      | (Instr.Store (p, ix, _) | Instr.AtomicAdd (p, ix, _)) when bix p >= 0 ->
        let x = cidx ix in
        if x >= 0 then add_cell (cell p x) else add_base (bix p)
      | Instr.Free p when bix p >= 0 -> add_base (bix p)
      | Instr.For { iv = k; body; _ }
      | Instr.Workshare { iv = k; body; _ }
      | Instr.Fork { tid = k; body; _ } ->
        let s = loop_summary k body in
        Array.iter add_cell s.s_cells;
        Array.iter add_base s.s_bases
      | Instr.If (_, _, t, e) -> walk t.body; walk e.body
      | Instr.While { cond; body } -> walk cond.body; walk body.body
      | _ -> ()
    in
    List.iter walk bodies;
    { s_cells = contents scells; s_bases = contents sbases }
  in
  (* ---- output: the rewritten instructions of every region being
     walked, innermost last; a store found dead is marked in [dead] ---- *)
  let outs = ref (Array.make 256 Instr.Barrier) in
  let dead = ref (Bytes.make 256 '\000') in
  let nout = ref 0 in
  let emit i =
    let n = !nout in
    if n = Array.length !outs then begin
      outs := grow !outs n Instr.Barrier;
      dead := grow_bytes !dead n
    end;
    !outs.(n) <- i;
    Bytes.set !dead n '\000';
    nout := n + 1;
    n
  in
  let delete k = if k >= 0 then Bytes.set !dead k '\001' in
  (* [go instrs] rewrites one region body, leaving the shared state at
     the body's exit. Callers undo a child by rolling the trail back. *)
  let rec go instrs =
    let start = !nout in
    List.iter
      (fun (i : Instr.t) ->
        let i = map_uses sub i in
        note_const i;
        match i with
        | Instr.If (rs, c, t, e) -> emit_if rs c t e
        | Instr.For r ->
          let body = loop r.iv r.body in
          ignore (emit (Instr.For { r with body }))
        | Instr.Workshare r ->
          let body = loop r.iv r.body in
          ignore (emit (Instr.Workshare { r with body }))
        | Instr.While { cond; body } ->
          (* sound for any trip count: each child starts from the facts
             no execution of the loop can write *)
          let s = summarize [ cond.Instr.body; body.Instr.body ] in
          observe_all ();
          apply_summary s;
          let p = !top in
          let cond' = walk_child cond in
          rollback p;
          let body' = walk_child body in
          rollback p;
          ignore (emit (Instr.While { cond = cond'; body = body' }))
        | Instr.Fork r ->
          (* sound for any strand interleaving, as for While; allocations
             in the body are private to it *)
          let s = loop_summary r.tid r.body in
          observe_all ();
          apply_summary s;
          let saved = !cur_fork and p = !top in
          incr nforks;
          cur_fork := !nforks;
          let body = walk_child r.body in
          rollback p;
          cur_fork := saved;
          ignore (emit (Instr.Fork { r with body }))
        | Instr.Alloc (v, ety, _, _) ->
          ignore (emit i);
          let b = bix v in
          if b >= 0 then begin
            if !cur_fork <> 0 then fork_of.(b) <- !cur_fork;
            if zero_const_of ety <> None then set_zero b true
          end
        | Instr.Store (p, ix, x) when bix p >= 0 ->
          let x' = cidx ix in
          if x' >= 0 then begin
            let c = cell p x' in
            let redundant =
              match lookup c with
              | Val y -> same_val y x
              | Zero -> is_plus_zero x
              | Unk | Dflt -> false
            in
            if not redundant then begin
              (* previous unobserved store to the same cell is dead *)
              delete !pend.(c);
              set_fact c (Val x);
              set_pending c (emit i)
            end
          end
          else begin
            kill_base (bix p);
            ignore (emit i)
          end
        | Instr.Load (v, p, ix) when bix p >= 0 ->
          let b = bix p in
          let x = cidx ix in
          if x < 0 then begin
            clear_pending b;
            unalias subst v;
            ignore (emit i)
          end
          else begin
            let c = cell p x in
            match lookup c with
            | Val value -> alias subst v value
            | Zero when zero_const_of (Var.ty v) <> None ->
              (* the cell still holds the allocation's zero fill;
                 materialize it as a constant in place of the load *)
              unalias subst v;
              let ci = Instr.Const (v, Option.get (zero_const_of (Var.ty v))) in
              note_const ci;
              set_fact c (Val v);
              ignore (emit ci)
            | Zero | Unk | Dflt ->
              (* reading an unknown cell observes all pending stores to
                 this base *)
              clear_pending b;
              unalias subst v;
              set_fact c (Val v);
              ignore (emit i)
          end
        | Instr.AtomicAdd (p, ix, _) when bix p >= 0 ->
          let x = cidx ix in
          if x >= 0 then begin
            let c = cell p x in
            set_fact c Unk;
            !pend.(c) <- -1
          end
          else kill_base (bix p);
          ignore (emit i)
        | Instr.Free p when bix p >= 0 ->
          (* stores never observed before the free are dead *)
          List.iter (fun c -> delete !pend.(c)) pend_of.(bix p);
          kill_base (bix p);
          ignore (emit i)
        | Instr.Barrier ->
          (* other strands may publish writes to shared buffers here;
             allocations made inside this Fork body stay private *)
          observe_all ();
          for b = 0 to nbases - 1 do
            if !cur_fork = 0 || fork_of.(b) <> !cur_fork then kill_base b
          done;
          ignore (emit i)
        | Instr.Return _ | Instr.Yield _ ->
          observe_all ();
          ignore (emit i)
        | i -> ignore (emit i))
      instrs;
    let rec collect k acc =
      if k < start then acc
      else if Bytes.get !dead k <> '\000' then collect (k - 1) acc
      else collect (k - 1) (!outs.(k) :: acc)
    in
    let body = collect (!nout - 1) [] in
    nout := start;
    body
  (* a child's pending stores stay emitted; the parent's were observed
     before entering it *)
  and walk_child (r : Instr.region) =
    let body = go r.Instr.body in
    observe_all ();
    { r with Instr.body }
  (* For / Workshare: kill the summary footprint in the parent, then walk
     the body from the surviving facts. Re-analyze it with cells seeded
     to their loop-entry value when iteration provably re-establishes it
     (the adjoint accumulate-then-zero pattern): the entry value from
     outside matches the body-exit value of a conservative first
     analysis. *)
  and loop k (body : Instr.region) =
    let s = loop_summary k body in
    let outer = Array.map lookup s.s_cells in
    observe_all ();
    apply_summary s;
    let pass seeds =
      let p = !top in
      List.iter (fun (c, a) -> set_fact c a) seeds;
      let r = walk_child body in
      r, p
    in
    let r1, p = pass [] in
    let stable = ref [] in
    Array.iteri
      (fun k c ->
        match outer.(k), lookup c with
        | Val v, Val v' when same_val v v' -> stable := (c, Val v) :: !stable
        | Zero, Val v' when is_plus_zero v' -> stable := (c, Zero) :: !stable
        | Zero, Zero -> stable := (c, Zero) :: !stable
        | _ -> ())
      s.s_cells;
    rollback p;
    if !stable = [] then r1
    else begin
      let r2, p = pass !stable in
      (* the body re-establishes these at exit; republish them *)
      let ok =
        List.filter
          (fun (c, a) ->
            match a, lookup c with
            | Val v, Val v' -> same_val v v'
            | Zero, Zero -> true
            | Zero, Val v' -> is_plus_zero v'
            | _ -> false)
          !stable
      in
      rollback p;
      List.iter (fun (c, a) -> set_fact c a) ok;
      r2
    end
  and emit_if rs c t e =
    (* branches may read anything still pending *)
    observe_all ();
    let p = !top in
    let t' = walk_child t in
    let tc, tb = touched p in
    let tv = Array.map lookup tc and tz = Array.map is_zero tb in
    rollback p;
    let e' = walk_child e in
    let ec, eb = touched p in
    let ev = Array.map lookup ec and ez = Array.map is_zero eb in
    rollback p;
    (* Back at the entry state. A branch's exit fact for a cell it left
       alone is the entry fact, read under that branch's exit zero bits. *)
    Array.iteri (fun k b -> zside.(b) <- if tz.(k) then 3 else 1) tb;
    Array.iteri
      (fun k b -> zside.(b) <- zside.(b) lor if ez.(k) then 12 else 4)
      eb;
    let side_zero touched_bit zero_bit b =
      let m = zside.(b) in
      if m land touched_bit <> 0 then m land zero_bit <> 0 else is_zero b
    in
    let side_fact touched_bit zero_bit c =
      match !fact.(c) with
      | Dflt -> if side_zero touched_bit zero_bit (base c) then Zero else Unk
      | a -> a
    in
    (* the union of touched cells, ascending, with both exit facts *)
    let visits = ref [] in
    let rec union i j =
      let ki = if i < Array.length tc then !key.(tc.(i)) else max_int in
      let kj = if j < Array.length ec then !key.(ec.(j)) else max_int in
      if ki < kj then begin
        visits := (tc.(i), tv.(i), side_fact 4 8 tc.(i)) :: !visits;
        union (i + 1) j
      end
      else if kj < ki then begin
        visits := (ec.(j), side_fact 1 2 ec.(j), ev.(j)) :: !visits;
        union i (j + 1)
      end
      else if ki < max_int then begin
        visits := (tc.(i), tv.(i), ev.(j)) :: !visits;
        union (i + 1) (j + 1)
      end
    in
    union 0 0;
    (* a base stays all zero only if both branches leave it so *)
    let merge_zero b =
      if zside.(b) <> 0 then begin
        set_zero b (side_zero 1 2 b && side_zero 4 8 b);
        zside.(b) <- 0
      end
    in
    Array.iter merge_zero tb;
    Array.iter merge_zero eb;
    (* merge the branch exits; disagreeing known cells become fresh If
       results (the mem2reg phi). Only a variable both branches share is
       in scope after the If: two equal constants, one per branch, merge
       to [Zero] when they are zero and to a phi otherwise. *)
    let zero_valued = function
      | Zero -> true
      | Val v -> is_plus_zero v
      | Unk | Dflt -> false
    in
    let promote = ref [] in
    List.iter
      (fun (c, mt, me) ->
        let merged =
          match mt, me with
          | (Unk | Dflt), _ | _, (Unk | Dflt) -> Unk
          | Val a, Val b when Var.id a = Var.id b -> Val a
          | (Val _ | Zero), (Val _ | Zero)
            when zero_valued mt && zero_valued me -> Zero
          | (Val _ | Zero), (Val _ | Zero) ->
            promote := (c, mt, me) :: !promote;
            Unk
        in
        match merged with
        | Unk -> set_fact c (if is_zero (base c) then Unk else Dflt)
        | a -> set_fact c a)
      (List.rev !visits);
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
      | Unk | Dflt -> None
    in
    (* Reuse an existing result whose then/else yields already carry
       exactly these merged values — typically a phi a previous run of
       this pass materialized. Without this, re-running the pass
       re-promotes the same cells into fresh results every time and the
       post-AD pipeline stops being idempotent. *)
    let matches a y =
      match a with
      | Val v -> same_val v y
      | Zero -> is_plus_zero y
      | Unk | Dflt -> false
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
      (fun (cl, mt, me) ->
        let ty =
          match mt, me with
          | Val v, _ | _, Val v -> Var.ty v
          | _ -> Ty.Float
        in
        match reuse ty mt me with
        | Some r -> set_fact cl (Val r)
        | None -> (
          match
            List.find_opt
              (fun (ty', mt', me', _) ->
                ty = ty' && aval_eq mt mt' && aval_eq me me')
              !created
          with
          | Some (_, _, _, r) -> set_fact cl (Val r)
          | None -> (
            match materialize tpre ty mt, materialize epre ty me with
            | Some vt, Some ve ->
              let r = fresh ctx ty "mf.phi" in
              extra_res := r :: !extra_res;
              extra_t := vt :: !extra_t;
              extra_e := ve :: !extra_e;
              created := (ty, mt, me, r) :: !created;
              set_fact cl (Val r)
            | _ -> ())))
      (List.rev !promote);
    let extend (r : Instr.region) pre extras =
      match List.rev r.Instr.body with
      | Instr.Yield vs :: rest ->
        { r with
          Instr.body =
            List.rev_append rest (List.rev pre @ [ Instr.Yield (vs @ extras) ])
        }
      | _ -> r (* unterminated branch: leave untouched *)
    in
    if !extra_res = [] then ignore (emit (Instr.If (rs, c, t', e')))
    else begin
      let t' = extend t' !tpre (List.rev !extra_t) in
      let e' = extend e' !epre (List.rev !extra_e) in
      ignore (emit (Instr.If (rs @ List.rev !extra_res, c, t', e')))
    end
  in
  let body = go f.body in
  (* No final substitution pass: operands are resolved as they are
     walked. An alias is recorded at the load it replaces, every use of
     that load is dominated by it, and the output of a region is always
     its last walk, so each use was walked after its alias was final. *)
  { f with body; var_count = ctx.next }
