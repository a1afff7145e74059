(** The compiled execution engine (ISSUE 9).

    Lowers post-plan IR to slot-addressed native closures and runs them
    on {!Sim} strands: fork members, tasks and MPI ranks are the
    simulator's cooperative strands, so the engine inherits its
    deterministic schedule.

    {b Lowering.} Each function's variables are assigned integer slots in
    four typed register files (float / int / bool / boxed) at compile
    time; every instruction becomes a closure over those slot ids that
    reads its operands straight from the typed files, so the hot path
    runs with no per-step environment allocation, no variable hashing,
    and no boxing of scalar traffic beyond the few allocations DESIGN.md
    lists. Straight-line instruction runs are fused into segments whose
    {!Stats} counters are incremented in one batch.

    {b Bit-identity.} The engine replicates the interpreter's observable
    semantics exactly: every virtual-time charge is issued individually,
    in the interpreter's order (float accumulation order matters), with
    the same deadline checks; scalar semantics reuse the interpreter's
    exact float discipline (Float.compare ordering, [<=]-min/max, the
    floor-through-int round trip); all non-hot intrinsics delegate to
    {!Interp.intrinsic} with the strand clock synchronized across the
    boundary. Sanitized or fuel-limited contexts fall back to the
    interpreter entirely. *)

open Parad_ir
open Parad_runtime
open Value

(* ---- runner state ---- *)

(* The strand's virtual clock. A single-field all-float record is flat
   in the OCaml value model, so the per-op charge mutates it in place —
   a mutable float field in the mixed [thr] record would instead box a
   fresh float (and run the write barrier) on every instruction. *)
type clk = { mutable now : float }

(* Deadline mirror of the running Sim engine: the native charge path
   enforces the same virtual budget (bit-identical trip point) and the
   same amortized wall-clock watchdog as Sim.charge. *)
type dl = {
  vdl : float option;
  wall_stop : int option;
  wall_ms : float;
  mutable tick : int;
}

type eframe = {
  f : float array;
  i : int array;
  b : bool array;
  v : Value.t array;
  sl : int array;
      (** tape slots of the float registers (parallel to [f]) — sized only
          for functions compiled in taping mode, [[||]] otherwise *)
  mutable istack : Interp.frame list;
      (** synthetic interpreter view of the call stack (shares [v]) — what
          delegated intrinsics and the GC root walk see. Mutable so cached
          member frames can be re-pointed at the current call chain. *)
  mutable stack_allocs : Value.buffer list ref;
}

type thr = {
  ctx : Interp.ctx;
  fcache : (int, eframe array) Hashtbl.t;
      (** parked member-frame sets by fork site, shared by every strand of
          the run (all strands of a run that execute forks live on one OS
          thread); created per {!exec_call_slots} call, i.e. per rank of
          one request *)
  cost : Cost_model.t;
  st : Stats.t;
  clock : clk;  (** never shared between strands: copies get fresh cells *)
  mutable socket : int;
  mutable team : (int * int) option;
  dl : dl option;
  mutable retv : Value.t;  (** return-value hand-off slot *)
  mutable rets : int;  (** return-value tape-slot hand-off (taping mode) *)
  mutable yb : bool;  (** while-condition hand-off slot *)
}


type status = Next | Ret | Yld

type code = thr -> eframe -> status
type sc = thr -> eframe -> unit

type cfun = {
  fn : Func.t;
  file : int array;  (** var id -> register file (0=f 1=i 2=b 3=v) *)
  idx : int array;  (** var id -> slot in its file *)
  nf : int;
  ni : int;
  nb : int;
  nv : int;
  tp : bool;  (** compiled in taping mode: frames carry tape slots *)
  mutable code : code;
}

type prepared = {
  prog : Prog.t;
  funcs : (string, cfun) Hashtbl.t;
  tfuncs : (string, cfun) Hashtbl.t;
      (** taping-mode compilations, kept apart so instrumented runs never
          slow the plain closures with runtime instrument checks *)
  plk : Mutex.t;
      (** guards [funcs]/[tfuncs]: call sites resolve lazily, and cached
          plans are shared by every caller of the service *)
}

let prepare prog =
  {
    prog;
    funcs = Hashtbl.create 16;
    tfuncs = Hashtbl.create 16;
    plk = Mutex.create ();
  }

(* ---- clock / deadline ---- *)

let wall_mask = 4095

let check_dl t (d : dl) =
  (match d.vdl with
  | Some lim when t.clock.now > lim ->
    raise
      (Sim.Deadline_exceeded { de_at = t.clock.now; de_limit = lim; de_wall = false })
  | _ -> ());
  match d.wall_stop with
  | Some stop ->
    d.tick <- d.tick + 1;
    if d.tick land wall_mask = 0 && Sim.wall_ns () > stop then
      raise
        (Sim.Deadline_exceeded
           { de_at = t.clock.now; de_limit = d.wall_ms; de_wall = true })
  | None -> ()

(* Inlined into every closure: a float argument of an out-of-line call
   is boxed, so a computed charge ([charge_mem]'s products) would
   allocate on every access. *)
let[@inline] charge t c =
  t.clock.now <- t.clock.now +. c;
  match t.dl with None -> () | Some d -> check_dl t d

(* Synchronize the engine clock with the current Sim strand around any
   interaction with the cooperative scheduler (delegated intrinsics,
   fork/spawn/sync/barrier). *)
let sync_out t = (Sim.self ()).Sim.clock <- t.clock.now
let sync_in t = t.clock.now <- (Sim.self ()).Sim.clock

let[@inline] charge_mem t (buf : Value.buffer) =
  let c = t.cost in
  let mult =
    if buf.socket <> t.socket then c.Cost_model.numa_remote_mult else 1.0
  in
  charge t (c.Cost_model.mem *. mult)

(* [n] cells of traffic in one charge (the k-wide adjoint intrinsics) *)
let charge_mem_n t (buf : Value.buffer) n =
  let c = t.cost in
  let mult =
    if buf.socket <> t.socket then c.Cost_model.numa_remote_mult else 1.0
  in
  charge t (c.Cost_model.mem *. mult *. float_of_int n)

(* transcendental ops cost less inside a rematerialization chain *)
let[@inline] transc_cost t =
  if t.ctx.Interp.remat_depth > 0 then t.cost.Cost_model.transcendental_remat
  else t.cost.Cost_model.transcendental

let rank_error t (buf : Value.buffer) =
  error "cross-rank memory access: buffer of rank %d touched by rank %d"
    buf.rank t.ctx.Interp.rank

let[@inline] check_rank t (buf : Value.buffer) =
  if buf.rank <> t.ctx.Interp.rank then rank_error t buf

(* The pointer operand of a memory op (the [VPtr] case inline; null and
   ill-typed values raise {!Value.to_ptr}'s messages). *)
let[@inline] ptr_of = function VPtr p -> p | v -> Value.to_ptr v

(* The lane group [off + base, off + base + n) of a float buffer, for
   the k-wide adjoint ops: the common case inline, {!Interp.fplane}
   (which raises the interpreter's message) otherwise. *)
let[@inline] plane who (p : ptr) ~base ~n =
  let i = p.off + base in
  match p.buf.data with
  | FCells a when (not p.buf.freed) && i >= 0 && i + n <= Array.length a -> a
  | _ -> Interp.fplane ~who p ~base ~n

(* Cell [ptr.off + idx] of a buffer of [len] cells. Liveness and bounds
   are one inline test; only an access about to fail calls
   {!Memory.check_access}, which raises the interpreter's message
   (use-after-free first, then bounds). [who] is [Some fname], built once
   per compiled closure. *)
let[@inline] cell who (ptr : ptr) len idx =
  let i = ptr.off + idx in
  if ptr.buf.freed || i < 0 || i >= len then
    ignore (Memory.check_access ?who ptr idx);
  i

(* ---- taping-mode (instrument) bridge ----

   Taped closures are compiled into a separate function table and only
   ever run under an instrumented context, so the hook lookup cannot fail
   on well-formed entries. [Interp.instrument.record] charges
   [tape_record] through the Sim strand clock, so the engine clock is
   bridged across every record call. *)

let tape_ins t =
  match t.ctx.Interp.instrument with
  | Some i -> i
  | None -> error "engine: taped code run without instrumentation"

let record1 t s1 p1 =
  let ins = tape_ins t in
  sync_out t;
  let s = ins.Interp.record [ s1, p1 ] in
  sync_in t;
  s

let record2 t s1 p1 s2 p2 =
  let ins = tape_ins t in
  sync_out t;
  let s = ins.Interp.record [ s1, p1; s2, p2 ] in
  sync_in t;
  s

let tape_buf_slots t (buf : Value.buffer) = (tape_ins t).Interp.buf_slots buf

(* Replicas of the interpreter's SDC hooks with [t.clock.now] standing in for
   [Sim.now ()] (identical by the engine's charge discipline). *)
let eng_apply_flips t =
  match t.ctx.Interp.faults with
  | Some fs
    when fs.Faults.flips_left <> [] && Cache_rt.has_sealed t.ctx.Interp.cache
    -> (
    match Faults.flip_gate fs ~rank:t.ctx.Interp.rank ~now:t.clock.now with
    | Some (cell, bit) -> (
      match Cache_rt.flip t.ctx.Interp.cache ~cell ~bit with
      | Some _ -> t.st.Stats.sdc_injected <- t.st.Stats.sdc_injected + 1
      | None -> ())
    | None -> ())
  | _ -> ()

let eng_corrupt_region t ~cache_id =
  t.st.Stats.sdc_detected <- t.st.Stats.sdc_detected + 1;
  raise
    (Checkpoint.Corrupt_region
       { cr_rank = t.ctx.Interp.rank; cr_cache = cache_id; cr_at = t.clock.now })

(* ---- frames ---- *)

let new_eframe cf caller_istack =
  let v = Array.make (max cf.nv 1) VUnit in
  {
    f = Array.make (max cf.nf 1) 0.0;
    i = Array.make (max cf.ni 1) 0;
    b = Array.make (max cf.nb 1) false;
    v;
    sl = (if cf.tp then Array.make (max cf.nf 1) 0 else [||]);
    istack = { Interp.vals = v; slots = None } :: caller_istack;
    stack_allocs = ref [];
  }

(* Fork-child frame: a copy of every register file (the interpreter copies
   the whole frame into each member), sharing the caller's stack-alloc
   list and the tail of the synthetic interpreter stack. *)
let copy_eframe fr =
  let v = Array.copy fr.v in
  {
    f = Array.copy fr.f;
    i = Array.copy fr.i;
    b = Array.copy fr.b;
    v;
    sl = Array.copy fr.sl;
    istack =
      { Interp.vals = v; slots = None }
      :: (match fr.istack with [] -> [] | _ :: tl -> tl);
    stack_allocs = fr.stack_allocs;
  }

(* ---- scalar semantics (identical to the interpreter's) ---- *)

let[@inline] fmin a b = if (a : float) <= b then a else b
let[@inline] fmax a b = if (a : float) >= b then a else b

(* Float unary ops, for the taped closures (the untaped ones are
   compiled one per op). *)
let[@inline] un_float op x =
  match op with
  | Instr.Neg -> -.x
  | Instr.Sqrt -> sqrt x
  | Instr.Sin -> sin x
  | Instr.Cos -> cos x
  | Instr.Exp -> exp x
  | Instr.Log -> log x
  | Instr.Abs -> Float.abs x
  | Instr.Floor -> Float.of_int (int_of_float (floor x))
  | Instr.ToFloat | Instr.ToInt | Instr.Not -> assert false

(* ---- lowering: slot assignment ---- *)

let make_cfun ~taped (fn : Func.t) =
  let n = max fn.Func.var_count 1 in
  let file = Array.make n 3 in
  let idx = Array.make n 0 in
  let seen = Array.make n false in
  let nf = ref 0 and ni = ref 0 and nb = ref 0 and nv = ref 0 in
  let place v =
    let id = Var.id v in
    if not seen.(id) then begin
      seen.(id) <- true;
      let fl, cell =
        match Var.ty v with
        | Ty.Float -> 0, nf
        | Ty.Int -> 1, ni
        | Ty.Bool -> 2, nb
        | Ty.Unit | Ty.Ptr _ -> 3, nv
      in
      file.(id) <- fl;
      idx.(id) <- !cell;
      incr cell
    end
  in
  List.iter place fn.Func.params;
  Instr.fold_instrs
    (fun () i ->
      List.iter place (Instr.defs i);
      List.iter place (Instr.uses i);
      (match i with
      | Instr.For { iv; _ } | Instr.Workshare { iv; _ } -> place iv
      | Instr.Fork { tid; _ } -> place tid
      | _ -> ());
      List.iter
        (fun r -> List.iter place r.Instr.params)
        (Instr.regions i))
    () fn.Func.body;
  {
    fn;
    file;
    idx;
    nf = !nf;
    ni = !ni;
    nb = !nb;
    nv = !nv;
    tp = taped;
    code = (fun _ _ -> error "engine: function compiled without a body");
  }

(* ---- member frames ----

   The interpreter enters a fork member by copying the entire enclosing
   frame — O(function vars) per member, which dwarfs the members' real
   work on wide teams. The engine's member frames instead hold compact
   slots for exactly the variables the body touches, and only the body's
   *live-in* variables (reads not dominated by a member-local write on
   every path) are copied from the parent; everything else is
   write-before-read scratch whose initial contents are unobservable.
   That same unobservability lets frames be recycled: each fork site
   parks its member frames in [thr.fcache] between executions within
   one run (one rank of one request), so a steady-state fork costs
   O(live-in) per member instead of O(function). *)

let next_fsite = Atomic.make 0

(* Forward dominance scan: walking the body in program order, a use of a
   variable with no write textually before it on the current path reads
   the parent's value in the first iteration. Region defs never escape
   their region (loops may run zero times, if-branches may not be taken),
   which only over-approximates the live-in set — harmless. *)
let region_live_in n (r : Instr.region) entry_defs =
  let live = Array.make n false in
  let w0 = Array.make n false in
  let def w v = w.(Var.id v) <- true in
  let use w v =
    let id = Var.id v in
    if not w.(id) then live.(id) <- true
  in
  List.iter (def w0) entry_defs;
  List.iter (def w0) r.Instr.params;
  let rec scan w il =
    List.iter
      (fun (i : Instr.t) ->
        List.iter (use w) (Instr.uses i);
        (match i with
        | Instr.If (_, _, tr, er) ->
          sub w tr;
          sub w er
        | Instr.For { iv; body; _ } | Instr.Workshare { iv; body; _ } ->
          let wb = Array.copy w in
          def wb iv;
          List.iter (def wb) body.Instr.params;
          scan wb body.Instr.body
        | Instr.While { cond; body } ->
          sub w cond;
          sub w body
        | Instr.Fork { tid; body; _ } ->
          let wb = Array.copy w in
          def wb tid;
          List.iter (def wb) body.Instr.params;
          scan wb body.Instr.body
        | _ -> ());
        List.iter (def w) (Instr.defs i))
      il
  and sub w (rg : Instr.region) =
    let wb = Array.copy w in
    List.iter (def wb) rg.Instr.params;
    scan wb rg.Instr.body
  in
  scan (Array.copy w0) r.Instr.body;
  live

let make_body_frame (parent : cfun) (r : Instr.region) ~entry_defs =
  let n = Array.length parent.file in
  let file = Array.make n 3 in
  let idx = Array.make n 0 in
  let seen = Array.make n false in
  let nf = ref 0 and ni = ref 0 and nb = ref 0 and nv = ref 0 in
  let place v =
    let id = Var.id v in
    if not seen.(id) then begin
      seen.(id) <- true;
      let fl, cell =
        match Var.ty v with
        | Ty.Float -> 0, nf
        | Ty.Int -> 1, ni
        | Ty.Bool -> 2, nb
        | Ty.Unit | Ty.Ptr _ -> 3, nv
      in
      file.(id) <- fl;
      idx.(id) <- !cell;
      incr cell
    end
  in
  List.iter place entry_defs;
  List.iter place r.Instr.params;
  Instr.fold_instrs
    (fun () i ->
      List.iter place (Instr.defs i);
      List.iter place (Instr.uses i);
      (match i with
      | Instr.For { iv; _ } | Instr.Workshare { iv; _ } -> place iv
      | Instr.Fork { tid; _ } -> place tid
      | _ -> ());
      List.iter (fun rg -> List.iter place rg.Instr.params) (Instr.regions i))
    () r.Instr.body;
  let sub =
    {
      fn = parent.fn;
      file;
      idx;
      nf = !nf;
      ni = !ni;
      nb = !nb;
      nv = !nv;
      tp = false;
      code = (fun _ _ -> error "engine: member frame has no code");
    }
  in
  (* parent-slot -> member-slot copy pairs, packed [src; dst; ...],
     live-in variables only *)
  let live = region_live_in n r entry_defs in
  let mf = ref [] and mi = ref [] and mb = ref [] and mv = ref [] in
  for id = 0 to n - 1 do
    if seen.(id) && live.(id) then begin
      let moves =
        match file.(id) with 0 -> mf | 1 -> mi | 2 -> mb | _ -> mv
      in
      moves := idx.(id) :: parent.idx.(id) :: !moves
    end
  done;
  let pack l = Array.of_list (List.rev !l) in
  let cf = pack mf and ci = pack mi and cb = pack mb and cv = pack mv in
  let site = Atomic.fetch_and_add next_fsite 1 in
  let fresh () =
    let v = Array.make (max sub.nv 1) VUnit in
    {
      f = Array.make (max sub.nf 1) 0.0;
      i = Array.make (max sub.ni 1) 0;
      b = Array.make (max sub.nb 1) false;
      v;
      sl = [||];
      istack = [ { Interp.vals = v; slots = None } ];
      stack_allocs = ref [];
    }
  in
  (* Point a (possibly recycled) member frame at the current execution:
     fresh call chain, current stack-alloc list, live-in values. *)
  let refresh (m : eframe) (fr : eframe) =
    (match m.istack with
    | h :: _ ->
      m.istack <-
        (h :: (match fr.istack with [] -> [] | _ :: tl -> tl))
    | [] -> assert false);
    m.stack_allocs <- fr.stack_allocs;
    let k = Array.length cf in
    let j = ref 0 in
    while !j < k do
      m.f.(cf.(!j + 1)) <- fr.f.(cf.(!j));
      j := !j + 2
    done;
    let k = Array.length ci in
    let j = ref 0 in
    while !j < k do
      m.i.(ci.(!j + 1)) <- fr.i.(ci.(!j));
      j := !j + 2
    done;
    let k = Array.length cb in
    let j = ref 0 in
    while !j < k do
      m.b.(cb.(!j + 1)) <- fr.b.(cb.(!j));
      j := !j + 2
    done;
    let k = Array.length cv in
    let j = ref 0 in
    while !j < k do
      m.v.(cv.(!j + 1)) <- fr.v.(cv.(!j));
      j := !j + 2
    done
  in
  let checkout (t : thr) (fr : eframe) width =
    let frames =
      match Hashtbl.find_opt t.fcache site with
      | Some a when Array.length a >= width ->
        Hashtbl.remove t.fcache site;
        a
      | _ -> Array.init width (fun _ -> fresh ())
    in
    for m = 0 to width - 1 do
      refresh frames.(m) fr
    done;
    frames
  in
  let checkin (t : thr) frames = Hashtbl.replace t.fcache site frames in
  sub, checkout, checkin

(* ---- compile-time accessors ---- *)

type ydest = YNone | YVars of Var.t list | YCond

type env = {
  prep : prepared;
  cf : cfun;
  fname : string;
  ydest : ydest;
  taped : bool;  (** compiling for an instrumented (tape-baseline) run *)
}

let slot env v = env.cf.idx.(Var.id v)

(* Boxed read of any variable. *)
let reader env v : eframe -> Value.t =
  let s = slot env v in
  match Var.ty v with
  | Ty.Float -> fun fr -> VFloat fr.f.(s)
  | Ty.Int -> fun fr -> VInt fr.i.(s)
  | Ty.Bool -> fun fr -> VBool fr.b.(s)
  | Ty.Unit | Ty.Ptr _ -> fun fr -> fr.v.(s)

(* Boxed write into a typed slot. Conversions raise the interpreter's
   error messages; on well-typed IR they never fire. *)
let writer env v : eframe -> Value.t -> unit =
  let s = slot env v in
  match Var.ty v with
  | Ty.Float -> fun fr x -> fr.f.(s) <- Value.to_float x
  | Ty.Int -> fun fr x -> fr.i.(s) <- Value.to_int x
  | Ty.Bool -> fun fr x -> fr.b.(s) <- Value.to_bool x
  | Ty.Unit | Ty.Ptr _ -> fun fr x -> fr.v.(s) <- x

let ird env v : eframe -> int =
  let s = slot env v in
  match Var.ty v with
  | Ty.Int -> fun fr -> fr.i.(s)
  | _ ->
    let r = reader env v in
    fun fr -> Value.to_int (r fr)

let brd env v : eframe -> bool =
  let s = slot env v in
  match Var.ty v with
  | Ty.Bool -> fun fr -> fr.b.(s)
  | _ ->
    let r = reader env v in
    fun fr -> Value.to_bool (r fr)

(* Raw slot indices for operands read straight out of the typed frame
   arrays (two loads each) instead of through generic reader closures (a
   [caml_apply] per operand, and a boxed float per float read): the
   memory ops and the hot fused reverse-statement ops, which take ~18
   arguments. Operand types are fixed by the verifier (memory ops) or by
   the reverse engine's emission (adjoint intrinsics); anything else is
   malformed IR and fails at lowering, naming [op]. *)
let pslot ?(op = "adjoint intrinsic") env v =
  match Var.ty v with
  | Ty.Ptr _ -> slot env v
  | t -> error "%s: pointer argument has type %a" op Ty.pp t

let islot ?(op = "adjoint intrinsic") env v =
  match Var.ty v with
  | Ty.Int -> slot env v
  | t -> error "%s: int argument has type %a" op Ty.pp t

let fslot ?(op = "adjoint intrinsic") env v =
  match Var.ty v with
  | Ty.Float -> slot env v
  | t -> error "%s: float argument has type %a" op Ty.pp t

let bslot env v =
  match Var.ty v with
  | Ty.Bool -> slot env v
  | t -> error "adjoint intrinsic: bool argument has type %a" Ty.pp t

(* Same-frame move [src -> dst], register-to-register when the types
   agree, boxed otherwise. In taping mode a float move also carries the
   source's tape slot (the interpreter's [Select]/yield slot copies); a
   cross-type write into a float leaves the passive slot. *)
let xmove env src dst : eframe -> unit =
  if Ty.equal (Var.ty src) (Var.ty dst) then begin
    let s = slot env src and d = slot env dst in
    match Var.ty dst with
    | Ty.Float ->
      if env.taped then fun fr ->
        fr.f.(d) <- fr.f.(s);
        fr.sl.(d) <- fr.sl.(s)
      else fun fr -> fr.f.(d) <- fr.f.(s)
    | Ty.Int -> fun fr -> fr.i.(d) <- fr.i.(s)
    | Ty.Bool -> fun fr -> fr.b.(d) <- fr.b.(s)
    | Ty.Unit | Ty.Ptr _ -> fun fr -> fr.v.(d) <- fr.v.(s)
  end
  else begin
    let r = reader env src and w = writer env dst in
    match Var.ty dst with
    | Ty.Float when env.taped ->
      let d = slot env dst in
      fun fr ->
        w fr (r fr);
        fr.sl.(d) <- 0
    | _ -> fun fr -> w fr (r fr)
  end

(* Loop-variable write (always an int in well-formed IR). *)
let ivw env v : eframe -> int -> unit =
  let s = slot env v in
  match Var.ty v with
  | Ty.Int -> fun fr n -> fr.i.(s) <- n
  | _ ->
    let w = writer env v in
    fun fr n -> w fr (VInt n)

(* Caller-frame -> callee-frame argument move (types already checked).
   Taped calls pass the argument's tape slot along with its value. *)
let arg_move env (ccf : cfun) (p : Var.t) (a : Var.t) :
    eframe -> eframe -> unit =
  let s = env.cf.idx.(Var.id a) and d = ccf.idx.(Var.id p) in
  match Var.ty p with
  | Ty.Float ->
    if env.taped then fun src dst ->
      dst.f.(d) <- src.f.(s);
      dst.sl.(d) <- src.sl.(s)
    else fun src dst -> dst.f.(d) <- src.f.(s)
  | Ty.Int -> fun src dst -> dst.i.(d) <- src.i.(s)
  | Ty.Bool -> fun src dst -> dst.b.(d) <- src.b.(s)
  | Ty.Unit | Ty.Ptr _ -> fun src dst -> dst.v.(d) <- src.v.(s)

(* Boxed write of argument [a] into param [p]'s slot of [cf]'s frame. *)
let write_boxed (cf : cfun) (p : Var.t) fr (a : Value.t) =
  let d = cf.idx.(Var.id p) in
  match Var.ty p with
  | Ty.Float -> fr.f.(d) <- Value.to_float a
  | Ty.Int -> fr.i.(d) <- Value.to_int a
  | Ty.Bool -> fr.b.(d) <- Value.to_bool a
  | Ty.Unit | Ty.Ptr _ -> fr.v.(d) <- a

(* ---- barriers (runtime) ---- *)

let do_barrier t =
  sync_out t;
  Sim.barrier ();
  sync_in t

(* ---- loop drivers ----

   Top-level, so entering a block or a loop allocates no closure over
   the running frame. *)

let rec run_items (items : code array) n t fr k =
  if k = n then Next
  else
    match items.(k) t fr with
    | Next -> run_items items n t fr (k + 1)
    | (Ret | Yld) as o -> o

(* Workshare iterations [i, stop) by [step]; a return/yield ends them. *)
let rec run_share (body : code) ivw t fr i stop step =
  if i < stop then begin
    charge t t.cost.Cost_model.arith;
    ivw fr i;
    match body t fr with
    | Next -> run_share body ivw t fr (i + step) stop step
    | Ret | Yld -> ()
  end

let rec run_for (body : code) ivw t fr i hi sp =
  if i >= hi then Next
  else begin
    charge t t.cost.Cost_model.arith;
    ivw fr i;
    match try body t fr with Checkpoint.Skip_iteration -> Next with
    | Next -> run_for body ivw t fr (i + sp) hi sp
    | (Ret | Yld) as o -> o
  end

let rec run_while (cond : code) (body : code) t fr =
  charge t t.cost.Cost_model.arith;
  match cond t fr with
  | Yld ->
    if t.yb then begin
      match try body t fr with Checkpoint.Skip_iteration -> Next with
      | Next -> run_while cond body t fr
      | (Ret | Yld) as o -> o
    end
    else Next
  | Next | Ret -> error "while condition region must yield one bool"

(* Free what a returning call left on its stack ([site] names the callee). *)
let rec release_stack t site = function
  | [] -> ()
  | (b : Value.buffer) :: rest ->
    if not b.freed then Memory.free ?site t.ctx.Interp.mem b;
    release_stack t site rest

(* ---- memory ops ----

   Bodies of the compiled Load/Store/AtomicAdd closures, inlined into
   each so no float crosses a call. They read the pointer and the index
   straight from their slots [sp]/[sx] and keep the interpreter's order:
   pointer, rank, charge, then use-after-free, then bounds ({!cell}).
   Float buffers ([FCells]) are accessed in place; boxed [VCells] float
   access and non-float stores go through [Memory], which carries the
   element-type checks. [who] is the closure's [Some fname]. *)

let[@inline] load_float who t fr sp sx =
  let ptr = ptr_of fr.v.(sp) in
  check_rank t ptr.buf;
  charge_mem t ptr.buf;
  let idx = fr.i.(sx) in
  match ptr.buf.data with
  | FCells a -> Array.unsafe_get a (cell who ptr (Array.length a) idx)
  | VCells _ -> Value.to_float (Memory.load ?who ptr idx)

(* a non-float load: the stored cell, as boxed in the buffer *)
let[@inline] load_value who t fr sp sx =
  let ptr = ptr_of fr.v.(sp) in
  check_rank t ptr.buf;
  charge_mem t ptr.buf;
  let idx = fr.i.(sx) in
  match ptr.buf.data with
  | VCells a -> Array.unsafe_get a (cell who ptr (Array.length a) idx)
  | FCells _ -> Memory.load ?who ptr idx

let[@inline] store_float who t fr sp sx x =
  let ptr = ptr_of fr.v.(sp) in
  check_rank t ptr.buf;
  charge_mem t ptr.buf;
  let idx = fr.i.(sx) in
  match ptr.buf.data with
  | FCells a -> Array.unsafe_set a (cell who ptr (Array.length a) idx) x
  | VCells _ -> Memory.store ?who ptr idx (VFloat x)

let[@inline] store_value who t fr sp sx v =
  let ptr = ptr_of fr.v.(sp) in
  check_rank t ptr.buf;
  charge_mem t ptr.buf;
  Memory.store ?who ptr fr.i.(sx) v

(* AtomicAdd charges before it touches the pointer, as the interpreter *)
let[@inline] add_float who t fr sp sx x =
  charge t t.cost.Cost_model.atomic;
  let ptr = ptr_of fr.v.(sp) in
  check_rank t ptr.buf;
  let idx = fr.i.(sx) in
  match ptr.buf.data with
  | FCells a ->
    let i = cell who ptr (Array.length a) idx in
    Array.unsafe_set a i (Array.unsafe_get a i +. x)
  | VCells _ ->
    let old = Value.to_float (Memory.load ?who ptr idx) in
    Memory.store ?who ptr idx (VFloat (old +. x))

(* ---- the compiler ---- *)

let rec compile_block env (body : Instr.t list) : code =
  let is_ctrl = function
    | Instr.If _ | Instr.For _ | Instr.While _ | Instr.Return _
    | Instr.Yield _ -> true
    | _ -> false
  in
  let flush acc seg =
    match seg with [] -> acc | _ -> `Seg (List.rev seg) :: acc
  in
  let rec chunks acc seg = function
    | [] -> List.rev (flush acc seg)
    | i :: rest when is_ctrl i -> chunks (`Ctl i :: flush acc seg) [] rest
    | i :: rest -> chunks acc (i :: seg) rest
  in
  let items =
    Array.of_list
      (List.map
         (function
           | `Seg l -> compile_segment env l
           | `Ctl i -> compile_ctrl env i)
         (chunks [] [] body))
  in
  match Array.length items with
  | 0 -> fun _ _ -> Next
  | 1 -> items.(0)
  | n -> fun t fr -> run_items items n t fr 0

(* A straight-line segment: every instruction always executes exactly
   once, so the per-instruction Stats counters are batched into one
   prologue (virtual-time charges stay per-op — float order matters). *)
and compile_segment env (l : Instr.t list) : code =
  let ops = Array.of_list (List.map (compile_straight env) l) in
  let n = Array.length ops in
  let count p = List.fold_left (fun k i -> if p i then k + 1 else k) 0 l in
  let nins = List.length l in
  let nfl =
    count (function
      | Instr.Bin (v, _, _, _) | Instr.Un (v, _, _) -> (
        match Var.ty v with Ty.Float -> true | _ -> false)
      | _ -> false)
  in
  let nld = count (function Instr.Load _ -> true | _ -> false) in
  let nst = count (function Instr.Store _ -> true | _ -> false) in
  let nat = count (function Instr.AtomicAdd _ -> true | _ -> false) in
  let nal = count (function Instr.Alloc _ -> true | _ -> false) in
  let nfre = count (function Instr.Free _ -> true | _ -> false) in
  fun t fr ->
    let s = t.st in
    s.Stats.instrs <- s.Stats.instrs + nins;
    if nfl > 0 then s.Stats.flops <- s.Stats.flops + nfl;
    if nld > 0 then s.Stats.loads <- s.Stats.loads + nld;
    if nst > 0 then s.Stats.stores <- s.Stats.stores + nst;
    if nat > 0 then s.Stats.atomics <- s.Stats.atomics + nat;
    if nal > 0 then s.Stats.allocs <- s.Stats.allocs + nal;
    if nfre > 0 then s.Stats.frees <- s.Stats.frees + nfre;
    for k = 0 to n - 1 do
      (Array.unsafe_get ops k) t fr
    done;
    Next

and compile_straight env (i : Instr.t) : sc =
  match i with
  | Instr.Const (v, k) -> (
    match k, Var.ty v with
    | Instr.Cfloat x, Ty.Float ->
      let d = slot env v in
      if env.taped then fun t fr ->
        charge t t.cost.Cost_model.arith;
        fr.f.(d) <- x;
        fr.sl.(d) <- 0
      else fun t fr ->
        charge t t.cost.Cost_model.arith;
        fr.f.(d) <- x
    | Instr.Cint x, Ty.Int ->
      let d = slot env v in
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        fr.i.(d) <- x
    | Instr.Cbool x, Ty.Bool ->
      let d = slot env v in
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        fr.b.(d) <- x
    | _ ->
      let w = writer env v in
      let x =
        match k with
        | Instr.Cunit -> VUnit
        | Instr.Cbool b -> VBool b
        | Instr.Cint n -> VInt n
        | Instr.Cfloat f -> VFloat f
        | Instr.Cnull ty -> VNull ty
      in
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        w fr x)
  | Instr.Bin (v, op, a, b) -> (
    match Var.ty a, Var.ty b, Var.ty v with
    | Ty.Float, Ty.Float, Ty.Float ->
      if env.taped then compile_fbin_taped env v op a b
      else compile_fbin env v op a b
    | Ty.Int, Ty.Int, Ty.Int -> compile_ibin env v op a b
    | _ -> fun _ _ -> error "bad operands for %s" (Instr.binop_name op))
  | Instr.Cmp (v, op, a, b) -> compile_cmp env v op a b
  | Instr.Un (v, op, a) -> compile_un env v op a
  | Instr.Select (v, cond, a, b) ->
    let crd = brd env cond in
    let mva = xmove env a v
    and mvb = xmove env b v in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      if crd fr then mva fr else mvb fr
  | Instr.Alloc (v, elem, n, kind) ->
    let n_rd = ird env n in
    let w = writer env v in
    let site = env.fname ^ "/" ^ Var.name v in
    let gc_extra = match kind with Instr.Gc -> true | _ -> false in
    let on_stack = match kind with Instr.Stack -> true | _ -> false in
    fun t fr ->
      let size = n_rd fr in
      t.st.Stats.alloc_cells <- t.st.Stats.alloc_cells + size;
      charge t
        (t.cost.Cost_model.alloc_base
        +. (t.cost.Cost_model.alloc_per_cell *. float_of_int size)
        +. (if gc_extra then t.cost.Cost_model.gc_alloc_extra else 0.0));
      let buf =
        Memory.alloc t.ctx.Interp.mem ~elem ~size ~kind ~socket:t.socket ~site
      in
      if on_stack then fr.stack_allocs := buf :: !(fr.stack_allocs);
      w fr (VPtr { buf; off = 0 })
  | Instr.Free p ->
    let p_rd = reader env p in
    let fname = env.fname in
    fun t fr -> (
      charge t t.cost.Cost_model.free;
      match p_rd fr with
      | VPtr { buf; off = _ } -> Memory.free ~site:fname t.ctx.Interp.mem buf
      | VNull _ -> ()
      | _ -> error "free of non-pointer")
  | Instr.Load (v, p, ix) -> (
    let sp = pslot ~op:"load" env p
    and sx = islot ~op:"load" env ix
    and d = slot env v
    and who = Some env.fname in
    match Var.ty v with
    | Ty.Float ->
      if env.taped then fun t fr ->
        fr.f.(d) <- load_float who t fr sp sx;
        let ptr = ptr_of fr.v.(sp) in
        fr.sl.(d) <- (tape_buf_slots t ptr.buf).(ptr.off + fr.i.(sx))
      else fun t fr -> fr.f.(d) <- load_float who t fr sp sx
    | Ty.Int -> fun t fr -> fr.i.(d) <- Value.to_int (load_value who t fr sp sx)
    | Ty.Bool ->
      fun t fr -> fr.b.(d) <- Value.to_bool (load_value who t fr sp sx)
    | Ty.Unit | Ty.Ptr _ -> fun t fr -> fr.v.(d) <- load_value who t fr sp sx)
  | Instr.Store (p, ix, x) -> (
    let sp = pslot ~op:"store" env p
    and sx = islot ~op:"store" env ix
    and sv = slot env x
    and who = Some env.fname in
    match Var.ty x with
    | Ty.Float ->
      if env.taped then fun t fr ->
        store_float who t fr sp sx fr.f.(sv);
        let ptr = ptr_of fr.v.(sp) in
        (tape_buf_slots t ptr.buf).(ptr.off + fr.i.(sx)) <- fr.sl.(sv)
      else fun t fr -> store_float who t fr sp sx fr.f.(sv)
    | Ty.Int -> fun t fr -> store_value who t fr sp sx (VInt fr.i.(sv))
    | Ty.Bool ->
      fun t fr ->
        store_value who t fr sp sx
          (if fr.b.(sv) then VBool true else VBool false)
    | Ty.Unit | Ty.Ptr _ -> fun t fr -> store_value who t fr sp sx fr.v.(sv))
  | Instr.Gep (v, p, ix) ->
    let sp = pslot ~op:"gep" env p
    and sx = islot ~op:"gep" env ix
    and d = pslot ~op:"gep" env v in
    fun t fr -> (
      charge t t.cost.Cost_model.arith;
      match fr.v.(sp) with
      | VPtr ptr -> fr.v.(d) <- VPtr { ptr with off = ptr.off + fr.i.(sx) }
      | VNull _ -> error "gep on null pointer"
      | _ -> error "gep on non-pointer")
  | Instr.AtomicAdd (p, ix, x) ->
    let sp = pslot ~op:"atomic.add" env p
    and sx = islot ~op:"atomic.add" env ix
    and sv = fslot ~op:"atomic.add" env x
    and who = Some env.fname in
    if env.taped then fun t fr ->
      add_float who t fr sp sx fr.f.(sv);
      let ptr = ptr_of fr.v.(sp) in
      let bs = tape_buf_slots t ptr.buf
      and i = ptr.off + fr.i.(sx) in
      bs.(i) <- record2 t bs.(i) 1.0 fr.sl.(sv) 1.0
    else fun t fr -> add_float who t fr sp sx fr.f.(sv)
  | Instr.Call (v, name, args) ->
    if String.contains name '.' then begin
      let base = compile_intrinsic env v name args in
      (* the interpreter's intrinsics all return the passive slot *)
      match env.taped, Var.ty v with
      | true, Ty.Float ->
        let d = slot env v in
        fun t fr ->
          base t fr;
          fr.sl.(d) <- 0
      | _ -> base
    end
    else compile_ucall env v name args
  | Instr.Spawn _ when env.taped ->
    fun _ _ -> error "tape baseline cannot differentiate task parallelism"
  | Instr.Spawn (v, name, args) ->
    let readers = List.map (reader env) args in
    let w = writer env v in
    let prep = env.prep in
    fun t fr ->
      let vals = List.map (fun r -> r fr) readers in
      let id = t.ctx.Interp.next_task in
      t.ctx.Interp.next_task <- id + 1;
      let ret = ref VUnit in
      sync_out t;
      let task =
        Sim.spawn (fun () ->
            let s = Sim.self () in
            let ct =
              {
                t with
                clock = { now = s.Sim.clock };
                socket = s.Sim.socket;
                team = None;
              }
            in
            ret := call_boxed prep ct name vals;
            sync_out ct)
      in
      sync_in t;
      Hashtbl.add t.ctx.Interp.tasks id (task, ret);
      w fr (VInt id)
  | Instr.Sync h ->
    let h_rd = ird env h in
    fun t fr -> (
      let id = h_rd fr in
      match Hashtbl.find_opt t.ctx.Interp.tasks id with
      | Some (task, _) ->
        sync_out t;
        Sim.sync task;
        sync_in t
      | None -> error "sync on unknown task %d" id)
  | Instr.Barrier ->
    fun t _fr -> (
      match t.team with
      | Some (_, w) when w > 1 -> do_barrier t
      | Some _ | None -> ())
  | Instr.Workshare { iv; lo; hi; body; schedule; nowait } ->
    let body_code = compile_block env body.Instr.body in
    let ivw = ivw env iv in
    let lo_rd = ird env lo
    and hi_rd = ird env hi in
    fun t fr ->
      let tid, width =
        match t.team with
        | Some tw -> tw
        | None -> error "workshare outside a fork"
      in
      let lo = lo_rd fr
      and hi = hi_rd fr in
      let len = max 0 (hi - lo) in
      (match schedule with
      | Instr.Chunked ->
        run_share body_code ivw t fr
          (lo + (len * tid / width))
          (lo + (len * (tid + 1) / width))
          1
      | Instr.Cyclic -> run_share body_code ivw t fr (lo + tid) hi width);
      if (not nowait) && width > 1 then do_barrier t
  | Instr.Fork _ when env.taped ->
    fun _ _ ->
      error "tape baseline cannot differentiate fork/join parallelism"
  | Instr.Fork { tid; nth; body } ->
    let uses_gc_roots =
      let found = ref false in
      Instr.fold_instrs
        (fun () i ->
          match i with
          | Instr.Call (_, "gc.collect", _) -> found := true
          | _ -> ())
        () body.Instr.body;
      !found
    in
    let benv, checkout, checkin =
      if uses_gc_roots then
        (* gc.collect walks every frame's value file for roots, so members
           must see the interpreter's full-copy frames; no recycling *)
        ( env,
          (fun _t fr width -> Array.init width (fun _ -> copy_eframe fr)),
          fun _t _frames -> () )
      else begin
        let subcf, checkout, checkin =
          make_body_frame env.cf body ~entry_defs:[ tid; nth ]
        in
        { env with cf = subcf }, checkout, checkin
      end
    in
    let body_code = compile_block benv body.Instr.body in
    let tidw = ivw benv tid in
    let nth_slot =
      match body.Instr.params with [ _; q ] -> Some (ivw benv q) | _ -> None
    in
    let nth_rd = ird env nth in
    fun t fr ->
      let width =
        match nth_rd fr with
        | 0 -> t.ctx.Interp.cfg.Interp.nthreads
        | n when n > 0 -> n
        | n -> error "fork with negative width %d" n
      in
      let total = t.ctx.Interp.nranks * width in
      let socket_of tt =
        Cost_model.socket_of t.cost
          ~index:((t.ctx.Interp.rank * width) + tt)
          ~width:total
      in
      let nthw =
        match nth_slot with Some w -> w | None -> error "malformed fork body"
      in
      let frames = checkout t fr width in
      sync_out t;
      Sim.fork ~socket_of ~width (fun ~tid:tt ~width:w ->
          let cfr = frames.(tt) in
          tidw cfr tt;
          nthw cfr w;
          let s = Sim.self () in
          let ct =
            {
              t with
              clock = { now = s.Sim.clock };
              socket = s.Sim.socket;
              team = Some (tt, w);
            }
          in
          (match body_code ct cfr with
          | Next -> ()
          | Ret | Yld -> error "fork body may not return/yield");
          sync_out ct);
      sync_in t;
      checkin t frames
  | Instr.If _ | Instr.For _ | Instr.While _ | Instr.Return _ | Instr.Yield _
    -> assert false (* control; routed to compile_ctrl *)

and compile_fbin env v op a b : sc =
  let sa = slot env a
  and sb = slot env b
  and d = slot env v in
  match op with
  | Instr.Add ->
    fun t fr ->
      let r = fr.f.(sa) +. fr.f.(sb) in
      charge t t.cost.Cost_model.arith;
      fr.f.(d) <- r
  | Instr.Sub ->
    fun t fr ->
      let r = fr.f.(sa) -. fr.f.(sb) in
      charge t t.cost.Cost_model.arith;
      fr.f.(d) <- r
  | Instr.Mul ->
    fun t fr ->
      let r = fr.f.(sa) *. fr.f.(sb) in
      charge t t.cost.Cost_model.arith;
      fr.f.(d) <- r
  | Instr.Div ->
    fun t fr ->
      let r = fr.f.(sa) /. fr.f.(sb) in
      charge t t.cost.Cost_model.arith;
      fr.f.(d) <- r
  | Instr.Min ->
    fun t fr ->
      let r = fmin fr.f.(sa) fr.f.(sb) in
      charge t t.cost.Cost_model.arith;
      fr.f.(d) <- r
  | Instr.Max ->
    fun t fr ->
      let r = fmax fr.f.(sa) fr.f.(sb) in
      charge t t.cost.Cost_model.arith;
      fr.f.(d) <- r
  | Instr.Pow ->
    fun t fr ->
      let r = Float.pow fr.f.(sa) fr.f.(sb) in
      charge t (transc_cost t);
      fr.f.(d) <- r
  | Instr.Rem -> fun _ _ -> error "bad operands for %s" (Instr.binop_name op)

(* Taping-mode float binop: same value math and charges as the untaped
   closure, plus one tape record carrying the operand partials. *)
and compile_fbin_taped env v op a b : sc =
  let sa = slot env a
  and sb = slot env b
  and d = slot env v in
  match op with
  | Instr.Rem -> fun _ _ -> error "bad operands for %s" (Instr.binop_name op)
  | Instr.Pow ->
    fun t fr ->
      let x = fr.f.(sa)
      and y = fr.f.(sb) in
      let r = Float.pow x y in
      charge t (transc_cost t);
      fr.f.(d) <- r;
      let px, py = Interp.bin_partials op x y r in
      fr.sl.(d) <- record2 t fr.sl.(sa) px fr.sl.(sb) py
  | _ ->
    fun t fr ->
      let x = fr.f.(sa)
      and y = fr.f.(sb) in
      (* a switch on the captured op: a [float -> float -> float] closure
         call would box both operands and the result *)
      let r =
        match op with
        | Instr.Add -> x +. y
        | Instr.Sub -> x -. y
        | Instr.Mul -> x *. y
        | Instr.Div -> x /. y
        | Instr.Min -> fmin x y
        | Instr.Max -> fmax x y
        | Instr.Pow | Instr.Rem -> assert false
      in
      charge t t.cost.Cost_model.arith;
      fr.f.(d) <- r;
      let px, py = Interp.bin_partials op x y r in
      fr.sl.(d) <- record2 t fr.sl.(sa) px fr.sl.(sb) py

and compile_ibin env v op a b : sc =
  let sa = slot env a
  and sb = slot env b
  and d = slot env v in
  match op with
  | Instr.Add ->
    fun t fr ->
      let r = fr.i.(sa) + fr.i.(sb) in
      charge t t.cost.Cost_model.arith;
      fr.i.(d) <- r
  | Instr.Sub ->
    fun t fr ->
      let r = fr.i.(sa) - fr.i.(sb) in
      charge t t.cost.Cost_model.arith;
      fr.i.(d) <- r
  | Instr.Mul ->
    fun t fr ->
      let r = fr.i.(sa) * fr.i.(sb) in
      charge t t.cost.Cost_model.arith;
      fr.i.(d) <- r
  | Instr.Div ->
    fun t fr ->
      let y = fr.i.(sb) in
      if y = 0 then error "integer division by zero";
      let r = fr.i.(sa) / y in
      charge t t.cost.Cost_model.arith;
      fr.i.(d) <- r
  | Instr.Rem ->
    fun t fr ->
      let y = fr.i.(sb) in
      if y = 0 then error "integer remainder by zero";
      let r = fr.i.(sa) mod y in
      charge t t.cost.Cost_model.arith;
      fr.i.(d) <- r
  | Instr.Min ->
    fun t fr ->
      let x = fr.i.(sa)
      and y = fr.i.(sb) in
      let r = if x <= y then x else y in
      charge t t.cost.Cost_model.arith;
      fr.i.(d) <- r
  | Instr.Max ->
    fun t fr ->
      let x = fr.i.(sa)
      and y = fr.i.(sb) in
      let r = if x >= y then x else y in
      charge t t.cost.Cost_model.arith;
      fr.i.(d) <- r
  | Instr.Pow -> fun _ _ -> error "bad operands for %s" (Instr.binop_name op)

and compile_cmp env v op a b : sc =
  let d = slot env v in
  match Var.ty a, Var.ty b with
  | Ty.Int, Ty.Int ->
    let sa = slot env a
    and sb = slot env b in
    let f : int -> int -> bool =
      match op with
      | Instr.Eq -> fun x y -> x = y
      | Instr.Ne -> fun x y -> x <> y
      | Instr.Lt -> fun x y -> x < y
      | Instr.Le -> fun x y -> x <= y
      | Instr.Gt -> fun x y -> x > y
      | Instr.Ge -> fun x y -> x >= y
    in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      fr.b.(d) <- f fr.i.(sa) fr.i.(sb)
  | Ty.Float, Ty.Float -> (
    let sa = slot env a
    and sb = slot env b in
    (* Float.compare semantics (total order on NaN), as the interpreter;
       the comparison stays in the closure so its operands never box *)
    let cmp fr = Float.compare fr.f.(sa) fr.f.(sb) in
    match op with
    | Instr.Eq ->
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        fr.b.(d) <- cmp fr = 0
    | Instr.Ne ->
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        fr.b.(d) <- cmp fr <> 0
    | Instr.Lt ->
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        fr.b.(d) <- cmp fr < 0
    | Instr.Le ->
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        fr.b.(d) <- cmp fr <= 0
    | Instr.Gt ->
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        fr.b.(d) <- cmp fr > 0
    | Instr.Ge ->
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        fr.b.(d) <- cmp fr >= 0)
  | Ty.Bool, Ty.Bool ->
    let sa = slot env a
    and sb = slot env b in
    let f : bool -> bool -> bool =
      match op with
      | Instr.Eq -> fun x y -> Bool.compare x y = 0
      | Instr.Ne -> fun x y -> Bool.compare x y <> 0
      | Instr.Lt -> fun x y -> Bool.compare x y < 0
      | Instr.Le -> fun x y -> Bool.compare x y <= 0
      | Instr.Gt -> fun x y -> Bool.compare x y > 0
      | Instr.Ge -> fun x y -> Bool.compare x y >= 0
    in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      fr.b.(d) <- f fr.b.(sa) fr.b.(sb)
  | _ -> fun _ _ -> error "bad operands for comparison"

and compile_un env v op a : sc =
  let bad : sc = fun _ _ -> error "bad operand for %s" (Instr.unop_name op) in
  match Var.ty a, Var.ty v with
  | Ty.Float, Ty.Float when env.taped -> (
    let sa = slot env a
    and d = slot env v in
    let transc =
      match op with
      | Instr.Sqrt | Instr.Sin | Instr.Cos | Instr.Exp | Instr.Log -> true
      | _ -> false
    in
    match op with
    | Instr.ToFloat | Instr.ToInt | Instr.Not -> bad
    | _ ->
      (* a switch on the captured op ([un_float] inlined): a
         [float -> float] closure call would box *)
      fun t fr ->
        let x = fr.f.(sa) in
        let r = un_float op x in
        charge t (if transc then transc_cost t else t.cost.Cost_model.arith);
        fr.f.(d) <- r;
        fr.sl.(d) <- record1 t fr.sl.(sa) (Interp.un_partial op x r))
  | Ty.Float, Ty.Float -> (
    let sa = slot env a
    and d = slot env v in
    match op with
    | Instr.Neg ->
      fun t fr ->
        let r = -.fr.f.(sa) in
        charge t t.cost.Cost_model.arith;
        fr.f.(d) <- r
    | Instr.Abs ->
      fun t fr ->
        let r = Float.abs fr.f.(sa) in
        charge t t.cost.Cost_model.arith;
        fr.f.(d) <- r
    | Instr.Floor ->
      fun t fr ->
        let r = Float.of_int (int_of_float (floor fr.f.(sa))) in
        charge t t.cost.Cost_model.arith;
        fr.f.(d) <- r
    | Instr.Sqrt ->
      fun t fr ->
        let r = sqrt fr.f.(sa) in
        charge t (transc_cost t);
        fr.f.(d) <- r
    | Instr.Sin ->
      fun t fr ->
        let r = sin fr.f.(sa) in
        charge t (transc_cost t);
        fr.f.(d) <- r
    | Instr.Cos ->
      fun t fr ->
        let r = cos fr.f.(sa) in
        charge t (transc_cost t);
        fr.f.(d) <- r
    | Instr.Exp ->
      fun t fr ->
        let r = exp fr.f.(sa) in
        charge t (transc_cost t);
        fr.f.(d) <- r
    | Instr.Log ->
      fun t fr ->
        let r = log fr.f.(sa) in
        charge t (transc_cost t);
        fr.f.(d) <- r
    | Instr.ToFloat | Instr.ToInt | Instr.Not -> bad)
  | Ty.Int, Ty.Int -> (
    let sa = slot env a
    and d = slot env v in
    match op with
    | Instr.Neg ->
      fun t fr ->
        let r = -fr.i.(sa) in
        charge t t.cost.Cost_model.arith;
        fr.i.(d) <- r
    | Instr.Abs ->
      fun t fr ->
        let r = abs fr.i.(sa) in
        charge t t.cost.Cost_model.arith;
        fr.i.(d) <- r
    | _ -> bad)
  | Ty.Int, Ty.Float when op = Instr.ToFloat ->
    let sa = slot env a
    and d = slot env v in
    if env.taped then fun t fr ->
      let r = float_of_int fr.i.(sa) in
      charge t t.cost.Cost_model.arith;
      fr.f.(d) <- r;
      (* int sources are passive; the interpreter records [slot 0, 0.0]
         which the tape short-circuits to the passive slot *)
      fr.sl.(d) <- record1 t 0 (Interp.un_partial op 0.0 r)
    else fun t fr ->
      let r = float_of_int fr.i.(sa) in
      charge t t.cost.Cost_model.arith;
      fr.f.(d) <- r
  | Ty.Float, Ty.Int when op = Instr.ToInt ->
    let sa = slot env a
    and d = slot env v in
    fun t fr ->
      let r = int_of_float fr.f.(sa) in
      charge t t.cost.Cost_model.arith;
      fr.i.(d) <- r
  | Ty.Bool, Ty.Bool when op = Instr.Not ->
    let sa = slot env a
    and d = slot env v in
    fun t fr ->
      let r = not fr.b.(sa) in
      charge t t.cost.Cost_model.arith;
      fr.b.(d) <- r
  | _ -> bad

and compile_ctrl env (i : Instr.t) : code =
  match i with
  | Instr.If (results, cond, then_r, else_r) ->
    let benv = { env with ydest = YVars results } in
    let then_code = compile_block benv then_r.Instr.body
    and else_code = compile_block benv else_r.Instr.body in
    let c_rd = brd env cond in
    fun t fr -> (
      t.st.Stats.instrs <- t.st.Stats.instrs + 1;
      charge t t.cost.Cost_model.arith;
      match (if c_rd fr then then_code t fr else else_code t fr) with
      | Yld -> Next
      | Next -> error "if-region fell through without yield"
      | Ret -> Ret)
  | Instr.For { iv; lo; hi; step; body } ->
    let body_code = compile_block env body.Instr.body in
    let ivw = ivw env iv in
    let lo_rd = ird env lo
    and hi_rd = ird env hi
    and sp_rd = ird env step in
    fun t fr ->
      t.st.Stats.instrs <- t.st.Stats.instrs + 1;
      let lo = lo_rd fr
      and hi = hi_rd fr
      and sp = sp_rd fr in
      if sp <= 0 then error "for with non-positive step %d" sp;
      run_for body_code ivw t fr lo hi sp
  | Instr.While { cond; body } ->
    let cond_code = compile_block { env with ydest = YCond } cond.Instr.body in
    let body_code = compile_block env body.Instr.body in
    fun t fr ->
      t.st.Stats.instrs <- t.st.Stats.instrs + 1;
      run_while cond_code body_code t fr
  | Instr.Return None ->
    if env.taped then fun t _fr ->
      t.st.Stats.instrs <- t.st.Stats.instrs + 1;
      t.retv <- VUnit;
      t.rets <- 0;
      Ret
    else fun t _fr ->
      t.st.Stats.instrs <- t.st.Stats.instrs + 1;
      t.retv <- VUnit;
      Ret
  | Instr.Return (Some v) ->
    let r = reader env v in
    if env.taped then begin
      match Var.ty v with
      | Ty.Float ->
        let s = slot env v in
        fun t fr ->
          t.st.Stats.instrs <- t.st.Stats.instrs + 1;
          t.retv <- r fr;
          t.rets <- fr.sl.(s);
          Ret
      | _ ->
        fun t fr ->
          t.st.Stats.instrs <- t.st.Stats.instrs + 1;
          t.retv <- r fr;
          t.rets <- 0;
          Ret
    end
    else fun t fr ->
      t.st.Stats.instrs <- t.st.Stats.instrs + 1;
      t.retv <- r fr;
      Ret
  | Instr.Yield vs -> (
    match env.ydest with
    | YNone ->
      fun t _fr ->
        t.st.Stats.instrs <- t.st.Stats.instrs + 1;
        Yld
    | YCond -> (
      match vs with
      | [ v ] ->
        let c_rd = brd env v in
        fun t fr ->
          t.st.Stats.instrs <- t.st.Stats.instrs + 1;
          t.yb <- c_rd fr;
          Yld
      | _ ->
        fun t _fr ->
          t.st.Stats.instrs <- t.st.Stats.instrs + 1;
          error "while condition region must yield one bool")
    | YVars results ->
      if List.length vs <> List.length results then
        fun t _fr -> (
          t.st.Stats.instrs <- t.st.Stats.instrs + 1;
          raise (Invalid_argument "List.iter2"))
      else begin
        let moves = Array.of_list (List.map2 (xmove env) vs results) in
        fun t fr ->
          t.st.Stats.instrs <- t.st.Stats.instrs + 1;
          for k = 0 to Array.length moves - 1 do
            (Array.unsafe_get moves k) fr
          done;
          Yld
      end)
  | _ -> assert false

(* ---- intrinsics ---- *)

and compile_intrinsic env v name args : sc =
  let w = writer env v in
  match name, args with
  | "omp.max_threads", _ ->
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      w fr (VInt t.ctx.Interp.cfg.Interp.nthreads)
  | "mpi.rank", _ ->
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      w fr (VInt t.ctx.Interp.rank)
  | "mpi.size", _ ->
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      w fr (VInt t.ctx.Interp.nranks)
  | "san.mark_private", _ ->
    (* no-op unsanitized; sanitized contexts never reach the engine *)
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      w fr VUnit
  | "parad.remat_begin", _ ->
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      t.ctx.Interp.remat_depth <- t.ctx.Interp.remat_depth + 1;
      w fr VUnit
  | "parad.remat_end", _ ->
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      if t.ctx.Interp.remat_depth > 0 then
        t.ctx.Interp.remat_depth <- t.ctx.Interp.remat_depth - 1;
      w fr VUnit
  | ("cache.new" | "cache.newf"), cap :: _ ->
    let cap_rd = ird env cap in
    let unboxed = String.equal name "cache.newf" in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      charge t t.cost.Cost_model.alloc_base;
      let id =
        Cache_rt.fresh ~unboxed t.ctx.Interp.cache ~capacity:(cap_rd fr)
      in
      w fr (VInt id)
  | "cache.set", a0 :: a1 :: a2 :: _ -> (
    let id_rd = ird env a0
    and idx_rd = ird env a1 in
    match Var.ty a2, Var.ty a0, Var.ty a1 with
    | Ty.Float, Ty.Int, Ty.Int ->
      (* unboxed write: the stored float never round-trips through a
         [VFloat] box. The cache record is resolved once per call and
         shared between the representation test (which picks the charge)
         and the write. *)
      let s_id = slot env a0
      and s_idx = slot env a1
      and s_x = slot env a2 in
      let s_v = slot env v in
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        let cache = t.ctx.Interp.cache in
        let id = fr.i.(s_id) in
        let c = Cache_rt.get_cache cache id in
        charge t
          (if Cache_rt.is_floats c then t.cost.Cost_model.mem
           else t.cost.Cost_model.cache_op);
        t.st.Stats.cache_stores <- t.st.Stats.cache_stores + 1;
        let before = Cache_rt.cells_written cache in
        Cache_rt.set_f_c cache c ~id ~idx:fr.i.(s_idx) fr.f s_x;
        if Cache_rt.cells_written cache > before then begin
          t.st.Stats.cache_cells <- t.st.Stats.cache_cells + 1;
          let peak = Cache_rt.peak_cells cache in
          if peak > t.st.Stats.cache_peak then t.st.Stats.cache_peak <- peak
        end;
        fr.v.(s_v) <- VUnit
    | _ ->
      let x_rd = reader env a2 in
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        let cache = t.ctx.Interp.cache in
        let id = id_rd fr in
        charge t
          (if Cache_rt.is_unboxed cache ~id then t.cost.Cost_model.mem
           else t.cost.Cost_model.cache_op);
        t.st.Stats.cache_stores <- t.st.Stats.cache_stores + 1;
        let idx = idx_rd fr
        and x = x_rd fr in
        let before = Cache_rt.cells_written cache in
        Cache_rt.set cache ~id ~idx x;
        if Cache_rt.cells_written cache > before then begin
          t.st.Stats.cache_cells <- t.st.Stats.cache_cells + 1;
          let peak = Cache_rt.peak_cells cache in
          if peak > t.st.Stats.cache_peak then t.st.Stats.cache_peak <- peak
        end;
        w fr VUnit)
  | "cache.get", a0 :: a1 :: _ -> (
    let id_rd = ird env a0
    and idx_rd = ird env a1 in
    match Var.ty v, Var.ty a0, Var.ty a1 with
    | Ty.Float, Ty.Int, Ty.Int ->
      let s_id = slot env a0
      and s_idx = slot env a1 in
      let d = slot env v in
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        let cache = t.ctx.Interp.cache in
        let id = fr.i.(s_id) in
        let c = Cache_rt.get_cache cache id in
        charge t
          (if Cache_rt.is_floats c then t.cost.Cost_model.mem
           else t.cost.Cost_model.cache_op);
        t.st.Stats.cache_loads <- t.st.Stats.cache_loads + 1;
        (* the read lands before the flip hook runs, as in the
           interpreter: a flip injected here corrupts later reads *)
        Cache_rt.get_f_c cache c ~id ~idx:fr.i.(s_idx) fr.f d;
        eng_apply_flips t
    | _ ->
      fun t fr ->
        charge t t.cost.Cost_model.arith;
        let cache = t.ctx.Interp.cache in
        let id = id_rd fr in
        charge t
          (if Cache_rt.is_unboxed cache ~id then t.cost.Cost_model.mem
           else t.cost.Cost_model.cache_op);
        t.st.Stats.cache_loads <- t.st.Stats.cache_loads + 1;
        let r = Cache_rt.get cache ~id ~idx:(idx_rd fr) in
        eng_apply_flips t;
        w fr r)
  | "cache.free", a0 :: _ ->
    let id_rd = ird env a0 in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      let cache = t.ctx.Interp.cache in
      let id = id_rd fr in
      if cache.Cache_rt.protect then begin
        charge t
          (t.cost.Cost_model.mem *. float_of_int (Cache_rt.covered_id cache ~id));
        if not (Cache_rt.verify_id cache ~id) then
          eng_corrupt_region t ~cache_id:id
      end;
      Cache_rt.free cache ~id;
      w fr VUnit
  (* ---- k-wide batched adjoint runtime (opts.seeds > 1) ----

     Hot inner ops of the batched reverse sweep: one per reverse
     statement, each looping natively over a k-lane group. Compiled
     in-engine (raw [FCells] access, no delegation, no [Value] boxing
     per argument) with charges mirroring {!Interp.intrinsic}'s
     implementation exactly, so Seq keeps interp's virtual makespans on
     batched plans. Per-lane arithmetic matches the scalar emission op
     for op — the bit-identity contract of a batched lane. *)
  | "adj.take_k", [ scr; host; voff; k ] ->
    let s_scr = pslot env scr
    and s_host = pslot env host
    and s_voff = islot env voff
    and s_k = islot env k in
    let fname = env.fname in
    let s_v = slot env v in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      let scr = ptr_of fr.v.(s_scr) in
      let host = ptr_of fr.v.(s_host) in
      let voff = fr.i.(s_voff)
      and k = fr.i.(s_k) in
      let sa = plane fname scr ~base:0 ~n:k in
      let ha = plane fname host ~base:voff ~n:k in
      let so = scr.off
      and ho = host.off + voff in
      for l = 0 to k - 1 do
        Array.unsafe_set sa (so + l) (Array.unsafe_get ha (ho + l));
        Array.unsafe_set ha (ho + l) 0.0
      done;
      charge_mem_n t host.buf (2 * k);
      fr.v.(s_v) <- VUnit
  | "adj.acc_k", [ host; xoff; scr; mode; c1; c2; cond; atomic; k ] ->
    let s_host = pslot env host
    and s_xoff = islot env xoff
    and s_scr = pslot env scr
    and s_mode = islot env mode
    and s_c1 = fslot env c1
    and s_c2 = fslot env c2
    and s_cond = bslot env cond
    and s_at = islot env atomic
    and s_k = islot env k in
    let fname = env.fname in
    let s_v = slot env v in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      let host = ptr_of fr.v.(s_host) in
      let scr = ptr_of fr.v.(s_scr) in
      let xoff = fr.i.(s_xoff)
      and mode = fr.i.(s_mode)
      and k = fr.i.(s_k) in
      let ha = plane fname host ~base:xoff ~n:k in
      let sa = plane fname scr ~base:0 ~n:k in
      let ho = host.off + xoff
      and so = scr.off in
      Interp.adj_acc_lanes ~mode fr.f ~i1:s_c1 ~i2:s_c2
        ~cond:fr.b.(s_cond) ha ho sa so k;
      charge t
        (t.cost.Cost_model.arith
        *. float_of_int (k * (Interp.adj_mode_flops mode + 1)));
      if fr.i.(s_at) <> 0 then
        charge t (t.cost.Cost_model.atomic *. float_of_int k)
      else charge_mem_n t host.buf (2 * k);
      fr.v.(s_v) <- VUnit
  | "adj.rev1_k", [ scr; vhost; voff; h1; o1; m1; c11; c12; cnd1; at1; k ]
    ->
    (* Fused reverse statement, one operand: take + acc in one dispatch
       (charges mirror {!Interp.intrinsic}'s fused case). *)
    let s_scr = pslot env scr
    and s_vh = pslot env vhost
    and s_voff = islot env voff
    and s_h1 = pslot env h1
    and s_o1 = islot env o1
    and s_m1 = islot env m1
    and s_c11 = fslot env c11
    and s_c12 = fslot env c12
    and s_cnd1 = bslot env cnd1
    and s_at1 = islot env at1
    and s_k = islot env k in
    let fname = env.fname in
    let s_v = slot env v in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      let scr = ptr_of fr.v.(s_scr) in
      let vhost = ptr_of fr.v.(s_vh) in
      let voff = fr.i.(s_voff)
      and k = fr.i.(s_k) in
      let sa = plane fname scr ~base:0 ~n:k in
      let ha = plane fname vhost ~base:voff ~n:k in
      let so = scr.off
      and ho = vhost.off + voff in
      for l = 0 to k - 1 do
        Array.unsafe_set sa (so + l) (Array.unsafe_get ha (ho + l));
        Array.unsafe_set ha (ho + l) 0.0
      done;
      charge_mem_n t vhost.buf (2 * k);
      let h1 = ptr_of fr.v.(s_h1) in
      let o1 = fr.i.(s_o1)
      and m1 = fr.i.(s_m1) in
      let aa = plane fname h1 ~base:o1 ~n:k in
      Interp.adj_acc_lanes ~mode:m1 fr.f ~i1:s_c11 ~i2:s_c12
        ~cond:fr.b.(s_cnd1) aa (h1.off + o1) sa so k;
      charge t
        (t.cost.Cost_model.arith
        *. float_of_int (k * (Interp.adj_mode_flops m1 + 1)));
      if fr.i.(s_at1) <> 0 then
        charge t (t.cost.Cost_model.atomic *. float_of_int k)
      else charge_mem_n t h1.buf (2 * k);
      fr.v.(s_v) <- VUnit
  | ( "adj.rev2_k",
      [
        scr; vhost; voff; h1; o1; m1; c11; c12; cnd1; at1; h2; o2; m2; c21;
        c22; cnd2; at2; k;
      ] ) ->
    (* Fused reverse statement, two operands. *)
    let s_scr = pslot env scr
    and s_vh = pslot env vhost
    and s_voff = islot env voff
    and s_h1 = pslot env h1
    and s_o1 = islot env o1
    and s_m1 = islot env m1
    and s_c11 = fslot env c11
    and s_c12 = fslot env c12
    and s_cnd1 = bslot env cnd1
    and s_at1 = islot env at1
    and s_h2 = pslot env h2
    and s_o2 = islot env o2
    and s_m2 = islot env m2
    and s_c21 = fslot env c21
    and s_c22 = fslot env c22
    and s_cnd2 = bslot env cnd2
    and s_at2 = islot env at2
    and s_k = islot env k in
    let fname = env.fname in
    let s_v = slot env v in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      let scr = ptr_of fr.v.(s_scr) in
      let vhost = ptr_of fr.v.(s_vh) in
      let voff = fr.i.(s_voff)
      and k = fr.i.(s_k) in
      let sa = plane fname scr ~base:0 ~n:k in
      let ha = plane fname vhost ~base:voff ~n:k in
      let so = scr.off
      and ho = vhost.off + voff in
      for l = 0 to k - 1 do
        Array.unsafe_set sa (so + l) (Array.unsafe_get ha (ho + l));
        Array.unsafe_set ha (ho + l) 0.0
      done;
      charge_mem_n t vhost.buf (2 * k);
      let h1 = ptr_of fr.v.(s_h1) in
      let o1 = fr.i.(s_o1)
      and m1 = fr.i.(s_m1) in
      let aa = plane fname h1 ~base:o1 ~n:k in
      Interp.adj_acc_lanes ~mode:m1 fr.f ~i1:s_c11 ~i2:s_c12
        ~cond:fr.b.(s_cnd1) aa (h1.off + o1) sa so k;
      charge t
        (t.cost.Cost_model.arith
        *. float_of_int (k * (Interp.adj_mode_flops m1 + 1)));
      if fr.i.(s_at1) <> 0 then
        charge t (t.cost.Cost_model.atomic *. float_of_int k)
      else charge_mem_n t h1.buf (2 * k);
      let h2 = ptr_of fr.v.(s_h2) in
      let o2 = fr.i.(s_o2)
      and m2 = fr.i.(s_m2) in
      let ba = plane fname h2 ~base:o2 ~n:k in
      Interp.adj_acc_lanes ~mode:m2 fr.f ~i1:s_c21 ~i2:s_c22
        ~cond:fr.b.(s_cnd2) ba (h2.off + o2) sa so k;
      charge t
        (t.cost.Cost_model.arith
        *. float_of_int (k * (Interp.adj_mode_flops m2 + 1)));
      if fr.i.(s_at2) <> 0 then
        charge t (t.cost.Cost_model.atomic *. float_of_int k)
      else charge_mem_n t h2.buf (2 * k);
      fr.v.(s_v) <- VUnit
  | "adj.mrev_k", [ scr; vhost; voff; sp; mb; atomic; k ] ->
    (* Fused Load reversal: take + accumulate into the shadow plane. *)
    let s_scr = pslot env scr
    and s_vh = pslot env vhost
    and s_voff = islot env voff
    and s_sp = pslot env sp
    and s_mb = islot env mb
    and s_at = islot env atomic
    and s_k = islot env k in
    let fname = env.fname in
    let s_v = slot env v in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      let scr = ptr_of fr.v.(s_scr) in
      let vhost = ptr_of fr.v.(s_vh) in
      let voff = fr.i.(s_voff)
      and k = fr.i.(s_k) in
      let sa = plane fname scr ~base:0 ~n:k in
      let ha = plane fname vhost ~base:voff ~n:k in
      let so = scr.off
      and ho = vhost.off + voff in
      for l = 0 to k - 1 do
        Array.unsafe_set sa (so + l) (Array.unsafe_get ha (ho + l));
        Array.unsafe_set ha (ho + l) 0.0
      done;
      charge_mem_n t vhost.buf (2 * k);
      let sp = ptr_of fr.v.(s_sp) in
      let mb = fr.i.(s_mb) in
      let pa = plane fname sp ~base:mb ~n:k in
      let po = sp.off + mb in
      for l = 0 to k - 1 do
        Array.unsafe_set pa (po + l)
          (Array.unsafe_get pa (po + l) +. Array.unsafe_get sa (so + l))
      done;
      if fr.i.(s_at) <> 0 then
        charge t (t.cost.Cost_model.atomic *. float_of_int k)
      else begin
        charge t (t.cost.Cost_model.arith *. float_of_int k);
        charge_mem_n t sp.buf (2 * k)
      end;
      fr.v.(s_v) <- VUnit
  | ("adj.srev_k" | "adj.arev_k"), [ scr; sp; mb; h1; o1; at1; k ] ->
    (* Fused Store/AtomicAdd reversal (zeroing only for the Store). *)
    let zero = name = "adj.srev_k" in
    let s_scr = pslot env scr
    and s_sp = pslot env sp
    and s_mb = islot env mb
    and s_h1 = pslot env h1
    and s_o1 = islot env o1
    and s_at1 = islot env at1
    and s_k = islot env k in
    let fname = env.fname in
    let s_v = slot env v in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      let scr = ptr_of fr.v.(s_scr) in
      let sp = ptr_of fr.v.(s_sp) in
      let mb = fr.i.(s_mb)
      and k = fr.i.(s_k) in
      let sa = plane fname scr ~base:0 ~n:k in
      let pa = plane fname sp ~base:mb ~n:k in
      let so = scr.off
      and po = sp.off + mb in
      if zero then begin
        for l = 0 to k - 1 do
          Array.unsafe_set sa (so + l) (Array.unsafe_get pa (po + l));
          Array.unsafe_set pa (po + l) 0.0
        done;
        charge_mem_n t sp.buf (2 * k)
      end
      else begin
        for l = 0 to k - 1 do
          Array.unsafe_set sa (so + l) (Array.unsafe_get pa (po + l))
        done;
        charge_mem_n t sp.buf k
      end;
      let h1 = ptr_of fr.v.(s_h1) in
      let o1 = fr.i.(s_o1) in
      let aa = plane fname h1 ~base:o1 ~n:k in
      (* mode 0 reads no coefficient *)
      Interp.adj_acc_lanes ~mode:0 fr.f ~i1:0 ~i2:0 ~cond:false aa
        (h1.off + o1) sa so k;
      charge t (t.cost.Cost_model.arith *. float_of_int k);
      if fr.i.(s_at1) <> 0 then
        charge t (t.cost.Cost_model.atomic *. float_of_int k)
      else charge_mem_n t h1.buf (2 * k);
      fr.v.(s_v) <- VUnit
  | "adj.macc_k", [ sp; mb; scr; atomic; k ] ->
    let s_sp = pslot env sp
    and s_mb = islot env mb
    and s_scr = pslot env scr
    and s_at = islot env atomic
    and s_k = islot env k in
    let fname = env.fname in
    let s_v = slot env v in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      let sp = ptr_of fr.v.(s_sp) in
      let scr = ptr_of fr.v.(s_scr) in
      let mb = fr.i.(s_mb)
      and k = fr.i.(s_k) in
      let pa = plane fname sp ~base:mb ~n:k in
      let sa = plane fname scr ~base:0 ~n:k in
      let po = sp.off + mb
      and so = scr.off in
      for l = 0 to k - 1 do
        Array.unsafe_set pa (po + l)
          (Array.unsafe_get pa (po + l) +. Array.unsafe_get sa (so + l))
      done;
      if fr.i.(s_at) <> 0 then
        charge t (t.cost.Cost_model.atomic *. float_of_int k)
      else begin
        charge t (t.cost.Cost_model.arith *. float_of_int k);
        charge_mem_n t sp.buf (2 * k)
      end;
      fr.v.(s_v) <- VUnit
  | ("adj.mtake_k" | "adj.mread_k"), [ sp; mb; scr; k ] ->
    (* shadow plane -> scratch; the take also zeroes the plane *)
    let zero = name = "adj.mtake_k" in
    let s_sp = pslot env sp
    and s_mb = islot env mb
    and s_scr = pslot env scr
    and s_k = islot env k in
    let fname = env.fname in
    let s_v = slot env v in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      let sp = ptr_of fr.v.(s_sp) in
      let scr = ptr_of fr.v.(s_scr) in
      let mb = fr.i.(s_mb)
      and k = fr.i.(s_k) in
      let pa = plane fname sp ~base:mb ~n:k in
      let sa = plane fname scr ~base:0 ~n:k in
      let po = sp.off + mb
      and so = scr.off in
      if zero then begin
        for l = 0 to k - 1 do
          Array.unsafe_set sa (so + l) (Array.unsafe_get pa (po + l));
          Array.unsafe_set pa (po + l) 0.0
        done;
        charge_mem_n t sp.buf (2 * k)
      end
      else begin
        for l = 0 to k - 1 do
          Array.unsafe_set sa (so + l) (Array.unsafe_get pa (po + l))
        done;
        charge_mem_n t sp.buf k
      end;
      fr.v.(s_v) <- VUnit
  | "adj.pack_k", [ dst; doff; src; soff; k ] ->
    let s_dst = pslot env dst
    and s_doff = islot env doff
    and s_src = pslot env src
    and s_soff = islot env soff
    and s_k = islot env k in
    let fname = env.fname in
    let s_v = slot env v in
    fun t fr ->
      charge t t.cost.Cost_model.arith;
      let dst = ptr_of fr.v.(s_dst) in
      let src = ptr_of fr.v.(s_src) in
      let doff = fr.i.(s_doff)
      and soff = fr.i.(s_soff)
      and k = fr.i.(s_k) in
      let da = plane fname dst ~base:doff ~n:k in
      let sa = plane fname src ~base:soff ~n:k in
      let d0 = dst.off + doff
      and s0 = src.off + soff in
      for l = 0 to k - 1 do
        Array.unsafe_set da (d0 + l) (Array.unsafe_get sa (s0 + l))
      done;
      charge_mem_n t dst.buf k;
      charge_mem_n t src.buf k;
      fr.v.(s_v) <- VUnit
  | ("parad.checkpoint" | "parad.checkpoint_rev"), _ ->
    (* No-session checkpoint sites cost one arith op and touch nothing;
       only live sessions (take/restore/fast-forward) go through the
       interpreter's implementation. *)
    let del = delegate env v name args in
    fun t fr ->
      (match t.ctx.Interp.ckpt with
      | None ->
        charge t t.cost.Cost_model.arith;
        w fr VUnit
      | Some _ -> del t fr)
  | _ -> delegate env v name args

(* Any other intrinsic (MPI, checkpoint, GC, AD shadows, ...) delegates to
   the interpreter's implementation, bridging the strand clock and the
   synthetic frame stack. Each execution counts one [Stats.eng_fallbacks]
   and allocates its argument list. *)
and delegate env v name args : sc =
  let readers = List.map (reader env) args in
  let w = writer env v in
  let fname = env.fname in
  fun t fr ->
    let vals = List.map (fun r -> r fr) readers in
    t.st.Stats.eng_fallbacks <- t.st.Stats.eng_fallbacks + 1;
    sync_out t;
    let e =
      {
        Interp.stack = fr.istack;
        team = t.team;
        stack_allocs = fr.stack_allocs;
        fname;
        san_team = None;
      }
    in
    let res =
      match Interp.intrinsic t.ctx e name args vals with
      | r ->
        sync_in t;
        r
      | exception ex ->
        sync_in t;
        raise ex
    in
    w fr (fst res)

(* ---- user calls ---- *)

and compile_ucall env v name args : sc =
  let resolved : sc option ref = ref None in
  fun t fr ->
    match !resolved with
    | Some f -> f t fr
    | None ->
      let f = build_ucall env v name args in
      resolved := Some f;
      f t fr

and build_ucall env v name args : sc =
  match Prog.find env.prep.prog name with
  | None -> fun _ _ -> error "call to unknown function %S" name
  | Some f -> (
    let cf = get_cfun env.prep ~taped:env.taped name in
    if List.length args <> List.length f.Func.params then
      fun t _fr ->
        charge t t.cost.Cost_model.call;
        t.st.Stats.calls <- t.st.Stats.calls + 1;
        error "call %s: arity mismatch" name
    else
      match
        List.find_opt
          (fun (p, a) -> not (Ty.equal (Var.ty a) (Var.ty p)))
          (List.combine f.Func.params args)
      with
      | Some (p, a) ->
        fun t _fr ->
          charge t t.cost.Cost_model.call;
          t.st.Stats.calls <- t.st.Stats.calls + 1;
          error "call %s: argument %s has type %a, expected %a" name
            (Var.name p) Ty.pp (Var.ty a) Ty.pp (Var.ty p)
      | None ->
        let moves =
          Array.of_list (List.map2 (arg_move env cf) f.Func.params args)
        in
        let ret_unit = Ty.equal f.Func.ret_ty Ty.Unit in
        let site = Some name in
        let w = writer env v in
        let w =
          if env.taped && Ty.equal (Var.ty v) Ty.Float then begin
            let d = slot env v in
            fun (fr : eframe) t ->
              fr.f.(d) <- Value.to_float t.retv;
              fr.sl.(d) <- t.rets
          end
          else fun fr t -> w fr t.retv
        in
        fun t fr -> (
          charge t t.cost.Cost_model.call;
          t.st.Stats.calls <- t.st.Stats.calls + 1;
          let nfr = new_eframe cf fr.istack in
          for k = 0 to Array.length moves - 1 do
            (Array.unsafe_get moves k) fr nfr
          done;
          (* the interpreter gives each call a fresh team-less ectx; the
             engine's thr is shared, so save/restore — exception-protected
             because Skip_iteration legitimately crosses call frames *)
          let saved = t.team in
          t.team <- None;
          let out =
            match cf.code t nfr with
            | o ->
              t.team <- saved;
              o
            | exception ex ->
              t.team <- saved;
              raise ex
          in
          release_stack t site !(nfr.stack_allocs);
          match out with
          | Ret -> w fr t
          | Next when ret_unit ->
            t.retv <- VUnit;
            t.rets <- 0;
            w fr t
          | Next | Yld -> error "function %s did not return" name))

and get_cfun prep ?(taped = false) name : cfun =
  let table = if taped then prep.tfuncs else prep.funcs in
  Mutex.lock prep.plk;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock prep.plk)
    (fun () ->
      match Hashtbl.find_opt table name with
      | Some cf -> cf
      | None -> (
        match Prog.find prep.prog name with
        | None -> error "call to unknown function %S" name
        | Some fn ->
          let cf = make_cfun ~taped fn in
          (match
             compile_block { prep; cf; fname = name; ydest = YNone; taped }
               fn.Func.body
           with
          | code ->
            cf.code <- code;
            Hashtbl.replace table name cf
          | exception ex -> raise ex);
          cf))

(* Boxed-argument call: the engine's replica of [Interp.call_function]
   with an empty caller stack — entry points and spawned tasks. *)
and call_boxed prep ?(taped = false) ?(slots = []) t name
    (args : Value.t list) : Value.t =
  match Prog.find prep.prog name with
  | None -> error "call to unknown function %S" name
  | Some f -> (
    charge t t.cost.Cost_model.call;
    t.st.Stats.calls <- t.st.Stats.calls + 1;
    if List.length args <> List.length f.Func.params then
      error "call %s: arity mismatch" name;
    let cf = get_cfun prep ~taped name in
    let nfr = new_eframe cf [] in
    List.iter2
      (fun p a ->
        if not (Ty.equal (Value.ty a) (Var.ty p)) then
          error "call %s: argument %s has type %a, expected %a" name
            (Var.name p) Ty.pp (Value.ty a) Ty.pp (Var.ty p);
        write_boxed cf p nfr a)
      f.Func.params args;
    if taped && slots <> [] then
      List.iteri
        (fun i p ->
          match Var.ty p with
          | Ty.Float -> nfr.sl.(cf.idx.(Var.id p)) <- List.nth slots i
          | _ -> ())
        f.Func.params;
    let saved = t.team in
    t.team <- None;
    let out =
      match cf.code t nfr with
      | o ->
        t.team <- saved;
        o
      | exception ex ->
        t.team <- saved;
        raise ex
    in
    release_stack t (Some name) !(nfr.stack_allocs);
    match out with
    | Ret -> t.retv
    | Next when Ty.equal f.Func.ret_ty Ty.Unit ->
      t.rets <- 0;
      VUnit
    | Next | Yld -> error "function %s did not return" name)

(* ---- entry points ---- *)

type choice = Interp | Seq

let choice_of_string = function
  | "interp" -> Some Interp
  | "seq" -> Some Seq
  | _ -> None

let choice_to_string = function Interp -> "interp" | Seq -> "seq"

(** Run [fname] on the engine inside the current Sim strand, threading
    tape slots for the arguments and the result (both all-zero on
    uninstrumented runs). Instrumented (taped) runs compile through the
    taping-mode function table and stay engine-resident; contexts the
    engine cannot replicate bit-exactly (sanitizers, instruction budgets)
    fall back to the interpreter wholesale. [Stats.eng_fallbacks] counts
    each such wholesale fallback and also every execution of an
    intrinsic handed to the interpreter ({!delegate}: MPI calls, live
    checkpoint sessions, ...), so a clean MPI run reports a nonzero
    count. Member frames parked in [fcache] live for this call only. *)
let exec_call_slots prep (ctx : Interp.ctx) fname args slots : Value.t * int =
  let taped =
    match ctx.Interp.instrument with Some _ -> true | None -> false
  in
  let fallback =
    (match ctx.Interp.san with Some _ -> true | None -> false)
    || ctx.Interp.cfg.Interp.max_instrs > 0
  in
  if fallback then begin
    (Sim.stats ()).Stats.eng_fallbacks <-
      (Sim.stats ()).Stats.eng_fallbacks + 1;
    Interp.call_with_slots ctx fname args slots
  end
  else begin
    ctx.Interp.root_args <- args;
    let s = Sim.self () in
    let vdl, wall_stop, wall_ms = Sim.deadline_view () in
    let dl =
      match vdl, wall_stop with
      | None, None -> None
      | _ -> Some { vdl; wall_stop; wall_ms; tick = 0 }
    in
    let t =
      {
        ctx;
        cost = ctx.Interp.cfg.Interp.cost;
        st = Sim.stats ();
        clock = { now = s.Sim.clock };
        socket = s.Sim.socket;
        team = None;
        dl;
        retv = VUnit;
        rets = 0;
        yb = false;
        fcache = Hashtbl.create 8;
      }
    in
    match call_boxed prep ~taped ~slots t fname args with
    | v ->
      sync_out t;
      v, t.rets
    | exception ex ->
      sync_out t;
      raise ex
  end

(** [call_fn prep choice] is a drop-in replacement for {!Interp.call}
    running on the selected substrate. *)
let call_fn prep choice : Interp.ctx -> string -> Value.t list -> Value.t =
  match choice with
  | Interp -> Interp.call
  | Seq -> fun ctx f args -> fst (exec_call_slots prep ctx f args [])

(** [call_fn_slots prep choice] is the slot-threading counterpart of
    {!call_fn}: a drop-in replacement for {!Interp.call_with_slots} for
    harnesses (the tape baseline) that seed argument slots and need the
    result slot back. *)
let call_fn_slots prep choice :
    Interp.ctx -> string -> Value.t list -> int list -> Value.t * int =
  match choice with
  | Interp -> Interp.call_with_slots
  | Seq -> exec_call_slots prep
