(** Operator-overloading tape AD — the CoDiPack baseline of the paper's
    evaluation, with an adjoint-MPI extension (the AMPI-style libraries of
    §II).

    Instead of transforming code, the interpreter is instrumented: every
    executed float statement appends a (lhs-slot, (arg-slot, partial)...)
    entry to a per-rank Jacobian tape, memory cells carry slots in side
    arrays, and MPI operations append communication entries. The reverse
    sweep walks the tape backwards, exchanging adjoints over the same
    (simulated) network in reversed order.

    Like CoDiPack, the baseline cannot differentiate fork/join or task
    parallelism (the interpreter rejects [Fork]/[Spawn] under
    instrumentation) — only serial and MPI codes, which is exactly the
    paper's comparison setup (CoDiPack cannot differentiate OpenMP
    LULESH).

    Costs: each recorded statement charges [tape_record], each reversed
    one [tape_reverse] — the "high serial gradient overhead" whose
    interaction with MPI scaling Fig 8 dissects. *)

open Parad_runtime
open Value

type kind = KSum | KMin | KMax

type entry =
  | Stmt of { lhs : int; args : (int * float) array }
  | Send of { peer : int; tag : int; slots : int array }
  | Recv of { peer : int; tag : int; slots : int array }
  | Allreduce of {
      kind : kind;
      in_slots : int array;
      in_vals : float array;
      out_slots : int array;
      out_vals : float array;
    }
  | Bcast of { root : int; in_slots : int array; out_slots : int array }

type t = {
  rank : int;
  mutable entries : entry array;
  mutable n : int;
  mutable next_slot : int;  (** slot 0 is the passive slot *)
  buf_slots : (int, int array) Hashtbl.t;
  activated : (int, int array) Hashtbl.t;
      (** activation-time slots of input buffers, by buffer id *)
}

let create ~rank =
  {
    rank;
    entries = Array.make 1024 (Stmt { lhs = 0; args = [||] });
    n = 0;
    next_slot = 1;
    buf_slots = Hashtbl.create 64;
    activated = Hashtbl.create 8;
  }

let length t = t.n
let slots t = t.next_slot

let push t e =
  if t.n = Array.length t.entries then begin
    let bigger = Array.make (2 * t.n) e in
    Array.blit t.entries 0 bigger 0 t.n;
    t.entries <- bigger
  end;
  t.entries.(t.n) <- e;
  t.n <- t.n + 1;
  (Sim.stats ()).Stats.tape_entries <- (Sim.stats ()).Stats.tape_entries + 1

let fresh t =
  let s = t.next_slot in
  t.next_slot <- s + 1;
  s

let buf_slots t (buf : buffer) =
  match Hashtbl.find_opt t.buf_slots buf.bid with
  | Some a -> a
  | None ->
    let a = Array.make (cells_len buf.data) 0 in
    Hashtbl.replace t.buf_slots buf.bid a;
    a

(** Mark a buffer's cells as active inputs: each gets a fresh slot, and
    the activation snapshot is kept so input adjoints can be read back
    after the reverse sweep. *)
let activate t (v : Value.t) =
  match v with
  | VPtr { buf; off = 0 } ->
    let a = buf_slots t buf in
    for i = 0 to Array.length a - 1 do
      a.(i) <- fresh t
    done;
    Hashtbl.replace t.activated buf.bid (Array.copy a)
  | _ -> error "Tape.activate: need a whole-buffer pointer"

(** The interpreter instrumentation hooks. *)
let instrument t : Interp.instrument =
  {
    Interp.record =
      (fun args ->
        if List.for_all (fun (s, _) -> s = 0) args then 0
        else begin
          Sim.charge (Sim.cost ()).Cost_model.tape_record;
          let lhs = fresh t in
          push t (Stmt { lhs; args = Array.of_list args });
          lhs
        end);
    buf_slots = (fun buf -> buf_slots t buf);
    send_hook =
      (fun ~peer ~tag ~slots -> push t (Send { peer; tag; slots }));
    recv_hook =
      (fun ~peer ~tag ~count ->
        let slots = Array.init count (fun _ -> fresh t) in
        push t (Recv { peer; tag; slots });
        slots);
    allreduce_hook =
      (fun ~kind ~ins:(in_vals, in_slots) ~outs ->
        let kind =
          match kind with `Sum -> KSum | `Min -> KMin | `Max -> KMax
        in
        let out_slots = Array.map (fun _ -> fresh t) outs in
        push t
          (Allreduce
             { kind; in_slots; in_vals; out_slots; out_vals = Array.copy outs });
        out_slots);
    bcast_hook =
      (fun ~root ~count ~slots ->
        ignore count;
        if t.rank = root then begin
          push t (Bcast { root; in_slots = slots; out_slots = slots });
          slots
        end
        else begin
          let out = Array.map (fun _ -> fresh t) slots in
          push t (Bcast { root; in_slots = [||]; out_slots = out });
          out
        end);
  }

(* ---- reverse sweep ----

   One reverse pass propagates [width] independent seed vectors at once
   through slot-major adjoint planes ([adj.(s * width + lane)]); width 1
   is the scalar sweep. Each lane's arithmetic is the same operations in
   the same order whatever the width, so lane [l] is bit-identical to a
   width-1 sweep seeded with lane [l]'s seeds — but the tape walk, the
   partials, and the communication latency are paid once instead of
   [width] times. Each entry charges one [tape_reverse] regardless of
   width: the virtual cost model agrees with the host-time amortization.
   All ranks of an SPMD run must use the same [width]. *)

type sweep = { tape : t; width : int; adj : float array }

let sweep ~width t =
  if width < 1 then error "Tape.sweep: width must be >= 1";
  { tape = t; width; adj = Array.make (t.next_slot * width) 0.0 }

(** Seed lane [lane] with d(loss_lane)/d(current cell values) of a
    buffer. *)
let seed sw ~lane (v : Value.t) (s : float array) =
  match v with
  | VPtr { buf; off = 0 } ->
    let a = buf_slots sw.tape buf
    and w = sw.width in
    Array.iteri
      (fun i x ->
        if a.(i) <> 0 then
          sw.adj.((a.(i) * w) + lane) <- sw.adj.((a.(i) * w) + lane) +. x)
      s
  | _ -> error "Tape.seed: need a whole-buffer pointer"

let seed_slot sw ~lane slot x =
  if slot <> 0 then
    sw.adj.((slot * sw.width) + lane) <-
      sw.adj.((slot * sw.width) + lane) +. x

(** Lane [lane]'s adjoints of an activated input buffer (activation-time
    slots). *)
let adjoint_of sw ~lane (v : Value.t) =
  match v with
  | VPtr { buf; off = 0 } -> (
    match Hashtbl.find_opt sw.tape.activated buf.bid with
    | Some slots -> Array.map (fun s -> sw.adj.((s * sw.width) + lane)) slots
    | None -> error "Tape.adjoint_of: buffer was not activated")
  | _ -> error "Tape.adjoint_of: need a whole-buffer pointer"

let adj_tag_base = 2_000_000

(* temp buffer helpers for reverse communication *)
let with_temp (ctx : Interp.ctx) n f =
  let buf =
    Memory.alloc ctx.mem ~elem:Parad_ir.Ty.Float ~size:n ~kind:Parad_ir.Instr.Heap
      ~socket:(Sim.socket ())
  in
  let p = { buf; off = 0 } in
  let r = f p in
  Memory.free ctx.mem buf;
  r

let mpi_of (ctx : Interp.ctx) =
  match ctx.Interp.mpi with
  | Some m -> m
  | None -> error "tape reverse: MPI entry outside an SPMD run"

(* ---- lowered adjoint program ----

   [lower] linearizes the tape once into a structure-of-arrays program:
   runs of consecutive [Stmt] entries become one flat segment (lhs
   column, CSR-style argument offsets, slot and partial columns) and
   each communication entry stays a program step of its own. The
   reverse sweep over a segment is then a tight loop over unboxed int
   and float arrays — no constructor matching, no per-entry tuple
   chasing. It charges [tape_reverse] per original entry, newest
   first. *)

type lop =
  | LRun of {
      count : int;  (** rows (original [Stmt] entries), oldest first *)
      lhs : int array;
      off : int array;  (** row [r]'s args live at \[off r, off (r+1)) *)
      aslot : int array;
      ap : float array;
    }
  | LComm of entry

type lowered = lop array

let lower t : lowered =
  let ops = ref [] in
  let k = ref 0 in
  while !k < t.n do
    match t.entries.(!k) with
    | Stmt _ ->
      let start = !k in
      let nargs = ref 0 in
      while
        !k < t.n
        && match t.entries.(!k) with
           | Stmt { args; _ } ->
             nargs := !nargs + Array.length args;
             true
           | _ -> false
      do
        incr k
      done;
      let count = !k - start in
      let lhs = Array.make count 0
      and off = Array.make (count + 1) 0
      and aslot = Array.make (max !nargs 1) 0
      and ap = Array.make (max !nargs 1) 0.0 in
      let w = ref 0 in
      for r = 0 to count - 1 do
        match t.entries.(start + r) with
        | Stmt { lhs = l; args } ->
          lhs.(r) <- l;
          off.(r) <- !w;
          Array.iter
            (fun (s, p) ->
              aslot.(!w) <- s;
              ap.(!w) <- p;
              incr w)
            args
        | _ -> assert false
      done;
      off.(count) <- !w;
      ops := LRun { count; lhs; off; aslot; ap } :: !ops
    | e ->
      ops := LComm e :: !ops;
      incr k
  done;
  (* built newest-first: already the reverse execution order *)
  Array.of_list !ops

(* Reverse one communication entry: one exchange of [n * w] cells,
   lane-major within each slot, standing in for [w] width-1 exchanges.
   [Stmt] entries never reach it. *)
let reverse_comm adj w (ctx : Interp.ctx) entry =
  let mpi () = mpi_of ctx in
  match entry with
  | Stmt _ -> assert false
  | Send { peer; tag; slots } ->
    (* reverse of a send: receive the adjoint contribution *)
    let n = Array.length slots in
    with_temp ctx (n * w) (fun p ->
        let req =
          Mpi_state.irecv (mpi ()) ~rank:ctx.Interp.rank ~ptr:p ~count:(n * w)
            ~src:peer ~tag:(tag + adj_tag_base)
        in
        ignore (Mpi_state.wait (mpi ()) ~rank:ctx.Interp.rank ~req);
        Array.iteri
          (fun i s ->
            if s <> 0 then
              for l = 0 to w - 1 do
                adj.((s * w) + l) <-
                  adj.((s * w) + l) +. to_float (Memory.load p ((i * w) + l))
              done)
          slots)
  | Recv { peer; tag; slots } ->
    (* reverse of a receive: send the accumulated adjoints back *)
    let n = Array.length slots in
    with_temp ctx (n * w) (fun p ->
        Array.iteri
          (fun i s ->
            for l = 0 to w - 1 do
              Memory.store p ((i * w) + l) (VFloat adj.((s * w) + l))
            done)
          slots;
        let req =
          Mpi_state.isend (mpi ()) ~rank:ctx.Interp.rank ~ptr:p ~count:(n * w)
            ~dst:peer ~tag:(tag + adj_tag_base)
        in
        ignore (Mpi_state.wait (mpi ()) ~rank:ctx.Interp.rank ~req))
  | Allreduce { kind; in_slots; in_vals; out_slots; out_vals } ->
    let n = Array.length out_slots in
    with_temp ctx (n * w) (fun send_p ->
        with_temp ctx (n * w) (fun recv_p ->
            Array.iteri
              (fun i s ->
                for l = 0 to w - 1 do
                  Memory.store send_p ((i * w) + l) (VFloat adj.((s * w) + l))
                done)
              out_slots;
            Mpi_state.allreduce (mpi ()) ~rank:ctx.Interp.rank
              ~kind:Mpi_state.Csum ~send:send_p ~recv:recv_p ~count:(n * w);
            for i = 0 to n - 1 do
              match kind with
              | KSum ->
                if in_slots.(i) <> 0 then
                  for l = 0 to w - 1 do
                    adj.((in_slots.(i) * w) + l) <-
                      adj.((in_slots.(i) * w) + l)
                      +. to_float (Memory.load recv_p ((i * w) + l))
                  done
              | KMin | KMax ->
                if in_slots.(i) <> 0 && in_vals.(i) = out_vals.(i) then
                  for l = 0 to w - 1 do
                    adj.((in_slots.(i) * w) + l) <-
                      adj.((in_slots.(i) * w) + l)
                      +. to_float (Memory.load recv_p ((i * w) + l))
                  done
            done))
  | Bcast { root; in_slots; out_slots } ->
    let n = Array.length out_slots in
    with_temp ctx (n * w) (fun send_p ->
        with_temp ctx (n * w) (fun recv_p ->
            Array.iteri
              (fun i s ->
                (* the root's own out adjoints stay local (same slots);
                   non-roots contribute theirs *)
                for l = 0 to w - 1 do
                  Memory.store send_p ((i * w) + l)
                    (VFloat
                       (if ctx.Interp.rank = root then 0.0
                        else adj.((s * w) + l)))
                done)
              out_slots;
            Mpi_state.allreduce (mpi ()) ~rank:ctx.Interp.rank
              ~kind:Mpi_state.Csum ~send:send_p ~recv:recv_p ~count:(n * w);
            if ctx.Interp.rank = root then
              for i = 0 to n - 1 do
                if in_slots.(i) <> 0 then
                  for l = 0 to w - 1 do
                    adj.((in_slots.(i) * w) + l) <-
                      adj.((in_slots.(i) * w) + l)
                      +. to_float (Memory.load recv_p ((i * w) + l))
                  done
              done))

(** Run the reverse sweep through the lowered program, exchanging adjoints
    over the network in reversed order: [width] seed vectors for one tape
    walk. Must run inside the same SPMD simulation as the forward sweep
    (each rank calls this on its own tape). *)
let reverse sw (ctx : Interp.ctx) =
  let prog = lower sw.tape in
  let adj = sw.adj
  and w = sw.width in
  let cost = Sim.cost () in
  let c_rev = cost.Cost_model.tape_reverse in
  Array.iter
    (function
      | LComm e ->
        Sim.charge c_rev;
        reverse_comm adj w ctx e
      | LRun { count; lhs; off; aslot; ap } ->
        for r = count - 1 downto 0 do
          Sim.charge c_rev;
          let base = Array.unsafe_get lhs r * w in
          for l = 0 to w - 1 do
            let d = Array.unsafe_get adj (base + l) in
            if d <> 0.0 then
              for
                a = Array.unsafe_get off r to Array.unsafe_get off (r + 1) - 1
              do
                let s = Array.unsafe_get aslot a in
                if s <> 0 then begin
                  let j = (s * w) + l in
                  Array.unsafe_set adj j
                    (Array.unsafe_get adj j +. (d *. Array.unsafe_get ap a))
                end
              done
          done
        done)
    prog
