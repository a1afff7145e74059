(* The operator-overloading tape baseline (CoDiPack analog): correctness
   against the compiler-integrated engine and finite differences, its
   adjoint-MPI extension, its OpenMP limitation, and the cost-model
   property the paper's Fig 8 analysis hinges on (high serial gradient
   overhead). *)

open Parad_ir
open Parad_runtime
module B = Builder
module GC = Parad_verify.Grad_check
module TC = Parad_verify.Tape_check

let feq = Alcotest.float 1e-8

let two ps = match ps with [ a; b ] -> a, b | _ -> assert false

(* shared serial test kernel: y = sum_i sin(x_i) * x_i^2 *)
let serial_prog () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "k" ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = two ps in
  let acc = B.alloc b Ty.Float (B.i64 b 1) in
  B.store b acc (B.i64 b 0) (B.f64 b 0.0);
  B.for_n b n (fun i ->
      let xi = B.load b x i in
      let v = B.mul b (B.sin_ b xi) (B.mul b xi xi) in
      let cur = B.load b acc (B.i64 b 0) in
      B.store b acc (B.i64 b 0) (B.add b cur v));
  B.return b (Some (B.load b acc (B.i64 b 0)));
  ignore (B.finish b);
  prog

let input = [| 0.4; -1.3; 2.1; 0.9 |]

let test_tape_matches_enzyme () =
  let prog = serial_prog () in
  let args = [ GC.ABuf input; GC.AInt 4 ] in
  let seeds = [ Array.make 4 0.0 ] in
  let enzyme = GC.reverse prog "k" args ~seeds in
  let tape, _ = TC.reverse prog "k" args ~seeds in
  Alcotest.check feq "primal" enzyme.GC.primal tape.GC.primal;
  Array.iter2
    (fun a b -> Alcotest.check feq "adjoint" a b)
    (List.hd enzyme.GC.d_bufs)
    (List.hd tape.GC.d_bufs)

let test_tape_entries_recorded () =
  let prog = serial_prog () in
  let _, tape =
    TC.reverse prog "k"
      [ GC.ABuf input; GC.AInt 4 ]
      ~seeds:[ Array.make 4 0.0 ]
  in
  Alcotest.(check bool)
    "tape grew" true
    (Parad_tape.Tape.length tape > 4 * 3)

let test_tape_serial_overhead_higher_than_enzyme () =
  (* the crux of the paper's CoDiPack comparison: per-statement taping
     makes the serial gradient much slower than the compiler-generated
     one *)
  let prog = serial_prog () in
  let big = Array.init 256 (fun i -> 0.01 *. float_of_int (i + 1)) in
  let args = [ GC.ABuf big; GC.AInt 256 ] in
  let seeds = [ Array.make 256 0.0 ] in
  let primal =
    let _, _, res = GC.run_primal prog "k" args in
    res.Exec.makespan
  in
  let enzyme = (GC.reverse prog "k" args ~seeds).GC.makespan in
  let tape = (fst (TC.reverse prog "k" args ~seeds)).GC.makespan in
  let eo = enzyme /. primal and to_ = tape /. primal in
  Alcotest.(check bool)
    (Printf.sprintf "tape overhead (%.2fx) > enzyme overhead (%.2fx)" to_ eo)
    true (to_ > eo)

let test_tape_rejects_openmp () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "pf" ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Unit
  in
  let x, n = two ps in
  B.parallel_for b ~lo:(B.i64 b 0) ~hi:n (fun i ->
      B.store b x i (B.f64 b 1.0));
  B.return b None;
  ignore (B.finish b);
  match
    TC.reverse prog "pf"
      [ GC.ABuf [| 0.0; 0.0 |]; GC.AInt 2 ]
      ~seeds:[ Array.make 2 1.0 ]
  with
  | _ -> Alcotest.fail "tape accepted fork/join parallelism"
  | exception Value.Runtime_error _ -> ()

(* MPI: ring exchange, tape vs enzyme vs exact *)
let ring_prog () =
  let prog = Prog.create () in
  let b, ps =
    B.func prog "ring"
      ~attrs:[ Func.noalias; Func.default_attr ]
      ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Float
  in
  let x, n = two ps in
  let rank = B.call b ~ret:Ty.Int "mpi.rank" [] in
  let size = B.call b ~ret:Ty.Int "mpi.size" [] in
  let one = B.i64 b 1 in
  let next = B.rem b (B.add b rank one) size in
  let prev = B.rem b (B.add b rank (B.sub b size one)) size in
  let y = B.alloc b Ty.Float n in
  let tag = B.i64 b 5 in
  let sreq = B.call b ~ret:Ty.Int "mpi.isend" [ x; n; next; tag ] in
  let rreq = B.call b ~ret:Ty.Int "mpi.irecv" [ y; n; prev; tag ] in
  ignore (B.call b ~ret:Ty.Unit "mpi.wait" [ sreq ]);
  ignore (B.call b ~ret:Ty.Unit "mpi.wait" [ rreq ]);
  let acc = B.alloc b Ty.Float one in
  B.store b acc (B.i64 b 0) (B.f64 b 0.0);
  B.for_n b n (fun i ->
      let yi = B.load b y i in
      let cur = B.load b acc (B.i64 b 0) in
      B.store b acc (B.i64 b 0) (B.add b cur (B.mul b yi yi)));
  let out = B.alloc b Ty.Float one in
  ignore (B.call b ~ret:Ty.Unit "mpi.allreduce_sum" [ acc; out; one ]);
  B.return b (Some (B.load b out (B.i64 b 0)));
  ignore (B.finish b);
  prog

let test_tape_ampi_matches_enzyme () =
  let prog = ring_prog () in
  let nranks = 4 in
  let n = 3 in
  let data rank = Array.init n (fun i -> 0.2 +. (0.3 *. float_of_int (rank + i))) in
  let args ~rank = [ GC.ABuf (data rank); GC.AInt n ] in
  let seeds ~rank:_ = [ Array.make n 0.0 ] in
  let d_ret ~rank = if rank = 0 then 1.0 else 0.0 in
  let enzyme = GC.reverse_spmd prog "ring" ~nranks ~args ~seeds ~d_ret in
  let tape, _ = TC.reverse_spmd prog "ring" ~nranks ~args ~seeds ~d_ret in
  for r = 0 to nranks - 1 do
    Array.iter2
      (fun a b -> Alcotest.check feq (Printf.sprintf "rank %d" r) a b)
      (List.hd enzyme.GC.s_d_bufs.(r))
      (List.hd tape.GC.s_d_bufs.(r))
  done

let test_tape_ampi_scaling_artifact () =
  (* fig 8's analysis: tape "scales better" only because its serial
     overhead dominates at low rank counts. Check the signature: the
     tape/enzyme gradient-time ratio shrinks as ranks increase. *)
  let prog = ring_prog () in
  let total = 8192 in
  let time_of tool nranks =
    (* strong scaling: fixed total work split across ranks *)
    let n = total / nranks in
    let args ~rank =
      [ GC.ABuf (Array.init n (fun i -> 0.01 *. float_of_int (rank + i))); GC.AInt n ]
    in
    let seeds ~rank:_ = [ Array.make n 0.0 ] in
    let d_ret ~rank = if rank = 0 then 1.0 else 0.0 in
    match tool with
    | `Enzyme ->
      (GC.reverse_spmd prog "ring" ~nranks ~args ~seeds ~d_ret).GC.s_makespan
    | `Tape ->
      (fst (TC.reverse_spmd prog "ring" ~nranks ~args ~seeds ~d_ret))
        .GC.s_makespan
  in
  let ratio nranks = time_of `Tape nranks /. time_of `Enzyme nranks in
  let r2 = ratio 2 and r8 = ratio 8 in
  Alcotest.(check bool)
    (Printf.sprintf "tape/enzyme ratio shrinks with ranks (%.2f -> %.2f)" r2
       r8)
    true (r8 < r2)

(* ---- engine-compiled taping and the lowered reverse sweep ---- *)

let bits = Int64.bits_of_float

let check_bits_arr name a b =
  Alcotest.(check (array int64)) name (Array.map bits a) (Array.map bits b)

(* run the tape baseline with the primal on the engine's Seq runner vs
   the interpreter: identical tape, FNV-identical adjoints, identical
   makespan, zero interpreter fallbacks *)
let engine_slots prog =
  let prep = Parad_engine.Engine.prepare prog in
  Parad_engine.Engine.call_fn_slots prep Parad_engine.Engine.Seq

let test_engine_taping_bit_identical () =
  let prog = serial_prog () in
  let args = [ GC.ABuf input; GC.AInt 4 ] in
  let seeds = [ Array.make 4 0.0 ] in
  let ri, _ = TC.reverse prog "k" args ~seeds in
  let re, _ = TC.reverse ~call_slots:(engine_slots prog) prog "k" args ~seeds in
  Alcotest.(check int64) "primal bits" (bits ri.GC.primal) (bits re.GC.primal);
  check_bits_arr "adjoint bits" (List.hd ri.GC.d_bufs) (List.hd re.GC.d_bufs);
  Alcotest.(check (float 0.0)) "makespan" ri.GC.makespan re.GC.makespan;
  Alcotest.(check int)
    "tape entries" ri.GC.stats.Stats.tape_entries
    re.GC.stats.Stats.tape_entries;
  Alcotest.(check int)
    "engine stayed resident" 0 re.GC.stats.Stats.eng_fallbacks

let test_engine_taping_ampi () =
  let prog = ring_prog () in
  let nranks = 4 in
  let n = 3 in
  let data rank =
    Array.init n (fun i -> 0.2 +. (0.3 *. float_of_int (rank + i)))
  in
  let args ~rank = [ GC.ABuf (data rank); GC.AInt n ] in
  let seeds ~rank:_ = [ Array.make n 0.0 ] in
  let d_ret ~rank = if rank = 0 then 1.0 else 0.0 in
  let ri, _ = TC.reverse_spmd prog "ring" ~nranks ~args ~seeds ~d_ret in
  let re, _ =
    TC.reverse_spmd ~call_slots:(engine_slots prog) prog "ring" ~nranks ~args
      ~seeds ~d_ret
  in
  for r = 0 to nranks - 1 do
    check_bits_arr
      (Printf.sprintf "rank %d adjoint bits" r)
      (List.hd ri.GC.s_d_bufs.(r))
      (List.hd re.GC.s_d_bufs.(r))
  done;
  Alcotest.(check (float 0.0)) "makespan" ri.GC.s_makespan re.GC.s_makespan

let test_engine_taping_rejects_openmp () =
  (* the engine's taped compile must reject fork/join with the
     interpreter's exact diagnostic *)
  let prog = Prog.create () in
  let b, ps =
    B.func prog "pf" ~params:[ "x", Ty.Ptr Ty.Float; "n", Ty.Int ]
      ~ret:Ty.Unit
  in
  let x, n = two ps in
  B.parallel_for b ~lo:(B.i64 b 0) ~hi:n (fun i ->
      B.store b x i (B.f64 b 1.0));
  B.return b None;
  ignore (B.finish b);
  let run call_slots =
    match
      TC.reverse ?call_slots prog "pf"
        [ GC.ABuf [| 0.0; 0.0 |]; GC.AInt 2 ]
        ~seeds:[ Array.make 2 1.0 ]
    with
    | _ -> Alcotest.fail "tape accepted fork/join parallelism"
    | exception Value.Runtime_error m -> m
  in
  Alcotest.(check string)
    "byte-identical diagnostic" (run None)
    (run (Some (engine_slots prog)))

let test_taped_sanitizer_falls_back () =
  (* a sanitized taped run cannot stay engine-resident: the engine must
     hand the whole call to the interpreter (counted) and the result must
     be bit-identical to a pure interpreter run *)
  let prog = serial_prog () in
  let args = [ GC.ABuf input; GC.AInt 4 ] in
  let seeds = [ Array.make 4 0.0 ] in
  let san () = Sanitizer.create () in
  let ri, _ = TC.reverse ~san:(san ()) prog "k" args ~seeds in
  let re, _ =
    TC.reverse ~san:(san ()) ~call_slots:(engine_slots prog) prog "k" args
      ~seeds
  in
  check_bits_arr "adjoint bits" (List.hd ri.GC.d_bufs) (List.hd re.GC.d_bufs);
  Alcotest.(check (float 0.0)) "makespan" ri.GC.makespan re.GC.makespan;
  Alcotest.(check bool)
    "fallback counted" true
    (re.GC.stats.Stats.eng_fallbacks > 0)

let test_taped_fault_plan_identical () =
  (* fault injection lives in the message runtime, which taped engine
     code reaches through the same delegated intrinsics: a lossy plan
     must leave engine and interpreter taping bit-identical *)
  let prog = ring_prog () in
  let nranks = 4 in
  let n = 3 in
  let args ~rank =
    [ GC.ABuf (Array.init n (fun i -> 0.1 +. float_of_int (rank + i))); GC.AInt n ]
  in
  let seeds ~rank:_ = [ Array.make n 0.0 ] in
  let d_ret ~rank = if rank = 0 then 1.0 else 0.0 in
  let plan () = Faults.plan_of_name ~nranks "drop-retry" in
  let ri, _ =
    TC.reverse_spmd ~faults:(plan ()) prog "ring" ~nranks ~args ~seeds ~d_ret
  in
  let re, _ =
    TC.reverse_spmd ~faults:(plan ()) ~call_slots:(engine_slots prog) prog
      "ring" ~nranks ~args ~seeds ~d_ret
  in
  for r = 0 to nranks - 1 do
    check_bits_arr
      (Printf.sprintf "rank %d adjoint bits" r)
      (List.hd ri.GC.s_d_bufs.(r))
      (List.hd re.GC.s_d_bufs.(r))
  done;
  Alcotest.(check (float 0.0)) "makespan" ri.GC.s_makespan re.GC.s_makespan;
  Alcotest.(check bool)
    "retries actually injected" true
    (re.GC.s_stats.Stats.send_retries > 0)

(* ---- golden tape baseline: adjoint digests and makespans, pinned.
   Each line of tape.digests is "<label>\t<fnv>\t<makespan>", the FNV-1a
   digest (the service's) over the bit patterns of every rank's input
   adjoints, rank-major, and the virtual makespan in %h notation. The
   file was recorded with an independent entry-at-a-time scalar sweep; a
   change meant to alter the tape's bits or costs re-records it from the
   lines the failing check prints. The runs are the serial kernel, the
   4-rank ring (also under drop-retry faults) and the LULESH-MPI and
   miniBUDE tape baselines of the verification figure. ---- *)

module L = Apps_lulesh.Lulesh
module MB = Apps_minibude.Minibude
module S = Parad_server.Service

let tiny_lulesh =
  { L.nx = 2; ny = 2; nz = 4; niter = 3; dt0 = 0.01; escale = 1.0 }

let lulesh_args (inp : L.input) ~nranks ~rank =
  let m = L.mesh inp ~nranks ~rank in
  [
    GC.ABuf m.L.coords.(0); GC.ABuf m.L.coords.(1); GC.ABuf m.L.coords.(2);
    GC.ABuf m.L.vels.(0); GC.ABuf m.L.vels.(1); GC.ABuf m.L.vels.(2);
    GC.ABuf m.L.energy; GC.AIntBuf m.L.conn; GC.ABuf m.L.node_mass;
    GC.AInt inp.L.nx; GC.AInt inp.L.ny; GC.AInt m.L.nzl;
    GC.AInt inp.L.niter; GC.AScalar inp.L.dt0;
  ]

let lulesh_zero_seeds (inp : L.input) ~nranks ~rank =
  let m = L.mesh inp ~nranks ~rank in
  let nn = Array.length m.L.node_mass and ne = Array.length m.L.energy in
  List.map (fun len -> Array.make len 0.0) [ nn; nn; nn; nn; nn; nn; ne; nn ]

let golden_line label (g : GC.spmd_gradient) =
  let h =
    Array.fold_left
      (fun h bufs -> List.fold_left S.digest_floats h bufs)
      S.fnv_init g.GC.s_d_bufs
  in
  Printf.sprintf "%s\t%016Lx\t%h" label h g.GC.s_makespan

let golden_runs () =
  (* every run seeds rank 0's return with 1 *)
  let run ?faults prog fname ~nranks ~args ~seeds () =
    fst
      (TC.reverse_spmd
         ?faults:(Option.map (Faults.plan_of_name ~nranks) faults)
         prog fname ~nranks ~args ~seeds
         ~d_ret:(fun ~rank -> if rank = 0 then 1.0 else 0.0))
  in
  let ring ?faults () =
    let n = 3 in
    run ?faults (ring_prog ()) "ring" ~nranks:4
      ~args:(fun ~rank ->
        [
          GC.ABuf (Array.init n (fun i -> 0.2 +. (0.3 *. float_of_int (rank + i))));
          GC.AInt n;
        ])
      ~seeds:(fun ~rank:_ -> [ Array.make n 0.0 ])
      ()
  in
  let lulesh nranks =
    run (L.program L.Mpi) "lulesh_mpi" ~nranks
      ~args:(fun ~rank -> lulesh_args tiny_lulesh ~nranks ~rank)
      ~seeds:(fun ~rank -> lulesh_zero_seeds tiny_lulesh ~nranks ~rank)
  in
  let deck = MB.deck ~nposes:6 ~natlig:4 ~natpro:5 in
  let bude_args =
    [
      GC.AHidden deck.MB.lig_data; GC.AHidden deck.MB.pro_data;
      GC.AHidden deck.MB.pose_data; GC.ATable [ 0; 1; 2 ];
      GC.ABuf (Array.make deck.MB.nposes 0.0); GC.AInt deck.MB.natlig;
      GC.AInt deck.MB.natpro; GC.AInt deck.MB.nposes;
    ]
  and bude_seeds =
    [
      Array.make (Array.length deck.MB.lig_data) 0.0;
      Array.make (Array.length deck.MB.pro_data) 0.0;
      Array.make (Array.length deck.MB.pose_data) 0.0;
      Array.make deck.MB.nposes 1.0;
    ]
  in
  [
    ( "k serial",
      run (serial_prog ()) "k" ~nranks:1
        ~args:(fun ~rank:_ -> [ GC.ABuf input; GC.AInt 4 ])
        ~seeds:(fun ~rank:_ -> [ Array.make 4 0.0 ]) );
    "ring 4 ranks", ring ?faults:None;
    "ring 4 ranks drop-retry", ring ~faults:"drop-retry";
    "lulesh_mpi 1 rank", lulesh 1;
    "lulesh_mpi 2 ranks", lulesh 2;
    ( "bude_seq",
      run (MB.program ()) "bude_seq" ~nranks:1
        ~args:(fun ~rank:_ -> bude_args)
        ~seeds:(fun ~rank:_ -> bude_seeds) );
  ]

let test_tape_golden () =
  let got = List.map (fun (label, run) -> golden_line label (run ())) (golden_runs ()) in
  let expected =
    In_channel.with_open_text "tape.digests" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list string)) "tape adjoint digests and makespans" expected got

(* One k-wide sweep over an SPMD run: [seeds ~rank ~lane] seeds the
   buffers and [d_ret ~rank ~lane] the return value of lane [lane];
   returns each rank's per-lane input adjoints. *)
let sweep_lanes ~width prog fname ~nranks ~args ~seeds ~d_ret =
  let module Tape = Parad_tape.Tape in
  let tapes = Array.init nranks (fun rank -> Tape.create ~rank) in
  let grads = Array.make_matrix nranks width [] in
  ignore
    (Exec.run_spmd_custom prog ~nranks
       ~instrument:(fun ~rank -> Tape.instrument tapes.(rank))
       ~body:(fun ctx ~rank ->
         let t = tapes.(rank) in
         let vals, bufs = GC.build_args ctx (args ~rank) in
         List.iter (Tape.activate t) bufs;
         let _, ret_slot =
           Interp.call_with_slots ctx fname vals (List.map (fun _ -> 0) vals)
         in
         let sw = Tape.sweep ~width t in
         for lane = 0 to width - 1 do
           List.iter2 (Tape.seed sw ~lane) bufs (seeds ~rank ~lane);
           Tape.seed_slot sw ~lane ret_slot (d_ret ~rank ~lane)
         done;
         Tape.reverse sw ctx;
         for lane = 0 to width - 1 do
           grads.(rank).(lane) <- List.map (Tape.adjoint_of sw ~lane) bufs
         done));
  grads

(* every lane of a k-wide sweep must be bit-identical to a width-1 sweep
   (what Tape_check runs) seeded with that lane's seeds *)
let check_lanes_identical ~width prog fname ~nranks ~args ~seeds ~d_ret =
  let wide = sweep_lanes ~width prog fname ~nranks ~args ~seeds ~d_ret in
  for lane = 0 to width - 1 do
    let one, _ =
      TC.reverse_spmd prog fname ~nranks ~args
        ~seeds:(fun ~rank -> seeds ~rank ~lane)
        ~d_ret:(fun ~rank -> d_ret ~rank ~lane)
    in
    for r = 0 to nranks - 1 do
      List.iter2
        (check_bits_arr (Printf.sprintf "rank %d lane %d" r lane))
        one.GC.s_d_bufs.(r) wide.(r).(lane)
    done
  done

let test_wide_sweep_lanes_identical () =
  let d_rets = [| 1.0; -2.5; 0.125 |] in
  check_lanes_identical ~width:3 (serial_prog ()) "k" ~nranks:1
    ~args:(fun ~rank:_ -> [ GC.ABuf input; GC.AInt 4 ])
    ~seeds:(fun ~rank:_ ~lane:_ -> [ Array.make 4 0.0 ])
    ~d_ret:(fun ~rank:_ ~lane -> d_rets.(lane))

let test_wide_sweep_ring_lanes_identical () =
  (* k-wide Send/Recv/Allreduce reversal: each lane seeds every rank's
     return and its buffer with distinct values *)
  let n = 3 in
  check_lanes_identical ~width:3 (ring_prog ()) "ring" ~nranks:4
    ~args:(fun ~rank ->
      [
        GC.ABuf (Array.init n (fun i -> 0.2 +. (0.3 *. float_of_int (rank + i))));
        GC.AInt n;
      ])
    ~seeds:(fun ~rank ~lane ->
      [
        Array.init n (fun i ->
            0.1 *. float_of_int (lane + 1) *. float_of_int (i - rank));
      ])
    ~d_ret:(fun ~rank ~lane ->
      (1.0 +. float_of_int lane) *. (if rank = 0 then 1.0 else -0.5))

let () =
  Alcotest.run "tape"
    [
      ( "serial",
        [
          Alcotest.test_case "matches enzyme" `Quick test_tape_matches_enzyme;
          Alcotest.test_case "records entries" `Quick
            test_tape_entries_recorded;
          Alcotest.test_case "higher serial overhead" `Quick
            test_tape_serial_overhead_higher_than_enzyme;
          Alcotest.test_case "rejects openmp" `Quick test_tape_rejects_openmp;
        ] );
      ( "ampi",
        [
          Alcotest.test_case "matches enzyme" `Quick
            test_tape_ampi_matches_enzyme;
          Alcotest.test_case "scaling artifact" `Quick
            test_tape_ampi_scaling_artifact;
        ] );
      ( "engine",
        [
          Alcotest.test_case "taping bit-identical" `Quick
            test_engine_taping_bit_identical;
          Alcotest.test_case "taping over mpi" `Quick test_engine_taping_ampi;
          Alcotest.test_case "rejects openmp" `Quick
            test_engine_taping_rejects_openmp;
          Alcotest.test_case "sanitizer falls back" `Quick
            test_taped_sanitizer_falls_back;
          Alcotest.test_case "fault plan identical" `Quick
            test_taped_fault_plan_identical;
        ] );
      ( "lowered",
        [
          Alcotest.test_case "golden digests" `Quick test_tape_golden;
          Alcotest.test_case "batched lanes identical" `Quick
            test_wide_sweep_lanes_identical;
          Alcotest.test_case "batched ring lanes identical" `Quick
            test_wide_sweep_ring_lanes_identical;
        ] );
    ]
