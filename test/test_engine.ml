(* Execution engine: the lowered slot-addressed engine must be
   bit-identical to the tree-walking interpreter — same gradients by FNV
   digest, same virtual-time makespan, same instruction counts — across
   every app x flavor program, and the structured-failure machinery
   (deadlines, fault kills, SDC detection) must behave identically on the
   engine path. *)

module L = Apps_lulesh.Lulesh
module MB = Apps_minibude.Minibude
module E = Parad_engine.Engine
module S = Parad_server.Service
open Parad_runtime

let tiny = { L.nx = 2; ny = 2; nz = 4; niter = 3; dt0 = 0.01; escale = 1.0 }

let lulesh_flavors =
  [
    L.Seq, 1, 1;
    L.Omp, 4, 1;
    L.Raja_, 3, 1;
    L.Mpi, 1, 2;
    L.Hybrid, 2, 2;
    L.RajaMpi, 2, 2;
    L.Jlmpi, 1, 2;
  ]

let check_same name (a : L.grad_result) (b : L.grad_result) =
  Alcotest.(check string)
    (name ^ " digest") (S.digest_lulesh a) (S.digest_lulesh b);
  Alcotest.(check (float 0.0))
    (name ^ " makespan") a.L.g_makespan b.L.g_makespan;
  Alcotest.(check int)
    (name ^ " instrs") a.L.g_stats.Stats.instrs b.L.g_stats.Stats.instrs;
  Alcotest.(check int)
    (name ^ " flops") a.L.g_stats.Stats.flops b.L.g_stats.Stats.flops;
  Alcotest.(check int)
    (name ^ " atomics") a.L.g_stats.Stats.atomics b.L.g_stats.Stats.atomics;
  Alcotest.(check int)
    (name ^ " barriers") a.L.g_stats.Stats.barriers b.L.g_stats.Stats.barriers

let test_lulesh_bit_identity () =
  List.iter
    (fun (flavor, nthreads, nranks) ->
      let c = L.compile flavor in
      let g engine = L.gradient_compiled ~nthreads ~nranks ~engine c tiny in
      let base = g E.Interp in
      check_same (L.flavor_name flavor ^ " seq") base (g E.Seq))
    lulesh_flavors

let bude_inp = MB.deck ~nposes:12 ~natlig:6 ~natpro:10

let test_bude_bit_identity () =
  List.iter
    (fun variant ->
      let c = MB.compile ~ntasks:3 variant in
      let g engine = MB.gradient_compiled ~engine c bude_inp in
      let base = g E.Interp in
      let check name (x : MB.grad_result) =
        Alcotest.(check string)
          (MB.variant_name variant ^ " " ^ name ^ " digest")
          (S.digest_bude base) (S.digest_bude x);
        Alcotest.(check (float 0.0))
          (MB.variant_name variant ^ " " ^ name ^ " makespan")
          base.MB.g_makespan x.MB.g_makespan;
        Alcotest.(check int)
          (MB.variant_name variant ^ " " ^ name ^ " instrs")
          base.MB.g_stats.Stats.instrs x.MB.g_stats.Stats.instrs
      in
      check "seq" (g E.Seq))
    [ MB.Seq; MB.Omp; MB.Julia ]

let test_primal_identity () =
  (* primal runs (Exec.run / run_spmd with the engine's call) agree too *)
  let base = (L.run L.Omp ~nthreads:4 tiny).L.total_energy in
  let r = L.run ~nthreads:4 ~engine:E.Seq L.Omp tiny in
  Alcotest.(check (float 0.0)) "omp primal seq" base r.L.total_energy;
  let eb = (MB.run ~nthreads:3 MB.Julia bude_inp).MB.energies in
  let es = (MB.run ~nthreads:3 ~engine:E.Seq MB.Julia bude_inp).MB.energies in
  Alcotest.(check bool) "julia primal energies" true (eb = es)

let test_binomial_engine_identity () =
  (* the revolve driver's inner runs ride the engine and must reproduce
     the monolithic interpreter gradient bit-for-bit *)
  let c = L.compile ~steps:true L.Omp in
  let mono = L.gradient_compiled ~nthreads:4 c tiny in
  let b = L.gradient_binomial ~nthreads:4 ~engine:E.Seq ~compiled:c ~budget:2
      L.Omp tiny
  in
  Alcotest.(check string)
    "binomial seq-engine digest" (S.digest_lulesh mono)
    (S.digest_lulesh b.L.b_grad)

let test_deadline_identical () =
  (* a virtual-cycle deadline trips at the exact same virtual clock on
     both substrates (exit class 6 at the CLI) *)
  let c = L.compile L.Omp in
  let deadline = { Sim.dl_cycles = Some 50_000.0; dl_wall_ms = None } in
  let hit engine =
    match L.gradient_compiled ~nthreads:4 ~deadline ~engine c tiny with
    | _ -> Alcotest.fail "deadline did not trip"
    | exception Sim.Deadline_exceeded d -> d.Sim.de_at
  in
  Alcotest.(check (float 0.0))
    "same trip clock" (hit E.Interp) (hit E.Seq)

let test_kill_recovery_on_engine () =
  (* supervised recovery with a rank kill on the engine path converges to
     the faultless interpreter digest *)
  let c = L.compile L.Mpi in
  let clean = L.gradient_compiled ~nranks:2 c tiny in
  let plan = Faults.plan_of_spec ~nranks:2 "kill:victim=1,at=60000" in
  let faulty, recov =
    L.gradient_recoverable_compiled ~nranks:2 ~faults:plan ~max_restarts:3
      ~engine:E.Seq c tiny
  in
  Alcotest.(check string)
    "recovered digest" (S.digest_lulesh clean) (S.digest_lulesh faulty);
  Alcotest.(check bool) "restarted" true (recov.Exec.r_restarts >= 1)

let test_sdc_detected_on_engine () =
  (* an unsupervised bit flip must still surface as a structured
     Corrupt_region (exit class 9) when the run executes on the engine *)
  let c = L.compile L.Mpi in
  let plan = Faults.plan_of_spec ~nranks:2 "none:flip=1@3@31@50" in
  match L.gradient_compiled ~nranks:2 ~faults:plan ~engine:E.Seq c tiny with
  | _ -> Alcotest.fail "flip not detected on engine path"
  | exception Checkpoint.Corrupt_region { cr_rank; _ } ->
    Alcotest.(check int) "victim rank named" 1 cr_rank

let test_wall_ns_populated () =
  let c = L.compile L.Omp in
  let g = L.gradient_compiled ~nthreads:4 ~engine:E.Seq c tiny in
  Alcotest.(check bool) "wall_ns measured" true (g.L.g_stats.Stats.wall_ns > 0)

(* ---- memory-error parity ----

   The engine checks liveness and bounds inline and calls
   [Memory.check_access] only for an access about to fail; each faulty
   program below must raise the interpreter's [Runtime_error] text byte
   for byte, on a float and on an int buffer. *)

module B = Parad_ir.Builder
module Ty = Parad_ir.Ty
module Prog = Parad_ir.Prog

(* [body b p] acts on [p], a fresh 4-cell buffer of [elem]. *)
let faulty_prog elem body =
  let prog = Prog.create () in
  let b, _ = B.func prog "mem" ~params:[] ~ret:Ty.Unit in
  let p = B.alloc b elem (B.i64 b 4) in
  body b p;
  B.return b None;
  ignore (B.finish b);
  prog

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let runtime_error run =
  match run () with
  | _ -> Alcotest.fail "faulty access was not detected"
  | exception Value.Runtime_error msg -> msg

let check_parity name expect prog =
  let on call () = Exec.run ~call prog ~fname:"mem" ~setup:(fun _ -> []) in
  let interp = runtime_error (on Interp.call)
  and seq = runtime_error (on (E.call_fn (E.prepare prog) E.Seq)) in
  Alcotest.(check string) (name ^ ": seq message = interp message") interp seq;
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S names %S" name interp expect)
    true
    (contains interp expect)

let test_memory_error_parity () =
  List.iter
    (fun (ename, elem, value) ->
      let case name expect body =
        check_parity (ename ^ " " ^ name) expect (faulty_prog elem body)
      in
      case "load past the end" "out of bounds" (fun b p ->
          ignore (B.load b p (B.i64 b 4)));
      case "store at a negative index" "out of bounds" (fun b p ->
          B.store b p (B.i64 b (-1)) (value b));
      case "load through a gep past the end" "out of bounds" (fun b p ->
          ignore (B.load b (B.gep b p (B.i64 b 3)) (B.i64 b 1)));
      case "store through a gep past the end" "out of bounds" (fun b p ->
          B.store b (B.gep b p (B.i64 b 2)) (B.i64 b 2) (value b));
      case "load after free" "use after free" (fun b p ->
          B.free b p;
          ignore (B.load b p (B.i64 b 0)));
      case "store after free" "use after free" (fun b p ->
          B.free b p;
          B.store b p (B.i64 b 0) (value b));
      (* liveness is reported before bounds *)
      case "load past the end after free" "use after free" (fun b p ->
          B.free b p;
          ignore (B.load b p (B.i64 b 9)));
      if elem = Ty.Float then begin
        case "atomic add after free" "use after free" (fun b p ->
            B.free b p;
            B.atomic_add b p (B.i64 b 0) (value b));
        case "atomic add through a gep past the end" "out of bounds"
          (fun b p ->
            B.atomic_add b (B.gep b p (B.i64 b 1)) (B.i64 b 3) (value b))
      end)
    [
      "float", Ty.Float, (fun b -> B.f64 b 1.5);
      "int", Ty.Int, (fun b -> B.i64 b 7);
    ]

(* ---- allocation guard ----

   Minor words of one warm seq-engine gradient (plan compiled and lowered
   by a first run), on the tiny mesh. The count is deterministic; each
   bound is the count measured when the guard was set plus 10%. Before
   the engine's memory ops went allocation-free these runs allocated
   689769 (mpi) and 204092 (omp) words. *)
let warm_minor_words flavor ~nthreads ~nranks =
  let c = L.compile flavor in
  let run () =
    ignore (L.gradient_compiled ~nthreads ~nranks ~engine:E.Seq c tiny)
  in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  Gc.minor_words () -. w0

let test_warm_allocation () =
  List.iter
    (fun (name, flavor, nthreads, nranks, bound) ->
      let words = warm_minor_words flavor ~nthreads ~nranks in
      Alcotest.(check bool)
        (Printf.sprintf "%s warm gradient: %.0f minor words <= %.0f" name
           words bound)
        true (words <= bound))
    [
      "lulesh mpi 2 ranks", L.Mpi, 1, 2, 78217. *. 1.1;
      "lulesh omp 4 threads", L.Omp, 4, 1, 73534. *. 1.1;
    ]

let () =
  Alcotest.run "engine"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "lulesh all flavors" `Quick
            test_lulesh_bit_identity;
          Alcotest.test_case "minibude all variants" `Quick
            test_bude_bit_identity;
          Alcotest.test_case "primal runs" `Quick test_primal_identity;
          Alcotest.test_case "binomial driver" `Quick
            test_binomial_engine_identity;
        ] );
      ( "structured failures",
        [
          Alcotest.test_case "deadline same clock" `Quick
            test_deadline_identical;
          Alcotest.test_case "kill recovery" `Quick
            test_kill_recovery_on_engine;
          Alcotest.test_case "sdc detection" `Quick
            test_sdc_detected_on_engine;
          Alcotest.test_case "wall_ns" `Quick test_wall_ns_populated;
          Alcotest.test_case "memory error parity" `Quick
            test_memory_error_parity;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "warm gradient minor words" `Quick
            test_warm_allocation;
        ] );
    ]
