(* Batched multi-seed adjoints (ISSUE 10): a plan compiled with
   [Plan.options.seeds = k > 1] runs one forward/taping pass and one
   reverse sweep that propagates k return seeds through k-stride adjoint
   planes. Every lane column must be bit-identical to a standalone
   single-seed gradient with the same seed — batching is a layout
   change, not a numeric one — and the engine path must agree with the
   interpreter bit-for-bit with an identical virtual makespan. *)

module L = Apps_lulesh.Lulesh
module MB = Apps_minibude.Minibude
module Plan = Parad_core.Plan
module Engine = Parad_engine.Engine

let tiny = { L.nx = 2; ny = 2; nz = 4; niter = 3; dt0 = 0.01; escale = 1.0 }
let small = MB.deck ~nposes:6 ~natlig:3 ~natpro:4
let d_rets = [| 1.0; -0.5; 2.0; 0.25 |]

let bits_eq name (a : float array) (b : float array) =
  Alcotest.(check int) (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      Alcotest.(check int64)
        (Printf.sprintf "%s[%d]" name i)
        (Int64.bits_of_float x)
        (Int64.bits_of_float b.(i)))
    a

let batched_plan flavor =
  L.compile ~opts:{ Plan.default_options with seeds = Array.length d_rets }
    flavor

let lanes_match_standalone flavor ~nthreads ~engine () =
  let c = batched_plan flavor in
  let c1 = L.compile flavor in
  let cols = L.gradient_batched ~nthreads ~engine c ~d_rets tiny in
  Array.iteri
    (fun lane (g : L.grad_result) ->
      let solo =
        L.gradient_compiled ~nthreads ~engine ~d_ret:d_rets.(lane) c1 tiny
      in
      bits_eq
        (Printf.sprintf "lane %d d_coords" lane)
        solo.L.d_coords.(0) g.L.d_coords.(0);
      bits_eq
        (Printf.sprintf "lane %d d_energy" lane)
        solo.L.d_energy.(0) g.L.d_energy.(0))
    cols

let test_engine_matches_interp () =
  (* the seq engine's batched sweep must agree with the interpreter
     bit-for-bit, with an identical virtual makespan *)
  let c = batched_plan L.Omp in
  let gi = L.gradient_batched ~nthreads:4 ~engine:Engine.Interp c ~d_rets tiny in
  let ge = L.gradient_batched ~nthreads:4 ~engine:Engine.Seq c ~d_rets tiny in
  Array.iteri
    (fun lane (i : L.grad_result) ->
      let e = ge.(lane) in
      bits_eq
        (Printf.sprintf "lane %d d_coords" lane)
        i.L.d_coords.(0) e.L.d_coords.(0);
      bits_eq
        (Printf.sprintf "lane %d d_energy" lane)
        i.L.d_energy.(0) e.L.d_energy.(0);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "lane %d makespan" lane)
        i.L.g_makespan e.L.g_makespan)
    gi

let test_minibude_lanes () =
  let ge_seeds = [| 1.0; 0.5; -2.0 |] in
  let opts = { Plan.default_options with seeds = Array.length ge_seeds } in
  let c = MB.compile ~opts ~ntasks:4 MB.Omp in
  let c1 = MB.compile ~ntasks:4 MB.Omp in
  let cols = MB.gradient_batched ~nthreads:4 c ~ge_seeds small in
  Array.iteri
    (fun lane (g : MB.grad_result) ->
      let solo =
        MB.gradient_compiled ~nthreads:4 ~ge_seed:ge_seeds.(lane) c1 small
      in
      bits_eq (Printf.sprintf "lane %d d_lig" lane) solo.MB.d_lig g.MB.d_lig;
      bits_eq (Printf.sprintf "lane %d d_pro" lane) solo.MB.d_pro g.MB.d_pro;
      bits_eq
        (Printf.sprintf "lane %d d_poses" lane)
        solo.MB.d_poses g.MB.d_poses)
    cols

let test_single_lane_is_classic () =
  (* a 1-lane batched run is the classic gradient exactly *)
  let c = L.compile ~opts:{ Plan.default_options with seeds = 1 } L.Seq in
  let g = (L.gradient_batched c ~d_rets:[| 1.0 |] tiny).(0) in
  let solo = L.gradient_compiled c tiny in
  bits_eq "d_coords" solo.L.d_coords.(0) g.L.d_coords.(0);
  bits_eq "d_energy" solo.L.d_energy.(0) g.L.d_energy.(0)

let test_mpi_rejected () =
  (* the MPI adjoint runtime exchanges single-stride planes: batched
     compilation of a distributed flavor must be rejected up front *)
  Alcotest.check_raises "mpi seeds>1"
    (Plan.Unsupported
       "batched seeds (k>1) cannot differentiate \"mpi.isend\"")
    (fun () ->
      ignore (L.compile ~opts:{ Plan.default_options with seeds = 2 } L.Mpi))

let test_seed_count_checked () =
  let c = batched_plan L.Seq in
  (match L.gradient_batched c ~d_rets:[| 1.0 |] tiny with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  (* the scalar entry points are the 1-lane view of the same body: on a
     2-lane plan they fail up front on the lane count *)
  let opts = { Plan.default_options with seeds = 2 } in
  let msg = "gradient_batched: 1 seed values for a 2-lane plan" in
  Alcotest.check_raises "lulesh scalar entry" (Invalid_argument msg) (fun () ->
      ignore (L.gradient_compiled (L.compile ~opts L.Seq) tiny));
  Alcotest.check_raises "minibude scalar entry" (Invalid_argument msg)
    (fun () ->
      ignore (MB.gradient_compiled (MB.compile ~opts ~ntasks:1 MB.Seq) small))

let () =
  Alcotest.run "batch"
    [
      ( "lanes",
        [
          Alcotest.test_case "lulesh seq lanes == standalone" `Quick
            (lanes_match_standalone L.Seq ~nthreads:1 ~engine:Engine.Interp);
          Alcotest.test_case "lulesh omp lanes == standalone" `Quick
            (lanes_match_standalone L.Omp ~nthreads:4 ~engine:Engine.Interp);
          Alcotest.test_case "engine seq == interp" `Quick
            test_engine_matches_interp;
          Alcotest.test_case "minibude omp lanes == standalone" `Quick
            test_minibude_lanes;
          Alcotest.test_case "1-lane batch == classic" `Quick
            test_single_lane_is_classic;
        ] );
      ( "guards",
        [
          Alcotest.test_case "mpi rejected" `Quick test_mpi_rejected;
          Alcotest.test_case "seed count checked" `Quick
            test_seed_count_checked;
        ] );
    ]
