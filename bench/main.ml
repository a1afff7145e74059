(* Benchmark harness: one driver per paper figure/table (see DESIGN.md's
   per-experiment index), plus bechamel micro-benchmarks of the framework
   itself (real wall time: AD transform latency and interpreter
   throughput).

   Usage: main.exe [--quick] [--figure fig8|fig9|fig10|fig11|overhead|
                              verify|ablation|checkpoint|serve|sdc|engine|
                              batch|micro]
                   [--recompute-depth N]

   Figure drivers record machine-readable results; the run writes them
   on exit to BENCH_<figure>.json, one file per figure that ran, all in
   one schema (see Util.write_results). check_gates.exe checks them
   against bench/gates. *)

(* ---- bechamel micro-benchmarks (real time) ---- *)

let micro ~quick:_ =
  Util.header "Micro-benchmarks (bechamel, real wall time)";
  let open Bechamel in
  let lulesh_prog = Apps_lulesh.Lulesh.program Apps_lulesh.Lulesh.Omp in
  let bude_prog = Apps_minibude.Minibude.program () in
  let lulesh_grad, lulesh_dname =
    Parad_core.Reverse.gradient lulesh_prog "lulesh_omp"
  in
  let lulesh_grad_fn =
    Parad_ir.Prog.find_exn
      (Parad_opt.Pipeline.run lulesh_grad Parad_opt.Pipeline.post_ad)
      lulesh_dname
  in
  let mpi_grad_fn =
    let dprog, dname =
      Parad_core.Reverse.gradient
        (Apps_lulesh.Lulesh.program Apps_lulesh.Lulesh.Mpi)
        "lulesh_mpi"
    in
    Parad_ir.Prog.find_exn dprog dname
  in
  let tiny =
    {
      Apps_lulesh.Lulesh.nx = 2;
      ny = 2;
      nz = 2;
      niter = 1;
      dt0 = 0.01;
      escale = 1.0;
    }
  in
  let tests =
    Test.make_grouped ~name:"parad" ~fmt:"%s %s"
      [
        Test.make ~name:"ad-transform lulesh_omp"
          (Staged.stage (fun () ->
               ignore
                 (Parad_core.Reverse.gradient lulesh_prog "lulesh_omp")));
        Test.make ~name:"ad-transform bude_omp"
          (Staged.stage (fun () ->
               ignore (Parad_core.Reverse.gradient bude_prog "bude_omp")));
        Test.make ~name:"interp lulesh 2x2x2"
          (Staged.stage (fun () ->
               ignore (Apps_lulesh.Lulesh.run Apps_lulesh.Lulesh.Seq tiny)));
        Test.make ~name:"o2 pipeline lulesh_omp"
          (Staged.stage (fun () ->
               ignore
                 (Parad_opt.Pipeline.run_on lulesh_prog "lulesh_omp"
                    Parad_opt.Pipeline.o2)));
        Test.make ~name:"post_ad pipeline lulesh_omp gradient"
          (Staged.stage (fun () ->
               ignore
                 (Parad_opt.Pipeline.run lulesh_grad
                    Parad_opt.Pipeline.post_ad)));
        Test.make ~name:"mem_forward lulesh_mpi gradient"
          (Staged.stage (fun () ->
               ignore (Parad_opt.Mem_forward.run_func mpi_grad_fn)));
        Test.make ~name:"verify lulesh_omp gradient"
          (Staged.stage (fun () ->
               Parad_ir.Verifier.check_func lulesh_grad_fn));
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
        Printf.printf "%-44s %12.1f ns/run\n" name est;
        Util.record ~name [ "ns_per_run", "ns", est ]
      | _ -> Printf.printf "%-44s (no estimate)\n" name)
    results

let figures =
  [
    "fig8", Fig8.run;
    "fig9", Fig9.run;
    "fig10", Fig10.run;
    "fig11", Fig11.run;
    "overhead", Fig_overhead.run;
    "verify", Fig_verify.run;
    "ablation", Fig_ablation.run;
    "checkpoint", Fig_checkpoint.run;
    "serve", Fig_serve.run;
    "sdc", Fig_sdc.run;
    "engine", Fig_engine.run;
    "batch", Fig_batch.run;
    "micro", micro;
  ]

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let run (name, f) =
    Util.figure := name;
    f ~quick
  in
  (match Util.cli_arg "--figure" with
  | None -> List.iter run figures
  | Some name -> (
    match List.assoc_opt name figures with
    | Some f -> run (name, f)
    | None ->
      Util.usage_error "unknown figure %S; available: %s" name
        (String.concat " " (List.map fst figures))));
  Util.write_results ~quick ();
  Printf.printf "\nbench: done.\n"
