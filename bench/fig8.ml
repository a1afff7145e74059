(* Figure 8: LULESH under MPI — runtime (top), strong scaling (middle),
   weak scaling (bottom) for Enzyme C++ MPI, Enzyme Julia MPI, Enzyme
   RAJA MPI and the CoDiPack (tape) C++ MPI baseline.

   Substitution note (DESIGN.md): the paper's cube decompositions
   {1,8,27,64} become slab decompositions over power-of-two rank counts;
   the dual-socket NUMA falloff past half the machine is preserved. *)

open Util

let ranks_of quick = if quick then [ 1; 4; 16; 64 ] else [ 1; 2; 8; 16; 32; 64 ]

let run ~quick =
  header "Figure 8 — LULESH MPI: runtime, strong scaling, weak scaling";
  let rmax = cli_ranks ~default:64 in
  let ranks = List.filter (fun r -> r <= rmax) (ranks_of quick) in
  let nz = 64 in
  let base =
    {
      L.nx = (if quick then 2 else 4);
      ny = (if quick then 2 else 4);
      nz;
      niter = 2;
      dt0 = 0.01;
      escale = 1.0;
    }
  in
  (* the C++ MPI rows keep their full results: the adjoint-communication
     counters go into BENCH_fig8.json and the counter table below *)
  let cpp_fwd = List.map (fun n -> L.run ~nranks:n L.Mpi base) ranks in
  let cpp_grad = List.map (fun n -> L.gradient ~nranks:n L.Mpi base) ranks in
  let cpp_fwd_t = List.map (fun (r : L.run_result) -> r.L.makespan) cpp_fwd in
  let cpp_grad_t =
    List.map (fun (r : L.grad_result) -> r.L.g_makespan) cpp_grad
  in
  let fwd flavor n = (L.run ~nranks:n flavor base).L.makespan in
  let grad flavor n = (L.gradient ~nranks:n flavor base).L.g_makespan in
  let series name f = name, List.map f ranks in
  let table =
    [
      "C++ MPI forward", cpp_fwd_t;
      "C++ MPI gradient", cpp_grad_t;
      series "Julia MPI forward" (fwd L.Jlmpi);
      series "Julia MPI gradient" (grad L.Jlmpi);
      series "RAJA MPI forward" (fwd L.RajaMpi);
      series "RAJA MPI gradient" (grad L.RajaMpi);
      series "CoDiPack MPI gradient" (fun n -> lulesh_tape_gradient base ~nranks:n);
    ]
  in
  let f1 = List.hd cpp_fwd_t and g1 = List.hd cpp_grad_t in
  (* one row per config; the name carries the rank count and the
     ablation, so every (name, metric) is unique *)
  let record_mpi name ~nranks ~coalesce ~f1 ~g1 ~forward (g : L.grad_result) =
    let s = g.L.g_stats in
    record
      ~name:
        (Printf.sprintf "%s/r%d%s" name nranks
           (if coalesce then "" else "/nocoalesce"))
      [
        "nranks", "count", float nranks;
        "coalesce", "bool", Bool.to_float coalesce;
        "forward", "cycles", forward;
        "gradient", "cycles", g.L.g_makespan;
        "fwd_speedup", "ratio", f1 /. forward;
        "grad_speedup", "ratio", g1 /. g.L.g_makespan;
        "msgs_sent", "count", float s.S.msgs_sent;
        "cells_sent", "cells", float s.S.cells_sent;
        "max_inflight", "count", float s.S.max_inflight;
      ]
  in
  List.iteri
    (fun i n ->
      record_mpi "lulesh_cpp_mpi" ~nranks:n ~coalesce:true ~f1 ~g1
        ~forward:(List.nth cpp_fwd_t i) (List.nth cpp_grad i))
    ranks;
  subheader "top row: runtime (virtual cycles) vs ranks";
  cols "ranks" ranks;
  List.iter (fun (n, ts) -> row_of_floats n ts) table;
  subheader "middle row: strong-scaling speedup (T1 / TN)";
  cols "ranks" ranks;
  List.iter (fun (n, ts) -> row_of_floats n (speedups ts)) table;
  subheader "gradient/forward overhead vs ranks";
  cols "ranks" ranks;
  let over fwd_n grad_n = List.map2 (fun a b -> b /. a) fwd_n grad_n in
  let t n = List.assoc n (List.map (fun (a, b) -> a, b) table) in
  row_of_floats "C++ (Enzyme)" (over (t "C++ MPI forward") (t "C++ MPI gradient"));
  row_of_floats "Julia (Enzyme)" (over (t "Julia MPI forward") (t "Julia MPI gradient"));
  row_of_floats "C++ (CoDiPack)" (over (t "C++ MPI forward") (t "CoDiPack MPI gradient"));
  (* bottom row: weak scaling — fixed per-rank block *)
  subheader "bottom row: weak scaling efficiency (T1 / TN, fixed work per rank)";
  let block = if quick then 2 else 4 in
  let weak flavor isgrad n =
    let inp = { base with L.nz = block * n } in
    if isgrad then (L.gradient ~nranks:n flavor inp).L.g_makespan
    else (L.run ~nranks:n flavor inp).L.makespan
  in
  cols "ranks" ranks;
  List.iter
    (fun (name, flavor, isgrad) ->
      let ts = List.map (weak flavor isgrad) ranks in
      row_of_floats name (List.map (fun t -> List.hd ts /. t) ts))
    [
      "C++ MPI forward", L.Mpi, false;
      "C++ MPI gradient", L.Mpi, true;
      "Julia MPI gradient", L.Jlmpi, true;
      "RAJA MPI gradient", L.RajaMpi, true;
    ];
  (* gated row: always the full-size mesh, so the strong-scaling
     floors in bench/gates mean the same thing under --quick; plus the
     --no-coalesce ablation (one blocking dual per exchange, the
     uncoalesced baseline) at the same size *)
  let last l = List.nth l (List.length l - 1) in
  let gmax = last ranks in
  let gate_inp = { base with L.nx = 4; ny = 4 } in
  let gate_fwd n = L.run ~nranks:n L.Mpi gate_inp
  and gate_grad ?opts n = L.gradient ?opts ~nranks:n L.Mpi gate_inp in
  let gf1, gg1, gfn, ggn =
    if quick then
      ( (gate_fwd 1).L.makespan,
        (gate_grad 1).L.g_makespan,
        gate_fwd gmax,
        gate_grad gmax )
    else (f1, g1, last cpp_fwd, last cpp_grad)
  in
  let record_gate =
    record_mpi "lulesh_cpp_mpi_gate" ~nranks:gmax ~f1:gf1 ~g1:gg1
  in
  record_gate ~coalesce:true ~forward:gfn.L.makespan ggn;
  let nc_opts =
    { Parad_core.Plan.default_options with coalesce_comm = false }
  in
  let ggn_nc = gate_grad ~opts:nc_opts gmax in
  record_gate ~coalesce:false ~forward:gfn.L.makespan ggn_nc;
  subheader
    (Printf.sprintf "adjoint-communication counters (%d ranks, full size)"
       gmax);
  Printf.printf "%-24s %12s %12s %12s %12s\n" "config" "gradient"
    "msgs_sent" "cells_sent" "max_inflight";
  let counter_row name (g : L.grad_result) =
    Printf.printf "%-24s %12.3g %12d %12d %12d\n" name g.L.g_makespan
      g.L.g_stats.S.msgs_sent g.L.g_stats.S.cells_sent
      g.L.g_stats.S.max_inflight
  in
  counter_row "coalesced" ggn;
  counter_row "--no-coalesce" ggn_nc
