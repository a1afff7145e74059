(* Batched multi-seed adjoints (ISSUE 10): one taping pass and one
   reverse sweep propagating k return seeds through k-stride adjoint
   planes, vs k sequential single-seed gradients on the same engine.

   The batched sweep amortizes everything that does not scale with the
   seed count — the forward/taping pass, cache traffic, and the
   derivative transcendentals hoisted out of the lane loop — so the
   headline LULESH OMP row should approach but never reach kx. Every
   lane column must be bit-identical to its standalone run (same d_ret,
   same engine): batching is a layout change, not a numeric one. The
   batched run and the k solo runs are interleaved round by round and
   each side takes its median (Util.median_runs).
   bench/gates puts a floor under the lulesh_omp/k8 speedup and
   requires every row bitwise. *)

open Util
module E = Parad_engine.Engine
module Plan = Parad_core.Plan

let record_batch ~name ~seeds ~wall_ns ~solo_ns ~bitwise =
  record ~name
    [
      "seeds", "count", float seeds;
      "wall_ns", "ns", wall_ns;
      "solo_ns", "ns", solo_ns;
      "speedup", "ratio", solo_ns /. wall_ns;
      "bitwise", "bool", Bool.to_float bitwise;
    ]

let run ~quick =
  header "Batched multi-seed adjoints (one sweep, k seeds)";
  let engine = E.Seq in
  row_of_strings "config"
    [ "batched_ms"; "k_solo_ms"; "speedup"; "bitwise" ];

  (* ---- LULESH OMP (nthreads=64): the headline row ---- *)
  let inp =
    if quick then
      { L.nx = 4; ny = 4; nz = 16; niter = 2; dt0 = 0.01; escale = 1.0 }
    else { L.nx = 4; ny = 4; nz = 64; niter = 2; dt0 = 0.01; escale = 1.0 }
  in
  let lulesh_row k =
    let d_rets = Array.init k (fun i -> 1.0 +. float_of_int i) in
    let cb = L.compile ~opts:{ Plan.default_options with seeds = k } L.Omp in
    let c1 = L.compile L.Omp in
    let batched () =
      let gs = L.gradient_batched ~nthreads:64 ~engine cb ~d_rets inp in
      gs, float_of_int gs.(0).L.g_stats.S.wall_ns
    in
    let solo l () =
      let g =
        L.gradient_compiled ~nthreads:64 ~engine ~d_ret:d_rets.(l) c1 inp
      in
      [| g |], float_of_int g.L.g_stats.S.wall_ns
    in
    let runs = median_runs (Array.append [| batched |] (Array.init k solo)) in
    let gs, batched_ns = runs.(0) in
    let solo_ns = ref 0.0 in
    let bitwise = ref true in
    for l = 0 to k - 1 do
      let g, ns = runs.(l + 1) in
      solo_ns := !solo_ns +. ns;
      bitwise :=
        !bitwise
        && bits_eq g.(0).L.d_coords.(0) gs.(l).L.d_coords.(0)
        && bits_eq g.(0).L.d_energy.(0) gs.(l).L.d_energy.(0)
    done;
    let name = Printf.sprintf "lulesh_omp/k%d" k in
    row_of_strings name
      [
        Printf.sprintf "%.1f" (batched_ns /. 1e6);
        Printf.sprintf "%.1f" (!solo_ns /. 1e6);
        Printf.sprintf "%.2fx" (!solo_ns /. batched_ns);
        string_of_bool !bitwise;
      ];
    record_batch ~name ~seeds:k ~wall_ns:batched_ns ~solo_ns:!solo_ns
      ~bitwise:!bitwise;
    !bitwise
  in
  subheader "LULESH OMP gradient (nthreads=64, engine=seq)";
  let ok = ref true in
  List.iter (fun k -> ok := lulesh_row k && !ok) (if quick then [ 2; 4; 8 ] else [ 2; 4; 8 ]);

  (* ---- miniBUDE OMP ---- *)
  subheader "miniBUDE OMP gradient (nthreads=8, engine=seq)";
  let binp =
    if quick then MB.deck ~nposes:16 ~natlig:8 ~natpro:16
    else MB.deck ~nposes:48 ~natlig:12 ~natpro:64
  in
  let bude_row k =
    let ge_seeds = Array.init k (fun i -> 1.0 +. (0.5 *. float_of_int i)) in
    let cb =
      MB.compile ~opts:{ Plan.default_options with seeds = k } ~ntasks:8
        MB.Omp
    in
    let c1 = MB.compile ~ntasks:8 MB.Omp in
    let batched () =
      let gs = MB.gradient_batched ~engine cb ~ge_seeds binp in
      gs, float_of_int gs.(0).MB.g_stats.S.wall_ns
    in
    let solo l () =
      let g = MB.gradient_compiled ~engine ~ge_seed:ge_seeds.(l) c1 binp in
      [| g |], float_of_int g.MB.g_stats.S.wall_ns
    in
    let runs = median_runs (Array.append [| batched |] (Array.init k solo)) in
    let gs, batched_ns = runs.(0) in
    let solo_ns = ref 0.0 in
    let bitwise = ref true in
    for l = 0 to k - 1 do
      let g, ns = runs.(l + 1) in
      solo_ns := !solo_ns +. ns;
      bitwise :=
        !bitwise
        && bits_eq g.(0).MB.d_lig gs.(l).MB.d_lig
        && bits_eq g.(0).MB.d_pro gs.(l).MB.d_pro
        && bits_eq g.(0).MB.d_poses gs.(l).MB.d_poses
    done;
    let name = Printf.sprintf "bude_omp/k%d" k in
    row_of_strings name
      [
        Printf.sprintf "%.1f" (batched_ns /. 1e6);
        Printf.sprintf "%.1f" (!solo_ns /. 1e6);
        Printf.sprintf "%.2fx" (!solo_ns /. batched_ns);
        string_of_bool !bitwise;
      ];
    record_batch ~name ~seeds:k ~wall_ns:batched_ns ~solo_ns:!solo_ns
      ~bitwise:!bitwise;
    !bitwise
  in
  List.iter (fun k -> ok := bude_row k && !ok) [ 8 ];
  if not !ok then begin
    Printf.eprintf "fig_batch: a batched lane diverged from its standalone run\n";
    exit 1
  end
