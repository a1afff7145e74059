(* Execution-engine figure (ISSUE 9): wall-clock speedup of the lowered
   slot-addressed engine over the tree-walking interpreter, at identical
   virtual-time results.

   The headline row is the 64-thread LULESH OMP gradient (the mesh the
   interpreter takes ~half a second on): the same compiled plan is
   executed on engine=interp and engine=seq, wall time taken from
   Stats.wall_ns (simulation only — plan compilation is excluded), the
   median of interleaved runs (Util.median_runs). Every engine row's
   gradient digest must equal the interpreter's. scripts/check.sh
   compares the seq row's speedup against bench/engine_threshold. *)

open Util
module E = Parad_engine.Engine
module SV = Parad_server.Service

let engines = [| E.Interp; E.Seq |]

let run ~quick =
  header "Execution engine (wall-clock, bit-identical gradients)";
  let cores = Domain.recommended_domain_count () in
  Printf.printf "host: %d core(s) recommended\n" cores;
  row_of_strings "engine" [ "wall_ms"; "speedup"; "makespan"; "bitwise" ];
  (* one row per engine; the interpreter's (first) row is the baseline *)
  let report prefix runs digest makespan =
    let base_digest = digest (fst runs.(0)) and base_ns = snd runs.(0) in
    Array.for_all Fun.id
      (Array.mapi
         (fun j (g, ns) ->
           let name = prefix ^ E.choice_to_string engines.(j) in
           let bitwise = digest g = base_digest in
           row_of_strings name
             [
               Printf.sprintf "%.1f" (ns /. 1e6);
               Printf.sprintf "%.2fx" (base_ns /. ns);
               Printf.sprintf "%.4g" (makespan g);
               string_of_bool bitwise;
             ];
           record_engine ~name ~cores ~wall_ns:ns ~speedup:(base_ns /. ns)
             ~makespan:(makespan g) ~bitwise;
           bitwise)
         runs)
  in

  subheader "LULESH OMP gradient (nthreads=64)";
  let inp =
    if quick then { L.nx = 4; ny = 4; nz = 16; niter = 2; dt0 = 0.01; escale = 1.0 }
    else { L.nx = 4; ny = 4; nz = 64; niter = 2; dt0 = 0.01; escale = 1.0 }
  in
  let c = L.compile L.Omp in
  let grad engine () =
    let g = L.gradient_compiled ~nthreads:64 ~engine c inp in
    g, float_of_int g.L.g_stats.S.wall_ns
  in
  let lulesh_ok =
    report "lulesh_omp/" (median_runs (Array.map grad engines))
      SV.digest_lulesh (fun g -> g.L.g_makespan)
  in

  subheader "miniBUDE OMP gradient (nthreads=8)";
  let binp =
    if quick then MB.deck ~nposes:16 ~natlig:8 ~natpro:16
    else MB.deck ~nposes:48 ~natlig:12 ~natpro:64
  in
  let bc = MB.compile ~ntasks:8 MB.Omp in
  let bgrad engine () =
    let g = MB.gradient_compiled ~engine bc binp in
    g, float_of_int g.MB.g_stats.S.wall_ns
  in
  let bude_ok =
    report "bude_omp/" (median_runs (Array.map bgrad engines))
      SV.digest_bude (fun g -> g.MB.g_makespan)
  in
  if not (lulesh_ok && bude_ok) then begin
    Printf.eprintf "fig_engine: an engine gradient diverged from interp\n";
    exit 1
  end
