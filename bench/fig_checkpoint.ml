(* Long-horizon checkpoint schedules (ROADMAP item 5, DESIGN.md's
   binomial/tiered section): the LULESH MPI gradient at >= 10x the usual
   bench horizon, store-all vs. depth-k recomputation vs. a binomial
   schedule under a fixed snapshot budget. The point of the figure is the
   memory/time trade: store-all's AD cache peak grows linearly with the
   horizon while the binomial schedule keeps it at a single timestep's
   worth (plus the bounded tiered snapshot store), at the cost of primal
   re-advance work.

   The binomial gate row always runs (even under --quick); bench/gates
   bounds its cache_peak and requires it bitwise. *)

open Util
module Plan = Parad_core.Plan
module CK = Parad_runtime.Checkpoint

(* budget 0 is the store-all baseline (no snapshot budget) *)
let record_checkpoint ~name ~niter ~budget ~tiers ~gradient ~sweeps ~segments
    ~advances ~bitwise (s : S.t) =
  record ~name
    [
      "niter", "count", float niter;
      "budget", "count", float budget;
      "tiers", "count", float tiers;
      "gradient", "cycles", gradient;
      "cache_peak", "cells", float s.S.cache_peak;
      "sweeps", "count", float sweeps;
      "segments", "count", float segments;
      "advances", "count", float advances;
      "snap_count", "count", float s.S.snap_count;
      "snap_bytes", "bytes", float s.S.snap_bytes;
      "snap_evictions", "count", float s.S.snap_evictions;
      "snap_restores", "count", float s.S.snap_restores;
      "bitwise", "bool", Bool.to_float bitwise;
    ]

let run ~quick =
  header "Long-horizon checkpoint schedules (LULESH MPI gradient)";
  let nranks = 2 in
  (* the headline MPI figure runs niter=2; the long-horizon gate row is
     >= 10x that so the store-all cache actually hurts *)
  let niter = 24 in
  let budget = 4 in
  let inp = { L.nx = 2; ny = 2; nz = 4; niter; dt0 = 0.01; escale = 1.0 } in
  Printf.printf "  niter=%d nranks=%d (bench headline horizon is 2)\n" niter
    nranks;

  subheader "store-all baseline (every intermediate cached)";
  let base = L.gradient ~nranks L.Mpi inp in
  let bs = base.L.g_stats in
  Printf.printf "  gradient %12.4g cycles, cache peak %8d cells\n"
    base.L.g_makespan bs.S.cache_peak;
  record_checkpoint ~name:"lulesh_mpi_store_all" ~niter ~budget:0 ~tiers:0
    ~gradient:base.L.g_makespan ~sweeps:1 ~segments:1 ~advances:0
    ~bitwise:true bs;

  if not quick then begin
    subheader "depth-k rematerialization (intra-iteration recompute only)";
    List.iter
      (fun depth ->
        let r =
          L.gradient ~nranks
            ~opts:{ Plan.default_options with Plan.recompute_depth = depth }
            L.Mpi inp
        in
        Printf.printf
          "  depth %-2d: gradient %12.4g cycles, cache peak %8d cells\n" depth
          r.L.g_makespan r.L.g_stats.S.cache_peak)
      [ 4; 10 ]
  end;

  subheader
    (Printf.sprintf "binomial schedule (budget %d, tiers 2) — gate row" budget);
  let b = L.gradient_binomial ~nranks ~tiers:2 ~budget L.Mpi inp in
  let g = b.L.b_grad in
  let gs = g.L.g_stats in
  let bitwise = lulesh_bits_eq g base in
  Printf.printf
    "  gradient %12.4g cycles, cache peak %8d cells (store-all: %d)\n"
    g.L.g_makespan gs.S.cache_peak bs.S.cache_peak;
  Printf.printf
    "  %d worst-case sweep(s), %d reverse segment(s), %d re-advance step(s)\n"
    b.L.b_sweeps b.L.b_segments b.L.b_advances;
  Printf.printf
    "  snapshots: count=%d bytes=%d evictions=%d restores=%d degraded=%d\n"
    gs.S.snap_count gs.S.snap_bytes gs.S.snap_evictions gs.S.snap_restores
    b.L.b_degraded;
  Printf.printf "  bit-identical to store-all: %b\n" bitwise;
  record_checkpoint ~name:"lulesh_mpi_binomial_gate" ~niter ~budget ~tiers:2
    ~gradient:g.L.g_makespan ~sweeps:b.L.b_sweeps ~segments:b.L.b_segments
    ~advances:b.L.b_advances ~bitwise gs;

  if not quick then begin
    subheader "budget sweep (memory/recompute trade)";
    List.iter
      (fun budget ->
        let b = L.gradient_binomial ~nranks ~tiers:2 ~budget L.Mpi inp in
        let gs = b.L.b_grad.L.g_stats in
        Printf.printf
          "  budget %-2d: gradient %12.4g cycles, cache peak %6d, \
           %3d advances, %2d evictions, bitwise %b\n"
          budget b.L.b_grad.L.g_makespan gs.S.cache_peak b.L.b_advances
          gs.S.snap_evictions
          (lulesh_bits_eq b.L.b_grad base);
        record_checkpoint
          ~name:(Printf.sprintf "lulesh_mpi_binomial_b%d" budget)
          ~niter ~budget ~tiers:2 ~gradient:b.L.b_grad.L.g_makespan
          ~sweeps:b.L.b_sweeps ~segments:b.L.b_segments
          ~advances:b.L.b_advances
          ~bitwise:(lulesh_bits_eq b.L.b_grad base)
          gs)
      [ 1; 2; 8 ]
  end
