(* Table formatting and shared measurement helpers for the figure
   drivers. All times are virtual cycles from the simulator (see
   DESIGN.md); "overhead" is gradient/forward, the paper's metric. *)

let header title =
  Printf.printf "\n=== %s ===\n" title

(* optional [--flag N] integer argument to the bench driver *)
let cli_int flag ~default =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then default
    else if Sys.argv.(i) = flag then
      match int_of_string_opt Sys.argv.(i + 1) with
      | Some n -> n
      | None -> default
    else find (i + 1)
  in
  find 1

(* optional [--ranks N] for the MPI figure drivers; the simulated
   communicator uses recursive-doubling collectives, so N must be a
   power of two *)
let cli_ranks ~default =
  let n = cli_int "--ranks" ~default in
  if n <= 0 || n land (n - 1) <> 0 then begin
    Printf.eprintf
      "bench: --ranks must be a power of two (got %d); the simulated \
       communicator uses recursive-doubling collectives\n"
      n;
    exit 2
  end;
  n

let subheader t = Printf.printf "--- %s ---\n" t

let row_of_floats name xs =
  Printf.printf "%-24s %s\n" name
    (String.concat " "
       (List.map (fun x -> Printf.sprintf "%12.3g" x) xs))

let row_of_strings name xs =
  Printf.printf "%-24s %s\n" name
    (String.concat " " (List.map (Printf.sprintf "%12s") xs))

let cols name xs =
  row_of_strings name (List.map string_of_int xs)

(* speedup series: t(first) / t(n) *)
let speedups ts =
  match ts with
  | [] -> []
  | t1 :: _ -> List.map (fun t -> t1 /. t) ts

(* Wall-clock comparison of several runs: [median_runs fs] runs every
   thunk of [fs] once per round, for [wall_samples] rounds, each run
   after a full [Gc.compact]; a thunk returns its result and its wall
   time in ns. Returns, per thunk, the result of its first run and the
   median of its wall times. Interleaving the thunks round by round keeps
   heap and cache state from favouring either side of a comparison. *)
let wall_samples = 5

let median_runs (fs : (unit -> 'a * float) array) : ('a * float) array =
  let firsts = Array.make (Array.length fs) None in
  let times = Array.map (fun _ -> Array.make wall_samples 0.0) fs in
  for round = 0 to wall_samples - 1 do
    Array.iteri
      (fun j f ->
        Gc.compact ();
        let r, ns = f () in
        if round = 0 then firsts.(j) <- Some r;
        times.(j).(round) <- ns)
      fs
  done;
  Array.mapi
    (fun j ts ->
      Array.sort Float.compare ts;
      Option.get firsts.(j), ts.(wall_samples / 2))
    times

module L = Apps_lulesh.Lulesh
module MB = Apps_minibude.Minibude
module GC = Parad_verify.Grad_check
module TC = Parad_verify.Tape_check
module S = Parad_runtime.Stats

(* ---- machine-readable results (BENCH_overhead.json) ----

   Figure drivers and the micro-benchmarks append records here; the main
   driver writes them out once at exit. The schema is line-oriented (one
   config object per line) so shell gates can grep it — see
   scripts/check.sh's overhead-regression gate. *)

type ovh_record = {
  o_name : string;
  o_nranks : int;
  o_nthreads : int;
  o_forward : float;
  o_gradient : float;
  o_cache_stores : int;
  o_cache_cells : int;
  o_cache_peak : int;
}

let ovh_records : ovh_record list ref = ref []
let micro_records : (string * float) list ref = ref []

let record_overhead ~name ~nranks ~nthreads ~forward ~gradient ~stats =
  let o_cache_stores, o_cache_cells, o_cache_peak =
    match (stats : S.t option) with
    | Some s -> s.S.cache_stores, s.S.cache_cells, s.S.cache_peak
    | None -> 0, 0, 0
  in
  ovh_records :=
    {
      o_name = name;
      o_nranks = nranks;
      o_nthreads = nthreads;
      o_forward = forward;
      o_gradient = gradient;
      o_cache_stores;
      o_cache_cells;
      o_cache_peak;
    }
    :: !ovh_records

let record_micro ~name ~ns = micro_records := (name, ns) :: !micro_records

(* ---- machine-readable MPI-scaling results (BENCH_mpi.json) ----

   Fig 8 appends one record per (rank count, coalescing) config; the
   main driver writes them out at exit. Line-oriented for the same
   reason as BENCH_overhead.json: scripts/check.sh's MPI strong-scaling
   gate greps the 64-rank gate row and compares the speedups against
   bench/mpi_threshold. *)

type mpi_record = {
  m_name : string;
  m_nranks : int;
  m_coalesce : bool;
  m_forward : float;
  m_gradient : float;
  m_fwd_speedup : float;
  m_grad_speedup : float;
  m_msgs_sent : int;
  m_cells_sent : int;
  m_max_inflight : int;
}

let mpi_records : mpi_record list ref = ref []

let record_mpi ~name ~nranks ~coalesce ~forward ~gradient ~fwd_speedup
    ~grad_speedup ~stats =
  let m_msgs_sent, m_cells_sent, m_max_inflight =
    match (stats : S.t option) with
    | Some s -> s.S.msgs_sent, s.S.cells_sent, s.S.max_inflight
    | None -> 0, 0, 0
  in
  mpi_records :=
    {
      m_name = name;
      m_nranks = nranks;
      m_coalesce = coalesce;
      m_forward = forward;
      m_gradient = gradient;
      m_fwd_speedup = fwd_speedup;
      m_grad_speedup = grad_speedup;
      m_msgs_sent;
      m_cells_sent;
      m_max_inflight;
    }
    :: !mpi_records

let write_mpi_json ~quick =
  if !mpi_records <> [] then begin
    let path = "BENCH_mpi.json" in
    let oc = open_out path in
    Printf.fprintf oc
      "{\n  \"schema\": \"parad-bench-mpi/1\",\n  \"quick\": %b,\n\
      \  \"configs\": [\n"
      quick;
    let rows = List.rev !mpi_records in
    let last = List.length rows - 1 in
    List.iteri
      (fun i r ->
        Printf.fprintf oc
          "    {\"name\": %S, \"nranks\": %d, \"coalesce\": %b, \
           \"forward\": %.6g, \"gradient\": %.6g, \"fwd_speedup\": %.4f, \
           \"grad_speedup\": %.4f, \"msgs_sent\": %d, \"cells_sent\": %d, \
           \"max_inflight\": %d}%s\n"
          r.m_name r.m_nranks r.m_coalesce r.m_forward r.m_gradient
          r.m_fwd_speedup r.m_grad_speedup r.m_msgs_sent r.m_cells_sent
          r.m_max_inflight
          (if i = last then "" else ","))
      rows;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    Printf.printf "wrote %s (%d configs)\n" path (List.length rows)
  end

(* ---- machine-readable checkpoint results (BENCH_checkpoint.json) ----

   The checkpoint figure appends one record per schedule (store-all
   baseline vs. binomial under a snapshot budget) on the long-horizon
   LULESH MPI run; the main driver writes them out at exit.
   Line-oriented for the same reason as the other BENCH files:
   scripts/check.sh's checkpoint gate greps the binomial gate row and
   compares its cache_peak against bench/checkpoint_threshold. *)

type ckpt_record = {
  c_name : string;
  c_niter : int;
  c_budget : int;  (** 0 = store-all (no snapshot budget) *)
  c_tiers : int;
  c_gradient : float;
  c_cache_peak : int;
  c_sweeps : int;
  c_segments : int;
  c_advances : int;
  c_snap_count : int;
  c_snap_bytes : int;
  c_snap_evictions : int;
  c_snap_restores : int;
  c_bitwise : bool;  (** gradient bit-identical to the store-all baseline *)
}

let ckpt_records : ckpt_record list ref = ref []

let record_checkpoint ~name ~niter ~budget ~tiers ~gradient ~sweeps ~segments
    ~advances ~bitwise ~stats =
  let peak, cnt, bytes, ev, rst =
    match (stats : S.t option) with
    | Some s ->
      ( s.S.cache_peak,
        s.S.snap_count,
        s.S.snap_bytes,
        s.S.snap_evictions,
        s.S.snap_restores )
    | None -> 0, 0, 0, 0, 0
  in
  ckpt_records :=
    {
      c_name = name;
      c_niter = niter;
      c_budget = budget;
      c_tiers = tiers;
      c_gradient = gradient;
      c_cache_peak = peak;
      c_sweeps = sweeps;
      c_segments = segments;
      c_advances = advances;
      c_snap_count = cnt;
      c_snap_bytes = bytes;
      c_snap_evictions = ev;
      c_snap_restores = rst;
      c_bitwise = bitwise;
    }
    :: !ckpt_records

let write_checkpoint_json ~quick =
  if !ckpt_records <> [] then begin
    let path = "BENCH_checkpoint.json" in
    let oc = open_out path in
    Printf.fprintf oc
      "{\n  \"schema\": \"parad-bench-checkpoint/1\",\n  \"quick\": %b,\n\
      \  \"configs\": [\n"
      quick;
    let rows = List.rev !ckpt_records in
    let last = List.length rows - 1 in
    List.iteri
      (fun i r ->
        Printf.fprintf oc
          "    {\"name\": %S, \"niter\": %d, \"budget\": %d, \"tiers\": %d, \
           \"gradient\": %.6g, \"cache_peak\": %d, \"sweeps\": %d, \
           \"segments\": %d, \"advances\": %d, \"snap_count\": %d, \
           \"snap_bytes\": %d, \"snap_evictions\": %d, \
           \"snap_restores\": %d, \"bitwise\": %b}%s\n"
          r.c_name r.c_niter r.c_budget r.c_tiers r.c_gradient r.c_cache_peak
          r.c_sweeps r.c_segments r.c_advances r.c_snap_count r.c_snap_bytes
          r.c_snap_evictions r.c_snap_restores r.c_bitwise
          (if i = last then "" else ","))
      rows;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    Printf.printf "wrote %s (%d configs)\n" path (List.length rows)
  end

(* ---- machine-readable gradient-service results (BENCH_serve.json) ----

   The serve figure appends one record per scenario: the plan-cache
   row (cold compile vs. warm lookup wall-ns; the warm speedup is the
   gate scripts/check.sh compares against bench/serve_threshold), one
   row per burst size in the throughput-vs-concurrency sweep, and a
   chaos row with shed/trip/recovery counts from a seeded slam. *)

type serve_record = {
  v_name : string;
  v_workers : int;
  v_requests : int;
  v_ok : int;
  v_shed : int;
  v_trips : int;
  v_recoveries : int;
  v_cold_ns : float;  (** mean plan-compile wall-ns on a cache miss *)
  v_warm_ns : float;  (** mean plan-lookup wall-ns on a cache hit *)
  v_warm_speedup : float;
  v_p95_cycles : float;  (** virtual request latency, 95th percentile *)
  v_throughput : float;  (** executed requests per virtual megacycle *)
}

let serve_records : serve_record list ref = ref []

let record_serve ~name ~workers ~requests ~ok ~shed ~trips ~recoveries
    ~cold_ns ~warm_ns ~p95_cycles ~throughput =
  serve_records :=
    {
      v_name = name;
      v_workers = workers;
      v_requests = requests;
      v_ok = ok;
      v_shed = shed;
      v_trips = trips;
      v_recoveries = recoveries;
      v_cold_ns = cold_ns;
      v_warm_ns = warm_ns;
      v_warm_speedup = (if warm_ns > 0.0 then cold_ns /. warm_ns else 0.0);
      v_p95_cycles = p95_cycles;
      v_throughput = throughput;
    }
    :: !serve_records

let write_serve_json ~quick =
  if !serve_records <> [] then begin
    let path = "BENCH_serve.json" in
    let oc = open_out path in
    Printf.fprintf oc
      "{\n  \"schema\": \"parad-bench-serve/1\",\n  \"quick\": %b,\n\
      \  \"configs\": [\n"
      quick;
    let rows = List.rev !serve_records in
    let last = List.length rows - 1 in
    List.iteri
      (fun i r ->
        Printf.fprintf oc
          "    {\"name\": %S, \"workers\": %d, \"requests\": %d, \"ok\": %d, \
           \"shed\": %d, \"trips\": %d, \"recoveries\": %d, \
           \"cold_ns\": %.1f, \"warm_ns\": %.1f, \"warm_speedup\": %.1f, \
           \"p95_cycles\": %.6g, \"throughput\": %.4f}%s\n"
          r.v_name r.v_workers r.v_requests r.v_ok r.v_shed r.v_trips
          r.v_recoveries r.v_cold_ns r.v_warm_ns r.v_warm_speedup
          r.v_p95_cycles r.v_throughput
          (if i = last then "" else ","))
      rows;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    Printf.printf "wrote %s (%d rows)\n" path (List.length rows)
  end

(* ---- SDC injection campaign (fault coverage and recovery cost) ---- *)

type sdc_record = {
  c_name : string;
  c_trials : int;
  c_injected : int;  (** trials where the fault actually landed *)
  c_detected : int;  (** landed faults caught by a checksum *)
  c_recovered : int;  (** detected and re-derived bit-identically *)
  c_masked : int;  (** fault never landed or was overwritten unread *)
  c_aborted : int;  (** detected but recovery budget exhausted *)
  c_silent : int;  (** wrong gradient with no detection — must be 0 *)
  c_coverage : float;  (** detected / injected, percent *)
  c_overhead : float;  (** mean recovered/clean makespan ratio *)
}

let sdc_records : sdc_record list ref = ref []

let record_sdc ~name ~trials ~injected ~detected ~recovered ~masked ~aborted
    ~silent ~overhead =
  sdc_records :=
    {
      c_name = name;
      c_trials = trials;
      c_injected = injected;
      c_detected = detected;
      c_recovered = recovered;
      c_masked = masked;
      c_aborted = aborted;
      c_silent = silent;
      c_coverage =
        (if injected = 0 then 100.0
         else 100.0 *. float_of_int detected /. float_of_int injected);
      c_overhead = overhead;
    }
    :: !sdc_records

let write_sdc_json ~quick =
  if !sdc_records <> [] then begin
    let path = "BENCH_sdc.json" in
    let oc = open_out path in
    Printf.fprintf oc
      "{\n  \"schema\": \"parad-bench-sdc/1\",\n  \"quick\": %b,\n\
      \  \"campaigns\": [\n"
      quick;
    let rows = List.rev !sdc_records in
    let last = List.length rows - 1 in
    List.iteri
      (fun i r ->
        Printf.fprintf oc
          "    {\"name\": %S, \"trials\": %d, \"injected\": %d, \
           \"detected\": %d, \"recovered\": %d, \"masked\": %d, \
           \"aborted\": %d, \"silent\": %d, \"coverage\": %.2f, \
           \"overhead\": %.4f}%s\n"
          r.c_name r.c_trials r.c_injected r.c_detected r.c_recovered
          r.c_masked r.c_aborted r.c_silent r.c_coverage r.c_overhead
          (if i = last then "" else ","))
      rows;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    Printf.printf "wrote %s (%d rows)\n" path (List.length rows)
  end

(* ---- machine-readable engine results (BENCH_engine.json) ----

   The engine figure appends one record per (program, engine) pair; the
   main driver writes them out at exit. scripts/check.sh's engine gate
   greps the lulesh_omp/seq row, compares its speedup against
   bench/engine_threshold, and requires bitwise=true everywhere. *)

type eng_record = {
  e_name : string;
  e_cores : int;  (** Domain.recommended_domain_count at measurement *)
  e_wall_ns : float;
  e_speedup : float;  (** interp wall / this wall, same program *)
  e_makespan : float;
  e_bitwise : bool;  (** gradient digest equals the interpreter's *)
}

let eng_records : eng_record list ref = ref []

let record_engine ~name ~cores ~wall_ns ~speedup ~makespan ~bitwise =
  eng_records :=
    {
      e_name = name;
      e_cores = cores;
      e_wall_ns = wall_ns;
      e_speedup = speedup;
      e_makespan = makespan;
      e_bitwise = bitwise;
    }
    :: !eng_records

let write_engine_json ~quick =
  if !eng_records <> [] then begin
    let path = "BENCH_engine.json" in
    let oc = open_out path in
    Printf.fprintf oc
      "{\n  \"schema\": \"parad-bench-engine/2\",\n  \"quick\": %b,\n\
      \  \"configs\": [\n"
      quick;
    let rows = List.rev !eng_records in
    let last = List.length rows - 1 in
    List.iteri
      (fun i r ->
        Printf.fprintf oc
          "    {\"name\": %S, \"cores\": %d, \"wall_ns\": %.0f, \
           \"speedup\": %.4f, \"makespan\": %.6g, \"bitwise\": %b}%s\n"
          r.e_name r.e_cores r.e_wall_ns r.e_speedup r.e_makespan
          r.e_bitwise
          (if i = last then "" else ","))
      rows;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    Printf.printf "wrote %s (%d rows)\n" path (List.length rows)
  end

(* ---- machine-readable batched-adjoint results (BENCH_batch.json) ----

   The batch figure appends one record per (program, k) pair comparing
   one k-lane batched sweep against k sequential single-seed gradients
   on the same engine. scripts/check.sh's batch gate greps the
   lulesh_omp/k8 row, compares its speedup against bench/batch_threshold,
   and requires bitwise=true (every lane column equal to its standalone
   run) everywhere. *)

type batch_record = {
  b_name : string;
  b_seeds : int;
  b_wall_ns : float;  (** one batched k-lane sweep *)
  b_solo_ns : float;  (** sum of k single-seed sweeps, same engine *)
  b_speedup : float;  (** solo / batched *)
  b_bitwise : bool;  (** every lane column equals its standalone run *)
}

let batch_records : batch_record list ref = ref []

let record_batch ~name ~seeds ~wall_ns ~solo_ns ~bitwise =
  batch_records :=
    {
      b_name = name;
      b_seeds = seeds;
      b_wall_ns = wall_ns;
      b_solo_ns = solo_ns;
      b_speedup = (if wall_ns > 0.0 then solo_ns /. wall_ns else 0.0);
      b_bitwise = bitwise;
    }
    :: !batch_records

let write_batch_json ~quick =
  if !batch_records <> [] then begin
    let path = "BENCH_batch.json" in
    let oc = open_out path in
    Printf.fprintf oc
      "{\n  \"schema\": \"parad-bench-batch/1\",\n  \"quick\": %b,\n\
      \  \"configs\": [\n"
      quick;
    let rows = List.rev !batch_records in
    let last = List.length rows - 1 in
    List.iteri
      (fun i r ->
        Printf.fprintf oc
          "    {\"name\": %S, \"seeds\": %d, \"wall_ns\": %.0f, \
           \"solo_ns\": %.0f, \"speedup\": %.4f, \"bitwise\": %b}%s\n"
          r.b_name r.b_seeds r.b_wall_ns r.b_solo_ns r.b_speedup r.b_bitwise
          (if i = last then "" else ","))
      rows;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    Printf.printf "wrote %s (%d rows)\n" path (List.length rows)
  end

let write_bench_json ~quick =
  if !ovh_records <> [] || !micro_records <> [] then begin
    let path = "BENCH_overhead.json" in
    let oc = open_out path in
    Printf.fprintf oc
      "{\n  \"schema\": \"parad-bench-overhead/1\",\n  \"quick\": %b,\n\
      \  \"configs\": [\n"
      quick;
    let rows = List.rev !ovh_records in
    let last = List.length rows - 1 in
    List.iteri
      (fun i r ->
        Printf.fprintf oc
          "    {\"name\": %S, \"nranks\": %d, \"nthreads\": %d, \
           \"forward\": %.6g, \"gradient\": %.6g, \"overhead\": %.4f, \
           \"cache_stores\": %d, \"cache_cells\": %d, \"cache_peak\": %d}%s\n"
          r.o_name r.o_nranks r.o_nthreads r.o_forward r.o_gradient
          (r.o_gradient /. r.o_forward)
          r.o_cache_stores r.o_cache_cells r.o_cache_peak
          (if i = last then "" else ","))
      rows;
    Printf.fprintf oc "  ],\n  \"micro\": [\n";
    let ms = List.rev !micro_records in
    let mlast = List.length ms - 1 in
    List.iteri
      (fun i (n, v) ->
        Printf.fprintf oc "    {\"name\": %S, \"ns_per_run\": %.1f}%s\n" n v
          (if i = mlast then "" else ","))
      ms;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    Printf.printf "\nwrote %s (%d configs, %d micro)\n" path (List.length rows)
      (List.length ms)
  end

(* argument list for driving LULESH through the generic (tape) harness *)
let lulesh_args (inp : L.input) ~nranks ~rank =
  let m = L.mesh inp ~nranks ~rank in
  [
    GC.ABuf m.L.coords.(0);
    GC.ABuf m.L.coords.(1);
    GC.ABuf m.L.coords.(2);
    GC.ABuf m.L.vels.(0);
    GC.ABuf m.L.vels.(1);
    GC.ABuf m.L.vels.(2);
    GC.ABuf m.L.energy;
    GC.AIntBuf m.L.conn;
    GC.ABuf m.L.node_mass;
    GC.AInt inp.L.nx;
    GC.AInt inp.L.ny;
    GC.AInt m.L.nzl;
    GC.AInt inp.L.niter;
    GC.AScalar inp.L.dt0;
  ]

let lulesh_zero_seeds (inp : L.input) ~nranks ~rank =
  let m = L.mesh inp ~nranks ~rank in
  let nn = Array.length m.L.node_mass in
  let ne = Array.length m.L.energy in
  List.map (fun len -> Array.make len 0.0) [ nn; nn; nn; nn; nn; nn; ne; nn ]

(* the CoDiPack-analog gradient of LULESH-MPI in virtual time *)
let lulesh_tape_gradient (inp : L.input) ~nranks =
  let prog = L.program L.Mpi in
  let g, _ =
    TC.reverse_spmd prog "lulesh_mpi" ~nranks
      ~args:(fun ~rank -> lulesh_args inp ~nranks ~rank)
      ~seeds:(fun ~rank -> lulesh_zero_seeds inp ~nranks ~rank)
      ~d_ret:(fun ~rank -> if rank = 0 then 1.0 else 0.0)
  in
  g.GC.s_makespan
