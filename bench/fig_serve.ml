(* Gradient-service figure (ISSUE 7): what the robustness envelope
   costs and what the plan cache buys.

   Three scenarios, all through the real request path (JSON in, JSON
   out, exactly as on the socket):

   - plan cache: the same request served cold (pipeline compile) and
     warm (LRU lookup). The warm/cold wall-time ratio is the gate row —
     bench/gates puts a floor under its warm_speedup.
   - throughput vs. concurrency: bursts of N simultaneous arrivals
     into a fixed worker pool; beyond workers + queue_cap the tail
     sheds, so throughput saturates while p95 latency climbs.
   - chaos: a seeded slam mix; the row records shed, breaker trips and
     recoveries under hostile traffic; bench/gates requires both
     shedding and breaker trips. *)

open Util
module SV = Parad_server.Service
module PC = Parad_server.Plan_cache
module J = Parad_server.Json
module Slam = Parad_server.Slam

let no_watchdog = { SV.default_config with SV.watchdog_ms = None }

let send svc fields =
  match J.of_string (SV.handle_line svc (J.to_string (J.Obj fields))) with
  | Ok r -> r
  | Error m -> failwith ("fig_serve: bad response: " ^ m)

let base ?(burst = false) () =
  [
    "flavor", J.Str "mpi";
    "nranks", J.Num 2.0;
    "niter", J.Num 2.0;
  ]
  @ if burst then [ "burst", J.Bool true ] else []

let run ~quick =
  header "Gradient service (plan cache, admission, chaos)";

  (* ---- cold vs warm plan acquisition ---- *)
  subheader "plan cache: cold compile vs warm lookup (wall time)";
  let svc = SV.create ~cfg:no_watchdog () in
  let reps = if quick then 8 else 32 in
  for _ = 1 to reps do
    ignore (send svc (base ()))
  done;
  let c = svc.SV.cache in
  let cold_ns = c.PC.miss_ns /. float_of_int (max 1 c.PC.misses) in
  (* a single warm lookup sits below the clock's resolution; time a
     tight loop of lookups instead of trusting per-call timestamps *)
  let warm_ns =
    let key = List.hd (PC.keys c) in
    let n = 10_000 in
    let t0 = PC.now_ns () in
    for _ = 1 to n do
      ignore
        (PC.get_or_compile c key ~compile:(fun () ->
             failwith "warm loop must not compile"))
    done;
    Float.max 1.0 ((PC.now_ns () -. t0) /. float_of_int n)
  in
  Printf.printf
    "  %d requests: %d miss (%.0f ns/compile), %d hit (%.0f ns/lookup), \
     warm speedup %.0fx\n"
    reps c.PC.misses cold_ns c.PC.hits warm_ns
    (cold_ns /. Float.max warm_ns 1.0);
  record ~name:"plan_cache"
    [
      "workers", "count", float no_watchdog.SV.workers;
      "requests", "count", float reps;
      "ok", "count", float svc.SV.executed;
      "cold_ns", "ns", cold_ns;
      "warm_ns", "ns", warm_ns;
      "warm_speedup", "ratio", cold_ns /. warm_ns;
      "p95_cycles", "cycles", SV.percentile 0.95 svc.SV.latencies;
    ];

  (* ---- throughput vs concurrency ---- *)
  subheader "throughput vs concurrency (burst arrivals, workers=4 queue=8)";
  let bursts = if quick then [ 1; 4; 16 ] else [ 1; 2; 4; 8; 16; 32 ] in
  List.iter
    (fun n ->
      let cfg = { no_watchdog with SV.workers = 4; queue_cap = 8 } in
      let svc = SV.create ~cfg () in
      (* one cold compile outside the burst so the sweep measures
         steady-state interpretation, not the pipeline *)
      ignore (send svc (base ()));
      for _ = 1 to n do
        ignore (send svc (base ~burst:true ()))
      done;
      let makespan = Array.fold_left Float.max 0.0 svc.SV.pool in
      let p95 = SV.percentile 0.95 svc.SV.latencies in
      let throughput =
        float_of_int svc.SV.executed /. Float.max makespan 1.0 *. 1e6
      in
      Printf.printf
        "  burst %3d: executed %3d, shed %3d, p95 %10.4g cycles, \
         %.2f req/Mcycle\n"
        n svc.SV.executed svc.SV.shed p95 throughput;
      record
        ~name:(Printf.sprintf "burst_%d" n)
        [
          "workers", "count", float cfg.SV.workers;
          "requests", "count", float n;
          "ok", "count", float svc.SV.executed;
          "shed", "count", float svc.SV.shed;
          "p95_cycles", "cycles", p95;
          "throughput", "req/Mcycle", throughput;
        ])
    bursts;

  (* ---- chaos ---- *)
  subheader "seeded chaos (slam mix: faults, NaNs, deadlines, overload)";
  let trials = if quick then 10 else 25 in
  let r = Slam.run ~trials ~seed:42 () in
  Printf.printf
    "  %d responses: %d unclassified, %d mismatches, %d shed, %d trip(s), \
     %d recovery(ies)\n"
    r.Slam.s_responses r.Slam.s_unclassified r.Slam.s_mismatches
    r.Slam.s_shed r.Slam.s_trips r.Slam.s_recoveries;
  if not (Slam.passed r) then
    failwith "fig_serve: chaos slam violated the robustness contract";
  record ~name:"chaos"
    [
      "workers", "count", 2.0;
      "requests", "count", float r.Slam.s_requests;
      "ok", "count", float r.Slam.s_responses;
      "shed", "count", float r.Slam.s_shed;
      "trips", "count", float r.Slam.s_trips;
      "recoveries", "count", float r.Slam.s_recoveries;
    ]
