(** Measurement of one benchmark run: set-up, the timed closed loop,
    the end-to-end metrics, and the traced replay with its per-layer
    metrics. *)

module S = Parad_server.Service
module W = Workload
module O = Oracle

let ms = Trace.ms_between
let now = Trace.now_ns

(* ---- statistics ---- *)

(* linear interpolation between closest ranks *)
let quantile a q =
  let a = Float.Array.copy a in
  Float.Array.sort compare a;
  let n = Float.Array.length a in
  if n = 0 then 0.0
  else begin
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    let j = min (n - 1) (i + 1) in
    let f = x -. float_of_int i in
    (Float.Array.get a i *. (1.0 -. f)) +. (Float.Array.get a j *. f)
  end

let median l = quantile (Float.Array.of_list l) 0.5

(* ---- one untraced run ---- *)

let service (w : W.t) =
  S.create ~cfg:{ S.default_config with cache_cap = w.W.cache_cap } ()

let ok refs body (r : O.reply) =
  r.O.cls = "ok" && r.O.digest <> None && r.O.digest = Hashtbl.find_opt refs body

(** Service creation plus the first request of each plan key. Returns
    the warm service, the wall seconds raw and calibrated (the kernel runs
    between the pieces, outside their time), and the failures among the
    set-up responses (checked after the clock stops). *)
let setup (w : W.t) refs =
  Gc.compact ();
  let steps = 1 + List.length w.W.setup in
  let clock = Calib.start ~steps 1 in
  Calib.step clock 0;
  let svc = service w in
  let replies =
    List.mapi
      (fun k i ->
        Calib.step clock (k + 1);
        i, S.handle_line svc (O.line ~id:(k + 1) ~engine:"seq" w.W.pool.(i)))
      w.W.setup
  in
  Calib.stop clock ~steps;
  let bad =
    List.length
      (List.filter
         (fun (i, s) -> not (ok refs w.W.pool.(i) (O.reply_of_string s)))
         replies)
  in
  svc, (Calib.raw_ms clock /. 1e3, Calib.cal_ms clock /. 1e3), bad

type timed = {
  n : int;
  lat : Float.Array.t;  (** per-request handle_line wall, ms *)
  lat_cal : Float.Array.t;  (** the same, calibrated *)
  wall_s : float;  (** the phase's wall time, kernel runs left out *)
  wall_cal_s : float;  (** the same, calibrated *)
  words : float;  (** minor words allocated inside handle_line *)
  cycles : float;  (** sum of response exec_cycles *)
  failed : int;
  service_wall_s : float;
      (** the service's own [wall_ns] (gettimeofday) over the phase, a
          cross-check only *)
  live_words : int;  (** after a full major GC at the end *)
  replies : O.reply array;  (** kept only when asked *)
}

let timed ?(keep = false) svc (w : W.t) refs =
  let n = Array.length w.W.seq in
  let lat = Float.Array.make n 0.0 in
  let acc = Float.Array.make 2 0.0 in
  let failed = ref 0 in
  let replies = Array.make (if keep then n else 0) (O.reply_of_string "{}") in
  Gc.compact ();
  let service_ns0 = svc.S.wall_ns in
  let clock = Calib.start ~steps:n (W.calib_every w.W.name) in
  for i = 0 to n - 1 do
    Calib.step clock i;
    let body = w.W.pool.(w.W.seq.(i)) in
    let line = O.line ~id:(1000 + i) ~engine:"seq" body in
    let w0 = Gc.minor_words () in
    let s0 = now () in
    let resp = S.handle_line svc line in
    let s1 = now () in
    let w1 = Gc.minor_words () in
    Float.Array.set lat i (ms s0 s1);
    Float.Array.set acc 0 (Float.Array.get acc 0 +. (w1 -. w0));
    let r = O.reply_of_string resp in
    Float.Array.set acc 1 (Float.Array.get acc 1 +. r.O.cycles);
    if not (ok refs body r) then incr failed;
    if keep then replies.(i) <- r
  done;
  Calib.stop clock ~steps:n;
  let lat_cal = Float.Array.mapi (fun i l -> l *. Calib.scale clock i) lat in
  Gc.full_major ();
  let live_words = (Gc.stat ()).Gc.live_words in
  (* the service must still be reachable when the heap is measured *)
  ignore (Sys.opaque_identity svc);
  {
    n;
    lat;
    lat_cal;
    wall_s = Calib.raw_ms clock /. 1e3;
    wall_cal_s = Calib.cal_ms clock /. 1e3;
    words = Float.Array.get acc 0;
    cycles = Float.Array.get acc 1;
    failed = !failed;
    service_wall_s = float_of_int (svc.S.wall_ns - service_ns0) /. 1e9;
    live_words;
    replies;
  }

(* ---- metrics ---- *)

let end_to_end =
  [
    "req_p50_ref_ms", "ms";
    "req_p90_ref_ms", "ms";
    "throughput_ref_rps", "1/s";
    "setup_s", "s";
    "alloc_mw_per_req", "Mw";
    "heap_live_mb", "MB";
    "vcycles_per_req", "cycles";
  ]

let post_ad_passes = Array.to_list (Array.map (fun s -> s ^ "_ms") Replay.pass_spans)

let per_layer =
  [
    "ir.build_ms", "ms";
    "core.reverse_ms", "ms";
    "core.reverse_mw", "Mw";
    "core.instrs_out", "count";
    "opt.post_ad_ms", "ms";
    "opt.post_ad_mw", "Mw";
  ]
  @ List.map (fun m -> m, "ms") post_ad_passes
  @ [
      "opt.verify_ms", "ms";
      "opt.instrs_out", "count";
      "engine.lower_ms", "ms";
      "engine.run_ms", "ms";
      "engine.run_mw", "Mw";
      "engine.fallbacks", "count";
      "runtime.instrs", "count";
      "runtime.flops", "count";
      "runtime.vcycles", "cycles";
      "runtime.cache_stores", "count";
      "runtime.cache_peak", "cells";
      "runtime.context_switches", "count";
      "runtime.msgs_sent", "count";
      "runtime.cells_sent", "cells";
      "runtime.snap_count", "count";
      "runtime.snap_bytes", "bytes";
      "server.parse_ms", "ms";
      "server.plan_cache.lookup_ms", "ms";
      "server.plan_cache.hit_ratio", "ratio";
      "server.coalesced_frac", "ratio";
      "server.digest_ms", "ms";
      "server.self_ms", "ms";
      "trace.overhead_pct", "%";
    ]

let json_result ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
          metrics))

let pick table spec =
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name table with
      | Some v -> name, unit, v
      | None -> failwith ("metric not computed: " ^ name))
    spec

(* ---- the traced replay ---- *)

type traced = {
  layer_metrics : (string * float) list;
  digests_match : bool;
  faithful : bool;
}

(* [untraced_rps] is calibrated, and so is the traced throughput it is
   compared with *)
let replay ?(print = true) (w : W.t) (untraced : timed) ~untraced_rps ~trace_file =
  let rp = Replay.create ~cache_cap:w.W.cache_cap in
  let tr = rp.Replay.tr in
  tr.Trace.on <- true;
  tr.Trace.phase <- "setup";
  let lower = ref [] in
  List.iteri
    (fun k i ->
      let line = O.line ~id:(k + 1) ~engine:"seq" w.W.pool.(i) in
      tr.Trace.scale <- Calib.factor ();
      ignore (Replay.request rp ~id:(k + 1) ~rider:false line);
      let first =
        List.find (fun s -> s.Trace.name = "engine.run") tr.Trace.spans
      in
      let warm = Replay.rerun_ms rp line in
      lower := ((ms first.Trace.t0 first.Trace.t1 -. warm) *. tr.Trace.scale) :: !lower)
    w.W.setup;
  tr.Trace.phase <- "timed";
  Gc.compact ();
  let n = untraced.n in
  let stats = Parad_runtime.Stats.create () in
  let cycles = ref 0.0 and executed = ref 0 and hits = ref 0 and riders = ref 0 in
  let fallbacks = ref 0 in
  let matches = ref true in
  let clock = Calib.start ~steps:n (W.calib_every w.W.name) in
  for i = 0 to n - 1 do
    Calib.step clock i;
    tr.Trace.scale <- Calib.current clock i;
    let r = untraced.replies.(i) in
    let line = O.line ~id:(1000 + i) ~engine:"seq" w.W.pool.(w.W.seq.(i)) in
    let o = Replay.request rp ~id:(1000 + i) ~rider:r.O.coalesced line in
    if Some o.Replay.o_digest <> r.O.digest || o.Replay.o_cached <> r.O.cached then
      matches := false;
    match o.Replay.o_stats with
    | None -> incr riders
    | Some (st, makespan) ->
      incr executed;
      if o.Replay.o_cached then incr hits;
      cycles := !cycles +. makespan;
      fallbacks := !fallbacks + st.Parad_runtime.Stats.eng_fallbacks;
      Parad_runtime.Stats.merge ~into:stats st
  done;
  Calib.stop clock ~steps:n;
  let traced_rps = float_of_int n /. (Calib.cal_ms clock /. 1e3) in
  tr.Trace.on <- false;
  let faithful = Replay.post_ad_faithful rp in
  Trace.write_chrome tr trace_file;
  let timed_agg = Trace.aggregate tr ~phase:"timed" in
  let setup_agg = Trace.aggregate tr ~phase:"setup" in
  let get tbl name =
    Option.value (Hashtbl.find_opt tbl name)
      ~default:
        {
          Trace.calls = 0;
          total_ms = 0.0;
          self_ms = 0.0;
          self_words = 0.0;
          total_words = 0.0;
        }
  in
  let both f name = f (get setup_agg name) +. f (get timed_agg name) in
  let per d v = if d = 0 then 0.0 else v /. float_of_int d in
  let compiles = rp.Replay.compiles in
  let per_compile name = per compiles (both (fun a -> a.Trace.total_ms) name) in
  let mw_per_compile name =
    per compiles (both (fun a -> a.Trace.total_words) name) /. 1e6
  in
  let ex = !executed in
  let st = stats in
  let open Parad_runtime.Stats in
  let server_self =
    Hashtbl.fold
      (fun name a acc ->
        if Trace.layer name = "server" then acc +. a.Trace.self_ms else acc)
      timed_agg 0.0
  in
  let layer_metrics =
    [
      "ir.build_ms", per_compile "ir.build";
      "core.reverse_ms", per_compile "core.reverse";
      "core.reverse_mw", mw_per_compile "core.reverse";
      "core.instrs_out", per compiles (float_of_int rp.Replay.reverse_instrs);
      "opt.post_ad_ms", per_compile "opt.post_ad";
      "opt.post_ad_mw", mw_per_compile "opt.post_ad";
    ]
    @ List.map2
        (fun m span -> m, per_compile span)
        post_ad_passes (Array.to_list Replay.pass_spans)
    @ [
        "opt.verify_ms", per_compile "opt.verify";
        "opt.instrs_out", per compiles (float_of_int rp.Replay.post_instrs);
        "engine.lower_ms", median !lower;
        "engine.run_ms", per ex (get timed_agg "engine.run").Trace.total_ms;
        "engine.run_mw", per ex (get timed_agg "engine.run").Trace.total_words /. 1e6;
        "engine.fallbacks", per ex (float_of_int !fallbacks);
        "runtime.instrs", per ex (float_of_int st.instrs);
        "runtime.flops", per ex (float_of_int st.flops);
        "runtime.vcycles", per ex !cycles;
        "runtime.cache_stores", per ex (float_of_int st.cache_stores);
        "runtime.cache_peak", float_of_int st.cache_peak;
        "runtime.context_switches", per ex (float_of_int st.context_switches);
        "runtime.msgs_sent", per ex (float_of_int st.msgs_sent);
        "runtime.cells_sent", per ex (float_of_int st.cells_sent);
        "runtime.snap_count", per ex (float_of_int st.snap_count);
        "runtime.snap_bytes", per ex (float_of_int st.snap_bytes);
        "server.parse_ms", per n (get timed_agg "server.parse").Trace.total_ms;
        ( "server.plan_cache.lookup_ms",
          per ex (get timed_agg "server.plan_cache").Trace.self_ms );
        "server.plan_cache.hit_ratio", per ex (float_of_int !hits);
        "server.coalesced_frac", per n (float_of_int !riders);
        "server.digest_ms", per ex (get timed_agg "server.digest").Trace.total_ms;
        "server.self_ms", per n server_self;
        "trace.overhead_pct", 100.0 *. (untraced_rps -. traced_rps) /. untraced_rps;
      ]
  in
  (* the per-layer table: self time, minor words and calls per layer *)
  let layers tbl =
    let by = Hashtbl.create 8 in
    Hashtbl.iter
      (fun name a ->
        let l = Trace.layer name in
        let ms0, w0, c0 =
          Option.value (Hashtbl.find_opt by l) ~default:(0.0, 0.0, 0)
        in
        Hashtbl.replace by l
          (ms0 +. a.Trace.self_ms, w0 +. a.Trace.self_words, c0 + a.Trace.calls))
      tbl;
    List.sort compare (Hashtbl.fold (fun l v acc -> (l, v) :: acc) by [])
  in
  if print then begin
    List.iter
      (fun (phase, tbl) ->
        Printf.printf "  %-6s %-8s %12s %12s %8s\n" phase "layer" "self_ms" "self_Mw"
          "spans";
        List.iter
          (fun (l, (m, wds, c)) ->
            Printf.printf "  %-6s %-8s %12.2f %12.3f %8d\n" phase l m (wds /. 1e6) c)
          (layers tbl))
      [ "setup", setup_agg; "timed", timed_agg ];
    Printf.printf "  traced throughput %.3f req/s vs untraced %.3f req/s (calibrated)\n"
      traced_rps untraced_rps;
    Printf.printf
      "  post_ad split faithful to Pipeline.run: %b; digests match untraced: %b\n" faithful
      !matches;
    Printf.printf "  chrome trace: %s\n" trace_file;
  end;
  { layer_metrics; digests_match = !matches; faithful }

(* ---- one benchmark run ---- *)

type opts = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  expected : string;
  out : string;
}

let run_workload o =
  let rounds = W.rounds_for o.workload ~seconds:o.seconds in
  let w = W.make o.workload ~seed:o.seed ~rounds in
  let bodies = Array.to_list w.W.pool in
  let fd = O.fd_bodies ~seed:o.seed in
  let refs, computed = O.references ~expected:o.expected ~seed:o.seed w.W.name bodies in
  let fd_refs, _ = O.references ~expected:o.expected ~seed:o.seed "fd" fd in
  Printf.printf
    "gradbench %s seed=%d: %d distinct requests, %d plan keys, %d timed requests, %d \
     references computed by the interpreter\n%!"
    w.W.name o.seed (Array.length w.W.pool) (List.length w.W.setup)
    (Array.length w.W.seq) computed;
  let fd_ok =
    List.for_all
      (fun b ->
        match O.fd_check ~reference:(Hashtbl.find fd_refs b) b with
        | Ok err ->
          Printf.printf "  fd check ok (max rel err %.2e): %s\n" err b;
          true
        | Error m ->
          Printf.printf "  fd check FAILED: %s\n" m;
          false)
      fd
  in
  let setups = if o.trace then 1 else 3 in
  let runs = List.init setups (fun _ -> setup w refs) in
  let svc, _, _ = List.nth runs (setups - 1) in
  let setup_bad = List.fold_left (fun a (_, _, b) -> a + b) 0 runs in
  let setup_raw_s = median (List.map (fun (_, (s, _), _) -> s) runs) in
  let setup_s = median (List.map (fun (_, (_, s), _) -> s) runs) in
  let t = timed ~keep:o.trace svc w refs in
  let rps = float_of_int t.n /. t.wall_s in
  let rps_cal = float_of_int t.n /. t.wall_cal_s in
  let table =
    [
      "req_p50_ref_ms", quantile t.lat_cal 0.5;
      "req_p90_ref_ms", quantile t.lat_cal 0.9;
      "throughput_ref_rps", rps_cal;
      "setup_s", setup_s;
      "alloc_mw_per_req", t.words /. float_of_int t.n /. 1e6;
      "heap_live_mb", float_of_int (t.live_words * (Sys.word_size / 8)) /. 1e6;
      "vcycles_per_req", t.cycles /. float_of_int t.n;
    ]
  in
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-18s %14.4f %s\n" name v unit)
    (pick table end_to_end
    @ [
        "req_p50_ms", "ms wall", quantile t.lat 0.5;
        "req_p90_ms", "ms wall", quantile t.lat 0.9;
        "throughput_rps", "1/s wall", rps;
        "setup_raw_s", "s wall", setup_raw_s;
      ]);
  Printf.printf "  %-18s %14.4f ratio (%d of %d)\n" "failed_frac"
    (float_of_int t.failed /. float_of_int t.n) t.failed t.n;
  Printf.printf "  n=%d latency samples in %d rounds; setup_s is the median of %d set-ups\n"
    t.n w.W.rounds setups;
  Printf.printf
    "  *_ref_* and setup_s are calibrated to a host where one kernel pass takes %.1f ms \
     (mean factor here: x%.3f, above 1 on a slower host)\n"
    Calib.ref_ms (rps_cal /. rps);
  Printf.printf
    "  cross-check: %.3f s in handle_line (monotonic), %.3f s in the simulator \
     (Stats.wall_ns)\n"
    (Float.Array.fold_left ( +. ) 0.0 t.lat /. 1e3) t.service_wall_s;
  let correct = fd_ok && setup_bad = 0 && t.failed = 0 in
  if not o.trace then
    print_endline
      (json_result ~correct ~attempted:t.n ~failed:t.failed (pick table end_to_end))
  else begin
    (try Unix.mkdir o.out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let trace_file =
      Filename.concat o.out (Printf.sprintf "trace-%s-seed%d.json" w.W.name o.seed)
    in
    let r = replay w t ~untraced_rps:rps_cal ~trace_file in
    List.iter
      (fun (name, unit, v) -> Printf.printf "  %-30s %16.6f %s\n" name v unit)
      (pick r.layer_metrics per_layer);
    let correct = correct && r.digests_match && r.faithful in
    print_endline
      (json_result ~correct ~attempted:t.n ~failed:t.failed
         (pick r.layer_metrics per_layer))
  end

let record path =
  let rows =
    List.concat_map
      (fun name ->
        let w = W.make name ~seed:O.default_seed ~rounds:1 in
        List.map (fun (b, d) -> name, b, d) (O.interp_digests (Array.to_list w.W.pool)))
      W.names
    @ List.map
        (fun (b, d) -> "fd", b, d)
        (O.interp_digests (O.fd_bodies ~seed:O.default_seed))
  in
  O.save path rows;
  Printf.printf "recorded %d references in %s\n" (List.length rows) path

