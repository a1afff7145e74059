(** The traced replay: the request path of [Service.submit] rebuilt from
    the program's public functions, in the same order, with a span
    around each call into a layer.

    - [Json.of_string], [Service.request_of_json], [Service.plan_key];
    - [Plan_cache.get_or_compile], whose compile is split into the IR
      build ([Lulesh.program] / [Minibude.program]), [Reverse.gradient],
      the [Pipeline.post_ad] loop of [Pipeline.run_on] with each pass and
      each verification timed, and [Engine.prepare];
    - the app gradient call [Service.attempt] would pick, which exposes
      the run's [Stats];
    - the digest, and the response.

    Coalescing is the service's virtual-time decision: the replay takes
    it from the untraced run's responses and serves a rider from the
    sweep it rides, as the service does. Admission and the breaker are
    not replayed; on a fault-free closed loop they never act. *)

module S = Parad_server.Service
module J = Parad_server.Json
module PC = Parad_server.Plan_cache
module L = Apps_lulesh.Lulesh
module MB = Apps_minibude.Minibude
module P = Parad_opt.Pipeline
module E = Parad_engine.Engine
open Parad_ir

let instr_count prog =
  List.fold_left
    (fun n (f : Func.t) -> Instr.fold_instrs (fun n _ -> n + 1) n f.body)
    0 (Prog.functions prog)

(** Span name of each post-AD pass: [opt.<pass>.<position>]. *)
let pass_spans =
  Array.of_list
    (List.mapi (fun i (p : P.pass) -> Printf.sprintf "opt.%s.%d" p.name i) P.post_ad)

type t = {
  tr : Trace.t;
  cache : S.plan PC.t;
  sweeps : (string, string) Hashtbl.t;  (** exec signature -> digest *)
  mutable reverse_instrs : int;
  mutable post_instrs : int;
  mutable compiles : int;
  mutable post_pairs : (Prog.t * Prog.t) list;
      (** (input, replicated output) of every post-AD run in the set-up
          phase, which compiles each plan key once *)
}

let create ~cache_cap =
  {
    tr = Trace.create ();
    cache = PC.create ~cap:cache_cap;
    sweeps = Hashtbl.create 16;
    reverse_instrs = 0;
    post_instrs = 0;
    compiles = 0;
    post_pairs = [];
  }

let span t = Trace.span t.tr

(* [Pipeline.run prog Pipeline.post_ad], one span per pass and per
   verification. *)
let post_ad t prog =
  let out =
    span t "opt.post_ad" (fun () ->
        List.fold_left
          (fun prog (f : Func.t) ->
            let prog = Prog.copy prog in
            List.iteri
              (fun i (pass : P.pass) ->
                let fn = Prog.find_exn prog f.name in
                let f' = span t pass_spans.(i) (fun () -> pass.run prog fn) in
                span t "opt.verify" (fun () ->
                    match Verifier.check_func f' with
                    | () -> ()
                    | exception Verifier.Ill_formed m ->
                      invalid_arg
                        (Fmt.str "pass %s broke function %s: %s" pass.name f.name m));
                Prog.add prog f')
              P.post_ad;
            prog)
          prog (Prog.functions prog))
  in
  span t "bench.count" (fun () ->
      t.post_instrs <- t.post_instrs + instr_count out;
      if t.tr.Trace.phase = "setup" then t.post_pairs <- (prog, out) :: t.post_pairs);
  out

(** Whether every replicated post-AD run kept for checking prints
    identically to [Pipeline.run … post_ad] on the same input. *)
let post_ad_faithful t =
  List.for_all
    (fun (input, out) ->
      Printer.prog_to_string (P.run input P.post_ad) = Printer.prog_to_string out)
    t.post_pairs

let reverse t ~opts prog fname =
  let ((dprog, _) as r) =
    span t "core.reverse" (fun () -> Parad_core.Reverse.gradient ~opts prog fname)
  in
  span t "bench.count" (fun () ->
      t.reverse_instrs <- t.reverse_instrs + instr_count dprog);
  r

(* [Service.compile_plan], with [Lulesh.compile] / [Minibude.compile]
   unrolled. *)
let compile t (rq : S.request) =
  let opts =
    {
      Parad_core.Plan.default_options with
      recompute_depth = rq.S.rq_depth;
      coalesce_comm = rq.S.rq_coalesce;
      seeds = rq.S.rq_seeds;
    }
  in
  let prepare p = span t "engine.prepare" (fun () -> E.prepare p) in
  let plan =
    match rq.S.rq_app with
    | S.Lulesh fl ->
      let prog = span t "ir.build" (fun () -> L.program fl) in
      let dprog, dname = reverse t ~opts prog (L.flavor_name fl) in
      let c_steps =
        if rq.S.rq_budget > 0 then begin
          let sprog = span t "ir.build" (fun () -> L.program_steps fl) in
          let sdprog, sdname = reverse t ~opts sprog (L.steps_name fl) in
          Some (sprog, post_ad t sdprog, sdname)
        end
        else None
      in
      let c_dprog = post_ad t dprog in
      let c_eng = prepare c_dprog in
      let c_steps_eng =
        Option.map (fun (sp, sdp, _) -> prepare sp, prepare sdp) c_steps
      in
      S.Plulesh
        {
          L.c_flavor = fl;
          c_opts = opts;
          c_prog = prog;
          c_dprog;
          c_dname = dname;
          c_steps;
          c_eng;
          c_steps_eng;
        }
    | S.Bude v ->
      let ntasks = rq.S.rq_nthreads in
      let prog = span t "ir.build" (fun () -> MB.program ~ntasks ()) in
      let dprog, dname = reverse t ~opts prog (MB.variant_name v) in
      let dprog = post_ad t dprog in
      let c_eng = prepare dprog in
      S.Pbude
        {
          MB.c_variant = v;
          c_ntasks = ntasks;
          c_opts = opts;
          c_prog = prog;
          c_dprog = dprog;
          c_dname = dname;
          c_eng;
        }
  in
  t.compiles <- t.compiles + 1;
  plan

(* The arm of [Service.attempt] for a fault-free, sanitizer-free
   request: (class, digest, total, makespan, stats). *)
let execute t (rq : S.request) plan =
  let run f = span t "engine.run" f in
  let digest f = span t "server.digest" f in
  let nthreads = rq.S.rq_nthreads and nranks = rq.S.rq_nranks in
  let deadline = rq.S.rq_deadline and engine = rq.S.rq_engine in
  let lanes n = Array.init n (fun l -> 1.0 +. float_of_int l) in
  match plan, rq.S.rq_app with
  | S.Plulesh c, S.Lulesh fl when rq.S.rq_budget > 0 ->
    let b =
      run (fun () ->
          L.gradient_binomial ~nthreads ~nranks ~compiled:c ~deadline ~engine
            ~budget:rq.S.rq_budget fl (S.lulesh_input rq))
    in
    let g = b.L.b_grad in
    ( (if b.L.b_degraded > 0 then "degraded" else "ok"),
      digest (fun () -> S.digest_lulesh g),
      g.L.g_total,
      g.L.g_makespan,
      g.L.g_stats )
  | S.Plulesh c, S.Lulesh _ when rq.S.rq_seeds > 1 ->
    let gs =
      run (fun () ->
          L.gradient_batched ~nthreads ~deadline ~engine c
            ~d_rets:(lanes rq.S.rq_seeds) (S.lulesh_input rq))
    in
    ( "ok",
      digest (fun () -> S.digest_lulesh_lanes gs),
      gs.(0).L.g_total,
      gs.(0).L.g_makespan,
      gs.(0).L.g_stats )
  | S.Plulesh c, S.Lulesh _ ->
    let g =
      run (fun () ->
          L.gradient_compiled ~nthreads ~nranks ~deadline ~engine c
            (S.lulesh_input rq))
    in
    "ok", digest (fun () -> S.digest_lulesh g), g.L.g_total, g.L.g_makespan, g.L.g_stats
  | S.Pbude c, S.Bude _ when rq.S.rq_seeds > 1 ->
    let gs =
      run (fun () ->
          MB.gradient_batched ~nthreads ~deadline ~engine c
            ~ge_seeds:(lanes rq.S.rq_seeds)
            (MB.deck ~nposes:rq.S.rq_nposes ~natlig:4 ~natpro:6))
    in
    ( "ok",
      digest (fun () -> S.digest_bude_lanes gs),
      Array.fold_left ( +. ) 0.0 gs.(0).MB.g_energies,
      gs.(0).MB.g_makespan,
      gs.(0).MB.g_stats )
  | S.Pbude c, S.Bude _ ->
    let g =
      run (fun () ->
          MB.gradient_compiled ~nthreads ~deadline ~engine c
            (MB.deck ~nposes:rq.S.rq_nposes ~natlig:4 ~natpro:6))
    in
    ( "ok",
      digest (fun () -> S.digest_bude g),
      Array.fold_left ( +. ) 0.0 g.MB.g_energies,
      g.MB.g_makespan,
      g.MB.g_stats )
  | _ -> invalid_arg "Replay.execute: plan/app mismatch"

type outcome = {
  o_digest : string;
  o_cached : bool;  (** plan-cache hit (riders count as cached) *)
  o_stats : (Parad_runtime.Stats.t * float) option;
      (** run counters and virtual makespan; [None] for a rider *)
}

(** Replay one request line. [rider] is the service's coalescing
    decision for it. *)
let request t ~id ~rider line =
  t.tr.Trace.rid <- id;
  span t "server.request" (fun () ->
      let j =
        span t "server.parse" (fun () ->
            match J.of_string (String.trim line) with
            | Ok j -> j
            | Error m -> failwith ("bad request line: " ^ m))
      in
      let rq =
        span t "server.request_of_json" (fun () ->
            S.request_of_json ~default_watchdog_ms:S.default_config.S.watchdog_ms j)
      in
      let key = span t "server.plan_key" (fun () -> S.plan_key rq) in
      let coalescible = rq.S.rq_seeds > 1 in
      let ridden =
        if rider then
          span t "server.coalesce" (fun () -> Hashtbl.find_opt t.sweeps (S.exec_sig rq))
        else None
      in
      let respond ?coalesced ~cached ~digest ?total ?exec cls =
        span t "server.respond" (fun () ->
            ignore
              (J.to_string
                 (S.respond ~id ~key ~cached ?coalesced ~digest ?total ?exec cls)))
      in
      match ridden with
      | Some digest ->
        respond ~coalesced:true ~cached:true ~digest "ok";
        { o_digest = digest; o_cached = true; o_stats = None }
      | None ->
        let plan, cached =
          span t "server.plan_cache" (fun () ->
              PC.get_or_compile t.cache key ~compile:(fun () -> compile t rq))
        in
        let cls, digest, total, cycles, stats = execute t rq plan in
        if coalescible then
          span t "server.coalesce" (fun () ->
              Hashtbl.replace t.sweeps (S.exec_sig rq) digest);
        respond ~cached ~digest ~total ~exec:cycles cls;
        { o_digest = digest; o_cached = cached; o_stats = Some (stats, cycles) })

(** Wall time of re-running a request whose plan is already warm,
    untraced: the warm side of the derived lowering cost. *)
let rerun_ms t line =
  let on = t.tr.Trace.on in
  t.tr.Trace.on <- false;
  let rq =
    match J.of_string line with
    | Ok j -> S.request_of_json ~default_watchdog_ms:S.default_config.S.watchdog_ms j
    | Error m -> failwith m
  in
  let plan = List.assoc (S.plan_key rq) t.cache.PC.items in
  let t0 = Trace.now_ns () in
  ignore (execute t rq plan);
  let ms = Trace.ms_between t0 (Trace.now_ns ()) in
  t.tr.Trace.on <- on;
  ms
