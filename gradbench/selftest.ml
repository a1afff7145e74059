(** Determinism self-test: two runs of one seed on a short sequence give
    identical digests and identical count metrics, a second seed passes
    the interpreter oracle, the traced replay reproduces the untraced
    digests, the calibration kernel allocates nothing, and the metric
    names match BENCHMARK.json. Returns the exit code. *)

module W = Workload
module O = Oracle
module M = Measure

let short name ~seed = W.make ~stride:6 name ~seed ~rounds:2

let measure ~expected ~seed name =
  let w = short name ~seed in
  let refs, _ = O.references ~expected ~seed name (Array.to_list w.W.pool) in
  let svc, _, bad = M.setup w refs in
  let t = M.timed ~keep:true svc w refs in
  w, bad, t

(* Field [key] of every entry of one section of a JSON file, in order. *)
let declared path section key =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let open Parad_server.Json in
  match of_string s with
  | Ok j -> (
    match field section j with
    | Some (Arr ms) -> List.filter_map (str_field key) ms
    | _ -> [])
  | Error m -> failwith (path ^ ": " ^ m)

let run ~expected =
  let failures = ref 0 in
  let check what cond =
    if not cond then incr failures;
    Printf.printf "%-64s %s\n%!" what (if cond then "ok" else "FAIL")
  in
  List.iter
    (fun name ->
      let w, bad1, a = measure ~expected ~seed:O.default_seed name in
      let _, bad2, b = measure ~expected ~seed:O.default_seed name in
      let digests (t : M.timed) = Array.map (fun r -> r.O.digest) t.M.replies in
      check (name ^ ": runs pass the checked-in oracle")
        (bad1 + bad2 + a.M.failed + b.M.failed = 0);
      check (name ^ ": identical digests across two runs") (digests a = digests b);
      check (name ^ ": identical minor words across two runs") (a.M.words = b.M.words);
      check (name ^ ": identical exec cycles across two runs") (a.M.cycles = b.M.cycles);
      let _, bad, c = measure ~expected ~seed:2 name in
      check (name ^ ": a second seed passes the interpreter oracle")
        (bad + c.M.failed = 0);
      let file = Filename.temp_file "gradbench" ".json" in
      let r = M.replay ~print:false w a ~untraced_rps:1.0 ~trace_file:file in
      Sys.remove file;
      check (name ^ ": traced digests equal the untraced ones") r.M.digests_match;
      check (name ^ ": split post_ad prints like Pipeline.run") r.M.faithful)
    W.names;
  let w0 = Gc.minor_words () in
  Calib.pass ();
  check "calibration kernel allocates nothing" (Gc.minor_words () -. w0 = 0.0);
  List.iter
    (fun seed ->
      List.iter2
        (fun body (_, d) ->
          check
            (Printf.sprintf "seed %d: fd check of %s" seed (W.plan_key body))
            (Result.is_ok (O.fd_check ~reference:d body)))
        (O.fd_bodies ~seed) (O.interp_digests (O.fd_bodies ~seed)))
    [ O.default_seed; 2 ];
  let metrics = [ "end_to_end", M.end_to_end; "per_layer", M.per_layer ] in
  List.iter
    (fun path ->
      match List.find_opt Sys.file_exists [ path; Filename.concat ".." path ] with
      | None -> check (path ^ " found") false
      | Some file ->
        List.iter
          (fun (section, spec) ->
            check
              (Printf.sprintf "%s %s names and units match" path section)
              (declared file section "name" = List.map fst spec
              && declared file section "unit" = List.map snd spec))
          metrics)
    [ "BENCHMARK.json"; "gradbench/metrics.json" ];
  (match List.find_opt Sys.file_exists [ "BENCHMARK.json"; "../BENCHMARK.json" ] with
  | Some file ->
    check "BENCHMARK.json workloads match" (declared file "workloads" "name" = W.names)
  | None -> ());
  if !failures = 0 then 0 else 1
