(** Reference digests and finite-difference checks.

    A reference is the digest the tree-walking interpreter
    (["engine":"interp"]) produces for a request body through the
    service. For the default seed the references are checked in
    ([expected.tsv]); for any other seed they are computed before the
    timed phase. Separately, one small request per app is checked
    against central finite differences of the primal program, so the
    gradient is compared with something the AD compiler did not
    produce. *)

module S = Parad_server.Service
module J = Parad_server.Json
module L = Apps_lulesh.Lulesh
module MB = Apps_minibude.Minibude

let default_seed = 1

let line ~id ~engine body = Printf.sprintf "{\"id\":%d,%s,\"engine\":%S}" id body engine

(** Class, digest, exec cycles, cached and coalesced flags of a response. *)
type reply = {
  cls : string;
  digest : string option;
  cycles : float;
  cached : bool;
  coalesced : bool;
}

let reply_of_string s =
  match J.of_string s with
  | Error m -> failwith ("unparseable response: " ^ m)
  | Ok j ->
    {
      cls = Option.value (J.str_field "class" j) ~default:"?";
      digest = J.str_field "digest" j;
      cycles = Option.value (J.num_field "exec_cycles" j) ~default:0.0;
      cached = J.bool_field "cached" j = Some true;
      coalesced = J.bool_field "coalesced" j = Some true;
    }

(** Interpreter digests of [bodies], through one service whose plan
    cache holds every key. Fails on any non-ok response. *)
let interp_digests bodies =
  let svc =
    S.create ~cfg:{ S.default_config with cache_cap = 1 + List.length bodies } ()
  in
  List.mapi
    (fun i body ->
      let r =
        reply_of_string (S.handle_line svc (line ~id:(i + 1) ~engine:"interp" body))
      in
      match r.cls, r.digest with
      | "ok", Some d -> body, d
      | cls, _ -> failwith (Printf.sprintf "interp reference %s failed: %s" body cls))
    bodies

(* ---- checked-in references: "<workload>\t<body>\t<digest>" lines ---- *)

let load path =
  let tbl = Hashtbl.create 128 in
  (match open_in path with
  | exception Sys_error _ -> ()
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          while true do
            match String.split_on_char '\t' (input_line ic) with
            | [ w; body; d ] -> Hashtbl.replace tbl (w, body) d
            | _ -> ()
          done
        with End_of_file -> ()));
  tbl

let save path rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter (fun (w, body, d) -> Printf.fprintf oc "%s\t%s\t%s\n" w body d) rows)

(** References for [bodies] of workload [w]: checked-in ones for the
    default seed, interpreter runs for the rest. *)
let references ~expected ~seed w bodies =
  let known = if seed = default_seed then load expected else Hashtbl.create 1 in
  let missing = List.filter (fun b -> not (Hashtbl.mem known (w, b))) bodies in
  let computed = interp_digests missing in
  let tbl = Hashtbl.create 64 in
  List.iter (fun b -> match Hashtbl.find_opt known (w, b) with
      | Some d -> Hashtbl.replace tbl b d
      | None -> ()) bodies;
  List.iter (fun (b, d) -> Hashtbl.replace tbl b d) computed;
  tbl, List.length missing

(* ---- finite-difference checks, one small request per app ---- *)

let fd_bodies ~seed =
  let rng = Random.State.make [| seed; 7 |] in
  [
    Workload.lulesh rng ~nthreads:4 ~nx:2 ~niter:2 "omp";
    Workload.bude ~nthreads:4 ~nposes:(8 + Random.State.int rng 4) "omp";
  ]

let request_of body =
  match J.of_string ("{" ^ body ^ ",\"engine\":\"seq\"}") with
  | Ok j -> S.request_of_json ~default_watchdog_ms:None j
  | Error m -> failwith m

let rel a b = Float.abs (a -. b) /. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(** Check the engine gradient of [body] against central differences of
    the primal and its digest against [reference]. Returns the largest
    relative error, or an error message. *)
let fd_check ~reference body =
  let rq = request_of body in
  match S.compile_plan rq, rq.S.rq_app with
  | S.Plulesh c, S.Lulesh fl ->
    let inp = S.lulesh_input rq in
    let g =
      L.gradient_compiled ~nthreads:rq.S.rq_nthreads ~engine:rq.S.rq_engine c inp
    in
    (* energy is escale * base: d loss / d escale = sum_k base_k dL/de_k *)
    let s = inp.L.escale in
    let m = L.mesh inp ~nranks:1 ~rank:0 in
    let directional = ref 0.0 in
    Array.iteri
      (fun k e -> directional := !directional +. (e /. s *. g.L.d_energy.(0).(k)))
      m.L.energy;
    let loss s =
      (L.run ~nthreads:rq.S.rq_nthreads fl { inp with L.escale = s }).L.total_energy
    in
    let h = 1e-6 in
    let fd = (loss (s +. h) -. loss (s -. h)) /. (2.0 *. h) in
    let err = rel fd !directional in
    if S.digest_lulesh g <> reference then
      Error "lulesh: engine digest differs from reference"
    else if err > 1e-5 then
      Error (Printf.sprintf "lulesh: fd %g vs ad %g" fd !directional)
    else Ok err
  | S.Pbude c, S.Bude v ->
    let inp = MB.deck ~nposes:rq.S.rq_nposes ~natlig:4 ~natpro:6 in
    let nthreads = rq.S.rq_nthreads in
    let g = MB.gradient_compiled ~nthreads ~engine:rq.S.rq_engine c inp in
    let loss lig_data =
      Array.fold_left ( +. ) 0.0 (MB.run ~nthreads v { inp with MB.lig_data }).MB.energies
    in
    (* the service's deck has a near-contact pair (summed energies ~1e7,
       gradients ~1e8): a step of 1e-4 balances truncation and roundoff *)
    let h = 1e-4 in
    let worst = ref 0.0 in
    Array.iteri
      (fun i _ ->
        let at d =
          let a = Array.copy inp.MB.lig_data in
          a.(i) <- a.(i) +. d;
          loss a
        in
        let fd = (at h -. at (-.h)) /. (2.0 *. h) in
        worst := Float.max !worst (rel fd g.MB.d_lig.(i)))
      inp.MB.lig_data;
    if S.digest_bude g <> reference then
      Error "bude: engine digest differs from reference"
    else if !worst > 1e-4 then Error (Printf.sprintf "bude: fd error %g" !worst)
    else Ok !worst
  | _ -> Error "plan/app mismatch"
