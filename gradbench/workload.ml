(** Seeded request mixes.

    A workload is a fixed design of request shapes (app, flavor, plan
    options, problem size). The seed draws the numeric inputs the
    service sees — LULESH's initial-energy scale, miniBUDE's pose counts —
    and, for the warm mixes, the order of every round, so two seeds send
    different gradient requests of the same cost structure. The service
    only ever sees the generated JSON lines.

    One round sends every unit of the design once; a run sends [rounds]
    rounds. A unit is one request or, for a batched request that is meant
    to coalesce, two identical requests back to back. *)

type t = {
  name : string;
  cache_cap : int;  (** the service's plan-cache capacity *)
  pool : string array;
      (** distinct request bodies: the JSON members of a request without
          "id" and "engine", which is what references are kept under *)
  setup : int list;
      (** pool index of the first request of each plan key, in pool order *)
  seq : int array;  (** pool index of every timed request, in order *)
  rounds : int;  (** [seq] is [rounds] rounds of equal length *)
}

let names = [ "warm_shm"; "warm_mpi"; "cold_plan" ]

(** Requests per second the sequence is sized for, on a 2-core x86 host,
    so a run lasts about [--seconds]. The sequence itself is fixed by
    seed and seconds, so every count metric repeats exactly. *)
let nominal_rps = function
  | "warm_shm" -> 190.0
  | "warm_mpi" -> 115.0
  | "cold_plan" -> 12.0
  | w -> invalid_arg ("unknown workload " ^ w)

(** Requests between two runs of the calibration kernel ({!Calib}), about
    0.15 s of work, so the factor follows the host's speed. *)
let calib_every name = max 1 (int_of_float (Float.round (0.15 *. nominal_rps name)))

let lulesh rng ?(nranks = 1) ?(nthreads = 1) ?(depth = 0) ?(coalesce = true)
    ?(seeds = 1) ?(budget = 0) ~nx ~niter flavor =
  let escale = 0.5 +. Random.State.float rng 1.5 in
  String.concat ","
    (List.concat
       [
         [ "\"app\":\"lulesh\""; Printf.sprintf "\"flavor\":%S" flavor ];
         (if nranks > 1 then [ Printf.sprintf "\"nranks\":%d" nranks ] else []);
         [ Printf.sprintf "\"nthreads\":%d" nthreads ];
         (if depth > 0 then [ Printf.sprintf "\"recompute_depth\":%d" depth ]
          else []);
         (if coalesce then [] else [ "\"coalesce\":false" ]);
         (if seeds > 1 then [ Printf.sprintf "\"seeds\":%d" seeds ] else []);
         (if budget > 0 then [ Printf.sprintf "\"snap_budget\":%d" budget ]
          else []);
         [
           Printf.sprintf "\"nx\":%d" nx;
           Printf.sprintf "\"niter\":%d" niter;
           Printf.sprintf "\"escale\":%.4f" escale;
         ];
       ])

let bude ?(depth = 0) ?(coalesce = true) ~nthreads ~nposes flavor =
  String.concat ","
    (List.concat
       [
         [ "\"app\":\"bude\""; Printf.sprintf "\"flavor\":%S" flavor ];
         [ Printf.sprintf "\"nthreads\":%d" nthreads ];
         (if depth > 0 then [ Printf.sprintf "\"recompute_depth\":%d" depth ]
          else []);
         (if coalesce then [] else [ "\"coalesce\":false" ]);
         [ Printf.sprintf "\"nposes\":%d" nposes ];
       ])

(* Units of one round: a list of bodies sent back to back. *)
let design rng = function
  | "warm_shm" ->
    let solo =
      List.concat_map
        (fun t ->
          List.concat_map
            (fun nx ->
              List.map
                (fun niter -> [ lulesh rng ~nthreads:t ~nx ~niter "omp" ])
                [ 1; 2 ])
            [ 2; 3; 4 ])
        [ 8; 64 ]
    in
    let batched =
      List.mapi
        (fun i (t, nx, niter) ->
          let b = lulesh rng ~nthreads:t ~seeds:8 ~nx ~niter "omp" in
          (* two of the six repeat back to back and coalesce *)
          if i mod 3 = 0 then [ b; b ] else [ b ])
        [ 8, 2, 1; 8, 3, 1; 8, 2, 2; 64, 2, 1; 64, 3, 1; 64, 2, 2 ]
    in
    (* pose counts drawn in pairs around a base, base + j and base - j,
       so the seed moves the inputs but not the mix's total work *)
    let budes =
      List.concat_map
        (fun base ->
          List.concat_map
            (fun (flavor, nthreads) ->
              let j = Random.State.int rng 4 in
              [
                [ bude ~nthreads ~nposes:(base + j) flavor ];
                [ bude ~nthreads ~nposes:(base - j) flavor ];
              ])
            [ "omp", 8; "julia", 4 ])
        [ 8; 16; 32 ]
    in
    solo @ batched @ budes
  | "warm_mpi" ->
    let solo =
      List.concat_map
        (fun (flavor, nthreads) ->
          List.concat_map
            (fun nranks ->
              [
                [ lulesh rng ~nranks ~nthreads ~nx:2 ~niter:1 flavor ];
                [ lulesh rng ~nranks ~nthreads ~nx:2 ~niter:2 flavor ];
              ])
            [ 2; 4; 8 ])
        [ "mpi", 1; "hybrid", 2; "julia", 1 ]
    in
    let snap =
      List.concat_map
        (fun (flavor, nranks, nthreads) ->
          List.map
            (fun niter ->
              [ lulesh rng ~nranks ~nthreads ~budget:2 ~nx:2 ~niter flavor ])
            [ 3; 4 ])
        [ "mpi", 2, 1; "hybrid", 2, 2; "julia", 4, 1 ]
    in
    solo @ snap
  | "cold_plan" ->
    let l flavor ?nranks ?nthreads depth coalesce =
      [ lulesh rng ?nranks ?nthreads ~depth ~coalesce ~nx:2 ~niter:1 flavor ]
    in
    let b flavor nthreads depth coalesce =
      [ bude ~nthreads ~depth ~coalesce ~nposes:8 flavor ]
    in
    [
      l "omp" ~nthreads:2 0 true; l "omp" ~nthreads:4 3 false;
      l "raja" ~nthreads:4 1 true; l "raja" ~nthreads:8 2 false;
      l "mpi" ~nranks:2 2 true; l "mpi" ~nranks:4 1 false;
      l "hybrid" ~nranks:2 ~nthreads:2 0 false;
      l "hybrid" ~nranks:2 ~nthreads:4 3 true;
      l "julia" ~nranks:2 3 false; l "julia" ~nranks:2 0 true;
      b "omp" 4 1 false; b "julia" 2 2 true;
    ]
  | w -> invalid_arg ("unknown workload " ^ w)

let cache_cap = function "cold_plan" -> 2 | _ -> 64

(* The cold mix rotates through its plan keys in a fixed order, so with
   [cache_cap] far below the key count every request misses and the two
   plans left cached at the end, which dominate its live heap, are the
   same for every seed. The warm mixes are shuffled every round. *)
let rotates = function "cold_plan" -> true | _ -> false

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(** The plan key a body maps to, as the service computes it. *)
let plan_key body =
  match Parad_server.Json.of_string ("{" ^ body ^ "}") with
  | Ok j ->
    Parad_server.Service.plan_key
      (Parad_server.Service.request_of_json ~default_watchdog_ms:None j)
  | Error m -> invalid_arg ("Workload.plan_key: " ^ m)

(** [make name ~seed ~rounds] builds the pool and the timed sequence.
    [stride] keeps every [stride]-th unit of the design only (the
    self-test's short sequences). *)
let make ?(stride = 1) name ~seed ~rounds =
  let rng = Random.State.make [| seed; Hashtbl.hash name |] in
  let units = List.filteri (fun i _ -> i mod stride = 0) (design rng name) in
  let pool = Hashtbl.create 64 and order = ref [] in
  let index body =
    match Hashtbl.find_opt pool body with
    | Some i -> i
    | None ->
      let i = Hashtbl.length pool in
      Hashtbl.add pool body i;
      order := body :: !order;
      i
  in
  let units = Array.of_list (List.map (List.map index) units) in
  let pool = Array.of_list (List.rev !order) in
  let seen = Hashtbl.create 16 in
  let setup =
    List.filter
      (fun i ->
        let k = plan_key pool.(i) in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      (List.init (Array.length pool) Fun.id)
  in
  let seq =
    List.init rounds (fun _ ->
        let u = Array.copy units in
        if not (rotates name) then shuffle rng u;
        List.concat (Array.to_list u))
    |> List.concat |> Array.of_list
  in
  { name; cache_cap = cache_cap name; pool; setup; seq; rounds }

let per_round name =
  List.fold_left
    (fun n u -> n + List.length u)
    0
    (design (Random.State.make [| 0 |]) name)

(** Rounds for a run of about [seconds] on the reference host. *)
let rounds_for name ~seconds =
  max 1
    (int_of_float
       (Float.round
          (float_of_int seconds *. nominal_rps name /. float_of_int (per_round name))))
