(* Table formatting and shared measurement helpers for the figure
   drivers. All times are virtual cycles from the simulator (see
   DESIGN.md); "overhead" is gradient/forward, the paper's metric. *)

let header title =
  Printf.printf "\n=== %s ===\n" title

(* a malformed bench command line is a usage error: exit 2, never a
   silent fallback to the defaults *)
let usage_error fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "bench: %s\n" m;
      exit 2)
    fmt

(* the value after [flag] on the command line, if the flag is given *)
let cli_arg flag =
  let n = Array.length Sys.argv in
  let rec find i =
    if i >= n then None
    else if Sys.argv.(i) <> flag then find (i + 1)
    else if i + 1 < n then Some Sys.argv.(i + 1)
    else usage_error "%s needs a value" flag
  in
  find 1

(* optional [--flag N] integer argument to the bench driver *)
let cli_int flag ~default =
  match cli_arg flag with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> n
    | None -> usage_error "%s expects an integer (got %S)" flag v)

(* optional [--ranks N] for the MPI figure drivers; the simulated
   communicator uses recursive-doubling collectives, so N must be a
   power of two *)
let cli_ranks ~default =
  let n = cli_int "--ranks" ~default in
  if n <= 0 || n land (n - 1) <> 0 then
    usage_error
      "--ranks must be a power of two (got %d); the simulated \
       communicator uses recursive-doubling collectives"
      n;
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

(* ---- machine-readable results (BENCH_<figure>.json) ----

   Every figure driver reports through [record]: one row per (name,
   metric), with the metric's unit and value. Derived values (ratios,
   speedups, coverage) are metrics like any other, and a boolean is 1
   or 0. main.ml sets [figure] before it runs a driver and calls
   [write_results] once at exit, which writes BENCH_<figure>.json for
   every figure that recorded rows, all in the one schema below.
   check_gates.exe (Gate) checks them against bench/gates. *)

module J = Parad_server.Json

type row = {
  figure : string;
  name : string;
  metric : string;
  unit : string;
  value : float;
}

let schema = "parad-bench/2"

(* the figure whose driver is running: rows recorded now belong to it *)
let figure = ref ""
let rows : row list ref = ref []

let record ~name metrics =
  List.iter
    (fun (metric, unit, value) ->
      rows := { figure = !figure; name; metric; unit; value } :: !rows)
    metrics

let results_path ?dir figure =
  let file = "BENCH_" ^ figure ^ ".json" in
  match dir with None -> file | Some d -> Filename.concat d file

(* one row per line, so a checked-in result diffs row by row *)
let results_json ~quick figure rows =
  let field k v = J.to_string (J.Str k) ^ ":" ^ J.to_string v in
  let row r =
    J.to_string
      (J.Obj
         [
           "name", J.Str r.name;
           "metric", J.Str r.metric;
           "unit", J.Str r.unit;
           "value", J.Num r.value;
         ])
  in
  "{"
  ^ String.concat ","
      [
        field "schema" (J.Str schema);
        field "figure" (J.Str figure);
        field "quick" (J.Bool quick);
      ]
  ^ ",\"rows\":[\n"
  ^ String.concat ",\n" (List.map row rows)
  ^ "\n]}\n"

(* A (figure, name, metric) key names at most one row, so a gate can
   never match two; a driver that records one twice is a bug. *)
let write_results ?dir ~quick () =
  let rows = List.rev !rows in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let key = r.figure, r.name, r.metric in
      if Hashtbl.mem seen key then
        failwith
          (Printf.sprintf "bench: %s row %S records %s twice" r.figure r.name
             r.metric);
      Hashtbl.add seen key ())
    rows;
  List.iter
    (fun fig ->
      let mine = List.filter (fun r -> r.figure = fig) rows in
      let path = results_path ?dir fig in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (results_json ~quick fig mine));
      Printf.printf "wrote %s (%d rows)\n" path (List.length mine))
    (List.sort_uniq compare (List.map (fun r -> r.figure) rows))

(* bit-for-bit equality of gradients *)
let bits_eq a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let lulesh_bits_eq (a : L.grad_result) (b : L.grad_result) =
  Array.length a.L.d_coords = Array.length b.L.d_coords
  && Array.for_all2 bits_eq a.L.d_coords b.L.d_coords
  && Array.for_all2 bits_eq a.L.d_energy b.L.d_energy

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
