(** The gradient-request benchmark.

    One client sends seeded gradient requests to [Service.handle_line]
    in-process, in a closed loop: the next request goes out when the
    previous answer is back, as an optimizer waiting for each gradient
    does. Every response is checked against a reference digest.

    {v
    main.exe --workload warm_shm|warm_mpi|cold_plan --seed N --seconds S
             --trace 0|1 [--expected FILE] [--out DIR]
    main.exe --record-expected FILE    (re-record the default-seed references)
    main.exe --self-test [--expected FILE]
    v}

    With [--trace 0] the last line of output is one JSON object holding
    the end-to-end metrics; with [--trace 1] the run is followed by a
    traced replay of the same sequence and the JSON holds the per-layer
    metrics, and a Chrome trace is written to [DIR]. *)

module W = Workload

let usage () =
  prerr_endline
    "usage: main.exe --workload (warm_shm|warm_mpi|cold_plan) --seed N --seconds S\n\
    \                --trace 0|1 [--expected FILE] [--out DIR]\n\
    \       main.exe --record-expected FILE\n\
    \       main.exe --self-test [--expected FILE]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | ("--self-test" as k) :: rest -> parse ((k, "") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k d = Option.value (List.assoc_opt k kv) ~default:d in
  let int k d = match int_of_string_opt (get k d) with Some v -> v | None -> usage () in
  let expected = get "--expected" "gradbench/expected.tsv" in
  if List.mem_assoc "--record-expected" kv then
    Measure.record (get "--record-expected" "")
  else if List.mem_assoc "--self-test" kv then exit (Selftest.run ~expected)
  else begin
    let workload = get "--workload" "" in
    if not (List.mem workload W.names) then usage ();
    let trace = match get "--trace" "0" with "0" -> false | "1" -> true | _ -> usage () in
    let seconds = int "--seconds" "10" in
    if seconds < 1 then usage ();
    Measure.run_workload
      {
        Measure.workload;
        seed = int "--seed" "1";
        seconds;
        trace;
        expected;
        out = get "--out" "gradbench/out";
      }
  end
