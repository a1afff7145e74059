(* Bench gate checker (bench/gate.ml) on small results and gates files
   written to a scratch directory: every op passing and failing, a
   missing row, a missing file, a [*] gate matching no row, a row name
   with spaces, and the result writer's duplicate-key check. *)

let write path text =
  Out_channel.with_open_text path (fun oc -> output_string oc text)

let fresh_dir () =
  let d = Filename.temp_dir "parad-gates" "" in
  Sys.mkdir (Filename.concat d "bench") 0o755;
  d

(* record (name, metric, value) rows under [figure] and write them
   to [dir] through the bench's own writer *)
let results dir figure rows =
  Util.rows := [];
  Util.figure := figure;
  List.iter
    (fun (name, metric, value) -> Util.record ~name [ metric, "count", value ])
    rows;
  Util.write_results ~dir ~quick:true ()

let check dir gates =
  write (Filename.concat dir "bench/gates") gates;
  Gate.run ~dir ()

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let outcomes checks = List.map fst checks

let one_failure checks =
  match checks with
  | [ (false, line) ] -> line
  | _ ->
    Alcotest.failf "expected one failed check, got: %s"
      (String.concat " | " (List.map snd checks))

let mentions line words =
  List.iter
    (fun w ->
      if not (contains line w) then Alcotest.failf "%S does not name %S" line w)
    words

let test_ops () =
  let dir = fresh_dir () in
  results dir "f" [ "r", "m", 5.0 ];
  List.iter
    (fun (gate, want) ->
      Alcotest.(check (list bool))
        gate [ want ]
        (outcomes (check dir ("f  r  m  " ^ gate))))
    [
      "<= 5", true;
      "<= 4.9", false;
      ">= 5", true;
      ">= 5.1", false;
      "> 4.9", true;
      "> 5", false;
      "= 5", true;
      "= 4", false;
    ]

let test_failure_names_everything () =
  let dir = fresh_dir () in
  results dir "fig" [ "gate_row", "speedup", 2.5 ];
  let line = one_failure (check dir "fig  gate_row  speedup  >=  9") in
  mentions line [ "FAIL"; "fig"; "gate_row"; "speedup"; "2.5"; ">= 9" ]

let test_missing_row () =
  let dir = fresh_dir () in
  results dir "f" [ "r", "m", 1.0 ];
  let line = one_failure (check dir "f  nosuch  m  <=  9") in
  mentions line [ "nosuch"; "m"; "no such row"; "<= 9" ];
  (* the row exists, but not with this metric *)
  ignore (one_failure (check dir "f  r  other  <=  9"))

let test_missing_file () =
  let dir = fresh_dir () in
  let line = one_failure (check dir "absent  r  m  <=  9") in
  mentions line [ "absent"; "BENCH_absent.json"; "missing"; "<= 9" ]

let test_star () =
  let dir = fresh_dir () in
  results dir "f" [ "a", "bitwise", 1.0; "b", "bitwise", 0.0; "c", "x", 0.0 ];
  (* every row with the metric is checked; rows without it are not *)
  Alcotest.(check (list bool))
    "one check per row" [ true; false ]
    (outcomes (check dir "f  *  bitwise  =  1"));
  let line = one_failure (check dir "f  *  silent  =  0") in
  mentions line [ "f"; "*"; "silent"; "no such row" ]

let test_row_with_spaces () =
  let dir = fresh_dir () in
  results dir "overhead"
    [ "LULESH C++ OMP", "overhead", 3.7; "LULESH C++ OMP+Opt", "overhead", 9.0 ];
  Alcotest.(check (list bool))
    "exact name" [ true ]
    (outcomes (check dir "overhead\tLULESH C++ OMP    overhead  <=  5.0"));
  ignore (one_failure (check dir "overhead  LULESH C++  overhead  <=  5.0"))

let test_gates_file () =
  let dir = fresh_dir () in
  results dir "f" [ "r", "m", 1.0 ];
  Alcotest.(check (list bool))
    "comments and blank lines skipped" [ true; true ]
    (outcomes (check dir "# a comment\n\nf  r  m  =  1\n  # indented\nf  r  m  >  0\n"));
  let line = one_failure (check dir "f  r  m  =  1\nf  r  m  <  2\n") in
  mentions line [ "bench/gates:2"; "\"<\"" ];
  ignore (one_failure (check dir "f  r  m  <=  high"));
  ignore (one_failure (check dir "f  m  <=  1"))

let test_duplicate_key_raises () =
  let dir = fresh_dir () in
  match
    results dir "fig8"
      [ "lulesh_cpp_mpi_gate", "grad_speedup", 30.0;
        "lulesh_cpp_mpi_gate", "grad_speedup", 4.0 ]
  with
  | () -> Alcotest.fail "a duplicate (figure, name, metric) was written"
  | exception Failure m -> mentions m [ "fig8"; "lulesh_cpp_mpi_gate"; "grad_speedup" ]

let () =
  Alcotest.run "gates"
    [
      ( "checker",
        [
          Alcotest.test_case "each op passes and fails" `Quick test_ops;
          Alcotest.test_case "failure names figure, row, metric, value, bound"
            `Quick test_failure_names_everything;
          Alcotest.test_case "missing row" `Quick test_missing_row;
          Alcotest.test_case "missing file" `Quick test_missing_file;
          Alcotest.test_case "* gate" `Quick test_star;
          Alcotest.test_case "row name with spaces" `Quick test_row_with_spaces;
          Alcotest.test_case "gates file syntax" `Quick test_gates_file;
        ] );
      ( "writer",
        [
          Alcotest.test_case "duplicate key raises" `Quick
            test_duplicate_key_raises;
        ] );
    ]
