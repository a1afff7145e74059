(* Checks bench/gates against the BENCH_<figure>.json files in the
   current directory (see Gate); exits 1 if any gate fails.

   Usage: check_gates.exe      (run from the repository root) *)

let () = exit (Gate.main ())
