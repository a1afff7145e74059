(* The bench gate checker: every regression floor and ceiling the bench
   enforces is one line of bench/gates,

     figure  row|*  metric  op  bound        (op is one of <= >= > =)

   checked against the row of BENCH_<figure>.json (Util's one result
   schema) with that name and metric. A [*] gate applies to every row
   of the figure that has the metric and fails if none does. A gate
   whose file, row or value is missing fails too, so a gate can never
   pass by not being measured. Blank lines and lines starting with [#]
   are comments. The row is every field between the figure and the
   metric, so a row name may contain single spaces. *)

type gate = {
  figure : string;
  row : string option;  (** [None] is [*]: every row with the metric *)
  metric : string;
  op : string;
  bound : float;
}

let ops : (string * (float -> float -> bool)) list =
  [ "<=", ( <= ); ">=", ( >= ); ">", ( > ); "=", ( = ) ]

let parse_line s =
  let w =
    String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) s)
    |> List.filter (( <> ) "")
    |> Array.of_list
  in
  let n = Array.length w in
  if n < 5 then Error "expected: figure  row|*  metric  op  bound"
  else
    let op = w.(n - 2) in
    match float_of_string_opt w.(n - 1) with
    | None -> Error (Printf.sprintf "bound %S is not a number" w.(n - 1))
    | Some _ when not (List.mem_assoc op ops) ->
      Error (Printf.sprintf "op %S is not one of <= >= > =" op)
    | Some bound ->
      let row = String.concat " " (Array.to_list (Array.sub w 1 (n - 4))) in
      Ok
        {
          figure = w.(0);
          row = (if row = "*" then None else Some row);
          metric = w.(n - 3);
          op;
          bound;
        }

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> (
      let t = String.trim l in
      if t = "" || t.[0] = '#' then go (lineno + 1) acc rest
      else
        match parse_line t with
        | Ok g -> go (lineno + 1) (g :: acc) rest
        | Error e -> Error (Printf.sprintf "bench/gates:%d: %s" lineno e))
  in
  go 1 [] lines

(* the (name, metric, value) rows of one results file *)
let read_results path =
  let module J = Parad_server.Json in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> Error (Printf.sprintf "%s is missing" path)
  | text -> (
    match J.of_string text with
    | Error e -> Error (Printf.sprintf "%s is not JSON: %s" path e)
    | Ok doc when J.str_field "schema" doc <> Some Util.schema ->
      Error (Printf.sprintf "%s is not schema %s" path Util.schema)
    | Ok doc -> (
      let row r =
        match
          J.str_field "name" r, J.str_field "metric" r, J.num_field "value" r
        with
        | Some n, Some m, Some v -> Some (n, m, v)
        | _ -> None
      in
      match J.field "rows" doc with
      | Some (J.Arr rs) when List.for_all (fun r -> row r <> None) rs ->
        Ok (List.filter_map row rs)
      | _ -> Error (Printf.sprintf "%s has a malformed rows array" path)))

(* Every check one gate makes, as (passed, report line). *)
let check_gate ?dir g =
  let bound = Printf.sprintf "%s %g" g.op g.bound in
  let fail why =
    [
      ( false,
        Printf.sprintf "FAIL %s  %s  %s: %s (bound %s)" g.figure
          (Option.value g.row ~default:"*")
          g.metric why bound );
    ]
  in
  match read_results (Util.results_path ?dir g.figure) with
  | Error e -> fail e
  | Ok rows -> (
    let hits =
      List.filter
        (fun (n, m, _) -> m = g.metric && (g.row = None || g.row = Some n))
        rows
    in
    match hits with
    | [] -> fail "no such row"
    | _ ->
      List.map
        (fun (n, _, v) ->
          let ok = (List.assoc g.op ops) v g.bound in
          ( ok,
            Printf.sprintf "%s %s  %s  %s = %g, bound %s"
              (if ok then "PASS" else "FAIL")
              g.figure n g.metric v bound ))
        hits)

(* Every check of bench/gates against the results files, both relative
   to [dir] (default: the current directory). *)
let run ?dir () =
  let path =
    match dir with
    | None -> "bench/gates"
    | Some d -> Filename.concat d "bench/gates"
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> [ false, "FAIL " ^ e ]
  | text -> (
    match parse text with
    | Error e -> [ false, "FAIL " ^ e ]
    | Ok gates -> List.concat_map (check_gate ?dir) gates)

(* prints one line per checked value; 0 when every check passes *)
let main () =
  let checks = run () in
  List.iter (fun (_, line) -> print_endline line) checks;
  let failed = List.length (List.filter (fun (ok, _) -> not ok) checks) in
  Printf.printf "bench gates: %d checks, %d failed\n" (List.length checks)
    failed;
  if failed = 0 then 0 else 1
