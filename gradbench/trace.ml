(** Spans for the traced run: a monotonic clock, nested spans kept in
    memory, per-name aggregation with self time, and a Chrome
    trace-event writer.

    A span records its name, monotonic start and end, its parent span,
    the request it belongs to and its minor-word delta. Spans are only
    opened by the benchmark, around its calls into the program's public
    functions; when tracing is off {!span} is a direct call. *)

let now_ns () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at the root *)
  rid : int;  (** request id, -1 outside any request *)
  phase : string;  (** "setup" or "timed" *)
  scale : float;  (** the calibration factor in force, {!Calib} *)
  t0 : int64;
  mutable t1 : int64;
  w0 : float;
  mutable words : float;  (** minor words allocated inside the span *)
}

type t = {
  mutable on : bool;
  mutable spans : span list;  (** closed spans, newest first *)
  mutable stack : span list;  (** open spans, innermost first *)
  mutable next : int;
  mutable rid : int;
  mutable phase : string;
  mutable scale : float;
      (** calibration factor for the spans opened from now on; the
          aggregates report calibrated times, the Chrome trace raw ones *)
}

let create () =
  { on = false; spans = []; stack = []; next = 0; rid = -1; phase = "setup"; scale = 1.0 }

let span tr name f =
  if not tr.on then f ()
  else begin
    let parent = match tr.stack with s :: _ -> s.id | [] -> -1 in
    let s =
      {
        id = tr.next;
        name;
        parent;
        rid = tr.rid;
        phase = tr.phase;
        scale = tr.scale;
        t0 = now_ns ();
        t1 = 0L;
        w0 = Gc.minor_words ();
        words = 0.0;
      }
    in
    tr.next <- tr.next + 1;
    tr.stack <- s :: tr.stack;
    let close () =
      s.t1 <- now_ns ();
      s.words <- Gc.minor_words () -. s.w0;
      tr.stack <- List.tl tr.stack;
      tr.spans <- s :: tr.spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(** Per span name within one phase: calls, total and self wall time
    (ms, calibrated), and minor words, self (excluding child spans) and
    total. *)
type agg = {
  mutable calls : int;
  mutable total_ms : float;
  mutable self_ms : float;
  mutable self_words : float;
  mutable total_words : float;
}

let aggregate tr ~phase =
  let spans = List.filter (fun (s : span) -> s.phase = phase) tr.spans in
  let child_ms = Hashtbl.create 1024 and child_words = Hashtbl.create 1024 in
  List.iter
    (fun (s : span) ->
      if s.parent >= 0 then begin
        let add tbl v =
          Hashtbl.replace tbl s.parent
            (v +. Option.value (Hashtbl.find_opt tbl s.parent) ~default:0.0)
        in
        add child_ms (ms_between s.t0 s.t1 *. s.scale);
        add child_words s.words
      end)
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun (s : span) ->
      let a =
        match Hashtbl.find_opt by_name s.name with
        | Some a -> a
        | None ->
          let a =
            {
              calls = 0;
              total_ms = 0.0;
              self_ms = 0.0;
              self_words = 0.0;
              total_words = 0.0;
            }
          in
          Hashtbl.add by_name s.name a;
          a
      in
      let d = ms_between s.t0 s.t1 *. s.scale in
      let find tbl = Option.value (Hashtbl.find_opt tbl s.id) ~default:0.0 in
      a.calls <- a.calls + 1;
      a.total_ms <- a.total_ms +. d;
      a.self_ms <- a.self_ms +. (d -. find child_ms);
      a.self_words <- a.self_words +. (s.words -. find child_words);
      a.total_words <- a.total_words +. s.words)
    spans;
  by_name

(** Chrome trace-event JSON (complete events, microseconds), viewable in
    Perfetto or chrome://tracing. *)
let write_chrome tr path =
  let spans = List.rev tr.spans in
  let base = List.fold_left (fun m (s : span) -> min m s.t0) Int64.max_int spans in
  let us t = Int64.to_float (Int64.sub t base) /. 1e3 in
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i (s : span) ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
         \"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"rid\":%d,\"phase\":%S,\
         \"minor_words\":%.0f}}"
        s.name (layer s.name) (us s.t0)
        (us s.t1 -. us s.t0)
        s.id s.parent s.rid s.phase s.words)
    spans;
  Buffer.add_string b "]}\n";
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Buffer.output_buffer oc b)
