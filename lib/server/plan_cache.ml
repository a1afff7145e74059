(** LRU cache of compiled gradient plans.

    The expensive part of a request is the pipeline (reverse generation +
    post-AD optimization), not interpretation; a warm hit skips it
    entirely. Keys are the canonical plan-key strings built by
    {!Service.plan_key}; payloads are immutable compiled programs, so
    sharing one payload across many requests is safe by construction.

    Exact LRU over an association list: capacities are small (default 8,
    a plan is a whole compiled program pair), so O(n) reordering is
    noise next to a single compile. Hit/miss acquisition wall times are
    accumulated for the warm-speedup figure BENCH_serve.json gates. *)

type 'a t = {
  cap : int;
  mutable items : (string * 'a) list;  (** most recently used first *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable hit_ns : float;  (** total wall time spent on hit lookups *)
  mutable miss_ns : float;  (** total wall time spent compiling on miss *)
}

let create ~cap =
  if cap < 1 then invalid_arg "Plan_cache.create: cap must be >= 1";
  {
    cap;
    items = [];
    hits = 0;
    misses = 0;
    evictions = 0;
    hit_ns = 0.0;
    miss_ns = 0.0;
  }

let length t = List.length t.items
let mem t key = List.mem_assoc key t.items

(** The keys currently cached, most recently used first. *)
let keys t = List.map fst t.items

let now_ns () = float_of_int (Parad_runtime.Sim.wall_ns ())

(* Move [key] to the front; assumes present. *)
let promote t key =
  let v = List.assoc key t.items in
  t.items <- (key, v) :: List.remove_assoc key t.items;
  v

(** Fetch the plan under [key], calling [compile] (and caching the
    result, evicting the coldest entry past capacity) on a miss.
    Returns the plan and whether it was warm. *)
let get_or_compile t key ~compile =
  let t0 = now_ns () in
  if mem t key then begin
    let v = promote t key in
    t.hits <- t.hits + 1;
    t.hit_ns <- t.hit_ns +. (now_ns () -. t0);
    v, true
  end
  else begin
    let v = compile () in
    t.items <- (key, v) :: t.items;
    if List.length t.items > t.cap then begin
      t.items <- List.filteri (fun i _ -> i < t.cap) t.items;
      t.evictions <- t.evictions + 1
    end;
    t.misses <- t.misses + 1;
    t.miss_ns <- t.miss_ns +. (now_ns () -. t0);
    v, false
  end

(** Drop one key (used on compile-time poisoning, not on run failures:
    a plan whose *execution* failed is still a valid plan). *)
let remove t key = t.items <- List.remove_assoc key t.items
