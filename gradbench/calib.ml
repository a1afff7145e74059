(** Host-speed calibration.

    On a shared host the speed of one core wanders: a fixed CPU-bound
    loop can take anywhere from its fastest time to twice that, in spells
    of seconds, and the process's CPU time slows with it, so neither wall
    nor CPU time repeats between runs. The benchmark therefore also reports
    its timings at a reference speed. Next to the program, never inside a
    request, it runs a fixed kernel of its own, and scales each wall time
    by [ref_ms / kernel_ms], where [kernel_ms] is the kernel's time just
    before. The kernel shares no code with the program and allocates
    nothing, so the program's heap cannot slow it: a program change that
    doubles a request's wall time doubles its calibrated time. *)

(** What one kernel pass takes on the reference host; calibrated times are
    the times on a host where a pass takes exactly this. *)
let ref_ms = 2.0

let now = Monotonic_clock.now

(* a single cycle through 2^16 slots (Sattolo's shuffle, fixed seed), so
   the chase below visits 512 KiB of int array in an order the prefetcher
   cannot guess *)
let chase =
  let n = 1 lsl 16 in
  let a = Array.init n Fun.id in
  let rng = Random.State.make [| 7 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng i in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let vals = Float.Array.init 4096 float_of_int

let tbl =
  let t = Hashtbl.create 1024 in
  for i = 0 to 1023 do
    Hashtbl.replace t i (i * 7)
  done;
  t

let iters = 60_000

(** One kernel pass: a dependent chase through [chase], float arithmetic
    on [vals] and integer hashtable lookups, the mix of pointer chasing,
    branches and float work an interpreter does. Allocates nothing. *)
let pass () =
  let j = ref 0 and acc = ref 0.0 and h = ref 0 in
  for i = 1 to iters do
    j := Array.unsafe_get chase !j;
    acc := !acc +. sqrt (Float.Array.unsafe_get vals (i land 4095) +. float_of_int !j);
    h := !h + Hashtbl.find tbl (!j land 1023)
  done;
  ignore (Sys.opaque_identity (int_of_float !acc + !h))

(** The kernel's time now, ms: the fastest of three passes, so an
    interrupt during one pass does not count. *)
let kernel_ms () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = now () in
    pass ();
    best := Float.min !best (Int64.to_float (Int64.sub (now ()) t0) /. 1e6)
  done;
  !best

(** The factor that turns a wall time measured now into a calibrated one. *)
let factor () = ref_ms /. kernel_ms ()

(** A loop of [steps] steps, with the kernel run before every [every]-th
    step and once after the last. A stretch is the steps between two
    kernel runs; its factor is the mean of the factors measured at its two
    ends, so a host speeding up or slowing down within it is followed.
    The kernel's own time is left out of the loop's busy time. *)
type loop = {
  every : int;
  ks : Float.Array.t;  (** factor at the start of each stretch, and at the end *)
  raws : Float.Array.t;  (** raw ms of each stretch *)
  mutable seg : int64;  (** start of the current stretch *)
}

let start ~steps every =
  let n = max 1 ((steps + every - 1) / every) in
  {
    every;
    ks = Float.Array.make (n + 1) 1.0;
    raws = Float.Array.make n 0.0;
    seg = now ();
  }

let close l s =
  Float.Array.set l.raws s (Int64.to_float (Int64.sub (now ()) l.seg) /. 1e6);
  Float.Array.set l.ks (s + 1) (factor ())

(** Call before step [i] of the loop. *)
let step l i =
  if i mod l.every = 0 then begin
    let s = i / l.every in
    if s = 0 then Float.Array.set l.ks 0 (factor ()) else close l (s - 1);
    l.seg <- now ()
  end

(** Call after the last step; [steps] as given to {!start}. *)
let stop l ~steps = close l (max 0 ((steps - 1) / l.every))

(** The factor measured before step [i], for use while the loop runs. *)
let current l i = Float.Array.get l.ks (i / l.every)

(** The factor of step [i], once the loop has stopped. *)
let scale l i =
  let s = i / l.every in
  0.5 *. (Float.Array.get l.ks s +. Float.Array.get l.ks (s + 1))

(** Busy time of the stopped loop, raw and calibrated, ms. *)
let raw_ms l = Float.Array.fold_left ( +. ) 0.0 l.raws

let cal_ms l =
  let acc = ref 0.0 in
  Float.Array.iteri
    (fun s d -> acc := !acc +. (d *. scale l (s * l.every)))
    l.raws;
  !acc
