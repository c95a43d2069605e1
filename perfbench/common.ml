(* Shared machinery of the benchmark: the host clock, sample sets and
   percentiles, the metric record every workload returns, the GC probes,
   timed set-up, and the end-to-end metrics every workload reports. *)

(* ---------------- host time ---------------------------------------- *)

(* Monotonic host nanoseconds. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let secs_of_ns ns = float_of_int ns /. 1e9

(* [timed f] runs [f] and returns its result with the host ns it took. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* ---------------- samples ------------------------------------------ *)

(* A growable float sample set. *)
type samples = { mutable data : float array; mutable n : int }

let samples () = { data = Array.make 1024 0.; n = 0 }

let add s x =
  if s.n = Array.length s.data then begin
    let d = Array.make (2 * s.n) 0. in
    Array.blit s.data 0 d 0 s.n;
    s.data <- d
  end;
  s.data.(s.n) <- x;
  s.n <- s.n + 1

(* Nearest-rank percentile [p] in [0, 100] of the first [upto] samples
   (all by default); 0 on an empty set. *)
let percentile ?upto s p =
  let n = match upto with Some u -> min u s.n | None -> s.n in
  if n = 0 then 0.
  else begin
    let a = Array.sub s.data 0 n in
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let median_of l =
  let s = samples () in
  List.iter (add s) l;
  percentile s 50.

(* Accumulated host time and call count of one measured call site. *)
type acc = { mutable ns : int; mutable calls : int }

let acc () = { ns = 0; calls = 0 }

let time_into a f =
  let t0 = now_ns () in
  let r = f () in
  a.ns <- a.ns + (now_ns () - t0);
  a.calls <- a.calls + 1;
  r

(* Mean per call in the given unit divisor (1. for ns, 1e3 for us). *)
let per_call ?(div = 1.) a =
  if a.calls = 0 then 0. else float_of_int a.ns /. float_of_int a.calls /. div

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ---------------- metrics ------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* What a workload run hands back to the runner; [failed] ops are
   counted in [attempted]. *)
type outcome = {
  attempted : int;
  failed : int;
  e2e : metric list;  (** the end-to-end metrics, measured untraced *)
  layers : metric list;  (** the per-layer metrics of a traced run *)
}

(* A wrong value from the system aborts the whole run. *)
exception Wrong of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt

(* ---------------- host memory -------------------------------------- *)

let word_bytes = float_of_int (Sys.word_size / 8)

(* Peak major heap so far, in MB. *)
let heap_peak_mb () =
  let st = Gc.quick_stat () in
  float_of_int st.Gc.top_heap_words *. word_bytes /. 1e6

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* Live major-heap bytes after a full collection. *)
let live_bytes () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).Gc.live_words *. word_bytes

(* ---------------- set-up ------------------------------------------- *)

(* Set-ups per run: [setup_s] is their median. The last set-up's system
   carries the steady state; the earlier ones are dropped. *)
let setups = ref 5

(* The system's own seed (RSA keys, ids) is fixed so set-up does the
   same work on every run; the workload seed drives only the inputs. *)
let system_seed = 0xC0FFEE

(* Host ns spent in System.create during the current set-up. *)
let create_ns = ref 0

let create_system ?cpus () =
  let sys, ns = timed (fun () -> Paramecium.System.create ~seed:system_seed ?cpus ()) in
  create_ns := !create_ns + ns;
  sys

(* Median seconds of set-up spent outside System.create: the wiring. *)
let wiring_s = ref 0.

(* The seeded input stream [salt] of a workload. *)
let rng_for seed salt = Random.State.make [| seed; salt |]

(* [setup_median f] runs [f] [!setups] times and returns the last
   result with the median set-up seconds. *)
let setup_median f =
  let times = ref [] and wiring = ref [] and last = ref None in
  for _ = 1 to max 1 !setups do
    last := None;
    Gc.full_major ();
    create_ns := 0;
    let r, ns = timed f in
    times := secs_of_ns ns :: !times;
    wiring := secs_of_ns (ns - !create_ns) :: !wiring;
    last := Some r
  done;
  wiring_s := median_of !wiring;
  (Option.get !last, median_of !times)

(* ---------------- the end-to-end metrics --------------------------- *)

(* The host side of a steady state: per-op latencies stamped with their
   completion time, and (time, successful ops, simulated cycles)
   checkpoints. Host metrics are medians over [slices] equal time
   slices of the run: the shared host this was built on runs up to
   ~1.5x slower for seconds at a time, and a slowed stretch then moves
   the slices it covers, not the result. *)
let slices = 10

type host_log = {
  lat_us : samples;
  lat_at : samples;  (** completion time, ns since the start *)
  cp_t : samples;
  cp_ok : samples;
  cp_cyc : samples;
  mutable t0 : int;
}

let host_log () =
  { lat_us = samples (); lat_at = samples (); cp_t = samples (); cp_ok = samples ();
    cp_cyc = samples (); t0 = now_ns () }

let latency h ~now us =
  add h.lat_us us;
  add h.lat_at (float_of_int (now - h.t0))

let checkpoint h ~ok ~cyc =
  add h.cp_t (float_of_int (now_ns () - h.t0));
  add h.cp_ok (float_of_int ok);
  add h.cp_cyc (float_of_int cyc)

(* Median over the slices of [f lo hi], the slice bounds in ns. *)
let over_slices ~t_end f =
  let len = float_of_int t_end /. float_of_int slices in
  median_of
    (List.filter_map
       (fun i -> f (len *. float_of_int i) (len *. float_of_int (i + 1)))
       (List.init slices Fun.id))

(* Rate of a checkpointed counter per host second. *)
let sliced_rate h counter ~t_end =
  let at x =
    (* the counter at the last checkpoint not after [x] *)
    let v = ref 0. in
    for i = 0 to h.cp_t.n - 1 do
      if h.cp_t.data.(i) <= x then v := counter.data.(i)
    done;
    !v
  in
  over_slices ~t_end (fun lo hi -> Some ((at hi -. at lo) /. ((hi -. lo) /. 1e9)))

let sliced_percentile h p ~t_end =
  over_slices ~t_end (fun lo hi ->
      let s = samples () in
      for i = 0 to h.lat_us.n - 1 do
        let t = h.lat_at.data.(i) in
        if t >= lo && t < hi then add s h.lat_us.data.(i)
      done;
      if s.n = 0 then None else Some (percentile s p))

(* What a measured steady state hands back. The simulated window is the
   first [sim_window] ops of the workload: simulated metrics and the
   heap peak are taken over it, so they depend on the seed only, not on
   how much the host got through. *)
type run_stats = {
  host_ns : int;  (** host ns of the whole steady state *)
  win_ns : int;  (** host ns to the end of the window *)
  win_cyc : int;  (** simulated cycles of the window (makespan on SMP) *)
  win_ops : int;  (** successful ops in the window *)
  win_heap_mb : float;  (** peak major heap at the end of the window *)
}

(* [sim_cyc] holds simulated cycles per op in op order, so its first
   [win_ops] samples are the window's. *)
let e2e_metrics ~setup_s ~ok ~failed ~host ~sim_cyc r =
  let t_end = r.host_ns in
  [
    m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" (sliced_rate host host.cp_ok ~t_end);
    m "host_us_p50" "us" (sliced_percentile host 50. ~t_end);
    m "host_us_p99" "us" (sliced_percentile host 99. ~t_end);
    m "sim_cyc_p50" "cyc" (percentile ~upto:r.win_ops sim_cyc 50.);
    m "sim_cyc_p99" "cyc" (percentile ~upto:r.win_ops sim_cyc 99.);
    m "sim_ops_per_mcyc" "1/Mcyc" (float_of_int r.win_ops /. (float_of_int r.win_cyc /. 1e6));
    m "sim_mcyc_per_s" "Mcyc/s" (sliced_rate host host.cp_cyc ~t_end /. 1e6);
    m "ok_ratio" "ratio" (ratio ok (ok + failed));
    m "heap_peak_mb" "MB" r.win_heap_mb;
  ]

(* Trace overhead: host time per op of a traced run against an untraced
   one, in percent. *)
let overhead_pct ~traced_ns ~traced_ops ~plain_ns ~plain_ops =
  let per ns ops = float_of_int ns /. float_of_int (max 1 ops) in
  (per traced_ns traced_ops /. per plain_ns plain_ops -. 1.) *. 100.
