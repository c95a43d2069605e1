(* Cpu: the machine's CPUs — N logical processors over one simulated
   machine, N = 1 for a uniprocessor.

   Each CPU owns a virtual clock; all clocks share the machine's one
   observability sink, so spans, accounting and the journal stay a
   single stream (events carry the issuing CPU id via the ambient
   register in {!Pm_journal.Journal}). The host is single-threaded: the
   simulation interleaves CPUs explicitly through [run_on], and work
   executed inside charges the active CPU's clock because every charge
   site reads {!Machine.clock} at charge time.

   Time model. Per-CPU clocks advance independently while CPUs compute
   on private state; global virtual time is their maximum. Causality is
   restored at synchronization points: any cross-CPU interaction (an
   IPI, a work steal, shared ring traffic) reconciles the observer's
   clock forward to at least the issuing CPU's time ([sync_to], built on
   {!Clock.advance_to} — never backward). Because reconciliation only
   ever pulls clocks forward and the interleaving below is a fixed
   round-robin, results are deterministic. One CPU is the same model
   with nothing to cross: no domain is ever on another CPU, so nothing
   reconciles and the active clock never moves.

   An inter-processor interrupt is just a trap sourced from another CPU:
   the sender pays {!Cost.t.ipi} for the bus signalling on its own
   clock, the target reconciles to the send time, wakes if halted, and
   executes the trap through the ordinary event path on its own clock
   (paying its normal trap entry there). *)

(* The records are the machine's own (they die with it); this module is
   every operation on them. *)
type cpu = Machine.cpu = {
  id : int;
  clock : Clock.t;
  mutable halted : bool;
  mutable ipis_sent : int;
  mutable ipis_recv : int;
  mutable synced : int;
}

type t = Machine.complex = {
  machine : Machine.t;
  cpus : cpu array;
  mutable cur : int;
  pins : (int, int) Hashtbl.t;
}

let of_machine = Machine.complex
let count t = Array.length t.cpus
let machine t = t.machine

let check_cpu t k =
  if k < 0 || k >= Array.length t.cpus then
    invalid_arg (Printf.sprintf "Cpu: no cpu %d (complex has %d)" k (count t))

let clock_of t k =
  check_cpu t k;
  t.cpus.(k).clock

let current t = t.cur
let now t k = Clock.now (clock_of t k)

(* Global virtual time: the machine is done when its slowest CPU is. *)
let makespan t =
  Array.fold_left (fun acc c -> max acc (Clock.now c.clock)) 0 t.cpus

(* ------------------------------------------------------------------ *)
(* Affinity                                                            *)
(* ------------------------------------------------------------------ *)

let pin t ~domain ~cpu =
  check_cpu t cpu;
  Hashtbl.replace t.pins domain cpu

let cpu_of t ~domain =
  match Hashtbl.find_opt t.pins domain with Some c -> c | None -> 0

(* one CPU crosses nothing, and needs no pin lookup to say so *)
let cross t ~a ~b =
  Array.length t.cpus > 1 && cpu_of t ~domain:a <> cpu_of t ~domain:b

(* The honest price of shared-word traffic between two domains: one
   cache-line transfer when they sit on different CPUs, free otherwise
   (always, on one CPU). *)
let cacheline_penalty t ~from_dom ~to_dom =
  if cross t ~a:from_dom ~b:to_dom then (Machine.costs t.machine).Cost.cacheline
  else 0

(* ------------------------------------------------------------------ *)
(* Execution: interleaving CPUs on the single-threaded host            *)
(* ------------------------------------------------------------------ *)

let switch_to t k =
  check_cpu t k;
  if k <> t.cur then begin
    t.cur <- k;
    Machine.set_active_clock t.machine t.cpus.(k).clock;
    Pm_journal.Journal.set_current_cpu k
  end

let run_on t k f =
  let prev = t.cur in
  switch_to t k;
  Fun.protect ~finally:(fun () -> switch_to t prev) f

(* Reconciliation: CPU [cpu] observes an event issued at global time
   [at]; its clock moves forward to at least [at]. The absorbed idle
   cycles are counted, never silently dropped. *)
let sync_to t ~cpu ~at =
  let c = t.cpus.(cpu) in
  let d = Clock.advance_to c.clock at in
  if d > 0 then begin
    c.synced <- c.synced + d;
    Clock.count_n c.clock "cpu_sync" 1
  end

(* ------------------------------------------------------------------ *)
(* Halt / wake                                                         *)
(* ------------------------------------------------------------------ *)

let halt t k =
  check_cpu t k;
  t.cpus.(k).halted <- true

let wake t k =
  check_cpu t k;
  t.cpus.(k).halted <- false

let halted t k =
  check_cpu t k;
  t.cpus.(k).halted

(* ------------------------------------------------------------------ *)
(* Inter-processor interrupts                                          *)
(* ------------------------------------------------------------------ *)

let ipi t ~cpu vec arg =
  check_cpu t cpu;
  if cpu = t.cur then
    (* self-IPI degenerates to an ordinary trap *)
    ignore (Machine.raise_trap t.machine vec arg)
  else begin
    let sender = t.cpus.(t.cur) in
    let costs = Machine.costs t.machine in
    Clock.advance sender.clock costs.Cost.ipi;
    Clock.count sender.clock "ipi";
    sender.ipis_sent <- sender.ipis_sent + 1;
    sync_to t ~cpu ~at:(Clock.now sender.clock);
    let target = t.cpus.(cpu) in
    target.halted <- false;
    target.ipis_recv <- target.ipis_recv + 1;
    run_on t cpu (fun () -> ignore (Machine.raise_trap t.machine vec arg))
  end

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

type cpu_stats = {
  cpu : int;
  cycles : int;
  halted_now : bool;
  ipis_sent : int;
  ipis_recv : int;
  synced : int;
}

let stats t k =
  check_cpu t k;
  let c = t.cpus.(k) in
  { cpu = k; cycles = Clock.now c.clock; halted_now = c.halted;
    ipis_sent = c.ipis_sent; ipis_recv = c.ipis_recv; synced = c.synced }

let all_stats t = List.init (count t) (stats t)

(* A named counter summed over every CPU's clock — per-CPU clocks keep
   private counter tables, this is the machine-wide view. *)
let counter_total t name =
  Array.fold_left (fun acc c -> acc + Clock.counter c.clock name) 0 t.cpus
