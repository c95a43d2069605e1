(* Per-CPU scheduling over the machine's CPUs: the kernel's one
   dispatch path, at one CPU or many.

   One {!Scheduler.t} per CPU, each bound to that CPU's clock so every
   dispatch, promotion and crash it charges lands on the right core.
   [run] interleaves the CPUs with a deterministic round-robin sweep —
   one dispatch per CPU per pass — so the simulation is reproducible
   while per-CPU clocks advance independently between synchronization
   points. On one CPU the sweep is simply that CPU's dispatch loop.

   Work stealing: a CPU whose own queue is empty takes the oldest ready
   entry from the most-loaded sibling (ties to the lowest CPU id). The
   thief reconciles its clock to the entry's ready-at time — the thread
   cannot run before it existed — and pays {!Pm_machine.Cost.steal} for
   pulling the queue entry's cache lines across. {!Scheduler.steal}
   re-homes the thread so its later yields and wakeups stay with the
   thief. *)

module Cpu = Pm_machine.Cpu
module Clock = Pm_machine.Clock
module Cost = Pm_machine.Cost

type t = {
  cpu : Cpu.t;
  costs : Cost.t;
  scheds : Scheduler.t array;
  mutable steals : int;
  mutable steal_attempts : int;
  mutable dispatches : int;
}

let create ?mmu cpu costs =
  let scheds =
    Array.init (Cpu.count cpu) (fun i ->
        let s = Scheduler.create (Cpu.clock_of cpu i) costs in
        Option.iter (Scheduler.set_mmu s) mmu;
        s)
  in
  { cpu; costs; scheds; steals = 0; steal_attempts = 0; dispatches = 0 }

let cpu t = t.cpu
let count t = Array.length t.scheds

let sched t k =
  if k < 0 || k >= Array.length t.scheds then
    invalid_arg (Printf.sprintf "Smp.sched: no cpu %d" k);
  t.scheds.(k)

let spawn_on t k ?priority ?name ?domain body =
  let s = sched t k in
  (* creation charges land on the target CPU's clock *)
  Cpu.run_on t.cpu k (fun () -> Scheduler.spawn s ?priority ?name ?domain body)

(* Most-loaded sibling with work to take, -1 if none; ties go to the
   lowest id so the sweep stays deterministic. Runs every time a CPU
   finds its queue empty, so it allocates nothing. *)
let victim t ~thief =
  let best = ref (-1) and most = ref 0 in
  for i = 0 to Array.length t.scheds - 1 do
    if i <> thief then begin
      let n = Scheduler.ready_count t.scheds.(i) in
      if n > !most then begin
        best := i;
        most := n
      end
    end
  done;
  !best

let try_steal t ~thief =
  t.steal_attempts <- t.steal_attempts + 1;
  let v = victim t ~thief in
  v >= 0
  &&
  match Scheduler.steal ~from:t.scheds.(v) ~into:t.scheds.(thief) with
  | None -> false
  | Some (ready_at, _th) ->
    t.steals <- t.steals + 1;
    (* causality: the entry cannot run before it became ready on the
       victim; then pay for hauling it across *)
    Cpu.sync_to t.cpu ~cpu:thief ~at:ready_at;
    let clk = Cpu.clock_of t.cpu thief in
    Clock.advance clk (Cost.steal t.costs);
    Clock.count clk "steal";
    true

(* One dispatch on CPU [k]'s clock. The CPU already executing needs no
   switch, and the closure [run_on] takes is allocated only when it
   does. *)
let dispatch_on t k =
  let s = t.scheds.(k) in
  if k = Cpu.current t.cpu then Scheduler.dispatch s
  else Cpu.run_on t.cpu k (fun () -> Scheduler.dispatch s)

let run ?(steal = true) ?(budget = max_int) t =
  let total = ref 0 in
  let progress = ref true in
  while !progress && !total < budget do
    progress := false;
    for k = 0 to Array.length t.scheds - 1 do
      if
        !total < budget
        && (not (Cpu.halted t.cpu k))
        && (Scheduler.ready_count t.scheds.(k) > 0 || (steal && try_steal t ~thief:k))
        && dispatch_on t k
      then begin
        incr total;
        t.dispatches <- t.dispatches + 1;
        progress := true
      end
    done
  done;
  !total

let ready_total t =
  Array.fold_left (fun acc s -> acc + Scheduler.ready_count s) 0 t.scheds

let stats t = function
  | `Steals -> t.steals
  | `Steal_attempts -> t.steal_attempts
  | `Dispatches -> t.dispatches
