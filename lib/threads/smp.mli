(** Per-CPU scheduling over the machine's CPUs ({!Pm_machine.Cpu}): the
    kernel's one dispatch path, whether the machine has one CPU or many.

    One {!Scheduler.t} per CPU, each bound to that CPU's clock. {!run}
    interleaves the CPUs with a deterministic round-robin sweep (one
    dispatch per CPU per pass); an idle CPU steals the oldest ready
    entry from its most-loaded sibling, reconciling its clock to the
    entry's ready-at time and paying {!Pm_machine.Cost.steal}. Halted
    CPUs neither dispatch nor steal until woken (e.g. by an IPI). On one
    CPU there is no sibling to steal from, and {!run} dispatches exactly
    as {!Scheduler.run} does. *)

type t

(** [create ?mmu cpu costs] builds one scheduler per CPU of [cpu], each
    on its CPU's clock, switching [mmu] contexts when given. CPU 0's is
    the kernel's boot scheduler. *)
val create : ?mmu:Pm_machine.Mmu.t -> Pm_machine.Cpu.t -> Pm_machine.Cost.t -> t

val cpu : t -> Pm_machine.Cpu.t
val count : t -> int

(** The scheduler instance owned by CPU [k]. *)
val sched : t -> int -> Scheduler.t

(** [spawn_on t k ... body] spawns on CPU [k]'s scheduler, charging
    creation to [k]'s clock. *)
val spawn_on :
  t ->
  int ->
  ?priority:int ->
  ?name:string ->
  ?domain:int ->
  (unit -> unit) ->
  Scheduler.thread

(** [try_steal t ~thief] makes one stealing attempt for CPU [thief]:
    picks the most-loaded sibling (ties to lowest id), moves its oldest
    ready entry over, reconciles the thief's clock and charges
    {!Pm_machine.Cost.steal}. Returns whether anything was stolen; an
    attempt on all-empty siblings is free. *)
val try_steal : t -> thief:int -> bool

(** [run ?steal ?budget t] sweeps the CPUs round-robin, one dispatch
    each per pass, until no CPU can make progress or [budget] dispatches
    (default unbounded) have been made in all. [steal] (default [true])
    enables work stealing for idle CPUs. Returns the dispatches made. *)
val run : ?steal:bool -> ?budget:int -> t -> int

val ready_total : t -> int
val stats : t -> [ `Steals | `Steal_attempts | `Dispatches ] -> int
