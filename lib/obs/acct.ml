(* Per-domain resource accounting as a read-time view over the metrics
   registry. The instrumentation points (Invoke / Events / Vmem / Proxy /
   Scheduler) record one histogram sample or counter bump per traced
   event; every field here is a count or a sum of one of those, so there
   is no second table to keep in step — and nothing for [Obs.reset] to
   leave stale. *)

type t = {
  cycles : int;
  dispatches : int;
  traps : int;
  irqs : int;
  faults : int;
  crossings : int;
  crossing_cycles : int;
  sched_runs : int;
  pages : int;
}

let of_metrics m ~domain ~pages =
  let count_sum name =
    match Metrics.summary m ~domain name with
    | Some s -> (s.Metrics.count, s.Metrics.sum)
    | None -> (0, 0)
  in
  let dispatches, dc = count_sum "invoke.dispatch" in
  let traps, tc = count_sum "events.trap" in
  let irqs, ic = count_sum "events.irq" in
  let faults, fc = count_sum "vmem.fault" in
  let crossings, crossing_cycles = count_sum "proxy.call" in
  {
    cycles = dc + tc + ic + fc + crossing_cycles;
    dispatches;
    traps;
    irqs;
    faults;
    crossings;
    crossing_cycles;
    sched_runs = Metrics.counter m ~domain "sched.runs";
    pages;
  }

(* counters subtract; [pages] is a gauge and keeps the [after] value *)
let sub ~after ~before =
  {
    cycles = after.cycles - before.cycles;
    dispatches = after.dispatches - before.dispatches;
    traps = after.traps - before.traps;
    irqs = after.irqs - before.irqs;
    faults = after.faults - before.faults;
    crossings = after.crossings - before.crossings;
    crossing_cycles = after.crossing_cycles - before.crossing_cycles;
    sched_runs = after.sched_runs - before.sched_runs;
    pages = after.pages;
  }

let fields s =
  [
    ("cycles", s.cycles);
    ("dispatches", s.dispatches);
    ("traps", s.traps);
    ("irqs", s.irqs);
    ("faults", s.faults);
    ("crossings", s.crossings);
    ("crossing_cycles", s.crossing_cycles);
    ("sched_runs", s.sched_runs);
    ("pages", s.pages);
  ]

let field s name = List.assoc_opt name (fields s)

let line s =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (fields s))

let to_json s =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" k v) (fields s))
  ^ "}"
