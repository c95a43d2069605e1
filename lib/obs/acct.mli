(** Per-domain resource accounting, as a view over {!Metrics}.

    Nothing is charged here. Each instrumentation point records one
    sample per traced event into the metrics registry, keyed by the
    domain it ran on behalf of; {!of_metrics} reads a domain's record
    back out of those samples:

    - [dispatches], [traps], [irqs], [faults], [crossings] — the sample
      counts of [invoke.dispatch], [events.trap], [events.irq],
      [vmem.fault] and [proxy.call];
    - [crossing_cycles] — the sum of [proxy.call];
    - [cycles] — the sum of all five histograms' sums (nested spans in
      the same domain may overlap, so it is an attribution measure, not
      a wall total);
    - [sched_runs] — the [sched.runs] counter;
    - [pages] — supplied by the caller (from [Vmem.pages_of]).

    Because the samples are only taken inside the [Obs.enabled]
    branches, the view inherits the zero-cost-when-off guarantee, and
    [Obs.reset] clears it along with the metrics it reads. *)

type t = {
  cycles : int;
  dispatches : int;
  traps : int;
  irqs : int;
  faults : int;
  crossings : int;
  crossing_cycles : int;
  sched_runs : int;
  pages : int;  (** gauge: pages the domain holds *)
}

(** [of_metrics m ~domain ~pages] is [domain]'s accounting as [m] holds
    it now. *)
val of_metrics : Metrics.t -> domain:int -> pages:int -> t

(** [sub ~after ~before] — counter fields subtract, [pages] keeps the
    [after] value (it is a gauge). *)
val sub : after:t -> before:t -> t

(** {2 Export} *)

val fields : t -> (string * int) list
val field : t -> string -> int option
val line : t -> string
val to_json : t -> string
