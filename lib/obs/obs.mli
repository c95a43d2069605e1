(** The observability sink: one store per kind of fact. A span
    {!Tracer} and a {!Metrics} registry sit behind a single cheap
    [enabled] flag; the system {!Pm_journal.Journal} records always.
    Everything else is a view: per-domain accounting ({!Acct}) is read
    out of the metrics, and the flight recorder is the journal's tail
    restricted to execution events.

    Every virtual clock owns one of these; instrumented hot paths —
    method dispatch, event delivery, page-fault handling, cross-domain
    proxies, channels, the scheduler — test {!enabled} and skip
    everything (including all cycle charges) when tracing is off, so a
    quiescent tracer costs nothing in simulated cycles. The traced path
    is the one span bracket [Pm_machine.Clock.span]. The journal is the
    exception: it records regardless of the flag, but with plain stores
    and no cycle charges. *)

type t

val create : unit -> t

val enabled : t -> bool
val enable : t -> unit
val disable : t -> unit

val tracer : t -> Tracer.t
val metrics : t -> Metrics.t

(** The system journal: the complete event-sourced history, structural
    mutations included. Its execution tail is the flight recorder. *)
val journal : t -> Pm_journal.Journal.t

(** {2 Conveniences forwarding to the tracer / metrics} *)

val span_begin :
  t -> now:int -> domain:int -> obj:string -> iface:string -> meth:string -> Tracer.token

val span_end : t -> now:int -> Tracer.token -> unit
val observe : t -> domain:int -> string -> int -> unit
val incr : t -> domain:int -> string -> unit
val add : t -> domain:int -> string -> int -> unit
val set_gauge : t -> domain:int -> string -> int -> unit

(** Clears spans, metrics and the journal — and with the metrics every
    accounting view derived from them; leaves [enabled] untouched. *)
val reset : t -> unit

val to_text : t -> string
val to_json : t -> string
