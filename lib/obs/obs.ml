type t = {
  mutable enabled : bool;
  tracer : Tracer.t;
  metrics : Metrics.t;
  journal : Pm_journal.Journal.t;
}

let create () =
  {
    enabled = false;
    tracer = Tracer.create ();
    metrics = Metrics.create ();
    journal = Pm_journal.Journal.create ();
  }

let enabled t = t.enabled
let enable t = t.enabled <- true
let disable t = t.enabled <- false
let tracer t = t.tracer
let metrics t = t.metrics
let journal t = t.journal

let span_begin t ~now ~domain ~obj ~iface ~meth =
  Tracer.begin_span t.tracer ~now ~domain ~obj ~iface ~meth

let span_end t ~now tok = Tracer.end_span t.tracer ~now tok

let observe t ~domain name v = Metrics.observe t.metrics ~domain name v
let incr t ~domain name = Metrics.incr t.metrics ~domain name
let add t ~domain name n = Metrics.add t.metrics ~domain name n
let set_gauge t ~domain name v = Metrics.set_gauge t.metrics ~domain name v

let reset t =
  Tracer.reset t.tracer;
  Metrics.reset t.metrics;
  Pm_journal.Journal.reset t.journal

let to_text t = Tracer.to_text t.tracer ^ "\n" ^ Metrics.to_text t.metrics

let to_json t =
  Printf.sprintf "{\"trace\":%s,\"metrics\":%s}" (Tracer.to_json t.tracer)
    (Metrics.to_json t.metrics)
