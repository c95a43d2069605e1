(* kv: the whole-system path.

   Four client domains each keep one request outstanding. A request is a
   Kvmsg sent over the Netstack_chan rings to a Certified KV server,
   which runs it through log -> cache -> partition -> blkdrv -> the DMA
   block device and answers over the same rings. The benchmark advances
   the kernel one tick at a time and polls every client ring; a
   request's latency runs from its submit to the tick its reply is
   drained. Every get is checked against a model of acknowledged puts. *)

open Paramecium
open Common

let clients = 4
let keys = 64
let cache_lines = 32
let partition_blocks = 1024

(* One op in [put_every] is a put, seeded. The log takes
   partition_blocks-1 records per boot and never compacts, so a boot
   takes at most [put_budget] puts, pre-population included: once they
   are spent the stream's puts turn into gets of the same key. That
   happens after ~120k requests, so the simulated window always has its
   puts and a long run ends read-only. *)
let put_every = 128
let log_capacity = partition_blocks - 1
let put_budget = log_capacity - 16
let warmup_ops = 256

(* Requests between journal folds in the traced run. *)
let chunk = 256

(* Simulated metrics cover the first [sim_window] steady-state requests,
   so they are exact for a seed whatever the host's speed. *)
let sim_window = 4096
let min_ops = sim_window

(* A request stalled this many ticks is a lost reply: it fails. *)
let stall_ticks = 20_000
let server_port = 70
let server_addr = 42

type op = Get of string | Put of string * string

type pending = {
  op : op;
  seq : int;  (** request number, for error messages *)
  sub_ns : int;
  sub_cyc : int;
  sub_tick : int;
  rid : int;
}

type client = {
  dom : Domain.t;
  port : int;
  ring : Chan.t;
  txh : Mpsc.tx;
  mutable pending : pending option;
  mutable next : op option;  (** generated but deferred by a key conflict *)
}

type rig = {
  sys : System.t;
  k : Kernel.t;
  kdom : Domain.t;
  nsc : Netstack_chan.t;
  cache : Instance.t;
  cls : client array;
  model : (string, string) Hashtbl.t;  (** acknowledged puts *)
  busy : (string, int) Hashtbl.t;  (** key -> in-flight ops on it *)
  put_busy : (string, unit) Hashtbl.t;  (** keys with a put in flight *)
  mutable puts : int;  (** puts issued on this boot *)
  mutable tick : int;
  mutable seq : int;
}

let key_name i = Printf.sprintf "key-%02d" i

(* ---------------- boundary agents (traced runs) --------------------- *)

(* Host self time per /store/* boundary: each agent's span minus the
   spans of agents nested inside it. *)
type layer = { lname : string; span : acc }

let store_layers =
  [ ("log", "/store/log0"); ("cache", "/store/cache0");
    ("partition", "/store/part0"); ("blkdrv", "/store/blkdrv") ]

let attach_agents k =
  let kdom = Kernel.kernel_domain k in
  let api = Kernel.api k in
  let stack = ref [] in
  List.map
    (fun (lname, path) ->
      let l = { lname; span = acc () } in
      let target = Kernel.bind k kdom path in
      let on_call ~iface:_ ~meth:_ _ = stack := (now_ns (), ref 0) :: !stack in
      let on_result ~iface:_ ~meth:_ _ _ =
        match !stack with
        | [] -> ()
        | (t0, child) :: rest ->
          let dur = now_ns () - t0 in
          l.span.ns <- l.span.ns + dur - !child;
          l.span.calls <- l.span.calls + 1;
          stack := rest;
          (match rest with (_, pc) :: _ -> pc := !pc + dur | [] -> ())
      in
      let agent = Interpose.wrap api kdom ~target ~on_call ~on_result () in
      (match Interpose.attach api ~path ~agent with
      | Ok _ -> ()
      | Error e -> failwith ("kv: attach at " ^ path ^ ": " ^ e));
      l)
    store_layers

(* ---------------- set-up ------------------------------------------- *)

let setup ~agents () =
  let sys = create_system () in
  let k = System.kernel sys in
  let net =
    System.setup_networking sys ~placement:System.Certified ~addr:server_addr
      ~loopback:true ()
  in
  let nsc, _ = System.channel_net sys net () in
  let store =
    System.setup_store sys ~placement:System.Certified ~count:partition_blocks
      ~cache_capacity:cache_lines ()
  in
  let layers = if agents then attach_agents k else [] in
  let kdom = Kernel.kernel_domain k in
  let api = Kernel.api k in
  let kv = Kv.create api kdom ~name:"kv0" ~log:"/store/log0" () in
  (match Kv.serve api kdom ~kv ~net:nsc ~port:server_port () with
  | Ok _ -> ()
  | Error e -> failwith ("kv: serve: " ^ Oerror.to_string e));
  let cls =
    Array.init clients (fun i ->
        let dom = System.new_domain sys (Printf.sprintf "kvclient%d" i) in
        let port = server_port + 1 + i in
        let ring =
          match Netstack_chan.bind nsc ~port ~owner:dom ~mode:Chan.Poll () with
          | Ok c -> c
          | Error e -> failwith ("kv: bind: " ^ e)
        in
        let txh = Netstack_chan.attach_tx nsc ~producer:dom in
        { dom; port; ring; txh; pending = None; next = None })
  in
  let rig =
    {
      sys; k; kdom; nsc; cache = store.System.block_cache; cls;
      model = Hashtbl.create keys; busy = Hashtbl.create keys;
      put_busy = Hashtbl.create 8; puts = 0; tick = 0; seq = 0;
    }
  in
  (rig, layers)

(* ---------------- the op loop -------------------------------------- *)

type phase = {
  host : host_log;  (** latency per request, throughput checkpoints *)
  sim_cyc : samples;
  client : acc;  (** build, submit, drain_tx, recv_batch, parse *)
  step : acc;  (** Kernel.step: all server-side work *)
  mutable ok : int;
  mutable failed : int;
  traced : Journal.t option;  (** journal in Full mode when tracing *)
}

let new_phase traced =
  { host = host_log (); sim_cyc = samples (); client = acc (); step = acc ();
    ok = 0; failed = 0; traced }

let mmu rig = Machine.mmu (Kernel.machine rig.k)
let clock rig = Kernel.clock rig.k

let conflicts rig = function
  | Get key -> Hashtbl.mem rig.put_busy key
  | Put (key, _) -> Hashtbl.mem rig.busy key

let mark_busy rig op delta =
  let key, is_put = match op with Get k -> (k, false) | Put (k, _) -> (k, true) in
  let n = (try Hashtbl.find rig.busy key with Not_found -> 0) + delta in
  if n = 0 then Hashtbl.remove rig.busy key else Hashtbl.replace rig.busy key n;
  if is_put then
    if delta > 0 then Hashtbl.replace rig.put_busy key ()
    else Hashtbl.remove rig.put_busy key

(* The next op of the seeded stream; [n] makes put values unique. *)
let gen rig rng n =
  let key = key_name (Random.State.int rng keys) in
  let put = Random.State.int rng put_every = 0 in
  let len = 8 + Random.State.int rng 48 in
  if put && rig.puts < put_budget then
    Put (key, Printf.sprintf "v%d.%s" n (String.make len (Char.chr (97 + (n mod 26)))))
  else Get key

let submit rig ph c op =
  if (match op with Put _ -> true | Get _ -> false) && rig.puts >= log_capacity then
    failwith "kv: a put past the log's capacity";
  let m = mmu rig in
  let rid =
    match ph.traced with
    | None -> 0
    | Some j ->
      Journal.req_begin j ~domain:c.dom.Domain.id ~at:(Clock.now (clock rig))
        ~detail:(match op with Get k -> "get " ^ k | Put (k, _) -> "put " ^ k)
  in
  let sub_ns = now_ns () in
  let sub_cyc = Clock.now (clock rig) in
  time_into ph.client (fun () ->
      Mmu.switch_context m c.dom.Domain.id;
      let cctx = Kernel.ctx rig.k c.dom in
      let req =
        match op with
        | Get key ->
          Storewire.Kvmsg.build_req cctx ~op:Storewire.kv_get
            ~key:(Bytes.of_string key) Bytes.empty
        | Put (key, v) ->
          Storewire.Kvmsg.build_req cctx ~op:Storewire.kv_put
            ~key:(Bytes.of_string key) (Bytes.of_string v)
      in
      if
        not
          (Netstack_chan.submit c.txh cctx ~dst:server_addr ~sport:c.port
             ~dport:server_port req)
      then wrong "kv: request %d: transmit ring full with one outstanding" rig.seq);
  (match op with Put _ -> rig.puts <- rig.puts + 1 | Get _ -> ());
  mark_busy rig op 1;
  c.pending <- Some { op; seq = rig.seq; sub_ns; sub_cyc; sub_tick = rig.tick; rid };
  rig.seq <- rig.seq + 1

(* A reply arrived for [p]: check it, then account it. *)
let complete rig ph c p (resp : Storewire.Kvmsg.resp) =
  let now_cyc = Clock.now (clock rig) and now = now_ns () in
  (match ph.traced with
  | Some j -> Journal.req_end j ~domain:c.dom.Domain.id ~at:now_cyc p.rid
  | None -> ());
  c.pending <- None;
  mark_busy rig p.op (-1);
  let status = resp.Storewire.Kvmsg.status in
  if status = Storewire.Kvmsg.status_error then ph.failed <- ph.failed + 1
  else begin
    (match p.op with
    | Put (key, v) ->
      if status <> Storewire.Kvmsg.status_ok then
        wrong "kv: request %d: put %s answered status %d" p.seq key status;
      Hashtbl.replace rig.model key v
    | Get key -> (
      let got = Bytes.to_string resp.Storewire.Kvmsg.payload in
      match Hashtbl.find_opt rig.model key with
      | Some v when status = Storewire.Kvmsg.status_ok && String.equal v got -> ()
      | None when status = Storewire.Kvmsg.status_not_found -> ()
      | expect ->
        wrong "kv: request %d: get %s returned status %d %S, model holds %s"
          p.seq key status got
          (match expect with Some v -> Printf.sprintf "%S" v | None -> "nothing")));
    ph.ok <- ph.ok + 1;
    latency ph.host ~now (float_of_int (now - p.sub_ns) /. 1e3);
    add ph.sim_cyc (float_of_int (now_cyc - p.sub_cyc))
  end

let poll rig ph c =
  match c.pending with
  | None -> ()
  | Some p ->
    let replies =
      time_into ph.client (fun () ->
          Mmu.switch_context (mmu rig) c.dom.Domain.id;
          let cctx = Kernel.ctx rig.k c.dom in
          List.map
            (fun msg ->
              match Netwire.Delivery.parse cctx msg with
              | Error e -> wrong "kv: request %d: bad delivery: %s" p.seq e
              | Ok d -> (
                match Storewire.Kvmsg.parse_resp cctx d.Netwire.Delivery.payload with
                | Error e -> wrong "kv: request %d: bad response: %s" p.seq e
                | Ok r -> r))
            (Chan.recv_batch c.ring ()))
    in
    match replies with
    | [] ->
      if rig.tick - p.sub_tick > stall_ticks then begin
        c.pending <- None;
        mark_busy rig p.op (-1);
        ph.failed <- ph.failed + 1
      end
    | [ r ] -> complete rig ph c p r
    | _ -> wrong "kv: request %d: %d replies to one request" p.seq (List.length replies)

(* One round: idle clients submit their next op while fewer than
   [outstanding] requests are in flight (an op that would race an
   in-flight op on the same key waits), the kernel advances one tick,
   and every ring is polled. Clients take turns starting the round. *)
let round rig ph rng ~outstanding =
  let in_flight = ref (Array.fold_left (fun n c -> if c.pending = None then n else n + 1) 0 rig.cls) in
  let first = rig.seq in
  for i = 0 to clients - 1 do
    let c = rig.cls.((first + i) mod clients) in
    if c.pending = None && !in_flight < outstanding then begin
      let op = match c.next with Some op -> op | None -> gen rig rng rig.seq in
      if conflicts rig op then c.next <- Some op
      else begin
        c.next <- None;
        submit rig ph c op;
        incr in_flight
      end
    end
  done;
  Mmu.switch_context (mmu rig) rig.kdom.Domain.id;
  ignore (time_into ph.client (fun () -> Netstack_chan.drain_tx rig.nsc));
  time_into ph.step (fun () -> Kernel.step rig.k ~ticks:1 ());
  rig.tick <- rig.tick + 1;
  Array.iter (fun c -> poll rig ph c) rig.cls;
  Mmu.switch_context (mmu rig) rig.kdom.Domain.id

let idle rig = Array.for_all (fun c -> c.pending = None) rig.cls

let drain rig ph rng =
  while not (idle rig) do
    round rig ph rng ~outstanding:0
  done

(* Pre-populate every key through the wire, so gets hit the store. *)
let populate rig rng =
  let ph = new_phase None in
  for i = 0 to keys - 1 do
    let c = rig.cls.(i mod clients) in
    if c.pending <> None then drain rig ph rng;
    submit rig ph c (Put (key_name i, Printf.sprintf "init-%d" i))
  done;
  drain rig ph rng;
  if ph.failed > 0 then failwith "kv: pre-population failed"

(* ---------------- measurement -------------------------------------- *)

let cache_stats rig =
  let ctx = Kernel.ctx rig.k rig.kdom in
  match Invoke.call ctx rig.cache ~iface:"block" ~meth:"stats" [] with
  | Ok (Value.List (Value.Int hits :: Value.Int misses :: _)) -> (hits, misses)
  | _ -> failwith "kv: cache stats unreadable"

type counts = {
  doorbells : int;
  cas : int;
  media : int;
  exec_ev : int;
  struct_ev : int;
  hits : int;
  misses : int;
}

let counts rig =
  let c = clock rig in
  let j = Obs.journal (Clock.obs c) in
  let hits, misses = cache_stats rig in
  {
    doorbells = Clock.counter c "chan_doorbell" + Clock.counter c "mpsc_doorbell";
    cas = Clock.counter c "mpsc_cas_retry";
    media = Clock.counter c "blk_issue";
    exec_ev = Journal.exec_written j;
    struct_ev = Journal.written j - Journal.exec_written j;
    hits;
    misses;
  }

(* Run the steady state until [continue ~ops] says stop, with up to
   [outstanding] requests in flight. When [on_chunk] is given the
   clients drain every [chunk] requests and it runs at that quiet
   point (the traced run folds its journal there). *)
let steady ?on_chunk rig rng ph ~outstanding ~continue =
  let c = clock rig in
  let start_cyc = Clock.now c and t0 = now_ns () in
  ph.host.t0 <- t0;
  let win = ref None and last_chunk = ref 0 in
  let mark () =
    win := Some (now_ns () - t0, Clock.now c - start_cyc, ph.ok, heap_peak_mb ())
  in
  while continue ~ops:(ph.ok + ph.failed) do
    round rig ph rng ~outstanding;
    checkpoint ph.host ~ok:ph.ok ~cyc:(Clock.now c - start_cyc);
    let done_ = ph.ok + ph.failed in
    if !win = None && done_ >= sim_window then mark ();
    match on_chunk with
    | Some f when done_ - !last_chunk >= chunk ->
      drain rig ph rng;
      f ();
      last_chunk := ph.ok + ph.failed
    | _ -> ()
  done;
  drain rig ph rng;
  if !win = None then mark ();
  let win_ns, win_cyc, win_ops, win_heap_mb = Option.get !win in
  { host_ns = now_ns () - t0; win_ns; win_cyc; win_ops; win_heap_mb }

(* A booted, populated and warmed rig, with its input stream. *)
let ready ~agents ~seed =
  let rig, layers = setup ~agents () in
  populate rig (rng_for seed 1);
  let rng = rng_for seed 2 in
  ignore
    (steady rig rng (new_phase None) ~outstanding:clients
       ~continue:(fun ~ops -> ops < warmup_ops));
  (rig, layers, rng)

(* The traced runs. Trace's ambient request id is one register, and the
   server opens its "kv" span before it restores the request's id from
   the message, so spans are attributed right only with one request in
   flight: both twins run the same stream one request at a time, one
   plain and one with boundary agents, a Full journal and tracing on.
   The trace overhead compares the two. *)
let traced_twins ~seed ~ops =
  let plain, _, rng_p = ready ~agents:false ~seed in
  let rp =
    steady plain rng_p (new_phase None) ~outstanding:1 ~continue:(fun ~ops:n -> n < ops)
  in
  let rig, agents, rng = ready ~agents:true ~seed in
  let j = Obs.journal (Clock.obs (clock rig)) in
  let totals = Hashtbl.create 8 and folded = ref 0 in
  let fold () =
    match Query.fold ~complete:(Journal.compacted j = 0) (Journal.history j) with
    | Error e -> failwith ("kv: trace fold: " ^ e)
    | Ok reqs ->
      folded := !folded + List.length reqs;
      List.iter
        (fun (l, cyc) ->
          Hashtbl.replace totals l (cyc + try Hashtbl.find totals l with Not_found -> 0))
        (Query.layer_totals reqs);
      (* restart the Full stream so the history stays one chunk long *)
      Journal.set_mode j Journal.Tail;
      Journal.set_mode j Journal.Full
  in
  Journal.set_mode j Journal.Full;
  Trace.set_enabled true;
  let ph = new_phase (Some j) in
  let rt =
    Fun.protect
      ~finally:(fun () ->
        Trace.set_enabled false;
        Trace.clear ();
        Journal.set_mode j Journal.Tail)
      (fun () ->
        let r =
          steady rig rng ph ~on_chunk:fold ~outstanding:1 ~continue:(fun ~ops:n -> n < ops)
        in
        fold ();
        r)
  in
  if !folded <> ph.ok then
    failwith (Printf.sprintf "kv: trace folded %d requests of %d" !folded ph.ok);
  let q l = ratio (try Hashtbl.find totals l with Not_found -> 0) !folded in
  List.map (fun l -> m (Printf.sprintf "store.%s.self_ns" l.lname) "ns" (per_call l.span)) agents
  @ List.map
      (fun l -> m (Printf.sprintf "query.%s_cyc_per_req" l) "cyc" (q l))
      [ "net"; "kv"; "log"; "cache"; "partition"; "driver"; "media" ]
  @ [
      m "trace.overhead_pct" "%"
        (overhead_pct ~traced_ns:rt.host_ns ~traced_ops:ops ~plain_ns:rp.host_ns ~plain_ops:ops);
    ]

let run ~seed ~continue ~trace =
  let (rig, _, rng), setup_s =
    setup_median (fun () -> ready ~agents:false ~seed)
  in
  let before = counts rig in
  let live0 = live_bytes () and minor0 = minor_words () in
  let ph = new_phase None in
  let r = steady rig rng ph ~outstanding:clients ~continue in
  let minor1 = minor_words () and live1 = live_bytes () in
  let after = counts rig in
  let layers =
    if not trace then []
    else begin
      let per_req x = ratio x ph.ok in
      [
        m "net.client_ns_per_req" "ns" (per_req ph.client.ns);
        m "nucleus.step_ns_per_req" "ns" (per_req ph.step.ns);
        m "store.cache.hit_ratio" "ratio"
          (ratio (after.hits - before.hits)
             (after.hits - before.hits + after.misses - before.misses));
        m "machine.blk.media_ops_per_req" "count" (per_req (after.media - before.media));
        m "chan.doorbells_per_op" "count" (per_req (after.doorbells - before.doorbells));
        m "chan.mpsc_cas_retry" "count" (float_of_int (after.cas - before.cas));
        m "journal.exec_events_per_op" "count" (per_req (after.exec_ev - before.exec_ev));
        m "journal.structural_events_per_op" "count" (per_req (after.struct_ev - before.struct_ev));
        m "gc.minor_words_per_op" "words" ((minor1 -. minor0) /. float_of_int (max 1 ph.ok));
        m "gc.live_bytes_per_op" "B" ((live1 -. live0) /. float_of_int (max 1 ph.ok));
      ]
      @ traced_twins ~seed ~ops:(min sim_window (ph.ok + ph.failed))
    end
  in
  let e2e =
    e2e_metrics ~setup_s ~ok:ph.ok ~failed:ph.failed ~host:ph.host ~sim_cyc:ph.sim_cyc r
  in
  ({ attempted = ph.ok + ph.failed; failed = ph.failed; e2e; layers }, rig.sys)
