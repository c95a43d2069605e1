(* smp_flows: sixteen producer/consumer flows on a 4-CPU complex.

   Each flow is a Doorbell ring with cache-line pricing on; producers
   and consumers use the blocking Chan.send / Chan.recv. Every flow
   starts on CPUs 0-1 and stealing is on, so idle CPUs 2-3 pull work
   over. Half the consumer domains are pinned to another CPU than their
   producer's, so their doorbells ride IPIs and their ring traffic moves
   cache lines. The run is a sequence of rounds: in each, every flow
   sends a seeded number of sequence-numbered messages and the complex
   runs to quiescence; every consumer must receive exactly its
   producer's stream, in order. *)

open Paramecium
open Common

let cpus = 4
let flows = 16
let payload = 48
let slots = 8

(* Messages per flow per round are seeded in [min_msgs, max_msgs]. *)
let min_msgs = 16
let max_msgs = 48

(* Simulated metrics cover the first [sim_window] steady-state rounds. *)
let sim_window = 96
let warmup_rounds = 4

(* Steady-state messages that guarantee [sim_window] whole rounds. *)
let min_ops = sim_window * flows * max_msgs

type flow = {
  id : int;
  pdom : Domain.t;
  cdom : Domain.t;
  chan : Chan.t;
  home : int;  (** the CPU the flow's threads start on *)
}

type rig = {
  sys : System.t;
  k : Kernel.t;
  smp : Smp.t;
  cpx : Cpu.t;
  fl : flow array;
}

let setup () =
  let sys = create_system ~cpus () in
  let k = System.kernel sys in
  let smp = Option.get (System.smp sys) and cpx = Option.get (System.cpu sys) in
  let machine = Kernel.machine k in
  let fl =
    Array.init flows (fun id ->
        let pdom = System.new_domain sys (Printf.sprintf "flow%d-p" id) in
        let cdom = System.new_domain sys (Printf.sprintf "flow%d-c" id) in
        let chan =
          Chan.create machine (Kernel.vmem k) ~name:(Printf.sprintf "flow%d" id) ~slots
            ~slot_size:64 ~mode:Chan.Doorbell ~producer:pdom ()
        in
        ignore (Chan.accept chan ~into:cdom);
        Chan.set_cacheline_priced chan true;
        let home = id mod 2 in
        Cpu.pin cpx ~domain:pdom.Domain.id ~cpu:home;
        (* odd pairs: the consumer lives two CPUs over *)
        let ccpu = if id / 2 mod 2 = 1 then home + 2 else home in
        Cpu.pin cpx ~domain:cdom.Domain.id ~cpu:ccpu;
        { id; pdom; cdom; chan; home })
  in
  { sys; k; smp; cpx; fl }

(* ---------------- messages ----------------------------------------- *)

let filler flow seq i = Char.chr ((flow * 131 + seq * 31 + i) land 0xff)

let message flow seq =
  let b = Bytes.create payload in
  Bytes.set_int32_le b 0 (Int32.of_int flow);
  Bytes.set_int32_le b 4 (Int32.of_int seq);
  for i = 8 to payload - 1 do
    Bytes.set b i (filler flow seq i)
  done;
  b

(* The first mismatch seen in a round, reported after the round. *)
let check flow expect msg =
  if Bytes.length msg <> payload then
    Some (Printf.sprintf "flow %d: message %d is %d bytes" flow expect (Bytes.length msg))
  else begin
    let f = Int32.to_int (Bytes.get_int32_le msg 0)
    and s = Int32.to_int (Bytes.get_int32_le msg 4) in
    if f <> flow then Some (Printf.sprintf "flow %d: received flow %d's message" flow f)
    else if s <> expect then
      Some (Printf.sprintf "flow %d: expected message %d, received %d" flow expect s)
    else begin
      let bad = ref None in
      for i = 8 to payload - 1 do
        if !bad = None && Bytes.get msg i <> filler flow s i then
          bad := Some (Printf.sprintf "flow %d: message %d corrupt at byte %d" flow s i)
      done;
      !bad
    end
  end

(* ---------------- rounds ------------------------------------------- *)

type phase = {
  host : host_log;  (** host us per message, one sample per round *)
  sim_cyc : samples;  (** send-to-receive cycles, one sample per message *)
  send : acc;
  recv : acc;
  mutable ok : int;
  mutable failed : int;
  mutable rounds : int;
  mutable seq : int;  (** messages sent so far, per flow base *)
  timed_calls : bool;
}

let new_phase ~timed_calls =
  { host = host_log (); sim_cyc = samples (); send = acc (); recv = acc (); ok = 0;
    failed = 0; rounds = 0; seq = 0; timed_calls }

let round rig ph rng =
  let counts = Array.init flows (fun _ -> min_msgs + Random.State.int rng (max_msgs - min_msgs + 1)) in
  let base = ph.seq in
  let sent_at = Array.map (fun n -> Array.make n 0) counts in
  let got = Array.make flows 0 in
  let error = ref None in
  let note e = if !error = None then error := e in
  let clock_of_current () = Cpu.clock_of rig.cpx (Cpu.current rig.cpx) in
  Array.iter
    (fun f ->
      let n = counts.(f.id) in
      let producer () =
        for s = 0 to n - 1 do
          let msg = message f.id (base + s) in
          sent_at.(f.id).(s) <- Clock.now (clock_of_current ());
          if ph.timed_calls then begin
            let t0 = now_ns () in
            if Chan.try_send f.chan msg then begin
              ph.send.ns <- ph.send.ns + (now_ns () - t0);
              ph.send.calls <- ph.send.calls + 1
            end
            else Chan.send f.chan msg
          end
          else Chan.send f.chan msg
        done
      in
      let consumer () =
        for s = 0 to n - 1 do
          let msg =
            if ph.timed_calls then begin
              let t0 = now_ns () in
              match Chan.try_recv f.chan with
              | Some msg ->
                ph.recv.ns <- ph.recv.ns + (now_ns () - t0);
                ph.recv.calls <- ph.recv.calls + 1;
                msg
              | None -> Chan.recv f.chan
            end
            else Chan.recv f.chan
          in
          add ph.sim_cyc (float_of_int (Clock.now (clock_of_current ()) - sent_at.(f.id).(s)));
          note (check f.id (base + s) msg);
          got.(f.id) <- got.(f.id) + 1
        done
      in
      ignore (Smp.spawn_on rig.smp f.home ~domain:f.cdom.Domain.id consumer);
      ignore (Smp.spawn_on rig.smp f.home ~domain:f.pdom.Domain.id producer))
    rig.fl;
  ignore (Smp.run ~steal:true rig.smp);
  (match !error with Some e -> wrong "smp_flows: round %d: %s" ph.rounds e | None -> ());
  Array.iteri
    (fun i n ->
      if got.(i) < n then ph.failed <- ph.failed + (n - got.(i));
      ph.ok <- ph.ok + got.(i))
    counts;
  ph.seq <- base + max_msgs;
  ph.rounds <- ph.rounds + 1;
  Array.fold_left ( + ) 0 counts

type snap = {
  makespan : int;
  cycles : int array;
  synced : int array;
  steals : int;
  switches : int;
  ipis : int;
  cachelines : int;
  doorbells : int;
  cas : int;
  exec_ev : int;
  struct_ev : int;
}

let snap rig =
  let st = Cpu.all_stats rig.cpx in
  let j = Obs.journal (Clock.obs (Kernel.clock rig.k)) in
  let total name = Cpu.counter_total rig.cpx name in
  {
    makespan = Cpu.makespan rig.cpx;
    cycles = Array.of_list (List.map (fun s -> s.Cpu.cycles) st);
    synced = Array.of_list (List.map (fun s -> s.Cpu.synced) st);
    steals = Smp.stats rig.smp `Steals;
    switches =
      List.fold_left ( + ) 0
        (List.init cpus (fun c -> Scheduler.stats (Smp.sched rig.smp c) `Switches));
    ipis = total "ipi";
    cachelines = total "chan_cacheline";
    doorbells = total "chan_doorbell";
    cas = total "mpsc_cas_retry";
    exec_ev = Journal.exec_written j;
    struct_ev = Journal.written j - Journal.exec_written j;
  }

(* Run rounds until [continue ~ops]; returns the run stats and the
   snapshots at the start and at the end of the simulated window. *)
let steady rig rng ph ~continue =
  let s0 = snap rig in
  let win = ref None in
  let t0 = now_ns () in
  ph.host.t0 <- t0;
  let mark () = win := Some (now_ns () - t0, snap rig, ph.ok, heap_peak_mb ()) in
  let sum a = Array.fold_left ( + ) 0 a in
  let cyc0 = sum s0.cycles in
  while continue ~ops:(ph.ok + ph.failed) do
    let h0 = now_ns () in
    let n = round rig ph rng in
    let now = now_ns () in
    latency ph.host ~now (float_of_int (now - h0) /. 1e3 /. float_of_int n);
    checkpoint ph.host ~ok:ph.ok
      ~cyc:(List.fold_left (fun a s -> a + s.Cpu.cycles) 0 (Cpu.all_stats rig.cpx) - cyc0);
    if !win = None && ph.rounds >= sim_window then mark ()
  done;
  let host_ns = now_ns () - t0 in
  if !win = None then mark ();
  let win_ns, sw, win_ops, win_heap_mb = Option.get !win in
  ( { host_ns; win_ns; win_cyc = sw.makespan - s0.makespan; win_ops; win_heap_mb },
    s0,
    sw )

(* A set-up, warmed complex with its input stream and the next
   message number. *)
let ready ~seed () =
  let rig = setup () in
  let rng = rng_for seed 1 in
  let ph = new_phase ~timed_calls:false in
  for _ = 1 to warmup_rounds do
    ignore (round rig ph rng)
  done;
  (rig, rng, ph.seq)

let run ~seed ~continue ~trace =
  let (rig, rng, seq), setup_s = setup_median (ready ~seed) in
  let ph = { (new_phase ~timed_calls:false) with seq } in
  let live0 = live_bytes () and minor0 = minor_words () in
  let r, s0, sw = steady rig rng ph ~continue in
  let minor1 = minor_words () and live1 = live_bytes () in
  let layers =
    if not trace then []
    else begin
      (* the traced twin: a fresh complex with a Full journal and the
         channel calls timed inside the flow bodies, same input stream,
         over the simulated window *)
      let rig_t, rng_t, seq = ready ~seed () in
      let j = Obs.journal (Clock.obs (Kernel.clock rig_t.k)) in
      Journal.set_mode j Journal.Full;
      let tph = { (new_phase ~timed_calls:true) with seq } in
      let rt, _, _ =
        Fun.protect
          ~finally:(fun () -> Journal.set_mode j Journal.Tail)
          (fun () -> steady rig_t rng_t tph ~continue:(fun ~ops:_ -> tph.rounds < min sim_window ph.rounds))
      in
      let per_op x = ratio x r.win_ops in
      let busy =
        Array.init cpus (fun c ->
            ratio (sw.cycles.(c) - s0.cycles.(c) - (sw.synced.(c) - s0.synced.(c))) r.win_cyc)
      in
      let mean_busy = Array.fold_left ( +. ) 0. busy /. float_of_int cpus in
      let line_cyc =
        Chan.lines_of_msg payload * (Machine.costs (Kernel.machine rig.k)).Cost.cacheline
      in
      [
        m "chan.send_ns" "ns" (per_call tph.send);
        m "chan.recv_ns" "ns" (per_call tph.recv);
        m "threads.steals" "count" (float_of_int (sw.steals - s0.steals));
        m "threads.switches_per_op" "count" (per_op (sw.switches - s0.switches));
        m "machine.ipis_per_op" "count" (per_op (sw.ipis - s0.ipis));
        m "chan.cacheline_cyc_per_op" "cyc" (per_op ((sw.cachelines - s0.cachelines) * line_cyc));
        m "chan.doorbells_per_op" "count" (per_op (sw.doorbells - s0.doorbells));
        m "chan.mpsc_cas_retry" "count" (float_of_int (sw.cas - s0.cas));
      ]
      @ List.init cpus (fun c -> m (Printf.sprintf "machine.cpu_busy_frac.%d" c) "ratio" busy.(c))
      @ [
          m "machine.cpu_imbalance" "ratio"
            (if mean_busy = 0. then 0. else Array.fold_left max 0. busy /. mean_busy);
          m "journal.exec_events_per_op" "count" (per_op (sw.exec_ev - s0.exec_ev));
          m "journal.structural_events_per_op" "count" (per_op (sw.struct_ev - s0.struct_ev));
          m "gc.minor_words_per_op" "words" ((minor1 -. minor0) /. float_of_int (max 1 ph.ok));
          m "gc.live_bytes_per_op" "B" ((live1 -. live0) /. float_of_int (max 1 ph.ok));
          m "trace.overhead_pct" "%"
            (overhead_pct ~traced_ns:rt.host_ns ~traced_ops:rt.win_ops ~plain_ns:r.win_ns
               ~plain_ops:r.win_ops);
        ]
    end
  in
  let e2e =
    e2e_metrics ~setup_s ~ok:ph.ok ~failed:ph.failed ~host:ph.host ~sim_cyc:ph.sim_cyc r
  in
  ({ attempted = ph.ok + ph.failed; failed = ph.failed; e2e; layers }, rig.sys)
