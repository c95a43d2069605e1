(* extend: extension churn, the paper's core act.

   Set-up publishes twelve echo components, rotating Certified (a
   certificate issued off-line by the delegate chain), Verified (real
   Filterc bytecode the loader's verifier must prove) and User placement
   (a user domain, reached through proxies). One op loads a component,
   binds it from the kernel domain, invokes echo, interposes a
   forwarding agent, invokes through it, then undoes both. Every echo is
   checked, the agent's call count is checked, and the name space must
   return to its baseline after each unload.

   Every User cycle leaks one frame (the proxy's entry page is never
   freed on unload), so a machine runs out after about a thousand of
   them. The steady state therefore reboots onto a fresh kernel, trusting
   the same authority and republishing the same images, every
   [generation_ops] ops: no op fails, and the leak is reported as
   [machine.frames_leaked_per_op] instead. *)

open Paramecium
open Common

let components = 12

(* Simulated metrics cover the first [sim_window] steady-state ops. *)
let sim_window = 240
let min_ops = sim_window
let warmup_ops = 24

(* Ops per kernel between reboots: 800 User cycles, well inside the
   ~1,020 frames a freshly set-up machine has free. A multiple of
   [components], so each kernel sees every placement equally. *)
let generation_ops = 2400

type placement = Pcert | Pverified | Puser

let placement_name = function
  | Pcert -> "certified"
  | Pverified -> "verified"
  | Puser -> "user"

type comp = {
  name : string;
  path : string;
  placement : placement;
  code : string;
  cert : Certificate.t option;
  program : Vm.program option;
  image : Loader.image;  (** as published, certificate included *)
}

type rig = {
  sys : System.t;
  k : Kernel.t;
  kdom : Domain.t;
  udom : Domain.t;
  comps : comp array;
  names_baseline : int;
  replacements_baseline : int;
  mutable ops : int;  (** ops run on this kernel *)
}

let echo_construct name : Loader.constructor =
 fun api dom ->
  let iface =
    Iface.make ~name:"echo"
      [
        Iface.meth ~name:"echo" ~args:[ Vtype.Tany ] ~ret:Vtype.Tany (fun _ -> function
          | [ v ] -> Ok v
          | _ -> Error (Oerror.Type_error "echo(any)"));
      ]
  in
  Instance.create api.Api.registry ~class_name:("ext." ^ name) ~domain:dom.Domain.id
    [ iface ]

let name_count k =
  let n = ref 0 in
  Namespace.iter (Directory.namespace (Kernel.directory k)) (fun _ _ -> incr n);
  !n

let free_frames rig = Physmem.free_frames (Machine.phys (Kernel.machine rig.k))

(* A rig on [sys]: its user domain, and every image published. *)
let rig_of sys comps =
  let k = System.kernel sys in
  let udom = System.new_domain sys "ext-user" in
  Array.iter (fun c -> Loader.publish (Kernel.loader k) c.image) comps;
  {
    sys; k; kdom = Kernel.kernel_domain k; udom; comps;
    names_baseline = name_count k;
    replacements_baseline = List.length (Directory.replacements (Kernel.directory k));
    ops = 0;
  }

(* The next kernel: booted fresh, trusting the same authority, so the
   certificates issued at set-up still validate. *)
let reboot rig =
  rig_of (System.with_authority ~seed:system_seed (System.authority rig.sys)) rig.comps

(* Build the twelve components; certificates are issued here, off-line,
   as the paper's section 4 has it. Image sizes are 4-16 KB plus a
   seeded tail, so the digest cost differs between seeds. *)
let setup ~seed () =
  let rng = rng_for seed 3 in
  let sys = create_system () in
  let comps =
    Array.init components (fun i ->
        let name = Printf.sprintf "ext%02d" i in
        let path = "/ext/" ^ name in
        let size = (4096 * (1 + (i / 3 mod 4))) + Random.State.int rng 512 in
        match i mod 3 with
        | 0 ->
          let image =
            Images.image ~name ~size ~author:"kernel-team" ~type_safe:true
              (echo_construct name)
          in
          let image, _ = Images.certify (System.authority sys) ~now:0 image in
          if image.Loader.cert = None then failwith ("extend: no delegate certified " ^ name);
          { name; path; placement = Pcert; code = image.Loader.code;
            cert = image.Loader.cert; program = None; image }
        | 1 ->
          let program =
            match Filterc.compile_string (Printf.sprintf "byte[%d] == %d" (12 + i) (7 * i)) with
            | Ok p -> p
            | Error e -> failwith ("extend: filter compile: " ^ e)
          in
          let code = Vm.encode program in
          let image =
            Images.image ~name ~size:(String.length code) ~author:"anyone"
              (echo_construct name)
          in
          let image = { image with Loader.code; cert = None } in
          { name; path; placement = Pverified; code; cert = None; program = Some program;
            image }
        | _ ->
          let image = Images.image ~name ~size ~author:"anyone" (echo_construct name) in
          { name; path; placement = Puser; code = image.Loader.code; cert = None;
            program = None; image })
  in
  rig_of sys comps

(* ---------------- one op ------------------------------------------- *)

type timers = {
  load : (placement * acc) list;
  load_cyc : (placement * acc) list;  (** [ns] holds cycles here *)
  bind : acc;
  call : acc;
  interpose : acc;
  unload : acc;
}

let timers () =
  let per () = List.map (fun p -> (p, acc ())) [ Pcert; Pverified; Puser ] in
  { load = per (); load_cyc = per (); bind = acc (); call = acc ();
    interpose = acc (); unload = acc () }

exception Op_error of string

let ok_or what = function Ok x -> x | Error e -> raise (Op_error (what ^ ": " ^ e))

let echo rig ~op ~via inst arg =
  let ctx = Kernel.ctx rig.k rig.kdom in
  match Invoke.call ctx inst ~iface:"echo" ~meth:"echo" [ arg ] with
  | Ok v when Value.equal v arg -> ()
  | Ok v ->
    wrong "extend: op %d: echo %s returned %s for %s" op via (Value.to_string v)
      (Value.to_string arg)
  | Error e -> raise (Op_error ("echo " ^ via ^ ": " ^ Oerror.to_string e))

(* The whole cycle on component [c]; raises [Op_error] (or anything the
   system raises) when a step fails, after undoing what it did. *)
let cycle rig tm ~op c arg =
  let api = Kernel.api rig.k in
  let loader = Kernel.loader rig.k in
  let dir = Kernel.directory rig.k in
  let path = Path.of_string c.path in
  let clock = Kernel.clock rig.k in
  let loaded = ref false and swapped = ref None in
  let undo () =
    (match !swapped with
    | Some (agent, prev) -> ignore (Directory.unreplace dir path ~agent ~restore:prev)
    | None -> ());
    if !loaded then ignore (Loader.unload loader path)
  in
  try
    let into = match c.placement with Puser -> rig.udom | Pcert | Pverified -> rig.kdom in
    let verify = c.placement = Pverified in
    let cyc0 = Clock.now clock in
    ignore
      (ok_or "load"
         (Result.map_error Loader.load_error_to_string
            (time_into (List.assoc c.placement tm.load) (fun () ->
                 Loader.load loader ~name:c.name ~into ~at:path ~verify ()))));
    let lc = List.assoc c.placement tm.load_cyc in
    lc.ns <- lc.ns + (Clock.now clock - cyc0);
    lc.calls <- lc.calls + 1;
    loaded := true;
    let bind () =
      ok_or "bind"
        (Result.map_error Directory.bind_error_to_string (Api.bind api rig.kdom path))
    in
    let bound = time_into tm.bind bind in
    time_into tm.call (fun () -> echo rig ~op ~via:"direct" bound arg);
    let agent =
      time_into tm.interpose (fun () ->
          let agent = Interpose.wrap api rig.kdom ~target:bound () in
          let prev = ok_or "attach" (Interpose.attach api ~path:c.path ~agent) in
          swapped := Some (agent, prev);
          agent)
    in
    let via = bind () in
    if via != agent then wrong "extend: op %d: bind after attach missed the agent" op;
    echo rig ~op ~via:"agent" via arg;
    (match
       Invoke.call (Kernel.ctx rig.k rig.kdom) agent ~iface:"monitor" ~meth:"calls" []
     with
    | Ok (Value.Int 1) -> ()
    | Ok v -> wrong "extend: op %d: agent counted %s calls, expected 1" op (Value.to_string v)
    | Error e -> raise (Op_error ("monitor: " ^ Oerror.to_string e)));
    time_into tm.unload (fun () ->
        let agent, prev = Option.get !swapped in
        ok_or "unreplace"
          (Result.map_error Directory.bind_error_to_string
             (Directory.unreplace dir path ~agent ~restore:prev));
        swapped := None;
        ok_or "unload"
          (Result.map_error Loader.load_error_to_string (Loader.unload loader path));
        loaded := false)
  with e ->
    undo ();
    raise e

(* The name space is back to its baseline after every op. *)
let check_baseline rig ~op c =
  let n = name_count rig.k in
  if n <> rig.names_baseline then
    wrong "extend: op %d (%s): %d names bound, baseline %d" op c.name n rig.names_baseline;
  let r = List.length (Directory.replacements (Kernel.directory rig.k)) in
  if r <> rig.replacements_baseline then
    wrong "extend: op %d (%s): %d interpositions logged, baseline %d" op c.name r
      rig.replacements_baseline

(* ---------------- the op loop -------------------------------------- *)

type phase = {
  host : host_log;  (** latency per attempted op, throughput checkpoints *)
  sim_cyc : samples;
  tm : timers;
  mutable ok : int;
  mutable failed : int;
  mutable last_error : string;
  mutable reboots : int;
  mutable frames_leaked : int;
  mutable exec_events : int;  (** journalled, summed over the kernels *)
  mutable struct_events : int;
}

let new_phase () =
  { host = host_log (); sim_cyc = samples (); tm = timers (); ok = 0; failed = 0;
    last_error = ""; reboots = 0; frames_leaked = 0;
    exec_events = 0; struct_events = 0 }

(* Ops visit the twelve components in a fresh seeded order every twelve
   ops, so placements stay balanced. *)
let order rng =
  let a = Array.init components Fun.id in
  for i = components - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let journal_counts rig =
  let j = Obs.journal (Clock.obs (Kernel.clock rig.k)) in
  (Journal.exec_written j, Journal.written j - Journal.exec_written j)

(* Run ops on [!rigr] while [continue] says so, rebooting it every
   [generation_ops]; simulated cycles, leaked frames and journal events
   are summed over the kernels. [on_retire] sees each kernel before its
   reboot. *)
let steady ?(on_retire = ignore) rigr rng ph ~first ~continue =
  let t0 = now_ns () in
  ph.host.t0 <- t0;
  (* cycles of retired kernels, and where the current one started *)
  let cyc_base = ref 0 and rig_cyc0 = ref (Clock.now (Kernel.clock !rigr.k)) in
  let rig_frames0 = ref (free_frames !rigr) and rig_events0 = ref (journal_counts !rigr) in
  let cycles () = !cyc_base + Clock.now (Kernel.clock !rigr.k) - !rig_cyc0 in
  let retire () =
    ph.frames_leaked <- ph.frames_leaked + !rig_frames0 - free_frames !rigr;
    let ex0, st0 = !rig_events0 and ex1, st1 = journal_counts !rigr in
    ph.exec_events <- ph.exec_events + ex1 - ex0;
    ph.struct_events <- ph.struct_events + st1 - st0
  in
  let win = ref None in
  let mark () = win := Some (now_ns () - t0, cycles (), ph.ok, heap_peak_mb ()) in
  let perm = ref (order rng) in
  while continue ~ops:(ph.ok + ph.failed) do
    if !rigr.ops >= generation_ops then begin
      retire ();
      on_retire !rigr;
      cyc_base := cycles ();
      rigr := reboot !rigr;
      ph.reboots <- ph.reboots + 1;
      rig_cyc0 := Clock.now (Kernel.clock !rigr.k);
      rig_frames0 := free_frames !rigr;
      rig_events0 := journal_counts !rigr
    end;
    let rig = !rigr in
    let clock = Kernel.clock rig.k in
    let n = ph.ok + ph.failed in
    if n > 0 && n mod components = 0 then perm := order rng;
    let c = rig.comps.(!perm.(n mod components)) in
    let arg =
      Value.Blob (Bytes.init (32 + Random.State.int rng 32) (fun _ -> Char.chr (Random.State.int rng 256)))
    in
    let op = first + n in
    rig.ops <- rig.ops + 1;
    let h0 = now_ns () and c0 = Clock.now clock in
    (match cycle rig ph.tm ~op c arg with
    | () -> ph.ok <- ph.ok + 1
    | exception (Wrong _ as e) -> raise e
    | exception e ->
      ph.failed <- ph.failed + 1;
      ph.last_error <-
        Printf.sprintf "op %d (%s, %s): %s" op c.name (placement_name c.placement)
          (match e with Op_error s -> s | e -> Printexc.to_string e));
    (* a failed op's time counts too: the placement mix of the latency
       samples stays the mix of the ops issued *)
    let now = now_ns () in
    latency ph.host ~now (float_of_int (now - h0) /. 1e3);
    add ph.sim_cyc (float_of_int (Clock.now clock - c0));
    checkpoint ph.host ~ok:ph.ok ~cyc:(cycles ());
    check_baseline rig ~op c;
    if !win = None && ph.ok + ph.failed >= sim_window then mark ()
  done;
  if !win = None then mark ();
  retire ();
  let win_ns, win_cyc, win_ops, win_heap_mb = Option.get !win in
  { host_ns = now_ns () - t0; win_ns; win_cyc; win_ops; win_heap_mb }

(* ---------------- side calls (traced runs) ------------------------- *)

(* Host us per call of [f], over enough calls to read the clock well. *)
let side_us reps f =
  let a = acc () in
  for _ = 1 to reps do
    ignore (time_into a f)
  done;
  per_call ~div:1e3 a

let side_calls rig =
  let certsvc = Kernel.certification rig.k in
  let cert_of c = Option.get c.cert in
  let certified = List.filter (fun c -> c.cert <> None) (Array.to_list rig.comps) in
  let verified = List.filter (fun c -> c.program <> None) (Array.to_list rig.comps) in
  let mean f l = List.fold_left (fun s c -> s +. f c) 0. l /. float_of_int (List.length l) in
  [
    m "crypto.sha256_us" "us" (mean (fun c -> side_us 20 (fun () -> Sha256.digest c.code)) certified);
    m "crypto.rsa_verify_us" "us"
      (mean (fun c -> side_us 20 (fun () -> assert (Certificate.well_signed (cert_of c)))) certified);
    m "secure.validate_us" "us"
      (mean
         (fun c ->
           side_us 20 (fun () ->
               match Certsvc.validate certsvc (cert_of c) ~code:c.code with
               | Validator.Valid _ -> ()
               | Validator.Invalid f ->
                 failwith ("extend: side validate: " ^ Validator.failure_to_string f)))
         certified);
    m "check.verify_us" "us"
      (mean
         (fun c ->
           side_us 20 (fun () ->
               if not (Verify.ok (Verify.verify (Option.get c.program))) then
                 failwith "extend: side verify rejected the bytecode"))
         verified);
  ]

(* ---------------- run ---------------------------------------------- *)

(* A set-up, warmed rig with its input stream. *)
let ready ~seed () =
  let rig = ref (setup ~seed ()) in
  let rng = rng_for seed 1 in
  ignore (steady rig rng (new_phase ()) ~first:0 ~continue:(fun ~ops -> ops < warmup_ops));
  (rig, rng)

let run ~seed ~continue ~trace =
  let (rig, rng), setup_s = setup_median (ready ~seed) in
  let live0 = live_bytes () and minor0 = minor_words () in
  let ph = new_phase () in
  (* live-heap growth is taken over the first kernel: a reboot drops
     what the old one held *)
  let live_first = ref None in
  let on_retire _ = if trace && !live_first = None then live_first := Some (live_bytes (), ph.ok) in
  let r = steady ~on_retire rig rng ph ~first:warmup_ops ~continue in
  let minor1 = minor_words () in
  let live1, live_ops =
    match !live_first with Some x -> x | None -> (live_bytes (), ph.ok)
  in
  Printf.printf "extend: %d kernel reboots, %d frames leaked\n" ph.reboots ph.frames_leaked;
  if ph.failed > 0 then Printf.printf "extend: %d failed ops, last: %s\n" ph.failed ph.last_error;
  let layers =
    if not trace then []
    else begin
      (* the traced twin: a fresh system with a Full journal, driven by
         the same input stream over the simulated window *)
      let rig_t, rng_t = ready ~seed () in
      let twin_ops = min sim_window (ph.ok + ph.failed) in
      let j = Obs.journal (Clock.obs (Kernel.clock !rig_t.k)) in
      Journal.set_mode j Journal.Full;
      let rt =
        Fun.protect
          ~finally:(fun () -> Journal.set_mode j Journal.Tail)
          (fun () ->
            steady rig_t rng_t (new_phase ()) ~first:warmup_ops
              ~continue:(fun ~ops -> ops < twin_ops))
      in
      let per_op x = ratio x (max 1 ph.ok) in
      let tm = ph.tm in
      List.map
        (fun (p, a) -> m ("nucleus.load_us." ^ placement_name p) "us" (per_call ~div:1e3 a))
        tm.load
      @ List.map
          (fun (p, a) -> m ("nucleus.load_cyc." ^ placement_name p) "cyc" (per_call a))
          tm.load_cyc
      @ side_calls !rig
      @ [
          m "nucleus.bind_us" "us" (per_call ~div:1e3 tm.bind);
          m "nucleus.proxy_call_ns" "ns" (per_call tm.call);
          m "components.interpose_us" "us" (per_call ~div:1e3 tm.interpose);
          m "nucleus.unload_us" "us" (per_call ~div:1e3 tm.unload);
          m "journal.exec_events_per_op" "count" (per_op ph.exec_events);
          m "journal.structural_events_per_op" "count" (per_op ph.struct_events);
          m "machine.frames_leaked_per_op" "count" (per_op ph.frames_leaked);
          m "gc.minor_words_per_op" "words" ((minor1 -. minor0) /. float_of_int (max 1 ph.ok));
          m "gc.live_bytes_per_op" "B" ((live1 -. live0) /. float_of_int (max 1 live_ops));
          m "trace.overhead_pct" "%"
            (overhead_pct ~traced_ns:rt.host_ns ~traced_ops:twin_ops ~plain_ns:r.win_ns
               ~plain_ops:twin_ops);
        ]
    end
  in
  let e2e =
    e2e_metrics ~setup_s ~ok:ph.ok ~failed:ph.failed ~host:ph.host ~sim_cyc:ph.sim_cyc r
  in
  ({ attempted = ph.ok + ph.failed; failed = ph.failed; e2e; layers }, !rig.sys)
