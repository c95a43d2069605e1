(* The two-clock benchmark runner.

     pbench.exe --workload kv|extend|smp_flows --seed N --seconds S --trace 0|1
                [--metric NAME]...
     pbench.exe --list
     pbench.exe --selftest

   With --trace 0 it prints every end-to-end metric of the workload,
   with --trace 1 every per-layer metric (a traced twin run supplies the
   span-based ones). Each metric is printed as "name value unit", then
   the last line is one JSON object:
   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}.
   A wrong output aborts with exit 1 and a message naming the workload
   and op; a bad argument exits 2 with a named error. *)

open Paramecium
open Common

(* ---------------- the metric catalogue ----------------------------- *)

let e2e_catalogue =
  [
    ("setup_s", "s"); ("ops_per_s", "1/s"); ("host_us_p50", "us"); ("host_us_p99", "us");
    ("sim_cyc_p50", "cyc"); ("sim_cyc_p99", "cyc"); ("sim_ops_per_mcyc", "1/Mcyc");
    ("sim_mcyc_per_s", "Mcyc/s"); ("ok_ratio", "ratio"); ("heap_peak_mb", "MB");
  ]

(* Every per-layer metric, in print order. A workload that does not
   exercise a layer reports 0 for it. *)
let layer_catalogue =
  [
    (* kv *)
    ("net.client_ns_per_req", "ns"); ("nucleus.step_ns_per_req", "ns");
    ("store.log.self_ns", "ns"); ("store.cache.self_ns", "ns");
    ("store.partition.self_ns", "ns"); ("store.blkdrv.self_ns", "ns");
    ("query.net_cyc_per_req", "cyc"); ("query.kv_cyc_per_req", "cyc");
    ("query.log_cyc_per_req", "cyc"); ("query.cache_cyc_per_req", "cyc");
    ("query.partition_cyc_per_req", "cyc"); ("query.driver_cyc_per_req", "cyc");
    ("query.media_cyc_per_req", "cyc"); ("store.cache.hit_ratio", "ratio");
    ("machine.blk.media_ops_per_req", "count");
    (* extend *)
    ("nucleus.load_us.certified", "us"); ("nucleus.load_us.verified", "us");
    ("nucleus.load_us.user", "us"); ("nucleus.load_cyc.certified", "cyc");
    ("nucleus.load_cyc.verified", "cyc"); ("nucleus.load_cyc.user", "cyc");
    ("crypto.sha256_us", "us"); ("crypto.rsa_verify_us", "us");
    ("secure.validate_us", "us"); ("check.verify_us", "us"); ("nucleus.bind_us", "us");
    ("nucleus.proxy_call_ns", "ns"); ("components.interpose_us", "us");
    ("nucleus.unload_us", "us");
    (* smp_flows *)
    ("chan.send_ns", "ns"); ("chan.recv_ns", "ns"); ("threads.steals", "count");
    ("threads.switches_per_op", "count"); ("machine.ipis_per_op", "count");
    ("chan.cacheline_cyc_per_op", "cyc"); ("machine.cpu_busy_frac.0", "ratio");
    ("machine.cpu_busy_frac.1", "ratio"); ("machine.cpu_busy_frac.2", "ratio");
    ("machine.cpu_busy_frac.3", "ratio"); ("machine.cpu_imbalance", "ratio");
    (* every workload *)
    ("chan.doorbells_per_op", "count"); ("chan.mpsc_cas_retry", "count");
    ("journal.exec_events_per_op", "count"); ("journal.structural_events_per_op", "count");
    ("machine.free_frames_end", "count"); ("nucleus.proxy_count_end", "count");
    ("machine.frames_leaked_per_op", "count");
    ("secure.keygen_s", "s"); ("nucleus.boot_s", "s"); ("core.wiring_s", "s");
    ("gc.minor_words_per_op", "words"); ("gc.live_bytes_per_op", "B");
    ("trace.overhead_pct", "%");
  ]

(* ---------------- workloads ---------------------------------------- *)

type workload = {
  wname : string;
  cpus : int;
  min_ops : int;
  run :
    seed:int -> continue:(ops:int -> bool) -> trace:bool -> outcome * System.t;
}

let workloads =
  [
    { wname = "kv"; cpus = 1; min_ops = Wl_kv.min_ops; run = Wl_kv.run };
    { wname = "extend"; cpus = 1; min_ops = Wl_extend.min_ops; run = Wl_extend.run };
    { wname = "smp_flows"; cpus = Wl_smp.cpus; min_ops = Wl_smp.min_ops; run = Wl_smp.run };
  ]

(* Run for [seconds] of host time and at least [min_ops] ops, or for
   exactly [ops] ops when given. The clock starts at the first call. *)
let make_continue ~seconds ~min_ops ~ops =
  match ops with
  | Some n -> fun ~ops -> ops < n
  | None ->
    let t0 = ref None in
    fun ~ops ->
      let now = now_ns () in
      let t0 = match !t0 with Some t -> t | None -> t0 := Some now; now in
      ops < min_ops || secs_of_ns (now - t0) < seconds

(* ---------------- set-up split (traced runs) ----------------------- *)

(* The pieces of set-up timed on their own: the authority's keys (the
   CA plus the four standard delegates) and a bare kernel boot; the
   wiring is what set-up spent outside System.create. *)
let setup_split w =
  let median f = median_of (List.init (max 1 !setups) (fun _ -> secs_of_ns (snd (timed f)))) in
  let keygen () =
    let rng = Prng.create ~seed:system_seed in
    let a = Authority.create rng ~name:"certification-authority" ~key_bits:512 in
    List.iter
      (fun (name, policy, latency) ->
        ignore (Authority.add_delegate a rng ~name ~policy ~latency ()))
      [
        ("trusted-compiler", Policies.trusted_compiler, Policies.latency_compiler);
        ("prover", Policies.prover, Policies.latency_prover);
        ("test-team", Policies.test_team, Policies.latency_test_team);
        ( "administrator",
          Policies.administrator ~trusted_authors:[ "kernel-team" ],
          Policies.latency_administrator );
      ];
    a
  in
  let last = ref None in
  let keygen_s = median (fun () -> last := Some (keygen ())) in
  let root = Authority.ca (Option.get !last) in
  let boot_s = median (fun () -> Kernel.boot ~cpus:w.cpus ~root ()) in
  [
    m "secure.keygen_s" "s" keygen_s;
    m "nucleus.boot_s" "s" boot_s;
    m "core.wiring_s" "s" !wiring_s;
  ]

let end_state sys =
  let k = System.kernel sys in
  [
    m "machine.free_frames_end" "count"
      (float_of_int (Physmem.free_frames (Machine.phys (Kernel.machine k))));
    m "nucleus.proxy_count_end" "count"
      (float_of_int (Directory.proxy_count (Kernel.directory k)));
  ]

(* Order the workload's layer metrics by the catalogue, 0 where the
   workload has none; a name outside the catalogue is a bug. *)
let complete_layers ms =
  List.iter
    (fun x ->
      if not (List.mem_assoc x.name layer_catalogue) then
        failwith ("pbench: workload produced uncatalogued metric " ^ x.name))
    ms;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) ms with
      | Some x ->
        if x.unit_ <> unit_ then failwith ("pbench: unit mismatch on " ^ name);
        x
      | None -> m name unit_ 0.)
    layer_catalogue

let run_workload w ~seed ~seconds ~ops ~trace =
  let continue = make_continue ~seconds ~min_ops:w.min_ops ~ops in
  let o, sys = w.run ~seed ~continue ~trace in
  let metrics =
    if not trace then o.e2e
    else complete_layers (o.layers @ end_state sys @ setup_split w)
  in
  (o, metrics)

(* ---------------- output ------------------------------------------- *)

let json_number name v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith (Printf.sprintf "pbench: metric %s is not finite" name)

let print_result (o : outcome) metrics =
  List.iter (fun x -> Printf.printf "%-36s %14.6g %s\n" x.name x.value x.unit_) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.name x.value)
             x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.attempted o.failed body

(* ---------------- self-test ---------------------------------------- *)

(* Metrics that must repeat exactly for a seed: simulated time and
   counts. Host rates and times are excluded by unit. *)
let deterministic x =
  (x.unit_ = "cyc" || x.unit_ = "1/Mcyc" || x.unit_ = "count" || x.unit_ = "ratio")
  && x.name <> "ok_ratio"

let selftest () =
  setups := 1;
  let ops = function "kv" -> 600 | "extend" -> Wl_extend.generation_ops + 36 | _ -> 1500 in
  let fails = ref 0 in
  List.iter
    (fun w ->
      (* a traced run carries the untraced run's end-to-end metrics too *)
      let go seed = run_workload w ~seed ~seconds:0. ~ops:(Some (ops w.wname)) ~trace:true in
      let (o1, a), (o1', b) = (go 11, go 11) in
      let checked = ref 0 in
      List.iter2
        (fun x y ->
          if deterministic x then begin
            incr checked;
            if x.value <> y.value then begin
              incr fails;
              Printf.printf "FAIL %s: %s differs at one seed: %.17g vs %.17g\n" w.wname x.name
                x.value y.value
            end
          end)
        (a @ o1.e2e) (b @ o1'.e2e);
      let o2, _ = run_workload w ~seed:29 ~seconds:0. ~ops:(Some (ops w.wname)) ~trace:false in
      if o1.failed > 0 || o2.failed > 0 then begin
        incr fails;
        Printf.printf "FAIL %s: %d and %d failed ops\n" w.wname o1.failed o2.failed
      end;
      Printf.printf "selftest %s: %d deterministic metrics agree, second seed %d/%d ok\n%!"
        w.wname !checked (o2.attempted - o2.failed) o2.attempted)
    workloads;
  if !fails > 0 then exit 1

(* ---------------- command line ------------------------------------- *)

let usage () =
  prerr_endline
    "usage: pbench --workload kv|extend|smp_flows --seed N --seconds S --trace 0|1\n\
    \              [--metric NAME]...\n\
    \       pbench --list | --selftest";
  exit 2

let arg_error fmt = Printf.ksprintf (fun s -> prerr_endline ("pbench: " ^ s); exit 2) fmt

let int_arg flag v =
  match int_of_string_opt v with Some n -> n | None -> arg_error "%s wants an integer, got %S" flag v

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let only = ref [] in
  let rec parse = function
    | [] -> ()
    | ("--help" | "-h") :: _ -> usage ()
    | "--list" :: _ ->
      List.iter (fun w -> Printf.printf "workload %s\n" w.wname) workloads;
      List.iter (fun (n, u) -> Printf.printf "end_to_end %s %s\n" n u) e2e_catalogue;
      List.iter (fun (n, u) -> Printf.printf "per_layer %s %s\n" n u) layer_catalogue;
      exit 0
    | "--selftest" :: _ ->
      selftest ();
      exit 0
    | "--workload" :: v :: rest ->
      (match List.find_opt (fun w -> w.wname = v) workloads with
      | Some w -> workload := Some w
      | None ->
        arg_error "unknown workload %S (known: %s)" v
          (String.concat ", " (List.map (fun w -> w.wname) workloads)));
      parse rest
    | "--seed" :: v :: rest -> seed := Some (int_arg "--seed" v); parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0. -> seconds := Some s
      | _ -> arg_error "--seconds wants a positive number, got %S" v);
      parse rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> trace := Some false
      | "1" -> trace := Some true
      | _ -> arg_error "--trace wants 0 or 1, got %S" v);
      parse rest
    | "--metric" :: v :: rest -> only := v :: !only; parse rest
    | a :: _ -> arg_error "unknown argument %S" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  let need what = function Some v -> v | None -> arg_error "missing %s" what in
  let w = need "--workload" !workload and seed = need "--seed" !seed in
  let seconds = need "--seconds" !seconds and trace = need "--trace" !trace in
  let catalogue = if trace then layer_catalogue else e2e_catalogue in
  List.iter
    (fun n ->
      if not (List.mem_assoc n catalogue) then
        arg_error "unknown metric %S for --trace %d" n (if trace then 1 else 0))
    !only;
  Printf.printf "# workload %s seed %d seconds %g trace %d\n%!" w.wname seed seconds
    (if trace then 1 else 0);
  match run_workload w ~seed ~seconds ~ops:None ~trace with
  | o, metrics ->
    let metrics =
      if !only = [] then metrics else List.filter (fun x -> List.mem x.name !only) metrics
    in
    print_result o metrics
  | exception Wrong msg ->
    Printf.eprintf "pbench: WRONG OUTPUT in %s\n%!" msg;
    exit 1
