(* Tests for the thread package: scheduler, priorities, synchronization,
   and the proto-thread / pop-up thread machinery. *)

open Paramecium

let sched_fixture () =
  let clock = Clock.create () in
  (clock, Scheduler.create clock Cost.unit_costs)

(* --- basic scheduling --------------------------------------------------- *)

let test_spawn_and_run () =
  let _, s = sched_fixture () in
  let log = ref [] in
  let note x = log := x :: !log in
  ignore (Scheduler.spawn s ~name:"a" (fun () -> note "a"));
  ignore (Scheduler.spawn s ~name:"b" (fun () -> note "b"));
  Alcotest.(check int) "two live" 2 (Scheduler.live s);
  let dispatches = Scheduler.run s in
  Alcotest.(check int) "two dispatches" 2 dispatches;
  Alcotest.(check (list string)) "fifo order" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check int) "none live" 0 (Scheduler.live s)

let test_yield_interleaves () =
  let _, s = sched_fixture () in
  let log = Buffer.create 16 in
  let worker c () =
    for _ = 1 to 3 do
      Buffer.add_char log c;
      Scheduler.yield ()
    done
  in
  ignore (Scheduler.spawn s (worker 'x'));
  ignore (Scheduler.spawn s (worker 'y'));
  ignore (Scheduler.run s);
  Alcotest.(check string) "round robin" "xyxyxy" (Buffer.contents log)

let test_priorities () =
  let _, s = sched_fixture () in
  let log = Buffer.create 16 in
  (* spawn low first; high priority must still run first *)
  ignore (Scheduler.spawn s ~priority:6 (fun () -> Buffer.add_char log 'l'));
  ignore (Scheduler.spawn s ~priority:1 (fun () -> Buffer.add_char log 'h'));
  ignore (Scheduler.run s);
  Alcotest.(check string) "high first" "hl" (Buffer.contents log);
  (match Scheduler.spawn s ~priority:99 (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad priority rejected")

(* The dispatch budget is the per-CPU sweep's: on a 1-CPU machine it
   bounds one scheduler's run. *)
let test_budget () =
  let smp = Smp.create (Cpu.of_machine (Machine.create ())) Cost.unit_costs in
  let s = Smp.sched smp 0 in
  let spins = ref 0 in
  ignore
    (Scheduler.spawn s (fun () ->
         while !spins < 100 do
           incr spins;
           Scheduler.yield ()
         done));
  let d = Smp.run smp ~budget:5 in
  Alcotest.(check int) "budget respected" 5 d;
  Alcotest.(check bool) "thread still live" true (Scheduler.live s > 0);
  ignore (Scheduler.run s);
  Alcotest.(check int) "completes later" 100 !spins

let test_crash_isolated () =
  let clock, s = sched_fixture () in
  let survived = ref false in
  ignore (Scheduler.spawn s ~name:"crasher" (fun () -> failwith "boom"));
  ignore (Scheduler.spawn s ~name:"survivor" (fun () -> survived := true));
  ignore (Scheduler.run s);
  Alcotest.(check bool) "other threads unaffected" true !survived;
  Alcotest.(check int) "crash counted" 1 (Scheduler.stats s `Crashes);
  Alcotest.(check int) "crash in clock counters" 1 (Clock.counter clock "thread_crash");
  Alcotest.(check int) "no leaked live" 0 (Scheduler.live s)

let test_self () =
  let _, s = sched_fixture () in
  let seen = ref None in
  let th = Scheduler.spawn s ~name:"me" (fun () -> seen := Some (Scheduler.self ())) in
  ignore (Scheduler.run s);
  (match !seen with
  | Some me -> Alcotest.(check int) "self is me" th.Scheduler.tid me.Scheduler.tid
  | None -> Alcotest.fail "self not captured")

(* --- waitq / mutex / condvar / semaphore / ivar ------------------------- *)

let test_waitq () =
  let _, s = sched_fixture () in
  let q = Sync.Waitq.create () in
  let woken = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Scheduler.spawn s (fun () ->
           Sync.Waitq.wait q;
           incr woken))
  done;
  ignore (Scheduler.run s);
  Alcotest.(check int) "all parked" 3 (Sync.Waitq.length q);
  Alcotest.(check bool) "signal" true (Sync.Waitq.signal q);
  ignore (Scheduler.run s);
  Alcotest.(check int) "one woken" 1 !woken;
  Alcotest.(check int) "broadcast" 2 (Sync.Waitq.broadcast q);
  ignore (Scheduler.run s);
  Alcotest.(check int) "all woken" 3 !woken;
  Alcotest.(check bool) "empty signal" false (Sync.Waitq.signal q)

let test_mutex_exclusion () =
  let _, s = sched_fixture () in
  let m = Sync.Mutex.create () in
  let in_section = ref 0 and max_seen = ref 0 and done_count = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Scheduler.spawn s (fun () ->
           Sync.Mutex.lock m;
           incr in_section;
           if !in_section > !max_seen then max_seen := !in_section;
           Scheduler.yield ();
           (* hold across a reschedule *)
           decr in_section;
           Sync.Mutex.unlock m;
           incr done_count))
  done;
  ignore (Scheduler.run s);
  Alcotest.(check int) "mutual exclusion" 1 !max_seen;
  Alcotest.(check int) "all completed" 4 !done_count;
  Alcotest.(check bool) "unlocked at end" false (Sync.Mutex.locked m)

let test_mutex_trylock_with_lock () =
  let _, s = sched_fixture () in
  let m = Sync.Mutex.create () in
  ignore
    (Scheduler.spawn s (fun () ->
         Alcotest.(check bool) "try_lock free" true (Sync.Mutex.try_lock m);
         Alcotest.(check bool) "try_lock held" false (Sync.Mutex.try_lock m);
         Sync.Mutex.unlock m;
         let r = Sync.Mutex.with_lock m (fun () -> 42) in
         Alcotest.(check int) "with_lock result" 42 r;
         Alcotest.(check bool) "released after" false (Sync.Mutex.locked m);
         (match Sync.Mutex.with_lock m (fun () -> failwith "inner") with
         | exception Failure _ -> ()
         | _ -> Alcotest.fail "exception propagates");
         Alcotest.(check bool) "released after exn" false (Sync.Mutex.locked m)));
  ignore (Scheduler.run s);
  Alcotest.check_raises "unlock unlocked" (Invalid_argument "Mutex.unlock: not locked")
    (fun () -> Sync.Mutex.unlock m)

let test_condvar_producer_consumer () =
  let _, s = sched_fixture () in
  let m = Sync.Mutex.create () in
  let cv = Sync.Condvar.create () in
  let queue = Queue.create () in
  let consumed = ref [] in
  ignore
    (Scheduler.spawn s ~name:"consumer" (fun () ->
         Sync.Mutex.lock m;
         let rec take n =
           if n > 0 then begin
             while Queue.is_empty queue do
               Sync.Condvar.wait cv m
             done;
             consumed := Queue.pop queue :: !consumed;
             take (n - 1)
           end
         in
         take 3;
         Sync.Mutex.unlock m));
  ignore
    (Scheduler.spawn s ~name:"producer" (fun () ->
         List.iter
           (fun v ->
             Sync.Mutex.lock m;
             Queue.push v queue;
             Sync.Condvar.signal cv;
             Sync.Mutex.unlock m;
             Scheduler.yield ())
           [ 1; 2; 3 ]));
  ignore (Scheduler.run s);
  Alcotest.(check (list int)) "consumed in order" [ 1; 2; 3 ] (List.rev !consumed)

let test_semaphore () =
  let _, s = sched_fixture () in
  let sem = Sync.Semaphore.create 2 in
  let inside = ref 0 and peak = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Scheduler.spawn s (fun () ->
           Sync.Semaphore.acquire sem;
           incr inside;
           if !inside > !peak then peak := !inside;
           Scheduler.yield ();
           decr inside;
           Sync.Semaphore.release sem))
  done;
  ignore (Scheduler.run s);
  Alcotest.(check int) "at most 2 inside" 2 !peak;
  Alcotest.(check int) "value restored" 2 (Sync.Semaphore.value sem);
  Alcotest.(check bool) "try_acquire" true (Sync.Semaphore.try_acquire sem)

let test_ivar () =
  let _, s = sched_fixture () in
  let iv = Sync.Ivar.create () in
  let got = ref [] in
  for _ = 1 to 2 do
    ignore
      (Scheduler.spawn s (fun () ->
           (* bind first: [::] evaluates right-to-left, so inlining the
              read would snapshot [!got] before suspending *)
           let v = Sync.Ivar.read iv in
           got := v :: !got))
  done;
  ignore (Scheduler.run s);
  Alcotest.(check (option int)) "unfilled peek" None (Sync.Ivar.peek iv);
  Sync.Ivar.fill iv 7;
  ignore (Scheduler.run s);
  Alcotest.(check (list int)) "both readers" [ 7; 7 ] !got;
  (match Sync.Ivar.fill iv 8 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double fill rejected")

(* --- pop-up threads ------------------------------------------------------ *)

let test_popup_fast_path () =
  let clock, s = sched_fixture () in
  let ran = ref false in
  let fast = Scheduler.popup s (fun () -> ran := true) in
  Alcotest.(check bool) "completed inline" true fast;
  Alcotest.(check bool) "body ran" true !ran;
  Alcotest.(check int) "no promotion" 0 (Scheduler.stats s `Promotions);
  Alcotest.(check int) "fast counted" 1 (Scheduler.stats s `Popup_fast);
  Alcotest.(check int) "proto cost charged" 1 (Clock.counter clock "proto_thread");
  Alcotest.(check int) "no live threads" 0 (Scheduler.live s)

let test_popup_promotes_on_block () =
  let clock, s = sched_fixture () in
  let sem = Sync.Semaphore.create 0 in
  let finished = ref false in
  let fast =
    Scheduler.popup s (fun () ->
        Sync.Semaphore.acquire sem;
        finished := true)
  in
  Alcotest.(check bool) "did not complete inline" false fast;
  Alcotest.(check int) "promoted" 1 (Scheduler.stats s `Promotions);
  Alcotest.(check int) "promotion cost charged" 1 (Clock.counter clock "popup_promotion");
  Alcotest.(check int) "now a live thread" 1 (Scheduler.live s);
  Sync.Semaphore.release sem;
  ignore (Scheduler.run s);
  Alcotest.(check bool) "completed under scheduler" true !finished;
  Alcotest.(check int) "no live threads" 0 (Scheduler.live s)

let test_popup_promotes_on_yield () =
  let _, s = sched_fixture () in
  let steps = ref 0 in
  let fast =
    Scheduler.popup s (fun () ->
        incr steps;
        Scheduler.yield ();
        incr steps)
  in
  Alcotest.(check bool) "rescheduling promotes" false fast;
  Alcotest.(check int) "first part ran inline" 1 !steps;
  ignore (Scheduler.run s);
  Alcotest.(check int) "second part under scheduler" 2 !steps

let test_popup_promotes_once () =
  let _, s = sched_fixture () in
  ignore
    (Scheduler.popup s (fun () ->
         Scheduler.yield ();
         Scheduler.yield ();
         Scheduler.yield ()));
  ignore (Scheduler.run s);
  Alcotest.(check int) "single promotion" 1 (Scheduler.stats s `Promotions)

let test_popup_crash_isolated () =
  let _, s = sched_fixture () in
  let fast = Scheduler.popup s (fun () -> failwith "interrupt handler bug") in
  Alcotest.(check bool) "crash still counts as completed-inline path" true fast;
  Alcotest.(check int) "crash counted" 1 (Scheduler.stats s `Crashes);
  Alcotest.(check int) "no live threads" 0 (Scheduler.live s)

let test_popup_nested_in_thread () =
  (* an "interrupt" arriving while a thread runs: popup nests fine *)
  let _, s = sched_fixture () in
  let order = Buffer.create 8 in
  ignore
    (Scheduler.spawn s (fun () ->
         Buffer.add_char order 't';
         ignore (Scheduler.popup s (fun () -> Buffer.add_char order 'i'));
         Buffer.add_char order 'r'));
  ignore (Scheduler.run s);
  Alcotest.(check string) "interrupt preempts inline" "tir" (Buffer.contents order)

let test_effects_outside_thread_rejected () =
  (match Scheduler.yield () with
  | exception Effect.Unhandled _ -> ()
  | _ -> Alcotest.fail "yield outside thread must be unhandled")


(* --- scheduling policies ------------------------------------------------- *)

let test_policy_fifo_ignores_priority () =
  let clock = Clock.create () in
  let s = Scheduler.create ~policy:Scheduler.Fifo clock Cost.unit_costs in
  let log = Buffer.create 8 in
  (* low priority spawned first runs first under FIFO *)
  ignore (Scheduler.spawn s ~priority:7 (fun () -> Buffer.add_char log 'l'));
  ignore (Scheduler.spawn s ~priority:0 (fun () -> Buffer.add_char log 'h'));
  ignore (Scheduler.run s);
  Alcotest.(check string) "arrival order" "lh" (Buffer.contents log)

let test_policy_lottery_deterministic () =
  let order policy =
    let clock = Clock.create () in
    let s = Scheduler.create ~policy clock Cost.unit_costs in
    let log = Buffer.create 16 in
    for i = 0 to 7 do
      ignore
        (Scheduler.spawn s ~priority:(i mod Scheduler.priorities) (fun () ->
             Buffer.add_char log (Char.chr (Char.code '0' + i))))
    done;
    ignore (Scheduler.run s);
    Buffer.contents log
  in
  Alcotest.(check string) "same seed, same order"
    (order (Scheduler.Lottery 42))
    (order (Scheduler.Lottery 42));
  Alcotest.(check bool) "different seeds eventually differ" true
    (order (Scheduler.Lottery 1) <> order (Scheduler.Lottery 99)
    || order (Scheduler.Lottery 2) <> order (Scheduler.Lottery 77))

let test_policy_lottery_favors_high_priority () =
  (* two yield-loop threads; count how often each runs: the high-priority
     one holds 8 tickets to the low one's 1 *)
  let clock = Clock.create () in
  let s = Scheduler.create ~policy:(Scheduler.Lottery 7) clock Cost.unit_costs in
  let high = ref 0 and low = ref 0 in
  let loop counter () =
    for _ = 1 to 200 do
      incr counter;
      Scheduler.yield ()
    done
  in
  ignore (Scheduler.spawn s ~priority:0 (loop high));
  ignore (Scheduler.spawn s ~priority:7 (loop low));
  (* run a bounded number of dispatches so the mix is observable *)
  for _ = 1 to 150 do
    ignore (Scheduler.dispatch s)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "8:1 tickets show (high=%d low=%d)" !high !low)
    true
    (!high > !low * 2);
  ignore (Scheduler.run s)

let test_policy_all_complete () =
  List.iter
    (fun policy ->
      let clock = Clock.create () in
      let s = Scheduler.create ~policy clock Cost.unit_costs in
      let completed = ref 0 in
      for i = 0 to 19 do
        ignore
          (Scheduler.spawn s ~priority:(i mod Scheduler.priorities) (fun () ->
               Scheduler.yield ();
               incr completed))
      done;
      ignore (Scheduler.run s);
      Alcotest.(check int) "all complete" 20 !completed;
      Alcotest.(check int) "none live" 0 (Scheduler.live s))
    [ Scheduler.Priority; Scheduler.Fifo; Scheduler.Lottery 3 ]

(* --- properties ------------------------------------------------------------ *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:100 ~name gen f)

let props =
  [
    prop "every spawned thread runs to completion"
      QCheck2.Gen.(list_size (int_range 1 20) (int_bound 3))
      (fun yields ->
        let _, s = sched_fixture () in
        let completed = ref 0 in
        List.iter
          (fun y ->
            ignore
              (Scheduler.spawn s (fun () ->
                   for _ = 1 to y do
                     Scheduler.yield ()
                   done;
                   incr completed)))
          yields;
        ignore (Scheduler.run s);
        !completed = List.length yields && Scheduler.live s = 0);
    prop "popup fast-path iff body performs no effect"
      QCheck2.Gen.(list_size (int_range 1 15) bool)
      (fun blocks ->
        let _, s = sched_fixture () in
        let ok = ref true in
        List.iter
          (fun b ->
            let fast = Scheduler.popup s (fun () -> if b then Scheduler.yield ()) in
            if fast = b then ok := false)
          blocks;
        ignore (Scheduler.run s);
        !ok && Scheduler.live s = 0);
    prop "semaphore never over-admits"
      QCheck2.Gen.(pair (int_range 1 4) (int_range 1 12))
      (fun (cap, threads) ->
        let _, s = sched_fixture () in
        let sem = Sync.Semaphore.create cap in
        let inside = ref 0 and peak = ref 0 in
        for _ = 1 to threads do
          ignore
            (Scheduler.spawn s (fun () ->
                 Sync.Semaphore.acquire sem;
                 incr inside;
                 if !inside > !peak then peak := !inside;
                 Scheduler.yield ();
                 decr inside;
                 Sync.Semaphore.release sem))
        done;
        ignore (Scheduler.run s);
        !peak <= cap && Scheduler.live s = 0);
  ]

let () =
  Alcotest.run "threads"
    [
      ( "scheduler",
        [
          Alcotest.test_case "spawn and run" `Quick test_spawn_and_run;
          Alcotest.test_case "yield interleaves" `Quick test_yield_interleaves;
          Alcotest.test_case "priorities" `Quick test_priorities;
          Alcotest.test_case "budget" `Quick test_budget;
          Alcotest.test_case "crash isolated" `Quick test_crash_isolated;
          Alcotest.test_case "self" `Quick test_self;
        ] );
      ( "sync",
        [
          Alcotest.test_case "waitq" `Quick test_waitq;
          Alcotest.test_case "mutex exclusion" `Quick test_mutex_exclusion;
          Alcotest.test_case "mutex try/with" `Quick test_mutex_trylock_with_lock;
          Alcotest.test_case "condvar producer/consumer" `Quick
            test_condvar_producer_consumer;
          Alcotest.test_case "semaphore" `Quick test_semaphore;
          Alcotest.test_case "ivar" `Quick test_ivar;
        ] );
      ( "policies",
        [
          Alcotest.test_case "fifo ignores priority" `Quick
            test_policy_fifo_ignores_priority;
          Alcotest.test_case "lottery deterministic" `Quick
            test_policy_lottery_deterministic;
          Alcotest.test_case "lottery favors high priority" `Quick
            test_policy_lottery_favors_high_priority;
          Alcotest.test_case "all policies complete" `Quick test_policy_all_complete;
        ] );
      ( "popup",
        [
          Alcotest.test_case "fast path" `Quick test_popup_fast_path;
          Alcotest.test_case "promotes on block" `Quick test_popup_promotes_on_block;
          Alcotest.test_case "promotes on yield" `Quick test_popup_promotes_on_yield;
          Alcotest.test_case "promotes once" `Quick test_popup_promotes_once;
          Alcotest.test_case "crash isolated" `Quick test_popup_crash_isolated;
          Alcotest.test_case "nested in thread" `Quick test_popup_nested_in_thread;
          Alcotest.test_case "effects outside thread" `Quick
            test_effects_outside_thread_rejected;
        ] );
      ("properties", props);
    ]
