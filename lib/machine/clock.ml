type t = {
  mutable cycles : int;
  counters : (string, int ref) Hashtbl.t;
  obs : Pm_obs.Obs.t;
}

let create ?obs () =
  let obs = match obs with Some o -> o | None -> Pm_obs.Obs.create () in
  { cycles = 0; counters = Hashtbl.create 16; obs }

let advance t n =
  assert (n >= 0);
  t.cycles <- t.cycles + n

(* Reconciliation: pull this clock forward to a point in global virtual
   time (never backward). Returns the idle cycles absorbed, so callers
   can count them. *)
let advance_to t n =
  if n > t.cycles then begin
    let d = n - t.cycles in
    t.cycles <- n;
    d
  end
  else 0

let now t = t.cycles

let obs t = t.obs

(* The one span bracket every instrumentation point shares. Callers test
   [Obs.enabled] first, so the untraced path never reaches here. *)
let span t ~(costs : Cost.t) ~domain ~obj ~iface ~meth ?sample f =
  let t0 = t.cycles in
  let tok = Pm_obs.Obs.span_begin t.obs ~now:t0 ~domain ~obj ~iface ~meth in
  let r = f () in
  (* one simulated store books the completed span into the ring *)
  advance t costs.Cost.mem_write;
  let t1 = t.cycles in
  Pm_obs.Obs.span_end t.obs ~now:t1 tok;
  (match sample with
  | Some name -> Pm_obs.Obs.observe t.obs ~domain name (t1 - t0)
  | None -> ());
  r

let count_n t name n =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + n
  | None -> Hashtbl.add t.counters name (ref n)

let count t name = count_n t name 1

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let with_counters t entries =
  Hashtbl.reset t.counters;
  List.iter (fun (name, v) -> Hashtbl.replace t.counters name (ref v)) entries

let reset t =
  t.cycles <- 0;
  Hashtbl.reset t.counters

let measure t f =
  let before = now t in
  let result = f () in
  (result, now t - before)

type snapshot = { at : int; counts : (string * int) list }

let snapshot t = { at = t.cycles; counts = counters t }

let diff ~before ~after =
  let find name l = Option.value ~default:0 (List.assoc_opt name l) in
  let names =
    List.sort_uniq String.compare
      (List.map fst before.counts @ List.map fst after.counts)
  in
  {
    at = after.at - before.at;
    counts =
      List.filter_map
        (fun name ->
          match find name after.counts - find name before.counts with
          | 0 -> None
          | d -> Some (name, d))
        names;
  }

let since t before = diff ~before ~after:(snapshot t)
