module Machine = Pm_machine.Machine
module Mmu = Pm_machine.Mmu
module Clock = Pm_machine.Clock
module Nic = Pm_machine.Nic
module Timer_dev = Pm_machine.Timer_dev
module Console = Pm_machine.Console
module Disk = Pm_machine.Disk
module Blkdev = Pm_machine.Blkdev
module Namespace = Pm_names.Namespace
module Path = Pm_names.Path
module View = Pm_names.View
module Instance = Pm_obj.Instance
module Iface = Pm_obj.Iface
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Registry = Pm_obj.Registry
module Composite = Pm_obj.Composite

type t = {
  machine : Machine.t;
  registry : Instance.t Registry.t;
  ns : Namespace.t;
  root_view : View.t;
  api : Api.t;
  loader : Loader.t;
  kernel_domain : Domain.t;
  mutable user_domains : Domain.t list; (* newest first *)
  nic : Nic.t;
  timer : Timer_dev.t;
  console : Console.t;
  disk : Disk.t;
  blkdev : Blkdev.t;
  nucleus : Composite.t;
  tracesvc : Tracesvc.t;
  journalsvc : Journalsvc.t;
  querysvc : Querysvc.t;
  cpu : Pm_machine.Cpu.t; (* the machine's CPUs, one or many *)
  smp : Pm_threads.Smp.t; (* a scheduler per CPU: the one dispatch path *)
}

let machine t = t.machine
let clock t = Machine.clock t.machine
let cpu t = t.cpu
let smp t = t.smp
let cpus t = Pm_machine.Cpu.count t.cpu
let api t = t.api
let events t = t.api.Api.events
let vmem t = t.api.Api.vmem
let directory t = t.api.Api.directory
let certification t = t.api.Api.certification
let tracesvc t = t.tracesvc
let journalsvc t = t.journalsvc
let querysvc t = t.querysvc
let loader t = t.loader
let sched t = t.api.Api.sched
let kernel_domain t = t.kernel_domain
let nic t = t.nic
let timer t = t.timer
let console t = t.console
let disk t = t.disk
let blkdev t = t.blkdev

let ctx t dom = Api.ctx t.api dom

let domains t = t.kernel_domain :: List.rev t.user_domains

(* domain lifecycle is journalled — plain stores, no simulated cycles *)
let jot machine ~kind ~domain ~info ~detail =
  let clock = Machine.clock machine in
  Pm_journal.Journal.record
    (Pm_obs.Obs.journal (Clock.obs clock))
    ~kind ~domain ~at:(Clock.now clock) ~info ~detail

let domain_of_id t id =
  if id = t.kernel_domain.Domain.id then Some t.kernel_domain
  else List.find_opt (fun d -> d.Domain.id = id) t.user_domains

(* ------------------------------------------------------------------ *)
(* Service wrapper objects: each nucleus service as an object with a    *)
(* small interface, so the kernel itself is built from the same         *)
(* software architecture it offers to applications.                     *)
(* ------------------------------------------------------------------ *)

let ok_int n = Ok (Value.Int n)
let ok_str s = Ok (Value.Str s)

(* The directory object resolves names relative to the *caller's* domain
   view, so user programs get their own overrides applied — this needs
   the domain table, hence the forward reference through [t_ref]. *)
let directory_object t_ref registry kdom =
  let find_domain ctx =
    let t = Option.get !t_ref in
    domain_of_id t ctx.Pm_obj.Call_ctx.origin_domain
  in
  let bind_m ctx args =
    match (find_domain ctx, args) with
    | Some dom, [ Value.Str path ] ->
      let t = Option.get !t_ref in
      (match
         Directory.bind t.api.Api.directory ctx ~view:dom.Domain.view ~domain:dom
           (Path.of_string path)
       with
      | Ok inst -> ok_int (Instance.handle inst)
      | Error e -> Error (Oerror.Fault (Directory.bind_error_to_string e)))
    | None, _ -> Error (Oerror.Domain_error "unknown caller domain")
    | _, _ -> Error (Oerror.Type_error "bind(str)")
  in
  let register_m ctx args =
    let t = Option.get !t_ref in
    match (find_domain ctx, args) with
    | Some _, [ Value.Str path; Value.Int handle ] ->
      (match Directory.resolve_handle t.api.Api.directory handle with
      | None -> Error (Oerror.Fault (Printf.sprintf "dangling handle %d" handle))
      | Some inst ->
        (match Directory.register t.api.Api.directory (Path.of_string path) inst with
        | Ok () -> Ok Value.Unit
        | Error e -> Error (Oerror.Fault (Namespace.error_to_string e))))
    | None, _ -> Error (Oerror.Domain_error "unknown caller domain")
    | _, _ -> Error (Oerror.Type_error "register(str, handle)")
  in
  let unregister_m _ctx args =
    let t = Option.get !t_ref in
    match args with
    | [ Value.Str path ] ->
      (match Directory.unregister t.api.Api.directory (Path.of_string path) with
      | Ok () -> Ok Value.Unit
      | Error e -> Error (Oerror.Fault (Namespace.error_to_string e)))
    | _ -> Error (Oerror.Type_error "unregister(str)")
  in
  let replace_m _ctx args =
    let t = Option.get !t_ref in
    match args with
    | [ Value.Str path; Value.Int handle ] ->
      (match Directory.resolve_handle t.api.Api.directory handle with
      | None -> Error (Oerror.Fault (Printf.sprintf "dangling handle %d" handle))
      | Some inst ->
        (match Directory.replace t.api.Api.directory (Path.of_string path) inst with
        | Ok old -> ok_int (Instance.handle old)
        | Error e -> Error (Oerror.Fault (Directory.bind_error_to_string e))))
    | _ -> Error (Oerror.Type_error "replace(str, handle)")
  in
  let list_m _ctx args =
    let t = Option.get !t_ref in
    match args with
    | [ Value.Str path ] ->
      (match Namespace.list (Directory.namespace t.api.Api.directory) (Path.of_string path) with
      | Ok entries ->
        Ok (Value.List (List.map (fun (seg, _) -> Value.Str seg) entries))
      | Error e -> Error (Oerror.Fault (Namespace.error_to_string e)))
    | _ -> Error (Oerror.Type_error "list(str)")
  in
  let iface =
    Iface.make ~name:"directory"
      [
        Iface.meth ~name:"bind" ~args:[ Vtype.Tstr ] ~ret:Vtype.Tint bind_m;
        Iface.meth ~name:"register" ~args:[ Vtype.Tstr; Vtype.Tint ] ~ret:Vtype.Tunit
          register_m;
        Iface.meth ~name:"unregister" ~args:[ Vtype.Tstr ] ~ret:Vtype.Tunit unregister_m;
        Iface.meth ~name:"replace" ~args:[ Vtype.Tstr; Vtype.Tint ] ~ret:Vtype.Tint
          replace_m;
        Iface.meth ~name:"list" ~args:[ Vtype.Tstr ] ~ret:(Vtype.Tlist Vtype.Tstr) list_m;
      ]
  in
  Instance.create registry ~class_name:"nucleus.directory" ~domain:kdom.Domain.id
    [ iface ]

let memory_object t_ref registry kdom =
  let find_domain ctx =
    let t = Option.get !t_ref in
    domain_of_id t ctx.Pm_obj.Call_ctx.origin_domain
  in
  let alloc_m ctx args =
    let t = Option.get !t_ref in
    match (find_domain ctx, args) with
    | Some dom, [ Value.Int count; Value.Bool shared ] ->
      let sharing = if shared then Vmem.Shared else Vmem.Exclusive in
      (match Vmem.alloc_pages t.api.Api.vmem dom ~count ~sharing with
      | vaddr -> ok_int vaddr
      | exception (Vmem.Vmem_error m | Invalid_argument m) -> Error (Oerror.Fault m)
      | exception Out_of_memory -> Error (Oerror.Fault "out of physical memory"))
    | None, _ -> Error (Oerror.Domain_error "unknown caller domain")
    | _, _ -> Error (Oerror.Type_error "alloc_pages(int, bool)")
  in
  let free_m ctx args =
    let t = Option.get !t_ref in
    match (find_domain ctx, args) with
    | Some dom, [ Value.Int vaddr; Value.Int count ] ->
      (match Vmem.free_pages t.api.Api.vmem dom ~vaddr ~count with
      | () -> Ok Value.Unit
      | exception Vmem.Vmem_error m -> Error (Oerror.Fault m))
    | None, _ -> Error (Oerror.Domain_error "unknown caller domain")
    | _, _ -> Error (Oerror.Type_error "free_pages(int, int)")
  in
  let pages_m ctx args =
    let t = Option.get !t_ref in
    match (find_domain ctx, args) with
    | Some dom, [] -> ok_int (Vmem.pages_of t.api.Api.vmem dom)
    | None, _ -> Error (Oerror.Domain_error "unknown caller domain")
    | _, _ -> Error (Oerror.Type_error "pages()")
  in
  let iface =
    Iface.make ~name:"memory"
      [
        Iface.meth ~name:"alloc_pages" ~args:[ Vtype.Tint; Vtype.Tbool ] ~ret:Vtype.Tint
          alloc_m;
        Iface.meth ~name:"free_pages" ~args:[ Vtype.Tint; Vtype.Tint ] ~ret:Vtype.Tunit
          free_m;
        Iface.meth ~name:"pages" ~args:[] ~ret:Vtype.Tint pages_m;
      ]
  in
  Instance.create registry ~class_name:"nucleus.memory" ~domain:kdom.Domain.id [ iface ]

let events_object t_ref registry kdom =
  let deliveries_m _ctx args =
    let t = Option.get !t_ref in
    match args with
    | [] -> ok_int (Events.deliveries t.api.Api.events)
    | _ -> Error (Oerror.Type_error "deliveries()")
  in
  let callbacks_m _ctx args =
    let t = Option.get !t_ref in
    match args with
    | [ Value.Str kind; Value.Int num ] ->
      let event =
        match kind with
        | "trap" -> Some (Events.Trap num)
        | "irq" -> Some (Events.Irq num)
        | _ -> None
      in
      (match event with
      | Some e -> ok_int (Events.callbacks t.api.Api.events e)
      | None -> Error (Oerror.Type_error "callbacks(\"trap\"|\"irq\", int)"))
    | _ -> Error (Oerror.Type_error "callbacks(str, int)")
  in
  let iface =
    Iface.make ~name:"events"
      [
        Iface.meth ~name:"deliveries" ~args:[] ~ret:Vtype.Tint deliveries_m;
        Iface.meth ~name:"callbacks" ~args:[ Vtype.Tstr; Vtype.Tint ] ~ret:Vtype.Tint
          callbacks_m;
      ]
  in
  Instance.create registry ~class_name:"nucleus.events" ~domain:kdom.Domain.id [ iface ]

let certification_object t_ref registry kdom =
  let stats_m _ctx args =
    let t = Option.get !t_ref in
    match args with
    | [] ->
      Ok
        (Value.Pair
           ( Value.Int (Certsvc.validations t.api.Api.certification),
             Value.Int (Certsvc.failures t.api.Api.certification) ))
    | _ -> Error (Oerror.Type_error "stats()")
  in
  let root_m _ctx args =
    let t = Option.get !t_ref in
    match args with
    | [] -> ok_str (Pm_secure.Principal.id (Certsvc.root t.api.Api.certification))
    | _ -> Error (Oerror.Type_error "root()")
  in
  let iface =
    Iface.make ~name:"certification"
      [
        Iface.meth ~name:"stats" ~args:[] ~ret:(Vtype.Tpair (Vtype.Tint, Vtype.Tint))
          stats_m;
        Iface.meth ~name:"root" ~args:[] ~ret:Vtype.Tstr root_m;
      ]
  in
  Instance.create registry ~class_name:"nucleus.certification" ~domain:kdom.Domain.id
    [ iface ]

(* ------------------------------------------------------------------ *)

let must_register ns path handle =
  match Namespace.register ns (Path.of_string path) handle with
  | Ok () -> ()
  | Error e -> failwith ("Kernel.boot: " ^ Namespace.error_to_string e)

let boot ?costs ?frames ?page_size ?cpus ~root () =
  let machine = Machine.create ?costs ?frames ?page_size ?cpus () in
  let timer = Timer_dev.create machine ~irq_line:0 in
  let nic = Nic.create machine ~irq_line:1 in
  let disk = Disk.create machine ~irq_line:2 ~blocks:512 in
  let console = Console.create machine in
  let blkdev = Blkdev.create machine ~irq_line:3 ~blocks:1024 ~block_size:512 in
  let registry = Registry.create () in
  let ns = Namespace.create () in
  let root_view = View.of_namespace ns in
  let kernel_domain =
    let id = Mmu.current_context (Machine.mmu machine) in
    Domain.make ~id ~name:"kernel" ~kind:Domain.Kernel ~view:root_view ()
  in
  let events = Events.create machine in
  let vmem = Vmem.create machine in
  let directory = Directory.create ~machine ~vmem ~registry ~ns in
  let certification = Certsvc.create machine ~root in
  let cpu = Pm_machine.Cpu.of_machine machine in
  let smp =
    Pm_threads.Smp.create ~mmu:(Machine.mmu machine) cpu (Machine.costs machine)
  in
  let sched = Pm_threads.Smp.sched smp 0 in
  let api =
    { Api.machine; registry; events; vmem; directory; certification; sched;
      kernel_domain }
  in
  let loader = Loader.create api in
  let t_ref = ref None in
  let dir_obj = directory_object t_ref registry kernel_domain in
  let mem_obj = memory_object t_ref registry kernel_domain in
  let ev_obj = events_object t_ref registry kernel_domain in
  let cert_obj = certification_object t_ref registry kernel_domain in
  let tracesvc = Tracesvc.create machine in
  let trace_obj = Tracesvc.service_object tracesvc registry kernel_domain in
  let journalsvc = Journalsvc.create machine in
  let journal_obj = Journalsvc.service_object journalsvc registry kernel_domain in
  let querysvc = Querysvc.create machine in
  let query_obj = Querysvc.service_object querysvc registry kernel_domain in
  (* the resident kernel: a static (link-time) composition of the seven
     service objects *)
  let nucleus =
    Composite.make registry ~class_name:"paramecium.nucleus"
      ~domain:kernel_domain.Domain.id ~mode:Composite.Static
      ~children:
        [ ("events", ev_obj); ("memory", mem_obj); ("directory", dir_obj);
          ("certification", cert_obj); ("trace", trace_obj);
          ("journal", journal_obj); ("query", query_obj) ]
      ~exports:
        [
          { Composite.as_name = "events"; child = "events"; iface = "events" };
          { Composite.as_name = "memory"; child = "memory"; iface = "memory" };
          { Composite.as_name = "directory"; child = "directory"; iface = "directory" };
          { Composite.as_name = "certification"; child = "certification";
            iface = "certification" };
          { Composite.as_name = "trace"; child = "trace"; iface = "trace" };
          { Composite.as_name = "journal"; child = "journal"; iface = "journal" };
          { Composite.as_name = "query"; child = "query"; iface = "query" };
        ]
  in
  (* boot binds go through the journal too, so state-at-cycle queries
     can answer for the nucleus services themselves *)
  let boot_register path handle =
    must_register ns path handle;
    let clock = Machine.clock machine in
    Pm_journal.Journal.record
      (Pm_obs.Obs.journal (Clock.obs clock))
      ~kind:Pm_journal.Journal.Bind ~domain:kernel_domain.Domain.id
      ~at:(Clock.now clock)
      ~info:handle ~detail:path
  in
  boot_register "/nucleus/events" (Instance.handle ev_obj);
  boot_register "/nucleus/memory" (Instance.handle mem_obj);
  boot_register "/nucleus/directory" (Instance.handle dir_obj);
  boot_register "/nucleus/certification" (Instance.handle cert_obj);
  boot_register "/nucleus/trace" (Instance.handle trace_obj);
  boot_register "/nucleus/journal" (Instance.handle journal_obj);
  boot_register "/nucleus/query" (Instance.handle query_obj);
  boot_register "/nucleus/kernel" (Instance.handle (Composite.instance nucleus));
  let t =
    { machine; registry; ns; root_view; api; loader; kernel_domain;
      user_domains = []; nic; timer; console; disk; blkdev; nucleus; tracesvc;
      journalsvc; querysvc; cpu; smp }
  in
  t_ref := Some t;
  jot machine ~kind:Pm_journal.Journal.Domain_up ~domain:kernel_domain.Domain.id
    ~info:kernel_domain.Domain.id ~detail:"kernel";
  t

let create_domain t ~name ?(overrides = []) () =
  let id = Mmu.new_context (Machine.mmu t.machine) in
  let view = View.derive ~overrides t.root_view in
  let dom = Domain.make ~id ~name ~kind:Domain.User ~view () in
  t.user_domains <- dom :: t.user_domains;
  jot t.machine ~kind:Pm_journal.Journal.Domain_up ~domain:id ~info:id ~detail:name;
  dom

let destroy_domain t dom =
  if Domain.is_kernel dom then invalid_arg "Kernel.destroy_domain: kernel domain";
  if not dom.Domain.alive then invalid_arg "Kernel.destroy_domain: already destroyed";
  dom.Domain.alive <- false;
  jot t.machine ~kind:Pm_journal.Journal.Domain_down ~domain:dom.Domain.id
    ~info:dom.Domain.id ~detail:dom.Domain.name;
  (* revoke the domain's instances and drop their names *)
  let ns = t.ns in
  let dead = Hashtbl.create 8 in
  Namespace.iter ns (fun path handle ->
      match Directory.resolve_handle t.api.Api.directory handle with
      | Some inst when inst.Instance.domain = dom.Domain.id ->
        Hashtbl.replace dead path ()
      | _ -> ());
  Hashtbl.iter (fun path () -> ignore (Namespace.unregister ns path)) dead;
  let registry = t.api.Api.registry in
  (* walk the registry by handle range; handles are dense small ints *)
  let rec sweep h misses =
    if misses > 4096 then ()
    else begin
      match Registry.get registry h with
      | Some inst ->
        if inst.Instance.domain = dom.Domain.id then Instance.revoke inst;
        sweep (h + 1) 0
      | None -> sweep (h + 1) (misses + 1)
    end
  in
  sweep 1 0;
  Events.remove_domain t.api.Api.events dom;
  Vmem.destroy_domain t.api.Api.vmem dom;
  (* make sure the dead context is not current before deleting it *)
  let mmu = Machine.mmu t.machine in
  if Mmu.current_context mmu = dom.Domain.id then
    Mmu.switch_context mmu t.kernel_domain.Domain.id;
  let stray_frames = Mmu.delete_context mmu dom.Domain.id in
  (* frames still mapped raw (e.g. by a pager) go back to the pool *)
  List.iter
    (fun frame ->
      if Pm_machine.Physmem.is_allocated (Machine.phys t.machine) frame then
        Pm_machine.Physmem.release (Machine.phys t.machine) frame)
    stray_frames;
  t.user_domains <- List.filter (fun d -> d != dom) t.user_domains

let register_at t path inst =
  match Directory.register t.api.Api.directory (Path.of_string path) inst with
  | Ok () -> ()
  | Error e -> failwith ("Kernel.register_at: " ^ Namespace.error_to_string e)

let bind t dom path = Api.bind_exn t.api dom (Path.of_string path)

let run t = Pm_threads.Smp.run t.smp

(* Dispatches per tick, over all CPUs: a thread that yield-polls a
   device must let [step] return, since devices only advance in
   [Machine.tick]. *)
let step_budget = 64

let step t ?(ticks = 1) () =
  for _ = 1 to ticks do
    Machine.tick t.machine;
    ignore (Pm_threads.Smp.run t.smp ~budget:step_budget)
  done
