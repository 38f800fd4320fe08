let src = Logs.Src.create "aging.replay" ~doc:"file-system aging replayer"

module Log = (val Logs.src_log src : Logs.LOG)

type result = {
  fs : Ffs.Fs.t;
  daily_scores : float array;
  daily_utilization : float array;
  skipped_ops : int;
  ino_map : (int, int) Hashtbl.t;
}

exception Too_many_skips of { skipped : int; total : int; limit : float }

let () =
  Printexc.register_printer (function
    | Too_many_skips { skipped; total; limit } ->
        Some
          (Fmt.str "Aging.Replay.Too_many_skips (%d of %d operations, limit %.0f%%)"
             skipped total (100.0 *. limit))
    | _ -> None)

(* --- the replay engine ---------------------------------------------------- *)

(* State of one in-progress replay: the image, the placement trick's
   directories, the workload-to-image inode map and the score history.
   Holds no callbacks, so a checkpoint can carry a shallow copy of it. *)
type engine = {
  fs : Ffs.Fs.t;
  group_dirs : int array;
  ino_map : (int, int) Hashtbl.t;
  daily_scores : float array;
  daily_utilization : float array;
  days : int;
  total_ops : int;
  mutable skipped : int;
  mutable next_day : int;
}

let make_engine ~config ~backend ~params ~days ~total_ops =
  let fs = Ffs.Fs.create ~config ~backend params in
  let ncg = params.Ffs.Params.ncg in
  (* one directory per cylinder group, pinned *)
  let group_dirs =
    Array.init ncg (fun cg ->
        Ffs.Fs.mkdir_in_cg_exn fs ~parent:(Ffs.Fs.root fs) ~name:(Fmt.str "cg%03d" cg) ~cg)
  in
  {
    fs;
    group_dirs;
    ino_map = Hashtbl.create 4096;
    daily_scores = Array.make days 1.0;
    daily_utilization = Array.make days 0.0;
    days;
    total_ops;
    skipped = 0;
    next_day = 0;
  }

let day_end d = float_of_int (d + 1) *. Workload.Op.seconds_per_day

let metrics = Obs.Metrics.default

let finish_day e ~progress =
  let d = e.next_day in
  e.daily_scores.(d) <- Layout_score.aggregate e.fs;
  e.daily_utilization.(d) <- Ffs.Fs.utilization e.fs;
  Obs.Metrics.inc metrics "replay_days_total";
  if Obs.Trace.enabled () then
    Obs.Trace.event "replay.day"
      [
        Obs.Trace.i "day" d;
        Obs.Trace.f "score" e.daily_scores.(d);
        Obs.Trace.f "utilization" e.daily_utilization.(d);
      ];
  progress ~day:d ~score:e.daily_scores.(d);
  e.next_day <- e.next_day + 1

(* catastrophic-only: a replay that drops this share of its workload is
   not measuring what it claims to *)
let skip_limit = 0.9

let skip e =
  e.skipped <- e.skipped + 1;
  Obs.Metrics.inc metrics "replay_skips_total";
  if float_of_int e.skipped > skip_limit *. float_of_int e.total_ops then
    raise (Too_many_skips { skipped = e.skipped; total = e.total_ops; limit = skip_limit })

let op_kind = function
  | Workload.Op.Create _ -> "create"
  | Workload.Op.Delete _ -> "delete"
  | Workload.Op.Modify _ -> "modify"

(* out of space is an expected outcome at high utilization (the op is
   skipped, as the paper's aging tool does); every other error means the
   replay itself is broken, so it escapes *)
let skip_if_full e op = function
  | Ok _ -> ()
  | Error Ffs.Error.Out_of_space ->
      Log.warn (fun m ->
          m "out of space replaying %s inode %d; op skipped" (op_kind op)
            (Workload.Op.ino_of op));
      skip e
  | Error err -> Ffs.Error.raise_ err

let apply e op =
  Ffs.Fs.set_time e.fs (Workload.Op.time_of op);
  (* the label list is built only for a live registry: replay is the
     hottest loop and metrics are usually off *)
  if Obs.Metrics.enabled metrics then
    Obs.Metrics.inc metrics ~labels:[ ("kind", op_kind op) ] "replay_ops_total";
  match op with
  | Workload.Op.Create { ino; size; _ } -> (
      match Hashtbl.find_opt e.ino_map ino with
      | Some _ ->
          (* shouldn't happen in a well-formed workload; treat as modify *)
          skip e
      | None ->
          let ipg = Ffs.Params.inodes_per_group (Ffs.Fs.params e.fs) in
          let cg = ino / ipg mod Array.length e.group_dirs in
          let dir = e.group_dirs.(cg) in
          Ffs.Fs.create_file e.fs ~dir ~name:("f" ^ string_of_int ino) ~size
          |> Result.map (fun inum -> Hashtbl.replace e.ino_map ino inum)
          |> skip_if_full e op)
  | Workload.Op.Delete { ino; _ } -> (
      match Hashtbl.find_opt e.ino_map ino with
      | None -> skip e
      | Some inum ->
          Ffs.Fs.delete_inum_exn e.fs inum;
          Hashtbl.remove e.ino_map ino)
  | Workload.Op.Modify { ino; size; _ } -> (
      match Hashtbl.find_opt e.ino_map ino with
      | None -> skip e
      | Some inum -> skip_if_full e op (Ffs.Fs.rewrite_file e.fs ~inum ~size))

let step e ~progress op =
  while e.next_day < e.days && Workload.Op.time_of op >= day_end e.next_day do
    finish_day e ~progress
  done;
  apply e op

let finish e ~progress =
  while e.next_day < e.days do
    finish_day e ~progress
  done;
  {
    fs = e.fs;
    daily_scores = e.daily_scores;
    daily_utilization = e.daily_utilization;
    skipped_ops = e.skipped;
    ino_map = e.ino_map;
  }

(* --- crash-consistent replay ---------------------------------------------- *)

type recovery = {
  after_op : int;
  day : int;
  faults_injected : int;
  problems_found : int;
  repair : Ffs.Check.repair_log;
  files_lost : int;
}

type crash_result = { result : result; recoveries : recovery list }

(* a forgotten inode is unrecoverable: drop its workload mapping so
   later operations on it are skipped rather than misdirected. Shared
   by crash recovery and the scrub hook — any repair may conclude an
   inode cannot be salvaged. *)
let drop_lost_mappings e =
  let lost =
    Hashtbl.fold
      (fun ino inum acc ->
        (* presence alone does not prove the mapping still points at
           the workload's file: repair may recycle a forgotten file's
           inum for its own lost+found directory, so a mapping whose
           inode is no longer a plain file is as lost as a vanished
           one *)
        match Ffs.Fs.inode e.fs inum with
        | inode -> if inode.Ffs.Inode.kind <> Ffs.Inode.File then ino :: acc else acc
        | exception Not_found -> ino :: acc)
      e.ino_map []
  in
  List.iter (fun ino -> Hashtbl.remove e.ino_map ino) lost;
  (* the placement trick's per-group directories are infrastructure,
     not workload data: if the repair concluded one was unrecoverable,
     recreate it so its group keeps receiving the workload's
     allocations instead of failing every later create *)
  Array.iteri
    (fun cg inum ->
      match Ffs.Fs.inode e.fs inum with
      | _ -> ()
      | exception Not_found ->
          e.group_dirs.(cg) <-
            Ffs.Fs.mkdir_in_cg_exn e.fs ~parent:(Ffs.Fs.root e.fs)
              ~name:(Fmt.str "cg%03d" cg) ~cg)
    e.group_dirs;
  lost

(* torn metadata writes per crash *)
let crash_intensity = 4

let crash e ~after_op ~rng =
  (* power fails just after operation [after_op]: a burst of torn
     metadata writes, then fsck-with-repair brings the image back to
     consistency before the replay resumes with the next day's traffic *)
  let spec = Fault.Plan.gen ~rng ~intensity:crash_intensity in
  let events = Fault.Inject.apply e.fs ~rng spec in
  let before = Ffs.Check.run e.fs in
  let repair = Ffs.Check.repair_exn e.fs in
  Obs.Metrics.inc metrics "replay_crashes_total";
  let lost = drop_lost_mappings e in
  if Obs.Trace.enabled () then
    Obs.Trace.event "replay.crash"
      [
        Obs.Trace.i "after_op" after_op;
        Obs.Trace.i "faults" (List.length events);
        Obs.Trace.i "problems" (List.length before.Ffs.Check.problems);
        Obs.Trace.i "files_lost" (List.length lost);
      ];
  {
    after_op;
    day = min (e.days - 1) e.next_day;
    faults_injected = List.length events;
    problems_found = List.length before.Ffs.Check.problems;
    repair;
    files_lost = List.length lost;
  }

(* --- checkpoint/resume ----------------------------------------------------- *)

(* The complete state of a paused replay: a shallow copy of the engine,
   plus the position in the op stream, the fault PRNG state, the
   not-yet-fired crash points, the recoveries so far, and a snapshot of
   the metrics registry. A checkpoint SHARES the engine's image, tables
   and arrays — serialise it (Checkpoint.save) before continuing the
   run, or treat the run as abandoned. *)
type checkpoint = {
  ck_engine : engine;
  ck_next_op : int;  (* index of the first op not yet applied *)
  ck_ops_crc : int32;  (* fingerprint of the workload being replayed *)
  ck_fault_rng : Util.Prng.t;
  ck_pending_crashes : int list;
  ck_recoveries : recovery list;  (* reverse chronological *)
  ck_metrics : Obs.Metrics.snapshot;
}

let ops_fingerprint ops = Recover.Crc32.string (Marshal.to_string (ops : Workload.Op.t array) [])

let checkpoint_day ck = ck.ck_engine.next_day
let checkpoint_next_op ck = ck.ck_next_op
let checkpoint_metrics ck = ck.ck_metrics
let checkpoint_fs ck = ck.ck_engine.fs

(* the mutable counters are the only fields a copy must not share *)
let copy_engine e = { e with skipped = e.skipped }

let checkpoint_of_engine e ~next_op ~ops_crc ~rng ~pending ~recoveries =
  {
    ck_engine = copy_engine e;
    ck_next_op = next_op;
    ck_ops_crc = ops_crc;
    ck_fault_rng = Util.Prng.copy rng;
    ck_pending_crashes = pending;
    ck_recoveries = recoveries;
    ck_metrics = Obs.Metrics.snapshot metrics;
  }

(* --- portable (serialisable) forms ----------------------------------------- *)

(* What actually reaches disk: the fs flattened to its canonical
   {!Ffs.Fs.portable} (raw bitmap bytes, no derived indexes, no backend
   handles — an mmap-backed volume's [Fs.t] must never meet [Marshal]),
   the inode map as a sorted association list, everything else verbatim.
   Conversions deep-copy the mutable pieces, so a portable value is a
   stable snapshot even while the run continues. *)
type portable_checkpoint = {
  pc_fs : Ffs.Fs.portable;
  pc_group_dirs : int array;
  pc_ino_map : (int * int) list;  (* sorted by workload inode *)
  pc_daily_scores : float array;
  pc_daily_utilization : float array;
  pc_days : int;
  pc_total_ops : int;
  pc_skipped : int;
  pc_next_day : int;
  pc_next_op : int;
  pc_ops_crc : int32;
  pc_fault_rng : Util.Prng.t;
  pc_pending_crashes : int list;
  pc_recoveries : recovery list;
  pc_metrics : Obs.Metrics.snapshot;
}

let sorted_bindings h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort compare

let portable_of_checkpoint ck =
  let e = ck.ck_engine in
  {
    pc_fs = Ffs.Fs.to_portable e.fs;
    pc_group_dirs = Array.copy e.group_dirs;
    pc_ino_map = sorted_bindings e.ino_map;
    pc_daily_scores = Array.copy e.daily_scores;
    pc_daily_utilization = Array.copy e.daily_utilization;
    pc_days = e.days;
    pc_total_ops = e.total_ops;
    pc_skipped = e.skipped;
    pc_next_day = e.next_day;
    pc_next_op = ck.ck_next_op;
    pc_ops_crc = ck.ck_ops_crc;
    pc_fault_rng = Util.Prng.copy ck.ck_fault_rng;
    pc_pending_crashes = ck.ck_pending_crashes;
    pc_recoveries = ck.ck_recoveries;
    pc_metrics = ck.ck_metrics;
  }

let checkpoint_of_portable ?backend pc =
  let ino_map = Hashtbl.create (max 4096 (List.length pc.pc_ino_map)) in
  List.iter (fun (k, v) -> Hashtbl.replace ino_map k v) pc.pc_ino_map;
  {
    ck_engine =
      {
        fs = Ffs.Fs.of_portable ?backend pc.pc_fs;
        group_dirs = Array.copy pc.pc_group_dirs;
        ino_map;
        daily_scores = Array.copy pc.pc_daily_scores;
        daily_utilization = Array.copy pc.pc_daily_utilization;
        days = pc.pc_days;
        total_ops = pc.pc_total_ops;
        skipped = pc.pc_skipped;
        next_day = pc.pc_next_day;
      };
    ck_next_op = pc.pc_next_op;
    ck_ops_crc = pc.pc_ops_crc;
    ck_fault_rng = Util.Prng.copy pc.pc_fault_rng;
    ck_pending_crashes = pc.pc_pending_crashes;
    ck_recoveries = pc.pc_recoveries;
    ck_metrics = pc.pc_metrics;
  }

type portable_result = {
  pr_fs : Ffs.Fs.portable;
  pr_daily_scores : float array;
  pr_daily_utilization : float array;
  pr_skipped_ops : int;
  pr_ino_map : (int * int) list;  (* sorted by workload inode *)
}

let portable_of_result (r : result) =
  {
    pr_fs = Ffs.Fs.to_portable r.fs;
    pr_daily_scores = Array.copy r.daily_scores;
    pr_daily_utilization = Array.copy r.daily_utilization;
    pr_skipped_ops = r.skipped_ops;
    pr_ino_map = sorted_bindings r.ino_map;
  }

let result_of_portable ?backend pr =
  let ino_map = Hashtbl.create (max 4096 (List.length pr.pr_ino_map)) in
  List.iter (fun (k, v) -> Hashtbl.replace ino_map k v) pr.pr_ino_map;
  {
    fs = Ffs.Fs.of_portable ?backend pr.pr_fs;
    daily_scores = Array.copy pr.pr_daily_scores;
    daily_utilization = Array.copy pr.pr_daily_utilization;
    skipped_ops = pr.pr_skipped_ops;
    ino_map;
  }

let corrupt_resume fmt = Fmt.kstr (fun m -> Ffs.Error.raise_ (Ffs.Error.Corrupt m)) fmt

let engine_of_checkpoint ~days ~ops ~ops_crc ck =
  let e = ck.ck_engine in
  if ck.ck_ops_crc <> ops_crc then
    corrupt_resume "resume: checkpoint was taken against a different workload";
  if e.days <> days then
    corrupt_resume "resume: checkpoint is for a %d-day run, not %d days" e.days days;
  if e.total_ops <> Array.length ops then
    corrupt_resume "resume: checkpoint expects %d operations, workload has %d" e.total_ops
      (Array.length ops);
  copy_engine e

(* --- the one entry point ------------------------------------------------------ *)

let run_resumable ?(config = Ffs.Fs.default_config) ?(backend = Ffs.Store.Heap_backend)
    ?(progress = fun ~day:_ ~score:_ -> ()) ?resume ?(should_stop = fun () -> false)
    ?(checkpoint_every = 0) ?(on_checkpoint = fun (_ : checkpoint) -> ()) ?(scrub_every = 0)
    ?(on_scrub = fun (_ : Ffs.Check.scrub_log) -> ()) ~params ~days ~crashes ~fault_seed
    ops =
  Obs.Trace.span "replay.run"
    [ Obs.Trace.i "days" days; Obs.Trace.i "ops" (Array.length ops) ]
  @@ fun () ->
  let ops_crc = ops_fingerprint ops in
  let e, rng, pending0, recoveries0, start_op =
    match resume with
    | None ->
        let e = make_engine ~config ~backend ~params ~days ~total_ops:(Array.length ops) in
        (* the logical stream is a derived child of --fault-seed, the
           sibling of the device stream ([Fault.Plan.device_seed]), so one
           seed reproduces a whole mixed-fault run *)
        let rng = Util.Prng.create ~seed:(Fault.Plan.logical_seed ~fault_seed) in
        let points = Fault.Plan.crash_points ~rng ~n_ops:(Array.length ops) ~crashes in
        (e, rng, points, [], 0)
    | Some ck ->
        let e = engine_of_checkpoint ~days ~ops ~ops_crc ck in
        (e, ck.ck_fault_rng, ck.ck_pending_crashes, ck.ck_recoveries, ck.ck_next_op)
  in
  let recoveries = ref recoveries0 in
  let pending = ref pending0 in
  let last_ckpt_day = ref e.next_day in
  let last_scrub_day = ref e.next_day in
  let n = Array.length ops in
  let interrupted = ref None in
  let i = ref start_op in
  while !interrupted = None && !i < n do
    let idx = !i in
    step e ~progress ops.(idx);
    (match !pending with
    | p :: rest when p = idx ->
        pending := rest;
        recoveries := crash e ~after_op:idx ~rng :: !recoveries
    | _ -> ());
    incr i;
    let take () =
      checkpoint_of_engine e ~next_op:!i ~ops_crc ~rng ~pending:!pending ~recoveries:!recoveries
    in
    if scrub_every > 0 && e.next_day >= !last_scrub_day + scrub_every then begin
      (* scrub before any checkpoint of the same day boundary, so the
         checkpoint captures the healed image *)
      last_scrub_day := e.next_day;
      let log = Ffs.Check.scrub_exn e.fs in
      (* a repairing scrub may have discarded unrecoverable inodes
         (a torn sync can take out a bitmap region wholesale);
         reconcile the workload map exactly as a crash recovery does,
         so their later operations are skipped, not misdirected *)
      if log.Ffs.Check.repaired then ignore (drop_lost_mappings e);
      on_scrub log
    end;
    if should_stop () then interrupted := Some (take ())
    else if checkpoint_every > 0 && e.next_day >= !last_ckpt_day + checkpoint_every then begin
      last_ckpt_day := e.next_day;
      Obs.Metrics.inc metrics "replay_checkpoints_total";
      on_checkpoint (take ())
    end
  done;
  match !interrupted with
  | Some ck -> `Interrupted ck
  | None -> `Completed { result = finish e ~progress; recoveries = List.rev !recoveries }

let run ?config ?backend ?progress ~params ~days ops =
  match run_resumable ?config ?backend ?progress ~params ~days ~crashes:0 ~fault_seed:0 ops with
  | `Completed cr -> cr.result
  | `Interrupted _ -> assert false (* no should_stop was supplied *)

let hot_inums (result : result) ~since =
  Ffs.Fs.fold_files result.fs ~init:[] ~f:(fun acc ino ->
      if ino.Ffs.Inode.mtime >= since then ino.Ffs.Inode.inum :: acc else acc)
