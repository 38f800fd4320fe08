(* ffs_fsck: corrupt an FFS image with a seeded fault plan, then audit
   and repair it — the fsck-with-repair demonstration tool. Exits 0
   when the final audit is clean, 1 otherwise. *)

open Cmdliner

let age_fresh ~backend ~params ~days ~seed ~config ~quiet =
  let ops =
    Common.build_workload ~params ~days ~seed ~kind:Common.Ground_truth
      ~profile_kind:Workload.Profiles.Home
  in
  let result, _ = Common.replay ~backend ~params ~days ~config ~quiet ~fault_seed:0 ops in
  result.Aging.Replay.fs

(* --explore: enumerate every crash state of each multi-write operation
   class (all journal prefixes, plus single-elision reorderings within a
   bounded window), repair each one, and demand a clean audit with no
   user data lost. *)
let run_explore fs ~window ~quiet =
  if not quiet then
    Fmt.epr "exploring crash states (reorder window %d)...@." window;
  let report = Recover.Explore.run ~window fs in
  Fmt.pr "%a@." Recover.Explore.pp report;
  if Recover.Explore.all_ok report then 0 else 1

let run image backend store_faults scrub params days seed realloc policy faults
    fault_seed no_repair explore window trace metrics_out quiet =
  Common.obs_setup ~trace ~metrics_out;
  let config = Common.config_of ~realloc ~policy in
  let backend = Common.resolve_backend ~backend ~store_faults ~fault_seed in
  let fs =
    match image with
    | Some path ->
        let img = Common.load_image_or_exit ~backend ~path () in
        if not quiet then Fmt.epr "loaded %s (%s)@." path img.Aging.Image.description;
        img.Aging.Image.result.Aging.Replay.fs
    | None -> age_fresh ~backend ~params ~days ~seed ~config ~quiet
  in
  if explore then begin
    let status = run_explore fs ~window ~quiet in
    Common.obs_finish ~quiet ~trace ~metrics_out;
    status
  end
  else if scrub then begin
    (* --scrub: the self-healing pass (checksum walk, quarantine,
       escalation to repair) instead of inject-and-repair *)
    let status =
      match Ffs.Check.scrub fs with
      | Ok log ->
          Fmt.pr "%a@." Ffs.Check.pp_scrub log;
          if Ffs.Check.scrub_is_clean log then begin
            Fmt.pr "image is clean@.";
            0
          end
          else 1
      | Error e ->
          Fmt.pr "SCRUB FAILED: %a@." Ffs.Error.pp e;
          1
    in
    Common.obs_finish ~quiet ~trace ~metrics_out;
    status
  end
  else begin
  let before = Ffs.Check.run fs in
  Fmt.pr "pre-fault audit: %d problems, %d files, %d directories@."
    (List.length before.Ffs.Check.problems)
    before.Ffs.Check.files before.Ffs.Check.directories;
  let rng = Util.Prng.create ~seed:(Fault.Plan.logical_seed ~fault_seed) in
  let spec = Fault.Plan.gen ~rng ~intensity:faults in
  let events = Fault.Inject.apply fs ~rng spec in
  Fmt.pr "injected %d faults (fault-seed %d):@." (List.length events) fault_seed;
  List.iter (fun e -> Fmt.pr "  - %a@." Fault.Inject.pp_event e) events;
  let dirty = Ffs.Check.run fs in
  Fmt.pr "post-fault audit:@.%a@." Ffs.Check.pp dirty;
  let status =
    if no_repair then if Ffs.Check.is_clean dirty then 0 else 1
    else begin
      let log = Ffs.Check.repair_exn fs in
      Fmt.pr "repair:@.%a@." Ffs.Check.pp_repair log;
      let after = Ffs.Check.run fs in
      if Ffs.Check.is_clean after then begin
        Fmt.pr "image is clean@.";
        0
      end
      else begin
        Fmt.pr "REPAIR FAILED:@.%a@." Ffs.Check.pp after;
        1
      end
    end
  in
  Common.obs_finish ~quiet ~trace ~metrics_out;
  status
  end

let cmd =
  let image =
    Arg.(value & opt (some string) None
         & info [ "image" ] ~docv:"PATH"
             ~doc:"Operate on a saved aged image instead of aging a fresh one \
                   (see $(b,ffs_age --image)).")
  in
  let faults =
    Arg.(value & opt int 8
         & info [ "faults" ] ~docv:"N"
             ~doc:"Approximate number of faults to inject (the plan draws $(docv) \
                   faults spread uniformly over the fault classes).")
  in
  let no_repair =
    Arg.(value & flag
         & info [ "no-repair" ]
             ~doc:"Audit only: inject and report, but leave the image broken.")
  in
  let scrub =
    Arg.(value & flag
         & info [ "scrub" ]
             ~doc:"Scrub instead of injecting logical faults: verify every clean \
                   chunk's checksum (on a resilient store), quarantine unreadable \
                   chunks, audit, and repair if the image needs healing. Exits 0 \
                   only if the final audit is clean.")
  in
  let explore =
    Arg.(value & flag
         & info [ "explore" ]
             ~doc:"Exhaustive crash-point exploration: for each multi-write \
                   operation class, enumerate every crash prefix of its journal \
                   plus bounded single-write reorderings, repair each state, and \
                   verify a clean audit with no user data lost. Exits 0 only if \
                   every state repairs clean.")
  in
  let window =
    Arg.(value & opt int 3
         & info [ "window" ] ~docv:"N"
             ~doc:"Reordering window for $(b,--explore): in each crash prefix, \
                   additionally consider states where one of the last $(docv) \
                   surviving writes was lost.")
  in
  let term =
    Term.(
      const run $ image $ Common.backend_term $ Common.store_faults_term $ scrub
      $ Common.params_term $ Common.days_term $ Common.seed_term
      $ Common.realloc_term $ Common.policy_term $ faults $ Common.fault_seed_term
      $ no_repair $ explore $ window $ Common.trace_term $ Common.metrics_out_term
      $ Common.quiet_term)
  in
  Cmd.v
    (Cmd.info "ffs_fsck"
       ~doc:"Inject seeded faults into an FFS image, then audit and repair it")
    term

let () = exit (Cmd.eval' cmd)
