type level = { jobs : int; seconds : float; volumes_per_hour : float }

type result = { digest : int32; levels : level list }

let volumes = 12
let days = 2
let seed = 960117
let jobs_levels = [ 1; 2; 4 ]

let run () =
  let spec = Fleet.Spec.generate ~fault_rate:0.5 ~volumes ~days ~seed () in
  let measure jobs =
    let state_dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Fmt.str "ffs-fleet-bench-%d-j%d" (Unix.getpid ()) jobs)
    in
    Gate.rm_rf state_dir;
    Fun.protect
      ~finally:(fun () -> Gate.rm_rf state_dir)
      (fun () ->
        let config = { Fleet.Supervisor.default_config with Fleet.Supervisor.jobs } in
        let t0 = Unix.gettimeofday () in
        match Fleet.Supervisor.start ~config ~state_dir spec with
        | Error e -> Ffs.Error.raise_ e
        | Ok outcome ->
            let seconds = Unix.gettimeofday () -. t0 in
            let agg = Fleet.Manifest.aggregate outcome.Fleet.Supervisor.manifest in
            if agg.Fleet.Manifest.completed <> volumes then
              failwith
                (Fmt.str "fleet bench: only %d/%d volumes completed at --jobs %d"
                   agg.Fleet.Manifest.completed volumes jobs);
            ( { jobs; seconds; volumes_per_hour = float_of_int volumes /. seconds *. 3600.0 },
              agg.Fleet.Manifest.digest ))
  in
  let measured = List.map measure jobs_levels in
  let digest = snd (List.hd measured) in
  (* the determinism claim the bench rides on: concurrency level must
     not change a single bit of the aggregate outcome *)
  if List.exists (fun (_, d) -> d <> digest) measured then
    failwith
      (Fmt.str "fleet bench: aggregate digests diverged across jobs levels: %s"
         (String.concat " "
            (List.map (fun (l, d) -> Fmt.str "j%d=0x%08lx" l.jobs d) measured)));
  { digest; levels = List.map fst measured }

let pins r =
  [
    ("volumes", Obs.Json.Int volumes);
    ("days", Obs.Json.Int days);
    ("seed", Obs.Json.Int seed);
    ("jobs_levels", Obs.Json.List (List.map (fun j -> Obs.Json.Int j) jobs_levels));
    ("digest", Obs.Json.String (Fmt.str "0x%08lx" r.digest));
  ]

let figures r =
  List.concat_map
    (fun l ->
      [
        (Fmt.str "j%d_seconds" l.jobs, l.seconds);
        (Fmt.str "j%d_volumes_per_hour" l.jobs, l.volumes_per_hour);
      ])
    r.levels
  @ [
      ( "best_volumes_per_hour",
        List.fold_left (fun a l -> Float.max a l.volumes_per_hour) 0.0 r.levels );
    ]

let limits = [ ("best_volumes_per_hour", Gate.Max_drop_pct 30.) ]

let pp ppf r =
  Fmt.pf ppf "@[<v>fleet bench: %d volumes x %d days (seed %d), digest 0x%08lx@ %a@]"
    volumes days seed r.digest
    (Fmt.list ~sep:Fmt.cut (fun ppf l ->
         Fmt.pf ppf "jobs %d: %8.0f volumes/hour (%.3fs)" l.jobs l.volumes_per_hour
           l.seconds))
    r.levels
