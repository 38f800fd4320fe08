(* The benchmark harness.

   With no arguments it regenerates every table and figure of the
   paper's evaluation (Table 1, Figures 1-6, Table 2), prints the
   shape-check summary, and finishes with Bechamel microbenchmarks of
   the allocator hot paths.

   Usage:
     main.exe [--days N] [--seed N] [--jobs N] [--csv-dir DIR|--no-csv]
              [--alloc-ops N] [--alloc-out PATH] [--fleet-out PATH]
              [--backend-out PATH] [--scrub-out PATH] [EXPERIMENT ...]
   where EXPERIMENT is one of: table1 fig1 fig2 fig3 fig4 fig5 fig6
   table2 checks ablations lfs micro alloc fleet backend scrub. The
   default runs everything at the paper's full scale (300 days; several
   minutes). *)

let experiments =
  [ "table1"; "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "table2"; "checks";
    "ablations"; "lfs"; "micro"; "alloc"; "fleet"; "backend"; "scrub" ]

(* --- allocation throughput (BENCH_alloc.json) ------------------------------ *)

(* run the scan-vs-indexed allocation benchmark, compare against the
   committed baseline in [out] (if any), then overwrite [out] with the
   new figures. Returns false on a >20% regression of the indexed
   allocs/sec — unless FFS_BENCH_ALLOC_SKIP_BASELINE=1, the escape
   hatch for noisy CI machines. *)
let run_alloc ~ops ~out =
  print_endline "\n=== Allocation throughput: bitmap scan vs extent index ===\n";
  let baseline =
    if Sys.file_exists out then
      let contents = In_channel.with_open_text out In_channel.input_all in
      match Obs.Json.of_string contents with
      | Ok j -> Some j
      | Error msg ->
          Fmt.epr "[bench] ignoring unreadable baseline %s: %s@." out msg;
          None
    else None
  in
  let r = Benchlib.Alloc_bench.run ~ops () in
  Fmt.pr "%a@." Benchlib.Alloc_bench.pp r;
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (Obs.Json.to_string (Benchlib.Alloc_bench.to_json r));
      Out_channel.output_char oc '\n');
  Fmt.pr "wrote %s@." out;
  let skip = Sys.getenv_opt "FFS_BENCH_ALLOC_SKIP_BASELINE" = Some "1" in
  match baseline with
  | Some b when not skip -> (
      match Benchlib.Alloc_bench.gate ~baseline:b r with
      | Ok () -> true
      | Error msg ->
          Fmt.epr "[bench] %s@." msg;
          false)
  | Some _ ->
      Fmt.pr "baseline gate skipped (FFS_BENCH_ALLOC_SKIP_BASELINE=1)@.";
      true
  | None -> true

(* --- fleet supervision throughput (BENCH_fleet.json) ----------------------- *)

(* volumes aged per hour at --jobs 1/2/4 on the standard small fleet;
   the run itself asserts the aggregate digest is identical at every
   concurrency level. Same baseline-gate shape as run_alloc. *)
let run_fleet_bench ~out =
  print_endline "\n=== Fleet supervision throughput: volumes/hour by jobs ===\n";
  let baseline =
    if Sys.file_exists out then
      let contents = In_channel.with_open_text out In_channel.input_all in
      match Obs.Json.of_string contents with
      | Ok j -> Some j
      | Error msg ->
          Fmt.epr "[bench] ignoring unreadable baseline %s: %s@." out msg;
          None
    else None
  in
  let r = Benchlib.Fleet_bench.run () in
  Fmt.pr "%a@." Benchlib.Fleet_bench.pp r;
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (Obs.Json.to_string (Benchlib.Fleet_bench.to_json r));
      Out_channel.output_char oc '\n');
  Fmt.pr "wrote %s@." out;
  let skip = Sys.getenv_opt "FFS_BENCH_FLEET_SKIP_BASELINE" = Some "1" in
  match baseline with
  | Some b when not skip -> (
      match Benchlib.Fleet_bench.gate ~baseline:b r with
      | Ok () -> true
      | Error msg ->
          Fmt.epr "[bench] %s@." msg;
          false)
  | Some _ ->
      Fmt.pr "baseline gate skipped (FFS_BENCH_FLEET_SKIP_BASELINE=1)@.";
      true
  | None -> true

(* --- storage backends (BENCH_backend.json) --------------------------------- *)

(* days/sec aging the paper volume on the bytes and mmap backends, plus
   full-vs-delta checkpoint sizes; the run itself asserts the aged image
   digest is identical on every backend. Same baseline-gate shape as
   run_alloc. *)
let run_backend_bench ~out =
  print_endline "\n=== Storage backends: days/sec by backend, checkpoint sizes ===\n";
  let baseline =
    if Sys.file_exists out then
      let contents = In_channel.with_open_text out In_channel.input_all in
      match Obs.Json.of_string contents with
      | Ok j -> Some j
      | Error msg ->
          Fmt.epr "[bench] ignoring unreadable baseline %s: %s@." out msg;
          None
    else None
  in
  let r = Benchlib.Backend_bench.run () in
  Fmt.pr "%a@." Benchlib.Backend_bench.pp r;
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc
        (Obs.Json.to_string (Benchlib.Backend_bench.to_json r));
      Out_channel.output_char oc '\n');
  Fmt.pr "wrote %s@." out;
  let skip = Sys.getenv_opt "FFS_BENCH_BACKEND_SKIP_BASELINE" = Some "1" in
  match baseline with
  | Some b when not skip -> (
      match Benchlib.Backend_bench.gate ~baseline:b r with
      | Ok () -> true
      | Error msg ->
          Fmt.epr "[bench] %s@." msg;
          false)
  | Some _ ->
      Fmt.pr "baseline gate skipped (FFS_BENCH_BACKEND_SKIP_BASELINE=1)@.";
      true
  | None -> true

(* --- self-healing storage (BENCH_scrub.json) ------------------------------- *)

(* checksummed-store overhead vs raw (the run asserts the two aged
   images are bit-identical) and scrub MB/sec over the aged volume. The
   overhead budget is absolute (<= 10%); the throughput gate has the
   same baseline shape as run_alloc. *)
let run_scrub_bench ~out =
  print_endline "\n=== Self-healing storage: checksummed overhead, scrub MB/sec ===\n";
  let baseline =
    if Sys.file_exists out then
      let contents = In_channel.with_open_text out In_channel.input_all in
      match Obs.Json.of_string contents with
      | Ok j -> Some j
      | Error msg ->
          Fmt.epr "[bench] ignoring unreadable baseline %s: %s@." out msg;
          None
    else None
  in
  let r = Benchlib.Scrub_bench.run () in
  Fmt.pr "%a@." Benchlib.Scrub_bench.pp r;
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (Obs.Json.to_string (Benchlib.Scrub_bench.to_json r));
      Out_channel.output_char oc '\n');
  Fmt.pr "wrote %s@." out;
  let skip = Sys.getenv_opt "FFS_BENCH_SCRUB_SKIP_BASELINE" = Some "1" in
  match baseline with
  | Some b when not skip -> (
      match Benchlib.Scrub_bench.gate ~baseline:b r with
      | Ok () -> true
      | Error msg ->
          Fmt.epr "[bench] %s@." msg;
          false)
  | Some _ ->
      Fmt.pr "baseline gate skipped (FFS_BENCH_SCRUB_SKIP_BASELINE=1)@.";
      true
  | None -> (
      (* first run: still enforce the absolute overhead budget *)
      match Benchlib.Scrub_bench.gate ~baseline:Obs.Json.Null r with
      | Ok () -> true
      | Error msg ->
          Fmt.epr "[bench] %s@." msg;
          false)

(* --- Bechamel microbenchmarks ---------------------------------------------- *)

let micro_tests () =
  let open Bechamel in
  let params = Ffs.Params.small_test_fs in
  (* a half-loaded group with scattered holes: the allocator's natural
     habitat *)
  let loaded_cg () =
    let cg = Ffs.Cg.create params ~index:0 in
    let rng = Util.Prng.create ~seed:1 in
    for _ = 1 to Ffs.Cg.data_blocks cg / 2 do
      ignore (Ffs.Cg.alloc_block cg ~pref:(Some (Util.Prng.int rng (Ffs.Cg.data_blocks cg))))
    done;
    cg
  in
  let cg = loaded_cg () in
  let alloc_free_block =
    Test.make ~name:"cg block alloc+free"
      (Staged.stage (fun () ->
           match Ffs.Cg.alloc_block cg ~pref:(Some 100) with
           | Some b -> Ffs.Cg.free_block cg b
           | None -> ()))
  in
  let alloc_free_frags =
    Test.make ~name:"cg 3-frag alloc+free"
      (Staged.stage (fun () ->
           match Ffs.Cg.alloc_frags cg ~pref:(Some 800) ~count:3 with
           | Some pos -> Ffs.Cg.free_frags cg ~pos ~count:3
           | None -> ()))
  in
  let cluster =
    Test.make ~name:"cg 7-cluster search+free"
      (Staged.stage (fun () ->
           match Ffs.Cg.alloc_cluster cg ~policy:`First_fit ~pref:(Some 30) ~len:7 with
           | Some b -> Ffs.Cg.free_frags cg ~pos:(b * 8) ~count:56
           | None -> ()))
  in
  let bitmap = Ffs.Bitmap.create 4096 in
  let () =
    let rng = Util.Prng.create ~seed:2 in
    for _ = 1 to 1500 do
      Ffs.Bitmap.set bitmap (Util.Prng.int rng 4096)
    done
  in
  let bitmap_scan =
    Test.make ~name:"bitmap find 8-run in 4096 bits"
      (Staged.stage (fun () -> ignore (Ffs.Bitmap.find_clear_run bitmap ~start:0 ~len:8)))
  in
  (* whole-file creation on a realloc file system, including the window
     relocation, then deletion (steady state) *)
  let fs = Ffs.Fs.create ~config:Ffs.Fs.realloc_config params in
  let dir = Ffs.Fs.root fs in
  let counter = ref 0 in
  let create_delete =
    Test.make ~name:"48KB file create+delete (realloc)"
      (Staged.stage (fun () ->
           incr counter;
           let name = "bench" ^ string_of_int !counter in
           let inum = Ffs.Fs.create_file_exn fs ~dir ~name ~size:(48 * 1024) in
           Ffs.Fs.delete_inum_exn fs inum))
  in
  let aged_small =
    let profile = Workload.Ground_truth.scaled params ~days:5 in
    let gt = Workload.Ground_truth.generate params profile in
    (Aging.Replay.run ~params ~days:5 gt.Workload.Ground_truth.ops).Aging.Replay.fs
  in
  let layout =
    Test.make ~name:"aggregate layout score (small aged fs)"
      (Staged.stage (fun () -> ignore (Aging.Layout_score.aggregate aged_small)))
  in
  let cluster_gate =
    Test.make ~name:"cluster availability gate (run summary)"
      (Staged.stage (fun () -> ignore (Ffs.Cg.longest_free_run cg)))
  in
  let drive = Disk.Drive.create (Disk.Drive.paper_config ()) in
  let disk_service =
    Test.make ~name:"drive service (56KB read)"
      (Staged.stage (fun () ->
           ignore
             (Disk.Drive.service drive ~now:(Disk.Drive.busy_until drive +. 0.0007)
                Disk.Drive.Read ~lba:12345 ~nsectors:112)))
  in
  Test.make_grouped ~name:"hot paths"
    [
      alloc_free_block;
      alloc_free_frags;
      cluster;
      cluster_gate;
      bitmap_scan;
      create_delete;
      layout;
      disk_service;
    ]

let run_micro () =
  let open Bechamel in
  print_endline "\n=== Microbenchmarks (Bechamel, monotonic clock) ===\n";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] (micro_tests ()) in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> Fmt.str "%.0f ns/op" est
        | Some _ | None -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Fmt.str "%.4f" r
        | None -> "-"
      in
      rows := [ name; estimate; r2 ] :: !rows)
    results;
  let rows = List.sort compare !rows in
  print_string (Util.Chart.table ~header:[ "benchmark"; "estimate"; "r^2" ] ~rows)

(* --- dispatch ------------------------------------------------------------------ *)

let () =
  let days = ref 300 in
  let seed = ref 960117 in
  let jobs = ref (Par.Pool.default_jobs ()) in
  let csv_dir = ref (Some "results") in
  let alloc_ops = ref Benchlib.Alloc_bench.default_ops in
  let alloc_out = ref "BENCH_alloc.json" in
  let fleet_out = ref "BENCH_fleet.json" in
  let backend_out = ref "BENCH_backend.json" in
  let scrub_out = ref "BENCH_scrub.json" in
  let picked = ref [] in
  let rec parse = function
    | [] -> ()
    | "--days" :: v :: rest ->
        days := int_of_string v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--jobs" :: v :: rest ->
        jobs := int_of_string v;
        parse rest
    | "--csv-dir" :: v :: rest ->
        csv_dir := Some v;
        parse rest
    | "--no-csv" :: rest ->
        csv_dir := None;
        parse rest
    | "--alloc-ops" :: v :: rest ->
        alloc_ops := int_of_string v;
        parse rest
    | "--alloc-out" :: v :: rest ->
        alloc_out := v;
        parse rest
    | "--fleet-out" :: v :: rest ->
        fleet_out := v;
        parse rest
    | "--backend-out" :: v :: rest ->
        backend_out := v;
        parse rest
    | "--scrub-out" :: v :: rest ->
        scrub_out := v;
        parse rest
    | exp :: rest when List.mem exp experiments ->
        picked := exp :: !picked;
        parse rest
    | arg :: _ ->
        Fmt.epr "unknown argument %S (experiments: %s)@." arg (String.concat " " experiments);
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let wanted name = !picked = [] || List.mem name !picked in
  let needs_context =
    List.exists wanted [ "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "table2"; "checks" ]
  in
  Fmt.pr
    "FFS disk-allocation policy reproduction — Smith & Seltzer, USENIX 1996@.%d-day \
     workload, seed %d, %d jobs@.@."
    !days !seed !jobs;
  Par.Pool.with_pool ~jobs:!jobs @@ fun pool ->
  let timings = Par.Timings.create () in
  let context =
    if needs_context then begin
      let log msg = Fmt.epr "[bench] %s@." msg in
      Some (Benchlib.Experiments.build ~days:!days ~seed:!seed ~pool ~timings ~log ())
    end
    else None
  in
  let with_ctx f = match context with Some ctx -> f ctx | None -> () in
  if wanted "table1" then print_string (Benchlib.Experiments.table1 ());
  if wanted "fig1" then with_ctx (fun ctx -> print_string (Benchlib.Experiments.fig1 ?csv_dir:!csv_dir ctx));
  if wanted "fig2" then with_ctx (fun ctx -> print_string (Benchlib.Experiments.fig2 ?csv_dir:!csv_dir ctx));
  if wanted "fig3" then with_ctx (fun ctx -> print_string (Benchlib.Experiments.fig3 ?csv_dir:!csv_dir ctx));
  if wanted "fig4" then with_ctx (fun ctx -> print_string (Benchlib.Experiments.fig4 ?csv_dir:!csv_dir ctx));
  if wanted "fig5" then with_ctx (fun ctx -> print_string (Benchlib.Experiments.fig5 ?csv_dir:!csv_dir ctx));
  if wanted "fig6" then with_ctx (fun ctx -> print_string (Benchlib.Experiments.fig6 ?csv_dir:!csv_dir ctx));
  if wanted "table2" then with_ctx (fun ctx -> print_string (Benchlib.Experiments.table2 ?csv_dir:!csv_dir ctx));
  if wanted "checks" then
    with_ctx (fun ctx ->
        print_endline "\n=== Shape checks vs the paper ===\n";
        let checks = Benchlib.Experiments.shape_checks ctx in
        Fmt.pr "%a@." Benchlib.Paper_expect.pp_checks checks;
        Fmt.pr "%d of %d shape checks passed@."
          (List.length (List.filter (fun c -> c.Benchlib.Paper_expect.passed) checks))
          (List.length checks));
  if wanted "ablations" then begin
    (* the studies compare configurations against each other, so they
       run at a reduced 90-day scale regardless of --days *)
    print_string (Benchlib.Ablations.all ~seed:!seed ~pool ~timings ())
  end;
  if wanted "lfs" then print_string (Benchlib.Lfs_compare.report ~seed:!seed ~pool ~timings ());
  if wanted "micro" then run_micro ();
  let alloc_ok = if wanted "alloc" then run_alloc ~ops:!alloc_ops ~out:!alloc_out else true in
  let fleet_ok = if wanted "fleet" then run_fleet_bench ~out:!fleet_out else true in
  let backend_ok =
    if wanted "backend" then run_backend_bench ~out:!backend_out else true
  in
  let scrub_ok = if wanted "scrub" then run_scrub_bench ~out:!scrub_out else true in
  if not (Par.Timings.is_empty timings) then
    Fmt.pr "@.=== Task timings ===@.@.%s@." (Par.Timings.report timings);
  if not (alloc_ok && fleet_ok && backend_ok && scrub_ok) then exit 1
