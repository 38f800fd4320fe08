(* The benchmark harness.

   With no arguments it regenerates every table and figure of the
   paper's evaluation (Table 1, Figures 1-6, Table 2), prints the
   shape-check summary, and finishes with Bechamel microbenchmarks of
   the allocator hot paths.

   Usage:
     main.exe [--days N] [--seed N] [--jobs N] [--csv-dir DIR|--no-csv]
              [--rebaseline] [EXPERIMENT ...]
   where EXPERIMENT is one of: table1 fig1 fig2 fig3 fig4 fig5 fig6
   table2 checks ablations lfs micro alloc fleet backend. The default
   runs everything at the paper's full scale (300 days; several
   minutes). Exits 1 when a shape check fails or the alloc, fleet or
   backend benchmark fails its gate against BENCH_<name>.json;
   FFS_BENCH_SKIP_BASELINE=1 skips only the gates' drop limits, and
   --rebaseline rewrites the committed BENCH_<name>.json files. *)

let experiments =
  [ "table1"; "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "table2"; "checks";
    "ablations"; "lfs"; "micro"; "alloc"; "fleet"; "backend" ]

(* --- committed benchmarks (BENCH_<name>.json) -------------------------------- *)

module type GATED = sig
  type result

  val run : unit -> result
  val pp : result Fmt.t
  val pins : result -> (string * Obs.Json.t) list
  val figures : result -> (string * float) list
  val limits : (string * Benchlib.Gate.limit) list
end

let gated_benchmarks : (string * string * (module GATED)) list =
  [
    ( "alloc",
      "Allocation throughput: bitmap scan vs extent index",
      (module Benchlib.Alloc_bench) );
    ( "fleet",
      "Fleet supervision throughput: volumes/hour by jobs",
      (module Benchlib.Fleet_bench) );
    ( "backend",
      "Storage backends: days/sec by backend, scrub MB/sec, checkpoint sizes",
      (module Benchlib.Backend_bench) );
  ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* run one committed benchmark and gate it against BENCH_<name>.json
   (Benchlib.Gate). A gating run writes its record under _build/bench/
   and never touches the committed baseline, so a second run cannot pass
   against a lowered number; --rebaseline writes the committed file and
   then checks against it, so its At_most budgets still apply. *)
let gated ~rebaseline ~skip_baseline (name, title, (module B : GATED)) =
  Fmt.pr "@.=== %s ===@.@." title;
  let r = B.run () in
  Fmt.pr "%a@." B.pp r;
  let record =
    {
      Benchlib.Gate.benchmark = name;
      detected_jobs = Benchlib.Gate.detected_jobs;
      pins = B.pins r;
      figures = B.figures r;
    }
  in
  let baseline = Fmt.str "BENCH_%s.json" name in
  let out = if rebaseline then baseline else Filename.concat "_build/bench" baseline in
  mkdir_p (Filename.dirname out);
  Benchlib.Gate.write out record;
  Fmt.pr "wrote %s@." out;
  match Benchlib.Gate.check ~skip_baseline ~limits:B.limits ~baseline record with
  | Ok () ->
      Fmt.pr "gate passed against %s%s@." baseline
        (if skip_baseline then " (drop limits skipped: FFS_BENCH_SKIP_BASELINE=1)" else "");
      true
  | Error msg ->
      Fmt.epr "[bench] %s@." msg;
      false

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
  let rebaseline = ref false in
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
    | "--rebaseline" :: rest ->
        rebaseline := true;
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
  let checks_ok =
    match context with
    | Some ctx when wanted "checks" ->
        print_endline "\n=== Shape checks vs the paper ===\n";
        let checks = Benchlib.Experiments.shape_checks ctx in
        Fmt.pr "%a@." Benchlib.Paper_expect.pp_checks checks;
        Fmt.pr "%d of %d shape checks passed@."
          (List.length (List.filter (fun c -> c.Benchlib.Paper_expect.passed) checks))
          (List.length checks);
        Benchlib.Paper_expect.all_passed checks
    | _ -> true
  in
  if wanted "ablations" then begin
    (* the studies compare configurations against each other, so they
       run at a reduced 90-day scale regardless of --days *)
    print_string (Benchlib.Ablations.all ~seed:!seed ~pool ~timings ())
  end;
  if wanted "lfs" then print_string (Benchlib.Lfs_compare.report ~seed:!seed ~pool ~timings ());
  if wanted "micro" then run_micro ();
  let skip_baseline = Sys.getenv_opt "FFS_BENCH_SKIP_BASELINE" = Some "1" in
  let gates_ok =
    List.filter (fun (name, _, _) -> wanted name) gated_benchmarks
    |> List.map (gated ~rebaseline:!rebaseline ~skip_baseline)
    |> List.for_all Fun.id
  in
  if not (Par.Timings.is_empty timings) then
    Fmt.pr "@.=== Task timings ===@.@.%s@." (Par.Timings.report timings);
  if not (checks_ok && gates_ok) then exit 1
