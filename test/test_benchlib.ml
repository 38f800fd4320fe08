(* Integration tests for the benchmark layer: the sequential-I/O and
   hot-file benchmarks on a small aged image, the experiment drivers
   end-to-end at reduced scale, and the committed benchmarks' gate on
   hand-made records. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let params = Ffs.Params.small_test_fs
let days = 8

let aged = ref None

(* one shared small aging run for the whole file (built lazily) *)
let get_aged () =
  match !aged with
  | Some r -> r
  | None ->
      let profile =
        { (Workload.Ground_truth.scaled params ~days) with Workload.Ground_truth.seed = 99 }
      in
      let gt = Workload.Ground_truth.generate params profile in
      let trad = Aging.Replay.run ~params ~days gt.Workload.Ground_truth.ops in
      let re =
        Aging.Replay.run ~config:Ffs.Fs.realloc_config ~params ~days
          gt.Workload.Ground_truth.ops
      in
      List.iter
        (fun (r : Aging.Replay.result) ->
          let report = Ffs.Check.run r.Aging.Replay.fs in
          if not (Ffs.Check.is_clean report) then
            Alcotest.failf "aged image fails fsck: %a" Ffs.Check.pp report)
        [ trad; re ];
      aged := Some (trad, re);
      (trad, re)

let fresh_drive () = Disk.Drive.create (Disk.Drive.paper_config ())

(* --- Seqio ------------------------------------------------------------------ *)

let test_seqio_point_sanity () =
  let trad, _ = get_aged () in
  let p =
    Benchlib.Seqio.run_size ~aged:trad.Aging.Replay.fs ~drive:(fresh_drive ())
      ~corpus_bytes:(2 * 1024 * 1024) ~file_bytes:(64 * 1024) ()
  in
  check_int "file count" 32 p.Benchlib.Seqio.files;
  check_bool "write throughput positive" true (p.Benchlib.Seqio.write_throughput > 0.0);
  check_bool "read throughput positive" true (p.Benchlib.Seqio.read_throughput > 0.0);
  check_bool "read beats write (metadata + lost rotations)" true
    (p.Benchlib.Seqio.read_throughput > p.Benchlib.Seqio.write_throughput);
  check_bool "layout in [0,1]" true
    (p.Benchlib.Seqio.layout_score >= 0.0 && p.Benchlib.Seqio.layout_score <= 1.0)

let test_seqio_does_not_disturb_aged_image () =
  let trad, _ = get_aged () in
  let files_before = Ffs.Fs.file_count trad.Aging.Replay.fs in
  let free_before = Ffs.Fs.free_data_frags trad.Aging.Replay.fs in
  ignore
    (Benchlib.Seqio.run_size ~aged:trad.Aging.Replay.fs ~drive:(fresh_drive ())
       ~corpus_bytes:(1024 * 1024) ~file_bytes:(16 * 1024) ());
  check_int "file count unchanged" files_before (Ffs.Fs.file_count trad.Aging.Replay.fs);
  check_int "free space unchanged" free_before
    (Ffs.Fs.free_data_frags trad.Aging.Replay.fs)

let test_seqio_realloc_layout_wins () =
  let trad, re = get_aged () in
  let run fs =
    Benchlib.Seqio.run_size ~aged:fs ~drive:(fresh_drive ())
      ~corpus_bytes:(2 * 1024 * 1024) ~file_bytes:(32 * 1024) ()
  in
  let pt = run trad.Aging.Replay.fs in
  let pr = run re.Aging.Replay.fs in
  check_bool "realloc layout at least as good" true
    (pr.Benchlib.Seqio.layout_score >= pt.Benchlib.Seqio.layout_score -. 0.02)

let test_seqio_single_file_corpus () =
  let trad, _ = get_aged () in
  let p =
    Benchlib.Seqio.run_size ~aged:trad.Aging.Replay.fs ~drive:(fresh_drive ())
      ~corpus_bytes:(1024 * 1024) ~file_bytes:(4 * 1024 * 1024) ()
  in
  check_int "at least one file" 1 p.Benchlib.Seqio.files

let test_default_sizes_cover_key_points () =
  List.iter
    (fun kb ->
      check_bool (Fmt.str "%dKB present" kb) true
        (List.mem (kb * 1024) Benchlib.Seqio.default_sizes))
    [ 16; 64; 96; 104 ]

(* --- Hotfiles ------------------------------------------------------------------ *)

let test_hot_set_sorted_by_directory () =
  let trad, _ = get_aged () in
  let hot = Benchlib.Hotfiles.hot_set trad ~days in
  check_bool "nonempty" true (hot <> []);
  let dirs = List.map (fun i -> Ffs.Fs.dir_of_inum trad.Aging.Replay.fs i) hot in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  check_bool "directory-sorted" true (nondecreasing dirs)

let test_hotfiles_run () =
  let trad, _ = get_aged () in
  let r = Benchlib.Hotfiles.run ~aged:trad ~drive:(fresh_drive ()) ~days in
  check_bool "files positive" true (r.Benchlib.Hotfiles.files > 0);
  check_bool "bytes positive" true (r.Benchlib.Hotfiles.bytes > 0);
  check_bool "fractions in (0,1]" true
    (r.Benchlib.Hotfiles.fraction_of_files > 0.0
    && r.Benchlib.Hotfiles.fraction_of_files <= 1.0
    && r.Benchlib.Hotfiles.fraction_of_space > 0.0
    && r.Benchlib.Hotfiles.fraction_of_space <= 1.0);
  check_bool "throughputs positive" true
    (r.Benchlib.Hotfiles.read_throughput > 0.0 && r.Benchlib.Hotfiles.write_throughput > 0.0);
  check_bool "reads faster than in-place writes" true
    (r.Benchlib.Hotfiles.read_throughput > r.Benchlib.Hotfiles.write_throughput)

let test_hotfiles_by_size () =
  let trad, _ = get_aged () in
  let buckets = Benchlib.Hotfiles.by_size ~aged:trad ~days in
  check_bool "some buckets" true (buckets <> []);
  List.iter
    (fun b ->
      check_bool "score in range" true
        (b.Aging.Layout_score.score >= 0.0 && b.Aging.Layout_score.score <= 1.0))
    buckets

(* --- Experiments (reduced scale, exercises every driver) ------------------------- *)

let test_experiments_end_to_end () =
  let ctx = Benchlib.Experiments.build ~params ~days ~seed:4321 () in
  check_int "days recorded" days (Benchlib.Experiments.days ctx);
  let csv_dir = Filename.temp_file "ffs_repro" "" in
  Sys.remove csv_dir;
  (* table1 is static *)
  check_bool "table1 mentions the disk" true
    (String.length (Benchlib.Experiments.table1 ()) > 100);
  List.iter
    (fun (name, f) ->
      let report = f ~csv_dir ctx in
      check_bool (name ^ " report nonempty") true (String.length report > 100))
    [
      ("fig1", fun ~csv_dir ctx -> Benchlib.Experiments.fig1 ~csv_dir ctx);
      ("fig2", fun ~csv_dir ctx -> Benchlib.Experiments.fig2 ~csv_dir ctx);
      ("fig3", fun ~csv_dir ctx -> Benchlib.Experiments.fig3 ~csv_dir ctx);
      ("fig5", fun ~csv_dir ctx -> Benchlib.Experiments.fig5 ~csv_dir ctx);
      ("fig6", fun ~csv_dir ctx -> Benchlib.Experiments.fig6 ~csv_dir ctx);
      ("table2", fun ~csv_dir ctx -> Benchlib.Experiments.table2 ~csv_dir ctx);
    ];
  check_bool "csv files written" true
    (Sys.file_exists (Filename.concat csv_dir "fig2_ffs_vs_realloc.csv"));
  (* the shape checks must at least run at small scale *)
  (* the size-specific figure-4 checks are skipped at reduced corpus *)
  let checks = Benchlib.Experiments.shape_checks ctx in
  check_bool "checks produced" true (List.length checks >= 8)

(* --- Gate (hand-made records; no benchmark runs) ---------------------------------- *)

module Gate = Benchlib.Gate

let record ?(benchmark = "demo") ?(pins = [ ("digest", Obs.Json.String "abc") ]) figures =
  { Gate.benchmark; detected_jobs = 2; pins; figures }

let ops n = record [ ("ops_per_sec", n) ]
let drop20 = [ ("ops_per_sec", Gate.Max_drop_pct 20.) ]

(* write [baseline] to a fresh file and check [run] against it *)
let check_against ?(skip_baseline = false) ?(limits = drop20) baseline run =
  let path = Filename.temp_file "ffs_gate" ".json" in
  Gate.write path baseline;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> (path, Gate.check ~skip_baseline ~limits ~baseline:path run))

let fails (_, r) = Result.is_error r

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_gate_drop_limit () =
  check_bool "19% drop passes" false (fails (check_against (ops 100.) (ops 81.)));
  (match check_against (ops 100.) (ops 79.) with
  | _, Ok () -> Alcotest.fail "a 21% drop passed a 20% limit"
  | path, Error msg ->
      check_bool "names the figure" true (contains msg "ops_per_sec");
      check_bool "names the file" true (contains msg path));
  check_bool "skip switch waives the drop limit" false
    (fails (check_against ~skip_baseline:true (ops 100.) (ops 79.)))

let test_gate_budget_ignores_skip () =
  let limits = [ ("overhead_pct", Gate.At_most 10.) ] in
  let overhead x = record [ ("overhead_pct", x) ] in
  check_bool "budget exceeded under the skip switch" true
    (fails (check_against ~skip_baseline:true ~limits (overhead 1.) (overhead 10.5)));
  check_bool "within budget" false
    (fails (check_against ~skip_baseline:true ~limits (overhead 1.) (overhead 9.9)))

let test_gate_pin_mismatch () =
  let run pins = record ~pins [ ("ops_per_sec", 100.) ] in
  check_bool "pin mismatch fails" true
    (fails
       (check_against ~skip_baseline:true (ops 100.)
          (run [ ("digest", Obs.Json.String "abd") ])));
  check_bool "missing pin fails" true (fails (check_against (ops 100.) (run [])))

let test_gate_bad_baseline () =
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "ffs-gate-no-such-file.json" in
  (match Gate.check ~skip_baseline:true ~limits:drop20 ~baseline:missing (ops 100.) with
  | Ok () -> Alcotest.fail "a missing baseline passed"
  | Error msg -> check_bool "names the file" true (contains msg missing));
  let garbage = Filename.temp_file "ffs_gate" ".json" in
  Out_channel.with_open_text garbage (fun oc ->
      Out_channel.output_string oc "{\"benchmark\":");
  let r = Gate.check ~skip_baseline:true ~limits:drop20 ~baseline:garbage (ops 100.) in
  Sys.remove garbage;
  check_bool "unparsable baseline" true (Result.is_error r);
  check_bool "another benchmark's baseline" true
    (fails (check_against (record ~benchmark:"other" [ ("ops_per_sec", 100.) ]) (ops 100.)));
  check_bool "baseline lacks the gated figure" true
    (fails (check_against ~skip_baseline:true (record []) (ops 100.)))

let test_gate_round_trip () =
  let r =
    record
      ~pins:
        [
          ("days", Obs.Json.Int 4);
          ("utilization", Obs.Json.Float 0.70913461538461542);
          ("levels", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Int 2 ]);
        ]
      [ ("seconds", 0.039287090301513672); ("speedup", 6.0); ("per_sec", 2037997.7082933816) ]
  in
  let path = Filename.temp_file "ffs_gate" ".json" in
  Gate.write path r;
  let back = Gate.read path in
  Sys.remove path;
  check_bool "write then read is identity" true (back = Ok r)

let test_best_of () =
  let times = ref [ 0.3; 0.1; 0.2 ] in
  let next () =
    let t = List.hd !times in
    times := List.tl !times;
    t
  in
  let r, best = Gate.best_of ~n:3 (fun () -> ("same", next ())) in
  check_bool "first result, fastest time" true (r = "same" && best = 0.1);
  let k = ref 0 in
  match
    Gate.best_of ~n:3 (fun () ->
        incr k;
        (!k, 0.1))
  with
  | _ -> Alcotest.fail "diverging repetitions were accepted"
  | exception Failure _ -> ()

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "benchlib"
    [
      ( "seqio",
        [
          tc "point sanity" test_seqio_point_sanity;
          tc "copy isolation" test_seqio_does_not_disturb_aged_image;
          tc "realloc layout wins" test_seqio_realloc_layout_wins;
          tc "single-file corpus" test_seqio_single_file_corpus;
          tc "default sizes" test_default_sizes_cover_key_points;
        ] );
      ( "hotfiles",
        [
          tc "sorted by directory" test_hot_set_sorted_by_directory;
          tc "run" test_hotfiles_run;
          tc "by size" test_hotfiles_by_size;
        ] );
      ("experiments", [ slow "end to end (reduced scale)" test_experiments_end_to_end ]);
      ( "gate",
        [
          tc "drop limit" test_gate_drop_limit;
          tc "budget ignores skip switch" test_gate_budget_ignores_skip;
          tc "pin mismatch" test_gate_pin_mismatch;
          tc "bad baseline" test_gate_bad_baseline;
          tc "json round trip" test_gate_round_trip;
          tc "best_of" test_best_of;
        ] );
    ]
