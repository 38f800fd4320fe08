(* Storage-backend throughput: the same paper-geometry aging run timed
   on the in-heap Bytes store, the mmap'd file store and the checksummed
   resilient layer over Bytes, plus the on-disk cost of full versus
   delta checkpoints and the throughput of a scrub pass. The run
   asserts the three backends agree bit-for-bit before any number is
   reported. *)

type level = { backend : string; seconds : float; days_per_sec : float }

type result = {
  digest : string;
  full_bytes : int;
  delta_bytes : int;
  levels : level list;
  resilient_overhead_pct : float;
  scrub_seconds : float;
  scrub_mb : float;
  scrub_chunks : int;
  scrub_verified : int;
}

let days = 4
let seed = 960117

(* the same checkpoint written both ways — through the delta writer and
   in full — so the size comparison is of one moment, not of two
   different days. With the paper's placement trick a whole day dirties
   every group, so the day-granularity delta carries all of them; the
   number reported here is the honest cost of that worst case (the
   savings appear at finer intervals or on localized workloads). *)
let checkpoint_sizes () =
  let params = Ffs.Params.small_test_fs in
  let days = 3 in
  let profile = { (Workload.Ground_truth.scaled params ~days) with seed } in
  let ops = (Workload.Ground_truth.generate params profile).Workload.Ground_truth.ops in
  let root = Filename.temp_file "ffs_bench_ck" ".d" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  Fun.protect ~finally:(fun () -> Gate.rm_rf root)
    (fun () ->
      let ddir = Filename.concat root "delta" and fdir = Filename.concat root "full" in
      let w = Aging.Checkpoint.writer ~dir:ddir ~keep:0 ~full_every:8 () in
      (match
         Aging.Replay.run_resumable ~params ~days ~crashes:0 ~fault_seed:0
           ~checkpoint_every:1
           ~on_checkpoint:(fun ck ->
             (* full first: save_auto clears the dirty set *)
             ignore (Aging.Checkpoint.save_exn ~dir:fdir ~keep:0 ck);
             ignore (Aging.Checkpoint.save_auto_exn w ck))
           ops
       with
      | `Completed _ -> ()
      | `Interrupted _ -> failwith "backend bench: checkpoint run interrupted");
      let size p = (Unix.stat p).Unix.st_size in
      let newest_delta =
        List.find
          (fun p -> Aging.Checkpoint.is_delta_file (Filename.basename p))
          (Aging.Checkpoint.list ~dir:ddir)
      in
      let full_twin =
        Filename.concat fdir
          (Filename.chop_suffix (Filename.basename newest_delta) "-delta.ffsck"
          ^ ".ffsck")
      in
      (size full_twin, size newest_delta))

let run () =
  let params = Ffs.Params.paper_fs in
  let profile = { (Workload.Ground_truth.scaled params ~days) with seed } in
  let ops = (Workload.Ground_truth.generate params profile).Workload.Ground_truth.ops in
  (* best of 3 per backend: one sample of a one-second run is too noisy
     for a 10% overhead budget *)
  let measure spec =
    let aged = ref None in
    let (digest, blocks), seconds =
      Gate.best_of ~n:3 (fun () ->
          let t0 = Unix.gettimeofday () in
          let fs = (Aging.Replay.run ~backend:spec ~params ~days ops).Aging.Replay.fs in
          let seconds = Unix.gettimeofday () -. t0 in
          aged := Some fs;
          ((Ffs.Fs.digest fs, (Ffs.Fs.stats fs).Ffs.Fs.blocks_allocated), seconds))
    in
    let backend = Ffs.Store.spec_name spec in
    let level = { backend; seconds; days_per_sec = float_of_int days /. seconds } in
    (level, (digest, blocks), aged)
  in
  let levels =
    List.map measure
      [
        Ffs.Store.Heap_backend;
        Ffs.Store.Mmap_backend None;
        Ffs.Store.resilient_spec Ffs.Store.Heap_backend;
      ]
  in
  (* the correctness claim the bench rides on: no backend may change a
     single bit of the aged image *)
  let bytes, (digest, blocks), _ = List.hd levels in
  List.iter
    (fun (l, (d, b), _) ->
      if d <> digest || b <> blocks then
        failwith
          (Fmt.str
             "backend bench: results diverged across backends: %s (%s, %d blocks) vs %s \
              (%s, %d blocks)"
             bytes.backend digest blocks l.backend d b))
    levels;
  (* scrub throughput: acknowledge the aged resilient image (the moment
     checksums are blessed, as a checkpoint save would) and time the
     verify walk *)
  let resilient, _, aged = List.nth levels 2 in
  let store = Ffs.Fs.store (Option.get !aged) in
  Ffs.Store.clear_dirty store;
  let t0 = Unix.gettimeofday () in
  let report = Ffs.Store.scrub store in
  let scrub_seconds = Unix.gettimeofday () -. t0 in
  if report.Ffs.Store.scrub_verified <> report.Ffs.Store.scrub_chunks then
    failwith
      (Fmt.str "backend bench: clean volume did not verify: %d/%d chunks"
         report.Ffs.Store.scrub_verified report.Ffs.Store.scrub_chunks);
  let full_bytes, delta_bytes = checkpoint_sizes () in
  {
    digest;
    full_bytes;
    delta_bytes;
    levels = List.map (fun (l, _, _) -> l) levels;
    resilient_overhead_pct = 100.0 *. ((resilient.seconds /. bytes.seconds) -. 1.0);
    scrub_seconds;
    scrub_mb = float_of_int (Ffs.Store.length store) /. (1024.0 *. 1024.0);
    scrub_chunks = report.Ffs.Store.scrub_chunks;
    scrub_verified = report.Ffs.Store.scrub_verified;
  }

let pins r =
  [
    ("fs", Obs.Json.String "paper_fs");
    ("days", Obs.Json.Int days);
    ("seed", Obs.Json.Int seed);
    ("digest", Obs.Json.String r.digest);
    ("checkpoint_full_bytes", Obs.Json.Int r.full_bytes);
    ("checkpoint_delta_bytes", Obs.Json.Int r.delta_bytes);
    ("scrub_mb", Obs.Json.Float r.scrub_mb);
    ("scrub_chunks", Obs.Json.Int r.scrub_chunks);
    ("scrub_verified", Obs.Json.Int r.scrub_verified);
  ]

let figures r =
  List.concat_map
    (fun l ->
      [
        (l.backend ^ "_seconds", l.seconds); (l.backend ^ "_days_per_sec", l.days_per_sec);
      ])
    r.levels
  @ [
      (* the resilient level is priced by its overhead, not ranked *)
      ( "best_days_per_sec",
        List.fold_left
          (fun a l -> if l.backend = "resilient" then a else Float.max a l.days_per_sec)
          0.0 r.levels );
      ("resilient_overhead_pct", r.resilient_overhead_pct);
      ("scrub_seconds", r.scrub_seconds);
      ("scrub_mb_per_sec", r.scrub_mb /. r.scrub_seconds);
    ]

let limits =
  [
    ("best_days_per_sec", Gate.Max_drop_pct 30.);
    ("resilient_overhead_pct", Gate.At_most 10.);
    ("scrub_mb_per_sec", Gate.Max_drop_pct 30.);
  ]

let pp ppf r =
  Fmt.pf ppf
    "@[<v>backend bench: %d days aged per backend, best of 3 (seed %d), digest %s@ %a@ \
     resilient overhead over bytes: %.1f%%@ checkpoint bytes (same moment): full %d, \
     delta %d (delta/full %.2f)@ scrub: %.1f MB in %.4fs = %.0f MB/sec (%d/%d chunks \
     verified)@]"
    days seed r.digest
    (Fmt.list ~sep:Fmt.cut (fun ppf l ->
         Fmt.pf ppf "%-9s %6.2f days/sec (%.3fs)" l.backend l.days_per_sec l.seconds))
    r.levels r.resilient_overhead_pct r.full_bytes r.delta_bytes
    (float_of_int r.delta_bytes /. float_of_int (max 1 r.full_bytes))
    r.scrub_mb r.scrub_seconds (r.scrub_mb /. r.scrub_seconds) r.scrub_verified
    r.scrub_chunks
