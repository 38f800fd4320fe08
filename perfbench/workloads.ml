(* The benchmark's three workloads. Each has a set-up phase and a timed
   phase, run in separate processes by [run.py]; the timed phase also
   has a traced form that records spans around the calls into each
   layer and reports per-layer metrics. See README.md for why each
   workload was chosen and which metric each layer should move. *)

open Benchlib

let paper_days = 60
let fleet_volumes = 96
let fleet_days = 45
let fleet_checkpoint_every = 15

type ctx = {
  seed : int;
  dir : string;
      (** the workload's scratch directory, shared by set-up and the
          timed processes after it *)
  trace : Spans.t option;  (** [Some] in the traced run *)
}

let span ctx name f = Spans.with_span ctx.trace name f
let now_ns = Spans.now_ns
let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let path ctx name = Filename.concat ctx.dir name

let s name v = Record.metric ~unit_:"s" name v
let ms name v = Record.metric ~unit_:"ms" name v
let us name v = Record.metric ~unit_:"us" name v
let count name v = Record.metric ~unit_:"count" name (float_of_int v)
let ratio name v = Record.metric ~unit_:"ratio" name v

let top_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Checksum of a float series, exact to the last bit. *)
let series_crc a =
  Recover.Crc32.string (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a)))

let crc_hex c = Printf.sprintf "%08lx" c
let last a = a.(Array.length a - 1)

let env ctx sizes =
  Obs.Json.
    [
      ("nproc", Int (Domain.recommended_domain_count ()));
      ("ocaml", String Sys.ocaml_version);
      ("jobs", Int 1);
      ("seed", Int ctx.seed);
      ("sizes", Obj sizes);
      ( "disk_note",
        String
          "checkpoint, manifest and image save times include fsync on the host's disk, \
           not a device's" );
    ]

let record ctx ~workload ~phase ?(attempted = 0) ?(skipped = 0) ?(digests = []) ?(checks = [])
    ~sizes metrics =
  {
    Record.workload;
    seed = ctx.seed;
    phase;
    attempted;
    skipped;
    metrics;
    digests;
    checks;
    env = env ctx sizes;
  }

(* Set-up and run hand small facts to each other through the scratch
   directory. *)
let write_facts ctx kv =
  Out_channel.with_open_text (path ctx "facts.json") (fun oc ->
      output_string oc (Obs.Json.to_string (Obs.Json.Obj kv)))

let read_facts ctx =
  match Obs.Json.of_string (In_channel.with_open_text (path ctx "facts.json") In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith ("facts.json: " ^ e)

let fact_int j k =
  match Option.bind (Obs.Json.member k j) Obs.Json.to_int with
  | Some v -> v
  | None -> failwith ("facts.json: missing " ^ k)

let fact_str j k =
  match Option.bind (Obs.Json.member k j) Obs.Json.to_str with
  | Some v -> v
  | None -> failwith ("facts.json: missing " ^ k)

let well_formed ops = Result.is_ok (Workload.Op.check_well_formed ops)

(* --- per-layer helpers ------------------------------------------------------ *)

let gc_counters () =
  let st = Gc.quick_stat () in
  (st.Gc.minor_words, st.Gc.major_collections)

let gc_metrics (w0, c0) =
  let w1, c1 = gc_counters () in
  [
    Record.metric ~unit_:"Mwords" "gc.minor_mwords" ((w1 -. w0) /. 1e6);
    count "gc.major_collections" (c1 - c0);
  ]

let pct_or_zero ~p sorted scale =
  match Pct.select ~p sorted with Some v -> float_of_int v *. scale | None -> 0.0

let fs_metrics (probes : Mirror.probe list) =
  let group name pick =
    let calls = List.map pick probes in
    let all = Pct.samples () in
    List.iter (fun (c : Mirror.calls) -> Array.iter (Pct.add all) (Pct.to_array c.ns)) calls;
    let sorted = Pct.sorted all in
    let n = Array.length sorted in
    let words = List.fold_left (fun acc c -> acc +. c.Mirror.words) 0.0 calls in
    [
      count (Fmt.str "fs.%s_calls" name) n;
      s (Fmt.str "fs.%s_s" name) (float_of_int (Array.fold_left ( + ) 0 sorted) *. 1e-9);
      us (Fmt.str "fs.%s_us_p50" name) (pct_or_zero ~p:0.5 sorted 1e-3);
      us (Fmt.str "fs.%s_us_p99" name) (pct_or_zero ~p:0.99 sorted 1e-3);
      Record.metric ~unit_:"words"
        (Fmt.str "fs.%s_minor_words_per_call" name)
        (if n = 0 then 0.0 else words /. float_of_int n);
    ]
  in
  group "create" (fun p -> p.Mirror.create)
  @ group "rewrite" (fun p -> p.Mirror.rewrite)
  @ group "delete" (fun p -> p.Mirror.delete)

let layout_metrics (probes : Mirror.probe list) =
  let n = List.fold_left (fun acc p -> acc + Pct.count p.Mirror.score.Mirror.ns) 0 probes in
  let ns = List.fold_left (fun acc p -> acc + Pct.total p.Mirror.score.Mirror.ns) 0 probes in
  [ count "layout_score.calls" n; s "layout_score.s" (float_of_int ns *. 1e-9) ]

(* fidelity counts from the allocator's existing counters *)
let alloc_metrics snap =
  let c = Obs.Metrics.counter_total snap in
  let share a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
  let hits = c "ffs_alloc_pref_hit_total" and misses = c "ffs_alloc_pref_miss_total" in
  let attempts = c "ffs_realloc_attempts_total" and moves = c "ffs_realloc_moves_total" in
  [
    ratio "cg.pref_hit_ratio" (share hits misses);
    count "cg.fallbacks" (c "ffs_alloc_cg_fallbacks_total");
    ratio "fs.realloc_success_ratio"
      (if attempts = 0 then 0.0 else float_of_int moves /. float_of_int attempts);
  ]

let with_metrics f =
  let m = Obs.Metrics.default in
  Obs.Metrics.reset m;
  Obs.Metrics.set_enabled m true;
  let r = Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled m false) f in
  (r, Obs.Metrics.snapshot m)

(* Wall time between consecutive [progress] callbacks: one sample per
   simulated day. *)
let day_clock () =
  let samples = Pct.samples () in
  let last = ref (now_ns ()) in
  let start () = last := now_ns () in
  let progress ~day:_ ~score:_ =
    let t = now_ns () in
    Pct.add samples (t - !last);
    last := t
  in
  (samples, start, progress)

let replay_metrics ~run_s ~days ~skips =
  let sorted = Pct.sorted days in
  [
    s "replay.run_s" run_s;
    ms "replay.day_ms_p50" (pct_or_zero ~p:0.5 sorted 1e-6);
    ms "replay.day_ms_p90" (pct_or_zero ~p:0.9 sorted 1e-6);
    count "replay.skips" skips;
  ]

let self_s spans name =
  List.fold_left
    (fun acc (n, _, secs) -> if n = name then acc +. secs else acc)
    0.0 (Spans.self_by_name spans)

let total_s spans name =
  List.fold_left
    (fun acc sp -> if sp.Spans.name = name then acc +. Spans.duration_s sp else acc)
    0.0 spans

let span_count spans name = List.length (List.filter (fun sp -> sp.Spans.name = name) spans)

(* Every per-layer metric the benchmark defines, with its unit, in one
   order; a workload supplies the ones its layers work on and the rest
   read 0. *)
let per_layer =
  let fs_call op =
    [
      (Fmt.str "fs.%s_calls" op, "count");
      (Fmt.str "fs.%s_s" op, "s");
      (Fmt.str "fs.%s_us_p50" op, "us");
      (Fmt.str "fs.%s_us_p99" op, "us");
      (Fmt.str "fs.%s_minor_words_per_call" op, "words");
    ]
  in
  [ ("workload.gen_s", "s"); ("workload.ops", "count"); ("workload.minor_words_per_op", "words") ]
  @ fs_call "create" @ fs_call "rewrite" @ fs_call "delete"
  @ [
      ("cg.pref_hit_ratio", "ratio");
      ("cg.fallbacks", "count");
      ("fs.realloc_success_ratio", "ratio");
      ("replay.run_s", "s");
      ("replay.day_ms_p50", "ms");
      ("replay.day_ms_p90", "ms");
      ("replay.skips", "count");
      ("layout_score.calls", "count");
      ("layout_score.s", "s");
      ("checkpoint.saves", "count");
      ("checkpoint.save_ms_p50", "ms");
      ("checkpoint.save_ms_p90", "ms");
      ("checkpoint.bytes_per_save", "bytes");
      ("checkpoint.delta_share", "ratio");
      ("manifest.writes", "count");
      ("manifest.write_ms_p50", "ms");
      ("check.repairs", "count");
      ("check.problems_found", "count");
      ("check.audit_s", "s");
      ("digest.ms", "ms");
      ("image.load_s", "s");
      ("image.save_s", "s");
      ("image.bytes", "bytes");
      ("seqio.s", "s");
      ("hotfiles.s", "s");
      ("gc.minor_mwords", "Mwords");
      ("gc.major_collections", "count");
    ]

(* The traced record: every per-layer metric (0 where the workload's
   layers do no such work), plus the timed-phase length the overhead is
   computed from and each span name's self time. *)
let complete_layers ~spans ~timed_s given =
  let pick (name, unit_) =
    match List.find_opt (fun m -> m.Record.name = name) given with
    | Some m -> m
    | None -> Record.metric ~unit_ name 0.0
  in
  List.map pick per_layer
  @ [ s "trace.timed_s" timed_s ]
  @ List.map (fun (name, _, secs) -> s ("self." ^ name) secs) (Spans.self_by_name spans)

(* --- shared inputs ------------------------------------------------------------ *)

let paper_params = Ffs.Params.paper_fs

(* The ground-truth stream and its reconstruction, generated exactly as
   [Experiments.build] generates them for a 60-day run. *)
let paper_inputs ~seed =
  let params = paper_params in
  let profile = { (Workload.Ground_truth.scaled params ~days:paper_days) with seed } in
  let gt = Workload.Ground_truth.generate params profile in
  let snapshots = Workload.Snapshot.capture_nightly gt.Workload.Ground_truth.ops ~days:paper_days in
  let nfs =
    Workload.Nfs_source.generate ~seed:(seed + 17) ~trace_days:10
      ~pairs_per_day:profile.Workload.Ground_truth.short_pairs_per_day
  in
  let recon = Workload.Reconstruct.run params ~seed:(seed + 23) ~snapshots ~nfs in
  (gt.Workload.Ground_truth.ops, recon)

let fresh_drive () = Disk.Drive.create (Disk.Drive.paper_config ())

(* The sequential benchmark's corpus and sizes, by [Experiments]' rule. *)
let seqio_sweep ~(aged : Ffs.Fs.t) =
  let free = Ffs.Fs.free_data_frags aged * paper_params.Ffs.Params.frag_bytes in
  let corpus_bytes = min (32 * 1024 * 1024) (max (256 * 1024) (free / 4)) in
  let sizes = List.filter (fun size -> size <= corpus_bytes) Seqio.default_sizes in
  Seqio.run ~aged ~mk_drive:fresh_drive ~corpus_bytes ~sizes ()

let seqio_crc points =
  Recover.Crc32.string
    (String.concat ";"
       (List.map
          (fun (p : Seqio.point) ->
            Printf.sprintf "%d,%d,%h,%h,%h" p.file_bytes p.files p.write_throughput
              p.read_throughput p.layout_score)
          points))

let hot_crc (r : Hotfiles.result) =
  Recover.Crc32.string
    (Printf.sprintf "%d,%d,%h,%h,%h,%h,%h" r.files r.bytes r.fraction_of_files
       r.fraction_of_space r.layout_score r.read_throughput r.write_throughput)

let image_digests name (fs : Ffs.Fs.t) scores =
  [ (name ^ ".image", Ffs.Fs.digest fs); (name ^ ".scores", crc_hex (series_crc scores)) ]

let hot_gain_metrics (ffs : Hotfiles.result) (re : Hotfiles.result) =
  [
    Record.metric ~unit_:"%" "hot_read_gain_pct"
      (Util.Stats.pct_change ~from_:ffs.read_throughput ~to_:re.read_throughput);
    Record.metric ~unit_:"%" "hot_write_gain_pct"
      (Util.Stats.pct_change ~from_:ffs.write_throughput ~to_:re.write_throughput);
  ]

let e2e ~wall_s ~cpu_s ~ops ~skipped =
  [
    s "wall_s" wall_s;
    s "cpu_s" cpu_s;
    Record.metric ~unit_:"1/s" "ops_per_s" (float_of_int ops /. wall_s);
    Record.metric ~unit_:"MB" "top_heap_mb" (top_heap_mb ());
    ratio "applied_op_share" (float_of_int (ops - skipped) /. float_of_int (max 1 ops));
  ]

(* --- paper-60d ------------------------------------------------------------------ *)

let paper_sizes facts =
  Obs.Json.
    [
      ("geometry", String "paper");
      ("days", Int paper_days);
      ("ground_truth_ops", Int (fact_int facts "gt_ops"));
      ("reconstructed_ops", Int (fact_int facts "recon_ops"));
    ]

let paper_setup ctx =
  let gt, recon = paper_inputs ~seed:ctx.seed in
  let facts = Obs.Json.[ ("gt_ops", Int (Array.length gt)); ("recon_ops", Int (Array.length recon)) ] in
  write_facts ctx facts;
  record ctx ~workload:"paper-60d" ~phase:"setup"
    ~sizes:(paper_sizes (Obs.Json.Obj facts))
    ~checks:[ ("ground_truth_well_formed", well_formed gt); ("reconstructed_well_formed", well_formed recon) ]
    []

let paper_run ctx =
  let facts = read_facts ctx in
  let gt_ops = fact_int facts "gt_ops" and recon_ops = fact_int facts "recon_ops" in
  let attempted = gt_ops + (2 * recon_ops) in
  let t0 = now_ns () and c0 = cpu_now () in
  let ctx', checks =
    Par.Pool.with_pool ~jobs:1 (fun pool ->
        let x = Experiments.build ~params:paper_params ~days:paper_days ~seed:ctx.seed ~pool () in
        (x, Experiments.shape_checks x))
  in
  let wall_s = secs_since t0 and cpu_s = cpu_now () -. c0 in
  let trad = Experiments.aged_traditional ctx' and re = Experiments.aged_realloc ctx' in
  let skipped = trad.Aging.Replay.skipped_ops + re.Aging.Replay.skipped_ops in
  let e2e = e2e ~wall_s ~cpu_s ~ops:attempted ~skipped in
  (* outside the timed phase: the simulated results and output checks *)
  let hot aged = Hotfiles.run ~aged ~drive:(fresh_drive ()) ~days:paper_days in
  let hot_ffs = hot trad and hot_re = hot re in
  let failed_checks =
    List.filter_map (fun c -> if c.Paper_expect.passed then None else Some c.name) checks
  in
  let passed = List.length checks - List.length failed_checks in
  record ctx ~workload:"paper-60d" ~phase:"run" ~attempted ~skipped ~sizes:(paper_sizes facts)
    ~digests:
      (image_digests "recon_ffs" trad.fs trad.daily_scores
      @ image_digests "recon_realloc" re.fs re.daily_scores
      @ [
          ("hot_ffs", crc_hex (hot_crc hot_ffs));
          ("hot_realloc", crc_hex (hot_crc hot_re));
          ("shape_checks_failed", crc_hex (Recover.Crc32.string (String.concat "\n" failed_checks)));
        ])
    ~checks:
      [
        ("recon_ffs_audit_clean", Ffs.Check.is_clean (Ffs.Check.run trad.fs));
        ("recon_realloc_audit_clean", Ffs.Check.is_clean (Ffs.Check.run re.fs));
        ( "reconstructed_ops_match_setup",
          (Experiments.workload_stats ctx').Workload.Op.operations = recon_ops );
      ]
    (e2e
    @ [
        ratio "layout_score_ffs" (last trad.daily_scores);
        ratio "layout_score_realloc" (last re.daily_scores);
      ]
    @ hot_gain_metrics hot_ffs hot_re
    @ [ count "shape_checks_passed" passed ])

let paper_traced ctx =
  let facts = read_facts ctx in
  let gc0 = gc_counters () in
  let days = Pct.samples () in
  let t0 = now_ns () in
  let (replays, gen_words, n_ops), hot_ffs, hot_re =
    span ctx "pipeline" @@ fun () ->
    let w0 = Gc.minor_words () in
    let gt, recon = span ctx "workload.gen" (fun () -> paper_inputs ~seed:ctx.seed) in
    let gen_words = Gc.minor_words () -. w0 in
    let replays =
      List.map
        (fun (name, config, ops) ->
          let samples, start, progress = day_clock () in
          start ();
          let r =
            span ctx "replay.run" (fun () ->
                Aging.Replay.run ~config ~progress ~params:paper_params ~days:paper_days ops)
          in
          Array.iter (Pct.add days) (Pct.to_array samples);
          (name, config, ops, r))
        [
          ("gt_ffs", Ffs.Fs.default_config, gt);
          ("recon_ffs", Ffs.Fs.default_config, recon);
          ("recon_realloc", Ffs.Fs.realloc_config, recon);
        ]
    in
    let aged name = List.find (fun (n, _, _, _) -> n = name) replays |> fun (_, _, _, r) -> r in
    List.iter
      (fun name -> ignore (span ctx "seqio" (fun () -> seqio_sweep ~aged:(aged name).Aging.Replay.fs)))
      [ "recon_ffs"; "recon_realloc" ];
    ignore
      (span ctx "raw_baseline" (fun () ->
           let d = fresh_drive () in
           (Disk.Raw_bench.read_throughput d (), Disk.Raw_bench.write_throughput d ())));
    let hot name =
      span ctx "hotfiles" (fun () ->
          Hotfiles.run ~aged:(aged name) ~drive:(fresh_drive ()) ~days:paper_days)
    in
    let hot_ffs = hot "recon_ffs" in
    let hot_re = hot "recon_realloc" in
    ((replays, gen_words, Array.length gt + Array.length recon), hot_ffs, hot_re)
  in
  let timed_s = secs_since t0 in
  let gc = gc_metrics gc0 in
  (* the mirror: the same three replays driven through [Fs] by the
     benchmark's own loop *)
  let probes_and_checks =
    List.map
      (fun (name, config, ops, (r : Aging.Replay.result)) ->
        let probe = Mirror.probe () in
        let m =
          span ctx "mirror" (fun () ->
              Mirror.run probe ~config ~params:paper_params ~days:paper_days ops)
        in
        let same =
          Ffs.Fs.digest m.Mirror.fs = Ffs.Fs.digest r.fs
          && m.daily_scores = r.daily_scores
          && m.daily_utilization = r.daily_utilization
        in
        (probe, (name ^ "_mirror_matches", same)))
      replays
  in
  (* the allocator's counters, from one more pass of the engine with the
     registry on, so that neither the pipeline nor the mirror pays for it *)
  let (), snap =
    with_metrics (fun () ->
        span ctx "count" (fun () ->
            List.iter
              (fun (_, config, ops, _) ->
                ignore (Aging.Replay.run ~config ~params:paper_params ~days:paper_days ops))
              replays))
  in
  let probes = List.map fst probes_and_checks in
  let audits =
    List.map
      (fun (name, _, _, (r : Aging.Replay.result)) ->
        (name ^ "_audit_clean", span ctx "check.audit" (fun () -> Ffs.Check.is_clean (Ffs.Check.run r.fs))))
      replays
  in
  let digests =
    List.concat_map
      (fun (name, _, _, (r : Aging.Replay.result)) ->
        span ctx "digest" (fun () -> image_digests name r.fs r.daily_scores))
      replays
  in
  let spans = match ctx.trace with Some t -> Spans.spans t | None -> [] in
  let skips = List.fold_left (fun acc (_, _, _, r) -> acc + r.Aging.Replay.skipped_ops) 0 replays in
  let replayed = List.fold_left (fun acc (_, _, ops, _) -> acc + Array.length ops) 0 replays in
  let layers =
    [
      s "workload.gen_s" (total_s spans "workload.gen");
      count "workload.ops" n_ops;
      Record.metric ~unit_:"words" "workload.minor_words_per_op" (gen_words /. float_of_int n_ops);
    ]
    @ fs_metrics probes @ alloc_metrics snap
    @ replay_metrics ~run_s:(self_s spans "replay.run") ~days ~skips
    @ layout_metrics probes
    @ [
        s "check.audit_s" (total_s spans "check.audit");
        ms "digest.ms" (1e3 *. total_s spans "digest" /. float_of_int (max 1 (span_count spans "digest")));
        s "seqio.s" (total_s spans "seqio");
        s "hotfiles.s" (total_s spans "hotfiles");
      ]
    @ gc
  in
  record ctx ~workload:"paper-60d" ~phase:"traced" ~attempted:replayed ~skipped:skips
    ~sizes:(paper_sizes facts)
    ~digests:(digests @ [ ("hot_ffs", crc_hex (hot_crc hot_ffs)); ("hot_realloc", crc_hex (hot_crc hot_re)) ])
    ~checks:(List.map snd probes_and_checks @ audits)
    (complete_layers ~spans ~timed_s layers)

(* --- fleet-crash -------------------------------------------------------------- *)

let fleet_spec ~seed =
  Fleet.Spec.generate ~geometries:[ "small" ] ~fault_rate:1.0 ~volumes:fleet_volumes
    ~days:fleet_days ~seed ()

let fleet_config =
  {
    Fleet.Supervisor.default_config with
    jobs = 1;
    checkpoint_every = fleet_checkpoint_every;
  }

let fleet_sizes facts =
  Obs.Json.
    [
      ("geometry", String "small");
      ("volumes", Int fleet_volumes);
      ("days", Int fleet_days);
      ("fault_rate", Float 1.0);
      ("checkpoint_every", Int fleet_checkpoint_every);
      ("ops", Int (fact_int facts "ops"));
      ("crashes", Int (fact_int facts "crashes"));
    ]

let fleet_setup ctx =
  let spec = fleet_spec ~seed:ctx.seed in
  let ops, crashes, ok =
    Array.fold_left
      (fun (n, c, ok) (v : Fleet.Spec.volume) ->
        let ops = Fleet.Spec.ops_of_volume v in
        (n + Array.length ops, c + v.crashes, ok && well_formed ops))
      (0, 0, true) spec.volumes
  in
  let facts = Obs.Json.[ ("ops", Int ops); ("crashes", Int crashes) ] in
  write_facts ctx facts;
  record ctx ~workload:"fleet-crash" ~phase:"setup"
    ~sizes:(fleet_sizes (Obs.Json.Obj facts))
    ~checks:[ ("volume_workloads_well_formed", ok) ]
    []

let mean_final_score (m : Fleet.Manifest.t) ~realloc =
  let scores =
    Array.to_list m.entries
    |> List.filter_map (fun (e : Fleet.Manifest.entry) ->
           match e.status with
           | Fleet.Manifest.Done sum when e.spec.realloc = realloc -> Some sum.final_score
           | _ -> None)
  in
  Util.Stats.mean (Array.of_list scores)

let fleet_outputs facts (m : Fleet.Manifest.t) ~skipped =
  let agg = Fleet.Manifest.aggregate m in
  ( [ ("fleet.aggregate", crc_hex agg.digest); ("fleet.skipped", string_of_int skipped) ],
    [
      ("all_volumes_done", agg.completed = agg.total && agg.total = fleet_volumes);
      ("none_failed_or_quarantined", agg.failed = 0 && agg.quarantined = 0);
      ("crashes_recovered", agg.crashes_recovered = fact_int facts "crashes");
    ],
    [
      ratio "layout_score_ffs" (mean_final_score m ~realloc:false);
      ratio "layout_score_realloc" (mean_final_score m ~realloc:true);
    ] )

let fleet_run ctx =
  let facts = read_facts ctx in
  let spec = fleet_spec ~seed:ctx.seed in
  let state_dir = path ctx (Fmt.str "fleet-%d" (Unix.getpid ())) in
  let t0 = now_ns () and c0 = cpu_now () in
  let outcome, snap =
    with_metrics (fun () -> Fleet.Supervisor.start ~config:fleet_config ~state_dir spec)
  in
  let wall_s = secs_since t0 and cpu_s = cpu_now () -. c0 in
  let outcome = match outcome with Ok o -> o | Error e -> Ffs.Error.raise_ e in
  let ops = Obs.Metrics.counter_total snap "replay_ops_total" in
  let skipped = Obs.Metrics.counter_total snap "replay_skips_total" in
  let digests, checks, sim = fleet_outputs facts outcome.manifest ~skipped in
  record ctx ~workload:"fleet-crash" ~phase:"run" ~attempted:ops ~skipped
    ~sizes:(fleet_sizes facts) ~digests
    ~checks:(("replayed_ops_match_setup", ops = fact_int facts "ops") :: checks)
    (e2e ~wall_s ~cpu_s ~ops ~skipped @ sim)

(* The supervisor's per-volume summary, from the public result. *)
let summarize (cr : Aging.Replay.crash_result) =
  let r = cr.result in
  let fs = r.fs in
  let stats = Ffs.Fs.stats fs in
  {
    Fleet.Manifest.final_score = last r.daily_scores;
    mean_score = Util.Stats.mean r.daily_scores;
    utilization = Ffs.Fs.utilization fs;
    files_live = Ffs.Fs.file_count fs;
    blocks_allocated = stats.Ffs.Fs.blocks_allocated;
    frags_allocated = stats.Ffs.Fs.frags_allocated;
    skipped_ops = r.skipped_ops;
    crashes_recovered = List.length cr.recoveries;
    score_digest = Recover.Crc32.string (Marshal.to_string (r.daily_scores, r.daily_utilization) []);
    image_digest = Ffs.Fs.digest fs;
  }

(* The traced fleet: the supervisor's per-volume lifecycle (manifest
   transitions, resumable replay, delta checkpoints) driven serially
   from here, so each layer call gets its own span. *)
let fleet_traced ctx =
  let facts = read_facts ctx in
  let spec = fleet_spec ~seed:ctx.seed in
  let state_dir = path ctx (Fmt.str "fleet-traced-%d" (Unix.getpid ())) in
  let cfg = fleet_config in
  let manifest_ns = Pct.samples () and save_ns = Pct.samples () and save_bytes = Pct.samples () in
  let deltas = ref 0 and save_errors = ref 0 in
  let days = Pct.samples () in
  let gen_words = ref 0.0 and gen_ops = ref 0 in
  let recoveries = ref [] in
  let gc0 = gc_counters () in
  let t0 = now_ns () in
  let manifest, snap =
    with_metrics (fun () ->
        span ctx "pipeline" @@ fun () ->
        let manifest = ref (Fleet.Manifest.create spec) in
        let save () =
          span ctx "manifest.write" (fun () ->
              let t = now_ns () in
              Fleet.Manifest.save ~dir:state_dir !manifest;
              Pct.add manifest_ns (now_ns () - t))
        in
        let set id f =
          let entries = Array.copy !manifest.entries in
          entries.(id) <- f entries.(id);
          manifest := { !manifest with entries };
          save ()
        in
        save ();
        Array.iter
          (fun (v : Fleet.Spec.volume) ->
            let entry = !manifest.entries.(v.id) in
            set v.id (fun e -> { e with status = Fleet.Manifest.Running });
            let params =
              match Fleet.Spec.params_of_geometry v.geometry with
              | Ok p -> p
              | Error e -> Ffs.Error.raise_ e
            in
            let w0 = Gc.minor_words () in
            let ops = span ctx "workload.gen" (fun () -> Fleet.Spec.ops_of_volume v) in
            gen_words := !gen_words +. (Gc.minor_words () -. w0);
            gen_ops := !gen_ops + Array.length ops;
            let writer =
              Aging.Checkpoint.writer
                ~dir:(Filename.concat state_dir entry.checkpoint_dir)
                ~keep:cfg.checkpoint_keep ~full_every:cfg.checkpoint_full_every ()
            in
            let on_checkpoint ck =
              span ctx "checkpoint.save" (fun () ->
                  let t = now_ns () in
                  match Aging.Checkpoint.save_auto writer ck with
                  | Ok (file, kind) ->
                      Pct.add save_ns (now_ns () - t);
                      Pct.add save_bytes (Unix.stat file).Unix.st_size;
                      if kind = `Delta then incr deltas
                  | Error _ -> incr save_errors)
            in
            let samples, start, progress = day_clock () in
            start ();
            let result =
              span ctx "replay.run" (fun () ->
                  Aging.Replay.run_resumable ~config:(Fleet.Spec.config_of_volume v) ~progress
                    ~checkpoint_every:cfg.checkpoint_every ~on_checkpoint ~params ~days:v.days
                    ~crashes:v.crashes ~fault_seed:v.fault_seed ops)
            in
            Array.iter (Pct.add days) (Pct.to_array samples);
            match result with
            | `Interrupted _ -> failwith "fleet volume interrupted without a stop request"
            | `Completed cr ->
                recoveries := cr.recoveries @ !recoveries;
                let summary = span ctx "digest" (fun () -> summarize cr) in
                set v.id (fun e ->
                    { e with status = Fleet.Manifest.Done summary; attempts = e.attempts + 1 }))
          spec.volumes;
        !manifest)
  in
  let timed_s = secs_since t0 in
  let gc = gc_metrics gc0 in
  (* the mirror, after the timed pipeline and with the counters off:
     every volume again through [Fs], crashes and repairs included *)
  let probes = ref [] and mirrors_match = ref true and audits_clean = ref true in
  Array.iter
    (fun (v : Fleet.Spec.volume) ->
      let params = Result.get_ok (Fleet.Spec.params_of_geometry v.geometry) in
      let ops = Fleet.Spec.ops_of_volume v in
      let probe = Mirror.probe () in
      let m =
        span ctx "mirror" (fun () ->
            Mirror.run probe ~config:(Fleet.Spec.config_of_volume v) ~params ~days:v.days
              ~crashes:v.crashes ~fault_seed:v.fault_seed ops)
      in
      probes := probe :: !probes;
      (match manifest.entries.(v.id).status with
      | Fleet.Manifest.Done sum ->
          let series = Marshal.to_string (m.daily_scores, m.daily_utilization) [] in
          if Ffs.Fs.digest m.fs <> sum.image_digest || Recover.Crc32.string series <> sum.score_digest
          then mirrors_match := false
      | _ -> mirrors_match := false);
      if not (span ctx "check.audit" (fun () -> Ffs.Check.is_clean (Ffs.Check.run m.fs))) then
        audits_clean := false)
    spec.volumes;
  let probes = !probes in
  let spans = match ctx.trace with Some t -> Spans.spans t | None -> [] in
  let ops = Obs.Metrics.counter_total snap "replay_ops_total" in
  let skipped = Obs.Metrics.counter_total snap "replay_skips_total" in
  let digests, checks, _sim = fleet_outputs facts manifest ~skipped in
  let recoveries = !recoveries in
  let saves = Pct.sorted save_ns in
  let crash_check_s =
    List.fold_left
      (fun acc p -> acc + Pct.total p.Mirror.audit.Mirror.ns + Pct.total p.Mirror.repair.Mirror.ns)
      0 probes
  in
  let layers =
    [
      s "workload.gen_s" (total_s spans "workload.gen");
      count "workload.ops" !gen_ops;
      Record.metric ~unit_:"words" "workload.minor_words_per_op" (!gen_words /. float_of_int !gen_ops);
    ]
    @ fs_metrics probes @ alloc_metrics snap
    @ replay_metrics ~run_s:(self_s spans "replay.run") ~days ~skips:skipped
    @ layout_metrics probes
    @ [
        count "checkpoint.saves" (Array.length saves);
        ms "checkpoint.save_ms_p50" (pct_or_zero ~p:0.5 saves 1e-6);
        ms "checkpoint.save_ms_p90" (pct_or_zero ~p:0.9 saves 1e-6);
        Record.metric ~unit_:"bytes" "checkpoint.bytes_per_save"
          (float_of_int (Pct.total save_bytes) /. float_of_int (max 1 (Array.length saves)));
        ratio "checkpoint.delta_share" (float_of_int !deltas /. float_of_int (max 1 (Array.length saves)));
        count "manifest.writes" (Pct.count manifest_ns);
        ms "manifest.write_ms_p50" (pct_or_zero ~p:0.5 (Pct.sorted manifest_ns) 1e-6);
        count "check.repairs" (List.length recoveries);
        count "check.problems_found"
          (List.fold_left (fun acc (r : Aging.Replay.recovery) -> acc + r.problems_found) 0 recoveries);
        s "check.audit_s" (float_of_int crash_check_s *. 1e-9);
        ms "digest.ms" (1e3 *. total_s spans "digest" /. float_of_int (max 1 (span_count spans "digest")));
      ]
    @ gc
  in
  record ctx ~workload:"fleet-crash" ~phase:"traced" ~attempted:ops ~skipped
    ~sizes:(fleet_sizes facts) ~digests
    ~checks:
      (checks
      @ [
          ("checkpoint_saves_ok", !save_errors = 0);
          ("fleet_mirror_matches", !mirrors_match);
          ("fleet_audit_clean", !audits_clean);
        ])
    (complete_layers ~spans ~timed_s layers)

(* --- aged-io ------------------------------------------------------------------- *)

let aged_images = [ ("recon_ffs", Ffs.Fs.default_config); ("recon_realloc", Ffs.Fs.realloc_config) ]
let image_file ctx name = path ctx (name ^ ".img")

let aged_sizes facts =
  Obs.Json.
    [
      ("geometry", String "paper");
      ("days", Int paper_days);
      ("reconstructed_ops", Int (fact_int facts "recon_ops"));
      ("images", Int (List.length aged_images));
    ]

let aged_setup ctx =
  let _gt, recon = paper_inputs ~seed:ctx.seed in
  let saves =
    List.map
      (fun (name, config) ->
        let result = Aging.Replay.run ~config ~params:paper_params ~days:paper_days recon in
        let file = image_file ctx name in
        let t = now_ns () in
        Aging.Image.save_exn ~path:file
          { Aging.Image.days = paper_days; description = name ^ " (perfbench)"; result };
        let save_s = secs_since t in
        (name, save_s, (Unix.stat file).Unix.st_size, Ffs.Fs.digest result.fs, result.daily_scores))
      aged_images
  in
  let facts =
    Obs.Json.(
      [
        ("recon_ops", Int (Array.length recon));
        ("image_save_ns", Int (List.fold_left (fun acc (_, t, _, _, _) -> acc + int_of_float (t *. 1e9)) 0 saves));
        ("image_bytes", Int (List.fold_left (fun acc (_, _, b, _, _) -> acc + b) 0 saves));
      ]
      @ List.concat_map
          (fun (name, _, _, digest, scores) ->
            [ (name ^ ".image", String digest); (name ^ ".scores", String (crc_hex (series_crc scores))) ])
          saves)
  in
  write_facts ctx facts;
  record ctx ~workload:"aged-io" ~phase:"setup"
    ~sizes:(aged_sizes (Obs.Json.Obj facts))
    ~checks:[ ("reconstructed_well_formed", well_formed recon) ]
    []

(* What the timed phase keeps of each image: not the image itself, so
   that one image can be collected before the next is loaded. *)
type aged_image = {
  name : string;
  scores : float array;
  clean : bool;
  digest : string;
  points : Seqio.point list;
  hot : Hotfiles.result;
}

let aged_run ctx =
  let facts = read_facts ctx in
  let gc0 = gc_counters () in
  let t0 = now_ns () and c0 = cpu_now () in
  let images =
    span ctx "pipeline" @@ fun () ->
    let images =
      List.map
        (fun (name, _) ->
          let img =
            span ctx "image.load" (fun () ->
                Aging.Image.load_exn ~backend:Ffs.Store.Heap_backend ~path:(image_file ctx name))
          in
          let aged = img.Aging.Image.result in
          let clean = span ctx "check.audit" (fun () -> Ffs.Check.is_clean (Ffs.Check.run aged.fs)) in
          let digest = span ctx "digest" (fun () -> Ffs.Fs.digest aged.fs) in
          let points = span ctx "seqio" (fun () -> seqio_sweep ~aged:aged.fs) in
          let hot =
            span ctx "hotfiles" (fun () ->
                Hotfiles.run ~aged ~drive:(fresh_drive ()) ~days:paper_days)
          in
          { name; scores = aged.daily_scores; clean; digest; points; hot })
        aged_images
    in
    ignore
      (span ctx "raw_baseline" (fun () ->
           let d = fresh_drive () in
           (Disk.Raw_bench.read_throughput d (), Disk.Raw_bench.write_throughput d ())));
    images
  in
  let wall_s = secs_since t0 and cpu_s = cpu_now () -. c0 in
  let gc = gc_metrics gc0 in
  let ops =
    List.fold_left
      (fun acc i ->
        acc + (2 * i.hot.files) + List.fold_left (fun a (p : Seqio.point) -> a + (2 * p.files)) 0 i.points)
      0 images
  in
  let find name = List.find (fun i -> i.name = name) images in
  let ffs = find "recon_ffs" and re = find "recon_realloc" in
  let digests =
    List.concat_map
      (fun i ->
        [
          (i.name ^ ".image", i.digest);
          (i.name ^ ".scores", crc_hex (series_crc i.scores));
          (i.name ^ ".seqio", crc_hex (seqio_crc i.points));
          (i.name ^ ".hot", crc_hex (hot_crc i.hot));
        ])
      images
  in
  let checks =
    List.concat_map
      (fun i ->
        [
          (i.name ^ "_audit_clean", i.clean);
          (i.name ^ "_loaded_digest_matches_saved", i.digest = fact_str facts (i.name ^ ".image"));
          ( i.name ^ "_loaded_scores_match_saved",
            crc_hex (series_crc i.scores) = fact_str facts (i.name ^ ".scores") );
        ])
      images
  in
  let phase, metrics =
    match ctx.trace with
    | None ->
        ( "run",
          e2e ~wall_s ~cpu_s ~ops ~skipped:0
          @ [
              ratio "layout_score_ffs" (last ffs.scores);
              ratio "layout_score_realloc" (last re.scores);
            ]
          @ hot_gain_metrics ffs.hot re.hot )
    | Some t ->
        let spans = Spans.spans t in
        (* the allocator's counters for the seqio writes, from one more
           sweep with the registry on, after the timed phase *)
        let (), snap =
          with_metrics (fun () ->
              span ctx "count" (fun () ->
                  List.iter
                    (fun (name, _) ->
                      let img =
                        Aging.Image.load_exn ~backend:Ffs.Store.Heap_backend
                          ~path:(image_file ctx name)
                      in
                      ignore (seqio_sweep ~aged:img.Aging.Image.result.fs))
                    aged_images))
        in
        ( "traced",
          complete_layers ~spans ~timed_s:wall_s
            (alloc_metrics snap
            @ [
                s "check.audit_s" (total_s spans "check.audit");
                ms "digest.ms"
                  (1e3 *. total_s spans "digest" /. float_of_int (max 1 (span_count spans "digest")));
                s "image.load_s" (total_s spans "image.load");
                s "image.save_s" (float_of_int (fact_int facts "image_save_ns") *. 1e-9);
                Record.metric ~unit_:"bytes" "image.bytes" (float_of_int (fact_int facts "image_bytes"));
                s "seqio.s" (total_s spans "seqio");
                s "hotfiles.s" (total_s spans "hotfiles");
              ]
            @ gc) )
  in
  record ctx ~workload:"aged-io" ~phase ~attempted:ops ~sizes:(aged_sizes facts) ~digests ~checks
    metrics

let all =
  [
    ("paper-60d", (paper_setup, paper_run, paper_traced));
    ("fleet-crash", (fleet_setup, fleet_run, fleet_traced));
    ("aged-io", (aged_setup, aged_run, aged_run));
  ]
