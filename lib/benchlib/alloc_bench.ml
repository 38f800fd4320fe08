type side = { seconds : float; allocs : int; allocs_per_sec : float }

type result = {
  utilization : float;
  scan : side;
  indexed : side;
  speedup : float;
  checksum : int;
}

let standard_days = 10
let standard_seed = 960117
let default_ops = 200_000

(* one schedule entry; drawn up front so the stream is independent of
   allocation outcomes (both modes replay the identical array) *)
type op =
  | Block of { cg : int; pref : int }
  | Frags of { cg : int; pref : int; count : int }
  | Cluster of { cg : int; pref : int; len : int }
  | Free of { cg : int }

let make_schedule ~rng ~ncg ~nblocks ~nfrags ~fpb ~ops =
  Array.init ops (fun _ ->
      let cg = Util.Prng.int rng ncg in
      (* half allocations, half frees: the image stays near its aged
         utilization instead of drifting to full *)
      match Util.Prng.int rng 10 with
      | 0 | 1 | 2 -> Block { cg; pref = Util.Prng.int rng nblocks }
      | 3 | 4 -> Frags { cg; pref = Util.Prng.int rng nfrags; count = 1 + Util.Prng.int rng (fpb - 1) }
      | 5 -> Cluster { cg; pref = Util.Prng.int rng nblocks; len = 2 + Util.Prng.int rng 6 }
      | _ -> Free { cg })

(* replay the schedule over [cgs] through the public allocators (the
   caller picks the search implementation via with_reference_searches),
   returning (successful allocs, placement-trace checksum) *)
let replay cgs fpb schedule =
  let held = Array.make (Array.length cgs) [] in
  let allocs = ref 0 and cksum = ref 0 in
  let record pos count =
    incr allocs;
    cksum := ((!cksum * 1000003) + ((pos * 16) + count)) land max_int
  in
  Array.iter
    (fun op ->
      match op with
      | Block { cg; pref } -> (
          match Ffs.Cg.alloc_block cgs.(cg) ~pref:(Some pref) with
          | Some b ->
              record (b * fpb) fpb;
              held.(cg) <- (b * fpb, fpb) :: held.(cg)
          | None -> ())
      | Frags { cg; pref; count } -> (
          match Ffs.Cg.alloc_frags cgs.(cg) ~pref:(Some pref) ~count with
          | Some pos ->
              record pos count;
              held.(cg) <- (pos, count) :: held.(cg)
          | None -> ())
      | Cluster { cg; pref; len } -> (
          match Ffs.Cg.alloc_cluster cgs.(cg) ~policy:`First_fit ~pref:(Some pref) ~len with
          | Some b ->
              record (b * fpb) (len * fpb);
              held.(cg) <- (b * fpb, len * fpb) :: held.(cg)
          | None -> ())
      | Free { cg } -> (
          match held.(cg) with
          | (pos, count) :: rest ->
              Ffs.Cg.free_frags cgs.(cg) ~pos ~count;
              held.(cg) <- rest
          | [] -> ()))
    schedule;
  (!allocs, !cksum)

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let run () =
  let days = standard_days and seed = standard_seed and ops = default_ops in
  let params = Ffs.Params.small_test_fs in
  let fpb = params.Ffs.Params.frags_per_block in
  let profile =
    { (Workload.Ground_truth.scaled params ~days) with Workload.Ground_truth.seed }
  in
  let gt = Workload.Ground_truth.generate params profile in
  let aged = (Aging.Replay.run ~params ~days gt.Workload.Ground_truth.ops).Aging.Replay.fs in
  let base = Ffs.Fs.cg_states aged in
  let nblocks = Ffs.Cg.data_blocks base.(0) and nfrags = Ffs.Cg.data_frags base.(0) in
  let utilization =
    let total = Array.fold_left (fun a cg -> a + Ffs.Cg.data_frags cg) 0 base in
    let free = Array.fold_left (fun a cg -> a + Ffs.Cg.free_frag_count cg) 0 base in
    float_of_int (total - free) /. float_of_int (max 1 total)
  in
  let rng = Util.Prng.create ~seed in
  let schedule =
    make_schedule ~rng ~ncg:(Array.length base) ~nblocks ~nfrags ~fpb ~ops
  in
  (* each repetition gets its own copy of the aged groups and a short
     warm-up; both modes maintain the extent index — only the searches
     differ. Best-of-3: the schedule replays in tens of milliseconds,
     so a single timing is at the mercy of scheduler noise, and the
     regression gate needs a stable figure. The placement trace must
     not vary across repetitions. *)
  let measure mode =
    let warmup = Array.sub schedule 0 (min (ops / 10) (Array.length schedule)) in
    let one () =
      let cgs = Array.map Ffs.Cg.copy base in
      let warm = Array.map Ffs.Cg.copy base in
      ignore (replay warm fpb warmup);
      let r = ref (0, 0) in
      let s = timed (fun () -> r := replay cgs fpb schedule) in
      (!r, s)
    in
    let (allocs, cksum), seconds =
      Gate.best_of ~n:3 (fun () ->
          match mode with `Indexed -> one () | `Scan -> Ffs.Cg.with_reference_searches one)
    in
    ({ seconds; allocs; allocs_per_sec = float_of_int allocs /. seconds }, cksum)
  in
  let scan, ck_scan = measure `Scan in
  let indexed, ck_indexed = measure `Indexed in
  if ck_scan <> ck_indexed || scan.allocs <> indexed.allocs then
    failwith "alloc bench: scan and indexed placement traces diverged";
  {
    utilization;
    scan;
    indexed;
    speedup = indexed.allocs_per_sec /. scan.allocs_per_sec;
    checksum = ck_scan;
  }

let pins r =
  [
    ("fs", Obs.Json.String "small_test_fs");
    ("days", Obs.Json.Int standard_days);
    ("seed", Obs.Json.Int standard_seed);
    ("ops", Obs.Json.Int default_ops);
    ("utilization", Obs.Json.Float r.utilization);
    ("allocs", Obs.Json.Int r.indexed.allocs);
    ("checksum", Obs.Json.Int r.checksum);
  ]

let figures r =
  [
    ("scan_seconds", r.scan.seconds);
    ("scan_allocs_per_sec", r.scan.allocs_per_sec);
    ("indexed_seconds", r.indexed.seconds);
    ("indexed_allocs_per_sec", r.indexed.allocs_per_sec);
    ("speedup", r.speedup);
  ]

let limits = [ ("indexed_allocs_per_sec", Gate.Max_drop_pct 20.) ]

let pp ppf r =
  Fmt.pf ppf
    "@[<v>alloc bench: %d ops on the standard aged image (%d days, seed %d, %.0f%% \
     full)@ scan:    %7.0f allocs/sec (%d allocs in %.3fs)@ indexed: %7.0f \
     allocs/sec (%d allocs in %.3fs)@ speedup: %.2fx@]"
    default_ops standard_days standard_seed (100. *. r.utilization)
    r.scan.allocs_per_sec r.scan.allocs r.scan.seconds r.indexed.allocs_per_sec
    r.indexed.allocs r.indexed.seconds r.speedup
