(* The self-healing storage layer: seeded device faults, checksummed
   chunks, scrub-and-repair, quarantine.  The contract under test is the
   one DESIGN §15 states — with no fault plan the resilient layer is
   bit-identical to its base, and with faults
   injected a scrubbed volume always converges back to a clean audit
   with no user data lost. *)

let check_bool msg expected actual = Alcotest.(check bool) msg expected actual
let check_int msg expected actual = Alcotest.(check int) msg expected actual
let check_string msg expected actual = Alcotest.(check string) msg expected actual

let small = Ffs.Params.small_test_fs

let build_ops ?(params = small) ~days ~seed () =
  let profile =
    { (Workload.Ground_truth.scaled params ~days) with Workload.Ground_truth.seed }
  in
  (Workload.Ground_truth.generate params profile).Workload.Ground_truth.ops

(* ------------------------------------------------------------------ *)
(* Device-fault plan specs                                             *)
(* ------------------------------------------------------------------ *)

let parse_ok s =
  match Ffs.Store.Device.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "%S did not parse: %a" s Ffs.Error.pp e

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_device_spec_parse () =
  check_bool "none parses to the empty plan" true (Ffs.Store.Device.is_none (parse_ok "none"));
  let p = parse_ok "transient=0.01,latent=2,bitrot=4,torn=1,horizon=8" in
  Alcotest.(check (float 1e-9)) "transient" 0.01 p.Ffs.Store.Device.transient;
  check_int "latent" 2 p.Ffs.Store.Device.latent;
  check_int "bitrot" 4 p.Ffs.Store.Device.bitrot;
  check_int "torn" 1 p.Ffs.Store.Device.torn;
  check_int "horizon" 8 p.Ffs.Store.Device.horizon;
  (* missing keys default to the empty plan's values *)
  let p = parse_ok "bitrot=3" in
  check_int "defaulted latent" 0 p.Ffs.Store.Device.latent;
  check_int "subset bitrot" 3 p.Ffs.Store.Device.bitrot;
  (* a malformed spec is a typed error naming the offending part *)
  List.iter
    (fun (s, part) ->
      match Ffs.Store.Device.of_string s with
      | Ok _ -> Alcotest.failf "%S was accepted" s
      | Error (Ffs.Error.Invalid_params msg) ->
          check_bool
            (Printf.sprintf "%S: message %S names %S" s msg part)
            true
            (contains msg (Printf.sprintf "%S" part))
      | Error e -> Alcotest.failf "%S: expected Invalid_params, got %a" s Ffs.Error.pp e)
    [
      ("", "");
      ("bogus=1", "bogus=1");
      ("latent=-1", "latent=-1");
      ("transient=1.5", "transient=1.5") (* probability must stay below 1 *);
      ("horizon=0", "horizon=0");
      ("latent=two", "latent=two");
      ("latent", "latent");
      ("latent=2,bitrot=x,torn=1", "bitrot=x");
      ("transient=0.1,", "");
    ]

let test_device_spec_round_trip () =
  List.iter
    (fun s ->
      let p = parse_ok s in
      check_string
        (Printf.sprintf "%S round-trips" s)
        (Ffs.Store.Device.to_string p)
        (Ffs.Store.Device.to_string (parse_ok (Ffs.Store.Device.to_string p))))
    [ "none"; "transient=0.25"; "latent=1,bitrot=2,torn=3,horizon=9" ]

(* the two fault domains must draw from distinct children of the one
   --fault-seed, and each must be a pure function of it *)
let test_fault_seed_split () =
  check_bool "logical and device seeds differ" true
    (Fault.Plan.logical_seed ~fault_seed:42 <> Fault.Plan.device_seed ~fault_seed:42);
  check_int "device seed is deterministic"
    (Fault.Plan.device_seed ~fault_seed:42)
    (Fault.Plan.device_seed ~fault_seed:42);
  check_bool "different fault seeds give different device seeds" true
    (Fault.Plan.device_seed ~fault_seed:1 <> Fault.Plan.device_seed ~fault_seed:2)

(* ------------------------------------------------------------------ *)
(* Passthrough: resilient with no plan is bit-identical to raw         *)
(* ------------------------------------------------------------------ *)

let run_small ~backend ~days ~seed =
  Aging.Replay.run ~backend ~params:small ~days (build_ops ~days ~seed ())

let test_passthrough_identity () =
  let days = 3 and seed = 7001 in
  let raw = run_small ~backend:Ffs.Store.Heap_backend ~days ~seed in
  let res =
    run_small ~backend:(Ffs.Store.resilient_spec Ffs.Store.Heap_backend) ~days ~seed
  in
  check_string "digest matches raw"
    (Ffs.Fs.digest raw.Aging.Replay.fs)
    (Ffs.Fs.digest res.Aging.Replay.fs);
  check_int "blocks allocated match raw"
    (Ffs.Fs.stats raw.Aging.Replay.fs).Ffs.Fs.blocks_allocated
    (Ffs.Fs.stats res.Aging.Replay.fs).Ffs.Fs.blocks_allocated;
  Alcotest.(check (array (float 1e-9)))
    "daily score series matches raw" raw.Aging.Replay.daily_scores
    res.Aging.Replay.daily_scores;
  check_bool "passthrough store still exposes the heap fast path" true
    (Ffs.Store.heap_bytes (Ffs.Fs.store res.Aging.Replay.fs) <> None)

(* ------------------------------------------------------------------ *)
(* Store-level fault injection                                         *)
(* ------------------------------------------------------------------ *)

let faulty_store ~plan ~seed =
  Ffs.Store.Layout.store_for
    (Ffs.Store.resilient_spec ~faults:plan ~seed Ffs.Store.Heap_backend)
    small

(* a deterministic write/sync workout; returns the store *)
let workout store =
  let len = Ffs.Store.length store in
  let rng = Util.Prng.create ~seed:11 in
  for round = 1 to 6 do
    for _ = 1 to 64 do
      let pos = Util.Prng.int rng len in
      Ffs.Store.set_byte store pos (Char.chr (Util.Prng.int rng 256))
    done;
    Ffs.Store.write store ~pos:(Util.Prng.int rng (len - 16)) (String.make 16 'x');
    ignore round;
    Ffs.Store.sync store
  done;
  store

let test_fault_determinism () =
  let plan =
    { Ffs.Store.Device.transient = 0.05; latent = 1; bitrot = 2; torn = 1; horizon = 4 }
  in
  let a = workout (faulty_store ~plan ~seed:33) in
  let b = workout (faulty_store ~plan ~seed:33) in
  Alcotest.(check (list (pair string int)))
    "same seed injects the same fault counts" (Ffs.Store.device_counts a)
    (Ffs.Store.device_counts b);
  check_string "and leaves bit-identical damage"
    (Ffs.Store.digest_region a ~pos:0 ~len:(Ffs.Store.length a))
    (Ffs.Store.digest_region b ~pos:0 ~len:(Ffs.Store.length b));
  let injected = List.fold_left (fun acc (_, n) -> acc + n) 0 (Ffs.Store.device_counts a) in
  check_bool "the plan actually fired" true (injected > 0)

let test_transient_retry () =
  (* low enough that the bounded retry (4 attempts) never exhausts on
     this seeded draw sequence, high enough to actually fire *)
  let plan = { Ffs.Store.Device.none with transient = 0.05 } in
  let noisy = faulty_store ~plan ~seed:5 in
  let quiet = Ffs.Store.Layout.store_for Ffs.Store.Heap_backend small in
  let rng = Util.Prng.create ~seed:17 in
  for _ = 1 to 2_000 do
    let pos = Util.Prng.int rng (Ffs.Store.length quiet) in
    let c = Char.chr (Util.Prng.int rng 256) in
    Ffs.Store.set_byte noisy pos c;
    Ffs.Store.set_byte quiet pos c
  done;
  (* every access above survived the 5% transient-error rate via retry;
     the stores must agree byte for byte *)
  check_string "retries absorb transient faults"
    (Ffs.Store.digest_region quiet ~pos:0 ~len:(Ffs.Store.length quiet))
    (Ffs.Store.digest_region noisy ~pos:0 ~len:(Ffs.Store.length noisy));
  check_bool "transients were actually injected" true
    (List.assoc "transient" (Ffs.Store.device_counts noisy) > 0)

let test_retry_backoff_envelope () =
  (* the resilient layer's sleeps: a pure function of (seed, attempt),
     each within [0.5, 1.5] x min(2 ms, 0.1 ms * 2^(attempt-1)) *)
  List.iter
    (fun seed ->
      for attempt = 1 to 8 do
        let d = Ffs.Store.retry_delay ~seed ~attempt in
        Alcotest.(check (float 0.0))
          (Fmt.str "seed %d attempt %d deterministic" seed attempt)
          d
          (Ffs.Store.retry_delay ~seed ~attempt);
        let base = Float.min 2e-3 (1e-4 *. (2. ** float_of_int (attempt - 1))) in
        check_bool
          (Fmt.str "seed %d attempt %d in envelope (%g vs base %g)" seed attempt d base)
          true
          (d >= (0.5 *. base) -. 1e-12 && d <= (1.5 *. base) +. 1e-12)
      done)
    [ 0; 5; 41; 960117 ]

(* ------------------------------------------------------------------ *)
(* Scrub-and-repair on a live file system                              *)
(* ------------------------------------------------------------------ *)

let aged_faulty_fs ~plan ~days ~seed =
  let backend =
    Ffs.Store.resilient_spec ~faults:plan
      ~seed:(Fault.Plan.device_seed ~fault_seed:seed)
      Ffs.Store.Heap_backend
  in
  (run_small ~backend ~days ~seed).Aging.Replay.fs

let test_scrub_heals_bitrot () =
  (* horizon 1: the whole rot schedule lands at the first scrub's sync,
     so the second scrub sees an exhausted plan and must be clean *)
  let plan = { Ffs.Store.Device.none with bitrot = 6; horizon = 1 } in
  let fs = aged_faulty_fs ~plan ~days:3 ~seed:4242 in
  (* Check.scrub syncs the store first, which is where the scheduled rot
     lands — then the audit-and-repair pass must converge *)
  (match Ffs.Check.scrub fs with
  | Error e -> Alcotest.fail (Fmt.str "scrub failed: %a" Ffs.Error.pp e)
  | Ok _ -> ());
  check_bool "rot was actually injected" true
    (List.assoc "bitrot" (Ffs.Store.device_counts (Ffs.Fs.store fs)) > 0);
  (* idempotence: with the schedule exhausted, a second scrub is clean *)
  match Ffs.Check.scrub fs with
  | Error e -> Alcotest.fail (Fmt.str "second scrub failed: %a" Ffs.Error.pp e)
  | Ok log ->
      check_bool "second scrub finds nothing" true (Ffs.Check.scrub_is_clean log)

let test_latent_quarantine () =
  let plan = { Ffs.Store.Device.none with latent = 2; horizon = 1 } in
  let fs = aged_faulty_fs ~plan ~days:3 ~seed:4242 in
  (match Ffs.Check.scrub fs with
  | Error e -> Alcotest.fail (Fmt.str "scrub failed: %a" Ffs.Error.pp e)
  | Ok _ -> ());
  let store = Ffs.Fs.store fs in
  check_bool "latent chunks were quarantined to spares" true
    (Ffs.Store.quarantined_chunks store <> []);
  (* the remapped chunks must stay readable: a full digest touches every
     logical byte, spares included *)
  ignore (Ffs.Store.digest_region store ~pos:0 ~len:(Ffs.Store.length store));
  match Ffs.Check.scrub fs with
  | Error e -> Alcotest.fail (Fmt.str "post-quarantine scrub failed: %a" Ffs.Error.pp e)
  | Ok log ->
      check_bool "the volume is clean after quarantine" true
        (Ffs.Check.scrub_is_clean log)

let test_spare_exhaustion () =
  (* more latent chunks than the store has spares: the volume must
     degrade loudly with Media_error, not lie *)
  let plan = { Ffs.Store.Device.none with latent = 4096; horizon = 1 } in
  let store = faulty_store ~plan ~seed:9 in
  Ffs.Store.write store ~pos:0 (String.make 64 'a');
  Ffs.Store.sync store;
  match Ffs.Error.guard (fun () -> ignore (Ffs.Store.scrub store)) with
  | Error (Ffs.Error.Media_error _) -> ()
  | Error e -> Alcotest.fail (Fmt.str "expected Media_error, got %a" Ffs.Error.pp e)
  | Ok () -> Alcotest.fail "scrub succeeded with more bad chunks than spares"

(* ------------------------------------------------------------------ *)
(* Zero user-data loss under a full chaos run                          *)
(* ------------------------------------------------------------------ *)

let test_chaos_no_data_loss () =
  let days = 4 and seed = 31337 in
  let plan =
    { Ffs.Store.Device.transient = 0.002; latent = 1; bitrot = 4; torn = 1; horizon = 12 }
  in
  let backend =
    Ffs.Store.resilient_spec ~faults:plan
      ~seed:(Fault.Plan.device_seed ~fault_seed:seed)
      Ffs.Store.Heap_backend
  in
  let ops = build_ops ~days ~seed () in
  let r =
    match
      Aging.Replay.run_resumable ~backend ~params:small ~days ~crashes:0
        ~fault_seed:seed ~scrub_every:1 ops
    with
    | `Completed cr -> cr.Aging.Replay.result
    | `Interrupted _ -> Alcotest.fail "chaos run interrupted itself"
  in
  let fs = r.Aging.Replay.fs in
  (* every workload file that survived the replay must still have a live
     inode: scrub-and-repair may rebuild bitmaps but never drops files *)
  Hashtbl.iter
    (fun _workload_ino live_ino ->
      match Ffs.Fs.inode fs live_ino with
      | _inode -> ()
      | exception Not_found ->
          Alcotest.fail (Printf.sprintf "inode %d lost to device faults" live_ino))
    r.Aging.Replay.ino_map;
  check_bool "ino_map is not trivially empty" true (Hashtbl.length r.Aging.Replay.ino_map > 0);
  let report = Ffs.Check.run fs in
  check_bool "final audit is clean" true (Ffs.Check.is_clean report)

(* ------------------------------------------------------------------ *)
(* Property: scrub is idempotent and digest-preserving when clean      *)
(* ------------------------------------------------------------------ *)

let prop_scrub_idempotent =
  QCheck.Test.make ~count:8 ~name:"scrub on a clean volume is a digest-preserving no-op"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let backend = Ffs.Store.resilient_spec Ffs.Store.Heap_backend in
      let fs = (run_small ~backend ~days:2 ~seed).Aging.Replay.fs in
      let before = Ffs.Fs.digest fs in
      let first = Ffs.Check.scrub_exn fs in
      let second = Ffs.Check.scrub_exn fs in
      Ffs.Fs.digest fs = before
      && first.Ffs.Check.problems_found = 0
      && Ffs.Check.scrub_is_clean second)

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "store"
    [
      ( "device specs",
        [
          tc "of_string accepts and rejects" test_device_spec_parse;
          tc "to_string round-trips" test_device_spec_round_trip;
          tc "fault-seed split" test_fault_seed_split;
        ] );
      ( "passthrough",
        [
          slow "bit-identical to raw (serial)" test_passthrough_identity;
        ] );
      ( "fault injection",
        [
          tc "same seed, same damage" test_fault_determinism;
          tc "transient faults are retried away" test_transient_retry;
          tc "retry backoff stays in its envelope" test_retry_backoff_envelope;
        ] );
      ( "scrub",
        [
          slow "bit rot is healed and scrub is idempotent" test_scrub_heals_bitrot;
          slow "latent chunks are quarantined" test_latent_quarantine;
          tc "spare exhaustion raises Media_error" test_spare_exhaustion;
          slow "chaos run loses no user data" test_chaos_no_data_loss;
          QCheck_alcotest.to_alcotest prop_scrub_idempotent;
        ] );
    ]
