(* Golden pins: absolute fingerprints of recorded results.
   Every other suite compares two runs of the current code with each
   other; these compare against values recorded once, so a rewrite of a
   hot path that shifts a single placement fails here even when both
   sides of every differential test shift together.

   The 60-day pins are the same figures the benchmark harness checks
   (image digest, CRC-32 of the [%h]-joined daily score series); the
   small crash/resume pin covers the crash, checkpoint and resume paths
   of the replay loop. Each image also pins its free-space summary:
   [Fs.digest] hashes only the bitmaps, so a fault in the derived run
   summary that moves no placement would pass the digest pin alone. *)

let check_string = Alcotest.(check string)

let series_crc a =
  Printf.sprintf "%08lx"
    (Util.Crc32.string (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a))))

(* CRC-32 of every group's free-space summary, in group order: the
   longest free run, the per-length run counts and the power-of-two
   extent buckets, one line per group *)
let freespace_crc fs =
  let b = Buffer.create 4096 in
  Array.iter
    (fun cg ->
      Printf.bprintf b "%d:%d;" (Ffs.Cg.index cg) (Ffs.Cg.longest_free_run cg);
      Array.iter (Printf.bprintf b "%d,")
        (Ffs.Cg.free_run_histogram cg ~max:(Ffs.Cg.data_blocks cg));
      Array.iter (fun (lo, n) -> Printf.bprintf b "%d=%d," lo n) (Ffs.Cg.extent_histogram cg);
      Buffer.add_char b '\n')
    (Ffs.Fs.cg_states fs);
  Printf.sprintf "%08lx" (Util.Crc32.string (Buffer.contents b))

let check_image label ~digest ~scores ~freespace (r : Aging.Replay.result) =
  check_string (label ^ " image digest") digest (Ffs.Fs.digest r.Aging.Replay.fs);
  check_string (label ^ " score CRC") scores (series_crc r.Aging.Replay.daily_scores);
  check_string (label ^ " free-space CRC") freespace (freespace_crc r.Aging.Replay.fs)

(* --- the paper pipeline at 60 days ------------------------------------------- *)

let test_paper_60d () =
  let ctx =
    Par.Pool.with_pool ~jobs:1 (fun pool ->
        Benchlib.Experiments.build ~params:Ffs.Params.paper_fs ~days:60 ~seed:960117 ~pool ())
  in
  check_image "gt/ffs" ~digest:"57596ca66bf7ffd111ca14f0e67d2d56" ~scores:"1a0e3ccf"
    ~freespace:"0b7eba55"
    (Benchlib.Experiments.aged_ground_truth ctx);
  check_image "recon/ffs" ~digest:"1c0f44c206431edc888a0273a403393f" ~scores:"c459847b"
    ~freespace:"08942fb9"
    (Benchlib.Experiments.aged_traditional ctx);
  check_image "recon/realloc" ~digest:"e1edcba87e61afc28299f49d2606319f" ~scores:"013d4981"
    ~freespace:"12a5bbe5"
    (Benchlib.Experiments.aged_realloc ctx)

(* --- crash, checkpoint and resume on the small geometry ----------------------- *)

let test_crash_resume () =
  let params = Ffs.Params.small_test_fs and days = 8 and crashes = 3 and fault_seed = 97 in
  let ops =
    let profile =
      { (Workload.Ground_truth.scaled params ~days) with Workload.Ground_truth.seed = 4242 }
    in
    (Workload.Ground_truth.generate params profile).Workload.Ground_truth.ops
  in
  (* stop at the first checkpoint, carry it through its portable form
     (what reaches disk), and resume on a fresh engine *)
  let stop = ref false in
  let ck =
    match
      Aging.Replay.run_resumable ~params ~days ~crashes ~fault_seed ~checkpoint_every:4
        ~on_checkpoint:(fun _ -> stop := true)
        ~should_stop:(fun () -> !stop)
        ops
    with
    | `Interrupted ck -> Aging.Replay.(checkpoint_of_portable (portable_of_checkpoint ck))
    | `Completed _ -> Alcotest.fail "expected the run to stop at its first checkpoint"
  in
  Alcotest.(check int) "checkpointed at day 4" 4 (Aging.Replay.checkpoint_day ck);
  (* two of the three crashes fall before the checkpoint (op 945 of
     1455), one after it; the straight run must land on the same pins *)
  List.iter
    (fun (label, resume) ->
      match Aging.Replay.run_resumable ~params ~days ~crashes ~fault_seed ?resume ops with
      | `Interrupted _ -> Alcotest.fail "run stopped without a stop request"
      | `Completed cr ->
          check_image label ~digest:"79d2488f9c63f628d6868c7336d0ad24" ~scores:"c181803e"
            ~freespace:"676f9a1d" cr.Aging.Replay.result;
          Alcotest.(check (list int))
            (label ^ " crash points") [ 314; 495; 1056 ]
            (List.map (fun r -> r.Aging.Replay.after_op) cr.Aging.Replay.recoveries))
    [ ("resumed", Some ck); ("straight", None) ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "golden"
    [
      ( "pins",
        [
          tc "paper geometry, 60 days, default seed" test_paper_60d;
          tc "small geometry, 3 crashes, checkpoint and resume" test_crash_resume;
        ] );
    ]
