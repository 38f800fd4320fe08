(* The differential suite behind the indexed allocator: every placement
   the extent-index searches produce must be bit-identical to the seed's
   linear bitmap scans (Cg.Reference). Random operation scripts run
   through both implementations in lockstep and the suite asserts equal
   block choices, equal marshalled group state (bitmaps, counters,
   rotor, cluster summary, extent index) and equal Obs counter deltas;
   whole-pipeline pins replay an aging workload — including one with
   crashes and fsck repairs — in both modes and compare the aged images
   byte for byte. *)

let check_bool = Alcotest.(check bool)
let params = Ffs.Params.small_test_fs
let fpb = params.Ffs.Params.frags_per_block
let fresh () = Ffs.Cg.create params ~index:0
let marshalled x = Marshal.to_string x []

(* the three allocation entry points of one implementation *)
type impl = {
  block : Ffs.Cg.t -> pref:int option -> int option;
  frags : Ffs.Cg.t -> pref:int option -> count:int -> int option;
  cluster :
    Ffs.Cg.t ->
    policy:[ `First_fit | `Best_fit ] ->
    pref:int option ->
    len:int ->
    int option;
}

let indexed =
  {
    block = Ffs.Cg.alloc_block;
    frags = Ffs.Cg.alloc_frags;
    cluster = Ffs.Cg.alloc_cluster;
  }

let oracle =
  {
    block = Ffs.Cg.Reference.alloc_block;
    frags = Ffs.Cg.Reference.alloc_frags;
    cluster = Ffs.Cg.Reference.alloc_cluster;
  }

(* op mix exercising every search: preferred and rotor-driven block
   allocations, fragment tails with and without preference, first- and
   best-fit clusters, and frees that reopen space mid-script *)
let cg_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun p -> `Block (Some p)) (int_bound 400));
        (2, return (`Block None));
        ( 3,
          map2
            (fun p c -> `Frags (Some p, 1 + (c mod (fpb - 1))))
            (int_bound 3000) (int_bound 6) );
        (1, map (fun c -> `Frags (None, 1 + (c mod (fpb - 1)))) (int_bound 6));
        ( 2,
          map2 (fun p l -> `Cluster (`First_fit, Some p, 1 + l)) (int_bound 400)
            (int_bound 5) );
        (1, map (fun l -> `Cluster (`First_fit, None, 1 + l)) (int_bound 5));
        ( 2,
          map2 (fun p l -> `Cluster (`Best_fit, Some p, 1 + l)) (int_bound 400)
            (int_bound 5) );
        (3, return `Free_something);
      ])

(* run a script through one implementation, returning every result (the
   placement trace) so traces can be compared op by op *)
let run_script_on cg impl script =
  let held = ref [] in
  let results = ref [] in
  List.iter
    (fun op ->
      let got =
        match op with
        | `Block pref -> Option.map (fun b -> (b * fpb, fpb)) (impl.block cg ~pref)
        | `Frags (pref, count) ->
            Option.map (fun pos -> (pos, count)) (impl.frags cg ~pref ~count)
        | `Cluster (policy, pref, len) ->
            Option.map (fun b -> (b * fpb, len * fpb)) (impl.cluster cg ~policy ~pref ~len)
        | `Free_something ->
            (match !held with
            | (pos, count) :: rest ->
                Ffs.Cg.free_frags cg ~pos ~count;
                held := rest
            | [] -> ());
            None
      in
      (match (op, got) with
      | `Free_something, _ -> ()
      | _, Some r -> held := r :: !held
      | _, None -> ());
      results := got :: !results)
    script;
  List.rev !results

let with_metrics f =
  let m = Obs.Metrics.default in
  Obs.Metrics.reset m;
  Obs.Metrics.set_enabled m true;
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_enabled m false;
      Obs.Metrics.reset m)
  @@ fun () ->
  let before = Obs.Metrics.snapshot m in
  let r = f () in
  (r, Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot m))

let prop_lockstep =
  let open QCheck in
  Test.make ~name:"indexed vs scan oracle: identical placements, state, counters"
    ~count:80
    (make Gen.(list_size (int_bound 140) cg_op_gen))
    (fun script ->
      let cg_i = fresh () and cg_r = fresh () in
      let res_i, d_i = with_metrics (fun () -> run_script_on cg_i indexed script) in
      let res_r, d_r = with_metrics (fun () -> run_script_on cg_r oracle script) in
      if res_i <> res_r then Test.fail_report "placement traces differ";
      if marshalled cg_i <> marshalled cg_r then
        Test.fail_report "final group state differs (marshalled bytes)";
      if d_i <> d_r then Test.fail_report "Obs counter deltas differ";
      Ffs.Cg.check_invariants cg_i;
      Ffs.Cg.check_invariants cg_r;
      true)

(* the switch the pipeline pins rely on: the public entry points under
   [with_reference_searches] are the oracle *)
let prop_route_switch =
  let open QCheck in
  Test.make ~name:"with_reference_searches routes the public API to the oracle"
    ~count:30
    (make Gen.(list_size (int_bound 80) cg_op_gen))
    (fun script ->
      let cg_r = fresh () and cg_p = fresh () in
      let res_r = run_script_on cg_r oracle script in
      let res_p =
        Ffs.Cg.with_reference_searches (fun () -> run_script_on cg_p indexed script)
      in
      res_r = res_p && marshalled cg_r = marshalled cg_p)

(* fault injection tears the image, fsck repairs it (rebuilding the
   extent index from scratch); allocation after that repair must still
   be bit-identical between the two implementations *)
let prop_post_repair_lockstep =
  let open QCheck in
  Test.make ~name:"post-fault repair: rebuilt index still bit-identical" ~count:25
    (make Gen.(pair (int_bound 1000) (list_size (int_bound 80) cg_op_gen)))
    (fun (seed, script) ->
      let build () =
        let fs = Ffs.Fs.create params in
        let d = Ffs.Fs.mkdir_exn fs ~parent:(Ffs.Fs.root fs) ~name:"d" in
        for i = 0 to 11 do
          ignore
            (Ffs.Fs.create_file_exn fs ~dir:d ~name:(Fmt.str "f%d" i)
               ~size:((1 + (i mod 5)) * params.Ffs.Params.block_bytes))
        done;
        (* same seed on identically-built images: identical torn writes *)
        let rng = Util.Prng.create ~seed in
        let plan = Fault.Plan.gen ~rng ~intensity:5 in
        ignore (Fault.Inject.apply fs ~rng plan);
        ignore (Ffs.Check.repair_exn fs);
        fs
      in
      let fs_i = build () and fs_r = build () in
      (* Check.run must not perturb the image it audits (audit_index
         copies before checking), so this asymmetric call is safe *)
      if not (Ffs.Check.is_clean (Ffs.Check.run fs_i)) then
        Test.fail_report "image not clean after repair";
      let res_i = run_script_on (Ffs.Fs.cg_states fs_i).(0) indexed script in
      let res_r = run_script_on (Ffs.Fs.cg_states fs_r).(0) oracle script in
      if res_i <> res_r then Test.fail_report "post-repair placement traces differ";
      if marshalled fs_i <> marshalled fs_r then
        Test.fail_report "post-repair images differ (marshalled bytes)";
      true)

(* --- whole-pipeline pins --------------------------------------------------- *)

let aged_ops ~days ~seed =
  let profile =
    { (Workload.Ground_truth.scaled params ~days) with Workload.Ground_truth.seed }
  in
  (Workload.Ground_truth.generate params profile).Workload.Ground_truth.ops

let test_pipeline_pin config_name config () =
  let days = 4 in
  let ops = aged_ops ~days ~seed:11 in
  let r_i = Aging.Replay.run ~config ~params ~days ops in
  let r_r =
    Ffs.Cg.with_reference_searches (fun () -> Aging.Replay.run ~config ~params ~days ops)
  in
  check_bool
    (config_name ^ ": layout scores identical")
    true
    (r_i.Aging.Replay.daily_scores = r_r.Aging.Replay.daily_scores);
  check_bool
    (config_name ^ ": aged-image bytes identical")
    true
    (marshalled r_i.Aging.Replay.fs = marshalled r_r.Aging.Replay.fs)

let test_crash_pipeline_pin () =
  let days = 4 in
  let ops = aged_ops ~days ~seed:3 in
  let go () =
    match Aging.Replay.run_resumable ~params ~days ~crashes:2 ~fault_seed:7 ops with
    | `Completed cr -> cr
    | `Interrupted _ -> Alcotest.fail "run was unexpectedly interrupted"
  in
  let c_i = go () in
  let c_r = Ffs.Cg.with_reference_searches go in
  check_bool "same number of recoveries" true
    (List.length c_i.Aging.Replay.recoveries = List.length c_r.Aging.Replay.recoveries);
  check_bool "crash-aged image bytes identical" true
    (marshalled c_i.Aging.Replay.result.Aging.Replay.fs
    = marshalled c_r.Aging.Replay.result.Aging.Replay.fs);
  check_bool "crash-aged image fsck-clean" true
    (Ffs.Check.is_clean (Ffs.Check.run c_i.Aging.Replay.result.Aging.Replay.fs))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cg_diff"
    [
      ( "lockstep",
        [
          QCheck_alcotest.to_alcotest prop_lockstep;
          QCheck_alcotest.to_alcotest prop_route_switch;
          QCheck_alcotest.to_alcotest prop_post_repair_lockstep;
        ] );
      ( "pipeline pins",
        [
          tc "traditional allocator" (test_pipeline_pin "traditional" Ffs.Fs.default_config);
          tc "realloc allocator" (test_pipeline_pin "realloc" Ffs.Fs.realloc_config);
          tc "crash/repair replay" test_crash_pipeline_pin;
        ] );
    ]
