(* Tests for the per-group free-space index's run summary (the
   simulator's cg_clustersum), driven the way Cg drives it: a block
   becomes used with [update ~maxrun:0] and free again with
   [update ~maxrun:fpb]. Includes model-based property tests that
   require a clean audit after every step, and the cluster first-fit
   case that starts inside a free run. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let fpb = 8

let create ?(fpb = fpb) n = Ffs.Extent_index.create ~nblocks:n ~fpb
let use r b = Ffs.Extent_index.update r b ~maxrun:0
let release ?(fpb = fpb) r b = Ffs.Extent_index.update r b ~maxrun:fpb
let count = Ffs.Extent_index.count_of_length
let longest = Ffs.Extent_index.longest
let run_end = Ffs.Extent_index.run_end

(* the audit against a block-level model ([free b]), as a list of
   divergences: [] means consistent *)
let audit ?(fpb = fpb) r ~free = Ffs.Extent_index.audit r ~frag_free:(fun f -> free (f / fpb))

let check_clean msg r ~free = Alcotest.(check (list string)) msg [] (audit r ~free)

let test_initial () =
  let r = create 100 in
  check_int "one run of 100" 1 (count r 100);
  check_int "longest" 100 (longest r);
  check_bool "has run 100" true (longest r >= 100);
  check_bool "no run 101" false (longest r >= 101);
  check_int "run end from 50" 99 (run_end r 50)

let test_split_and_merge () =
  let r = create 10 in
  use r 4;
  check_int "left run" 1 (count r 4);
  check_int "right run" 1 (count r 5);
  check_int "longest" 5 (longest r);
  check_int "used slot records no free run" 0 (Ffs.Extent_index.block_maxrun r 4);
  release r 4;
  check_int "merged back" 1 (count r 10);
  check_int "longest restored" 10 (longest r)

let test_endpoint_allocations () =
  let r = create 6 in
  use r 0;
  use r 5;
  check_int "middle run" 1 (count r 4);
  use r 1;
  use r 2;
  use r 3;
  use r 4;
  check_int "nothing left" 0 (longest r);
  release r 3;
  check_int "single slot back" 1 (count r 1)

let test_exhaust_and_rebuild () =
  let r = create 64 in
  for i = 0 to 63 do
    use r i
  done;
  check_int "empty" 0 (longest r);
  (* free every other slot: 32 singletons *)
  for i = 0 to 31 do
    release r (2 * i)
  done;
  check_int "32 singletons" 32 (count r 1);
  check_int "longest is 1" 1 (longest r);
  (* fill the gaps: one run of 64 *)
  for i = 0 to 31 do
    release r ((2 * i) + 1)
  done;
  check_int "one full run" 1 (count r 64)

let test_histogram_folding () =
  let r = create 20 in
  use r 3;
  (* runs: 3 and 16 *)
  let h = Ffs.Extent_index.run_histogram r ~max:8 in
  check_int "3-run counted" 1 h.(2);
  check_int "16-run folded into last slot" 1 h.(7)

let test_copy_independent () =
  let r = create 10 in
  let d = Ffs.Extent_index.copy r in
  use r 5;
  check_int "copy untouched" 1 (count d 10);
  check_int "original split" 0 (count r 10)

(* the fast path: a slot at either end of its run *)
let test_allocate_at_run_ends () =
  let r = create 10 in
  use r 0;
  check_int "slot 0: rest is one run" 1 (count r 9);
  use r 9;
  check_int "slot size-1: run shrinks from the right" 1 (count r 8);
  use r 1;
  check_int "start of a run" 1 (count r 7);
  use r 8;
  check_int "end of a run" 1 (count r 6);
  check_clean "audit" r ~free:(fun i -> i >= 2 && i <= 7)

let test_allocate_inside_run () =
  let r = create 12 in
  use r 5;
  check_int "left part" 1 (count r 5);
  check_int "right part" 1 (count r 6);
  (* strictly inside again, nearer the right end of [6,11] *)
  use r 9;
  check_int "3-run" 1 (count r 3);
  check_int "2-run" 1 (count r 2);
  check_int "5-run kept" 1 (count r 5);
  check_clean "audit" r ~free:(fun i -> i <> 5 && i <> 9)

let test_single_slot_run () =
  let r = create 5 in
  use r 1;
  use r 3;
  check_int "three singletons" 3 (count r 1);
  check_int "middle singleton ends where it starts" 2 (run_end r 2);
  use r 2;
  check_int "middle singleton gone" 2 (count r 1);
  check_int "longest" 1 (longest r);
  check_clean "audit" r ~free:(fun i -> i = 0 || i = 4);
  let one = create 1 in
  use one 0;
  check_int "size-1 index emptied" 0 (longest one);
  release one 0;
  check_int "and refilled" 1 (count one 1)

let test_run_length_at_positions () =
  let r = create 20 in
  use r 3;
  use r 14;
  (* runs [0,2], [4,13], [15,19] *)
  List.iter
    (fun (i, start, len) ->
      check_int (Fmt.str "run end from %d" i) (start + len - 1) (run_end r i))
    [ (0, 0, 3); (1, 0, 3); (2, 0, 3); (4, 4, 10); (8, 4, 10); (13, 4, 10); (15, 15, 5);
      (17, 15, 5); (19, 15, 5) ];
  check_int "used slot records no free run" 0 (Ffs.Extent_index.block_maxrun r 3)

(* runs whose interior [lengths] entries are stale (left behind by
   splits that were merged away), and a partial block, which ends a
   free-block run exactly as a used one does *)
let test_run_end_start_and_inside () =
  let r = create 30 in
  use r 5;
  use r 10;
  use r 20;
  release r 10;
  release r 5;
  (* one run [0,19] whose slots 4, 6, 9 and 11 held endpoint lengths *)
  List.iter
    (fun i -> check_int (Fmt.str "run end from %d" i) 19 (run_end r i))
    [ 0; 4; 6; 9; 11; 19 ];
  check_int "run after the used block, from its start" 29 (run_end r 21);
  check_int "run after the used block, from inside" 29 (run_end r 27);
  Ffs.Extent_index.update r 8 ~maxrun:3;
  check_int "partial block splits the run: left" 7 (run_end r 2);
  check_int "partial block splits the run: right" 19 (run_end r 9);
  Alcotest.(check (list string))
    "audit" []
    (Ffs.Extent_index.audit r ~frag_free:(fun f ->
         let b = f / fpb in
         if b = 8 then f mod fpb < 3 else b <> 20));
  check_int "8-run" 1 (count r 8);
  check_int "11-run" 1 (count r 11)

(* Cluster first-fit whose preference lies inside a free run shorter
   than the request: [exact_at_pref] fails, and the search starts
   inside that run. Indexed and scan placement must agree. *)
let test_first_fit_from_inside_a_short_run () =
  let params = Ffs.Params.small_test_fs in
  let gfpb = params.Ffs.Params.frags_per_block in
  let fresh () = Ffs.Cg.create params ~index:0 in
  let n = Ffs.Cg.data_blocks (fresh ()) in
  let claim cg ~from ~upto =
    Ffs.Cg.mark_frags_used cg ~pos:(from * gfpb) ~count:((upto - from) * gfpb)
  in
  List.iter
    (fun (what, layout, pref, len, expected) ->
      let indexed = fresh () and scan = fresh () in
      layout indexed;
      layout scan;
      let got = Ffs.Cg.alloc_cluster indexed ~policy:`First_fit ~pref:(Some pref) ~len in
      let want = Ffs.Cg.Reference.alloc_cluster scan ~policy:`First_fit ~pref:(Some pref) ~len in
      Alcotest.(check (option int)) (what ^ ": scan oracle") (Some expected) want;
      Alcotest.(check (option int)) (what ^ ": indexed = scan") want got;
      Alcotest.(check (list string)) (what ^ ": audit") [] (Ffs.Cg.audit_index indexed))
    [
      (* free [10,13] then [30,n): from 12, the window lands at 30 *)
      ( "forward past the short run",
        (fun cg ->
          claim cg ~from:0 ~upto:10;
          claim cg ~from:14 ~upto:30),
        12,
        4,
        30 );
      (* free [5,8] and [n-3,n): from n-2, the search wraps to 5 *)
      ( "wrapping past the short run",
        (fun cg ->
          claim cg ~from:0 ~upto:5;
          claim cg ~from:9 ~upto:(n - 3)),
        n - 2,
        4,
        5 );
    ]

(* Scripts over an index about the size of a paper-geometry group
   (2,304 block slots), built from the access patterns the allocator
   produces: ascending fills (a file's blocks), descending fills, frees
   of a range (deletes, whose slots merge with their neighbours), and
   random toggles (slots strictly inside runs). The index is audited
   against the model after every single-slot step; one fragment per
   block keeps that audit, which re-derives every block from its
   fragments, about as cheap as the run recount it exists for. *)
let group_slots = 2304

type move = Fill_up of int * int | Fill_down of int * int | Free_range of int * int | Toggle of int

let gen_move =
  let open QCheck.Gen in
  let pos = int_bound (group_slots - 1) and len = int_range 1 48 in
  frequency
    [
      (3, map2 (fun p l -> Fill_up (p, l)) pos len);
      (2, map2 (fun p l -> Fill_down (p, l)) pos len);
      (2, map2 (fun p l -> Free_range (p, l)) pos len);
      (3, map (fun p -> Toggle p) pos);
    ]

let print_move = function
  | Fill_up (p, l) -> Fmt.str "up %d+%d" p l
  | Fill_down (p, l) -> Fmt.str "down %d+%d" p l
  | Free_range (p, l) -> Fmt.str "free %d+%d" p l
  | Toggle p -> Fmt.str "toggle %d" p

let prop_group_sized_scripts =
  let open QCheck in
  Test.make ~name:"group-sized index matches the model after every step" ~count:100
    (make ~print:Print.(list print_move) Gen.(list_size (int_range 1 25) gen_move))
    (fun script ->
      let r = create ~fpb:1 group_slots in
      let model = Array.make group_slots false in
      let step i want_used =
        if model.(i) <> want_used then begin
          if want_used then use r i else release ~fpb:1 r i;
          model.(i) <- want_used;
          audit ~fpb:1 r ~free:(fun i -> not model.(i)) = []
        end
        else true
      in
      let span p l = List.init (min l (group_slots - p)) (fun k -> p + k) in
      List.for_all
        (function
          | Fill_up (p, l) -> List.for_all (fun i -> step i true) (span p l)
          | Fill_down (p, l) -> List.for_all (fun i -> step i true) (List.rev (span p l))
          | Free_range (p, l) -> List.for_all (fun i -> step i false) (span p l)
          | Toggle i -> step i (not model.(i)))
        script)

let prop_matches_model =
  let open QCheck in
  Test.make ~name:"run index matches a boolean-array recount" ~count:300
    (make Gen.(list_size (int_bound 200) (int_bound 63)))
    (fun script ->
      let r = create 64 in
      let model = Array.make 64 false in
      (* toggle: allocate if free, free if used *)
      List.for_all
        (fun i ->
          if model.(i) then release r i else use r i;
          model.(i) <- not model.(i);
          audit r ~free:(fun i -> not model.(i)) = [])
        script)

(* Complexity guard. Filling an index slot by slot, in ascending or in
   descending order, always allocates at an end of the remaining free
   run, which must cost O(1). So one fill of 10n slots should take about
   as long as ten fills of n slots: the same number of allocations. If
   each allocation walked the rest of its run, the single large fill
   would take about ten times as long. Each side is the best of five
   timings; the ratio must stay under 4. *)
let fill_seconds ~size ~rounds ~descending =
  let indexes = Array.init rounds (fun _ -> create size) in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun r ->
      if descending then
        for i = size - 1 downto 0 do
          use r i
        done
      else
        for i = 0 to size - 1 do
          use r i
        done)
    indexes;
  Unix.gettimeofday () -. t0

let test_fill_is_linear () =
  let best_of_5 f = List.fold_left Float.min infinity (List.init 5 (fun _ -> f ())) in
  List.iter
    (fun descending ->
      let small = best_of_5 (fun () -> fill_seconds ~size:4_000 ~rounds:10 ~descending) in
      let large = best_of_5 (fun () -> fill_seconds ~size:40_000 ~rounds:1 ~descending) in
      let ratio = large /. Float.max small 1e-6 in
      if ratio > 4.0 then
        Alcotest.failf
          "%s fill: 1 x 40000 slots took %.2f ms, 10 x 4000 took %.2f ms (ratio %.1f > 4)"
          (if descending then "descending" else "ascending")
          (large *. 1e3) (small *. 1e3) ratio)
    [ false; true ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "extent_index"
    [
      ( "unit",
        [
          tc "initial" test_initial;
          tc "split and merge" test_split_and_merge;
          tc "endpoints" test_endpoint_allocations;
          tc "exhaust and rebuild" test_exhaust_and_rebuild;
          tc "histogram folding" test_histogram_folding;
          tc "copy" test_copy_independent;
          tc "allocate at run ends" test_allocate_at_run_ends;
          tc "allocate inside a run" test_allocate_inside_run;
          tc "single-slot runs" test_single_slot_run;
          tc "run length at start, middle, end" test_run_length_at_positions;
          tc "run end from a run start and from inside" test_run_end_start_and_inside;
          tc "first fit from inside a short run" test_first_fit_from_inside_a_short_run;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_matches_model;
          QCheck_alcotest.to_alcotest prop_group_sized_scripts;
        ] );
      ("complexity", [ tc "in-order fills are linear" test_fill_is_linear ]);
    ]
