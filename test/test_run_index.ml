(* Tests for the incremental free-run summary (the simulator's
   cg_clustersum), including a model-based property test against a
   boolean-array recount. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_initial () =
  let r = Ffs.Run_index.create 100 in
  check_int "size" 100 (Ffs.Run_index.size r);
  check_int "one run of 100" 1 (Ffs.Run_index.count_of_length r 100);
  check_int "longest" 100 (Ffs.Run_index.longest r);
  check_bool "has run 100" true (Ffs.Run_index.has_run r ~len:100);
  check_bool "no run 101" false (Ffs.Run_index.has_run r ~len:101);
  check_int "run length at 50" 100 (Ffs.Run_index.run_length_at r 50)

let test_split_and_merge () =
  let r = Ffs.Run_index.create 10 in
  Ffs.Run_index.allocate r 4;
  check_int "left run" 1 (Ffs.Run_index.count_of_length r 4);
  check_int "right run" 1 (Ffs.Run_index.count_of_length r 5);
  check_int "longest" 5 (Ffs.Run_index.longest r);
  check_int "used slot has no run" 0 (Ffs.Run_index.run_length_at r 4);
  Ffs.Run_index.free r 4;
  check_int "merged back" 1 (Ffs.Run_index.count_of_length r 10);
  check_int "longest restored" 10 (Ffs.Run_index.longest r)

let test_endpoint_allocations () =
  let r = Ffs.Run_index.create 6 in
  Ffs.Run_index.allocate r 0;
  Ffs.Run_index.allocate r 5;
  check_int "middle run" 1 (Ffs.Run_index.count_of_length r 4);
  Ffs.Run_index.allocate r 1;
  Ffs.Run_index.allocate r 2;
  Ffs.Run_index.allocate r 3;
  Ffs.Run_index.allocate r 4;
  check_int "nothing left" 0 (Ffs.Run_index.longest r);
  Ffs.Run_index.free r 3;
  check_int "single slot back" 1 (Ffs.Run_index.count_of_length r 1)

let test_exhaust_and_rebuild () =
  let r = Ffs.Run_index.create 64 in
  for i = 0 to 63 do
    Ffs.Run_index.allocate r i
  done;
  check_int "empty" 0 (Ffs.Run_index.longest r);
  (* free every other slot: 32 singletons *)
  for i = 0 to 31 do
    Ffs.Run_index.free r (2 * i)
  done;
  check_int "32 singletons" 32 (Ffs.Run_index.count_of_length r 1);
  check_int "longest is 1" 1 (Ffs.Run_index.longest r);
  (* fill the gaps: one run of 64 *)
  for i = 0 to 31 do
    Ffs.Run_index.free r ((2 * i) + 1)
  done;
  check_int "one full run" 1 (Ffs.Run_index.count_of_length r 64)

let test_histogram_folding () =
  let r = Ffs.Run_index.create 20 in
  Ffs.Run_index.allocate r 3;
  (* runs: 3 and 16 *)
  let h = Ffs.Run_index.histogram r ~max:8 in
  check_int "3-run counted" 1 h.(2);
  check_int "16-run folded into last slot" 1 h.(7)

let test_copy_independent () =
  let r = Ffs.Run_index.create 10 in
  let d = Ffs.Run_index.copy r in
  Ffs.Run_index.allocate r 5;
  check_int "copy untouched" 1 (Ffs.Run_index.count_of_length d 10);
  check_int "original split" 0 (Ffs.Run_index.count_of_length r 10)

(* the fast path: a slot at either end of its run *)
let test_allocate_at_run_ends () =
  let r = Ffs.Run_index.create 10 in
  Ffs.Run_index.allocate r 0;
  check_int "slot 0: rest is one run" 1 (Ffs.Run_index.count_of_length r 9);
  Ffs.Run_index.allocate r 9;
  check_int "slot size-1: run shrinks from the right" 1 (Ffs.Run_index.count_of_length r 8);
  Ffs.Run_index.allocate r 1;
  check_int "start of a run" 1 (Ffs.Run_index.count_of_length r 7);
  Ffs.Run_index.allocate r 8;
  check_int "end of a run" 1 (Ffs.Run_index.count_of_length r 6);
  Ffs.Run_index.check r ~bitmap_free:(fun i -> i >= 2 && i <= 7)

let test_allocate_inside_run () =
  let r = Ffs.Run_index.create 12 in
  Ffs.Run_index.allocate r 5;
  check_int "left part" 1 (Ffs.Run_index.count_of_length r 5);
  check_int "right part" 1 (Ffs.Run_index.count_of_length r 6);
  (* strictly inside again, nearer the right end of [6,11] *)
  Ffs.Run_index.allocate r 9;
  check_int "3-run" 1 (Ffs.Run_index.count_of_length r 3);
  check_int "2-run" 1 (Ffs.Run_index.count_of_length r 2);
  check_int "5-run kept" 1 (Ffs.Run_index.count_of_length r 5);
  Ffs.Run_index.check r ~bitmap_free:(fun i -> i <> 5 && i <> 9)

let test_single_slot_run () =
  let r = Ffs.Run_index.create 5 in
  Ffs.Run_index.allocate r 1;
  Ffs.Run_index.allocate r 3;
  check_int "three singletons" 3 (Ffs.Run_index.count_of_length r 1);
  check_int "middle singleton" 1 (Ffs.Run_index.run_length_at r 2);
  Ffs.Run_index.allocate r 2;
  check_int "middle singleton gone" 2 (Ffs.Run_index.count_of_length r 1);
  check_int "longest" 1 (Ffs.Run_index.longest r);
  Ffs.Run_index.check r ~bitmap_free:(fun i -> i = 0 || i = 4);
  let one = Ffs.Run_index.create 1 in
  Ffs.Run_index.allocate one 0;
  check_int "size-1 index emptied" 0 (Ffs.Run_index.longest one);
  Ffs.Run_index.free one 0;
  check_int "and refilled" 1 (Ffs.Run_index.count_of_length one 1)

let test_run_length_at_positions () =
  let r = Ffs.Run_index.create 20 in
  Ffs.Run_index.allocate r 3;
  Ffs.Run_index.allocate r 14;
  (* runs [0,2], [4,13], [15,19] *)
  List.iter
    (fun (i, want) -> check_int (Fmt.str "run length at %d" i) want (Ffs.Run_index.run_length_at r i))
    [ (0, 3); (1, 3); (2, 3); (4, 10); (8, 10); (13, 10); (15, 5); (17, 5); (19, 5); (3, 0) ]

(* Scripts over an index about the size of a paper-geometry group
   (2,304 block slots), built from the access patterns the allocator
   produces: ascending fills (a file's blocks), descending fills, frees
   of a range (deletes, whose slots merge with their neighbours), and
   random toggles (slots strictly inside runs). The index is checked
   against the model after every single-slot step. *)
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
      let r = Ffs.Run_index.create group_slots in
      let model = Array.make group_slots false in
      let step i want_used =
        if model.(i) <> want_used then begin
          if want_used then Ffs.Run_index.allocate r i else Ffs.Run_index.free r i;
          model.(i) <- want_used;
          Ffs.Run_index.check r ~bitmap_free:(fun i -> not model.(i))
        end
      in
      let span p l = List.init (min l (group_slots - p)) (fun k -> p + k) in
      List.iter
        (function
          | Fill_up (p, l) -> List.iter (fun i -> step i true) (span p l)
          | Fill_down (p, l) -> List.iter (fun i -> step i true) (List.rev (span p l))
          | Free_range (p, l) -> List.iter (fun i -> step i false) (span p l)
          | Toggle i -> step i (not model.(i)))
        script;
      true)

let prop_matches_model =
  let open QCheck in
  Test.make ~name:"run index matches a boolean-array recount" ~count:300
    (make Gen.(list_size (int_bound 200) (int_bound 63)))
    (fun script ->
      let r = Ffs.Run_index.create 64 in
      let model = Array.make 64 false in
      (* toggle: allocate if free, free if used *)
      List.iter
        (fun i ->
          if model.(i) then begin
            Ffs.Run_index.free r i;
            model.(i) <- false
          end
          else begin
            Ffs.Run_index.allocate r i;
            model.(i) <- true
          end)
        script;
      Ffs.Run_index.check r ~bitmap_free:(fun i -> not model.(i));
      true)

(* Complexity guard. Filling an index slot by slot, in ascending or in
   descending order, always allocates at an end of the remaining free
   run, which must cost O(1). So one fill of 10n slots should take about
   as long as ten fills of n slots: the same number of allocations. If
   each allocation walked the rest of its run, the single large fill
   would take about ten times as long. Each side is the best of five
   timings; the ratio must stay under 4. *)
let fill_seconds ~size ~rounds ~descending =
  let indexes = Array.init rounds (fun _ -> Ffs.Run_index.create size) in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun r ->
      if descending then
        for i = size - 1 downto 0 do
          Ffs.Run_index.allocate r i
        done
      else
        for i = 0 to size - 1 do
          Ffs.Run_index.allocate r i
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
  Alcotest.run "run_index"
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
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_matches_model;
          QCheck_alcotest.to_alcotest prop_group_sized_scripts;
        ] );
      ("complexity", [ tc "in-order fills are linear" test_fill_is_linear ]);
    ]
