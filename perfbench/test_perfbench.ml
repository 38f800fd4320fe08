(* Tests for the benchmark's own arithmetic: percentile selection, span
   self time, and the per-process record's JSON round trip. *)

open Perfbench_core

let sorted_1_to n = Array.init n (fun i -> i + 1)

let test_percentile_refuses_thin_tails () =
  (* p99 of 200 samples would rest on two values beyond it *)
  Alcotest.(check (option int)) "p99 of 200" None (Pct.select ~p:0.99 (sorted_1_to 200));
  (* with 1000 samples, ten lie beyond the 99th percentile *)
  Alcotest.(check (option int)) "p99 of 1000" (Some 990) (Pct.select ~p:0.99 (sorted_1_to 1000));
  Alcotest.(check (option int)) "p99 of 999" None (Pct.select ~p:0.99 (sorted_1_to 999));
  Alcotest.(check (option int)) "p90 of 100" (Some 90) (Pct.select ~p:0.9 (sorted_1_to 100));
  Alcotest.(check (option int)) "p90 of 99" None (Pct.select ~p:0.9 (sorted_1_to 99));
  Alcotest.(check (option int)) "median of 21" (Some 11) (Pct.select ~p:0.5 (sorted_1_to 21));
  Alcotest.(check (option int)) "median of 20" (Some 10) (Pct.select ~p:0.5 (sorted_1_to 20));
  Alcotest.(check (option int)) "median of 19" None (Pct.select ~p:0.5 (sorted_1_to 19));
  Alcotest.(check (option int)) "empty" None (Pct.select ~p:0.5 [||])

let test_samples_grow () =
  let s = Pct.samples () in
  for i = 1 to 5000 do
    Pct.add s i
  done;
  Alcotest.(check int) "count" 5000 (Pct.count s);
  Alcotest.(check int) "total" (5000 * 5001 / 2) (Pct.total s);
  Alcotest.(check int) "sorted last" 5000 (Pct.sorted s).(4999)

let span id name parent start_ns end_ns = { Spans.id; name; parent; start_ns; end_ns }

let self_of spans id =
  List.assoc id (List.map (fun (s, ns) -> (s.Spans.id, ns)) (Spans.self_ns spans))

let test_self_time_nested () =
  (* root 0..100 has children 10..30 and 40..70; the second child has
     its own child 50..60 *)
  let spans =
    [
      span 0 "root" Spans.no_parent 0 100;
      span 1 "a" 0 10 30;
      span 2 "b" 0 40 70;
      span 3 "c" 2 50 60;
    ]
  in
  Alcotest.(check int) "root self" 50 (self_of spans 0);
  Alcotest.(check int) "a self" 20 (self_of spans 1);
  Alcotest.(check int) "b self" 20 (self_of spans 2);
  Alcotest.(check int) "c self" 10 (self_of spans 3);
  (* self times of a tree partition the root's duration *)
  Alcotest.(check int) "sum" 100 (List.fold_left (fun acc (_, ns) -> acc + ns) 0 (Spans.self_ns spans))

let test_self_time_overlap_and_clip () =
  (* overlapping children are counted once; a child reaching past its
     parent is clipped to the parent's interval *)
  let spans =
    [
      span 0 "root" Spans.no_parent 0 100;
      span 1 "x" 0 10 50;
      span 2 "y" 0 30 60;
      span 3 "z" 0 90 130;
    ]
  in
  Alcotest.(check int) "root self" 40 (self_of spans 0)

let test_recorder () =
  let t = Spans.create () in
  let r =
    Spans.with_span (Some t) "outer" (fun () ->
        Spans.with_span (Some t) "inner" (fun () -> 1) + Spans.with_span (Some t) "inner" (fun () -> 2))
  in
  Alcotest.(check int) "value" 3 r;
  (match
     Spans.with_span (Some t) "raises" (fun () -> failwith "boom")
   with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure _ -> ());
  let spans = Spans.spans t in
  Alcotest.(check (list string)) "order" [ "inner"; "inner"; "outer"; "raises" ]
    (List.map (fun s -> s.Spans.name) spans);
  let outer = List.find (fun s -> s.Spans.name = "outer") spans in
  List.iter
    (fun s ->
      if s.Spans.name = "inner" then Alcotest.(check int) "parent" outer.Spans.id s.Spans.parent)
    spans;
  let raised = List.find (fun s -> s.Spans.name = "raises") spans in
  Alcotest.(check int) "top level after unwinding" Spans.no_parent raised.Spans.parent;
  Alcotest.(check int) "untraced is a plain call" 7 (Spans.with_span None "x" (fun () -> 7))

let record =
  {
    Record.workload = "paper-60d";
    seed = 960117;
    phase = "traced";
    attempted = 183_512;
    skipped = 3;
    metrics =
      [
        Record.metric ~unit_:"s" "wall_s" 13.042_871_234_567_89;
        Record.metric ~unit_:"us" "fs.create_us_p50" 3.8;
        Record.metric ~unit_:"count" "cg.fallbacks" 12.0;
        Record.metric ~unit_:"ratio" "tiny" 1.5e-300;
      ];
    digests = [ ("recon_ffs.image", "3f2a"); ("fleet.aggregate", "0badcafe") ];
    checks = [ ("audit_clean", true); ("mirror_matches", false) ];
    env = [ ("nproc", Obs.Json.Int 2); ("ocaml", Obs.Json.String "5.1.1") ];
  }

let test_record_round_trip () =
  match Record.of_string (Record.to_string record) with
  | Ok r -> Alcotest.(check bool) "identical" true (r = record)
  | Error e -> Alcotest.fail e

let test_record_rejects_malformed () =
  Alcotest.(check bool) "not json" true (Result.is_error (Record.of_string "{"));
  Alcotest.(check bool) "missing keys" true (Result.is_error (Record.of_string "{\"workload\":\"x\"}"));
  let no_unit =
    Obs.Json.to_string
      (match Record.to_json record with
      | Obs.Json.Obj kv ->
          Obs.Json.Obj
            (List.map
               (fun (k, v) ->
                 if k = "metrics" then (k, Obs.Json.Obj [ ("wall_s", Obs.Json.Obj [ ("value", Obs.Json.Float 1.0) ]) ])
                 else (k, v))
               kv)
      | j -> j)
  in
  Alcotest.(check bool) "metric without unit" true (Result.is_error (Record.of_string no_unit))

let () =
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "thin tails refused" `Quick test_percentile_refuses_thin_tails;
          Alcotest.test_case "sample buffer grows" `Quick test_samples_grow;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time with nested children" `Quick test_self_time_nested;
          Alcotest.test_case "self time with overlap and clipping" `Quick
            test_self_time_overlap_and_clip;
          Alcotest.test_case "recorder parents and unwinding" `Quick test_recorder;
        ] );
      ( "record",
        [
          Alcotest.test_case "json round trip" `Quick test_record_round_trip;
          Alcotest.test_case "malformed input refused" `Quick test_record_rejects_malformed;
        ] );
    ]
