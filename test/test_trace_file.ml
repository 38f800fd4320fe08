(* Tests for the plain-text workload trace format. *)

let check_bool = Alcotest.(check bool)
let params = Ffs.Params.small_test_fs

let sample_ops () =
  let profile =
    { (Workload.Ground_truth.scaled params ~days:4) with Workload.Ground_truth.seed = 3 }
  in
  (Workload.Ground_truth.generate params profile).Workload.Ground_truth.ops

let check_ok name = function
  | Ok ops -> ops
  | Error e -> Alcotest.failf "%s: %a" name Ffs.Error.pp e

let test_roundtrip_string () =
  let ops = sample_ops () in
  let ops' =
    check_ok "roundtrip" (Workload.Trace_file.of_string (Workload.Trace_file.to_string ops))
  in
  check_bool "identical after roundtrip" true (ops = ops')

let test_roundtrip_file () =
  let ops = sample_ops () in
  let path = Filename.temp_file "ffs_trace" ".txt" in
  Workload.Trace_file.save ~path ops;
  let ops' = check_ok "file roundtrip" (Workload.Trace_file.load ~path) in
  Sys.remove path;
  check_bool "identical after file roundtrip" true (ops = ops')

(* malformed input is [Corrupt] naming the offending line *)
let expect_corrupt name ~line input =
  let prefix = Printf.sprintf "trace line %d: " line in
  match Workload.Trace_file.of_string input with
  | Error (Ffs.Error.Corrupt msg) ->
      check_bool
        (Printf.sprintf "%s: %S starts with %S" name msg prefix)
        true
        (String.starts_with ~prefix msg)
  | Error e -> Alcotest.failf "%s: expected Corrupt, got %a" name Ffs.Error.pp e
  | Ok _ -> Alcotest.failf "%s: expected Corrupt, got a trace" name

let header = "# ffs-repro workload v1\n"

let test_bad_header () =
  expect_corrupt "bad header" ~line:1 "# wrong\nC 1 2 3\n";
  expect_corrupt "empty input" ~line:1 ""

let test_malformed_lines () =
  expect_corrupt "garbage" ~line:2 (header ^ "X 1 2 3\n");
  expect_corrupt "missing field" ~line:3 (header ^ "C 1 1000 1.0\nC 1 2\n");
  expect_corrupt "non-numeric" ~line:4 (header ^ "\n# comment\nC one 2 3.0\n")

let test_rejects_ill_formed_semantics () =
  (* delete of a dead inode parses but fails validation; the line count
     skips the comment and the blank line *)
  expect_corrupt "semantic check" ~line:5
    (header ^ "C 1 1000 10.0\n# comment\n\nD 5 20.0\n")

let test_missing_file () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "ffs_trace_no_such_file.txt" in
  if Sys.file_exists path then Sys.remove path;
  match Workload.Trace_file.load ~path with
  | Error (Ffs.Error.Io { path = p; _ }) ->
      Alcotest.(check string) "Io names the path" path p
  | Error e -> Alcotest.failf "expected Io, got %a" Ffs.Error.pp e
  | Ok _ -> Alcotest.fail "expected Io, got a trace"

let test_tolerates_comments_and_blanks () =
  let ops =
    check_ok "comments"
      (Workload.Trace_file.of_string
         (header ^ "\n# a comment\nC 1 1000 10.0\n\nD 1 20.0\n"))
  in
  check_bool "two ops" true (Array.length ops = 2)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "trace_file"
    [
      ( "format",
        [
          tc "string roundtrip" test_roundtrip_string;
          tc "file roundtrip" test_roundtrip_file;
          tc "bad header" test_bad_header;
          tc "malformed lines" test_malformed_lines;
          tc "semantic validation" test_rejects_ill_formed_semantics;
          tc "missing file" test_missing_file;
          tc "comments and blanks" test_tolerates_comments_and_blanks;
        ] );
    ]
