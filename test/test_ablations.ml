(* Smoke test for the ablation studies: every study must run at reduced
   scale and produce its heading followed by a non-empty table. One
   [all] report covers every study, so each runs once. *)

let check_bool = Alcotest.(check bool)

let find s sub ~from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go from

let titles =
  [
    "realloc cluster-search policy (first fit vs best fit)";
    "maximum cluster size (maxcontig)";
    "steady-state utilization";
    "traditional allocator's scatter neighbourhood (fs cylinder size)";
    "I/O system sensitivity (96KB reads; paper Section 5.1's explanation)";
    "rotational gap (rotdelay; Table 1 sets it to 0)";
    "synchronous metadata vs soft updates (create throughput)";
    "seed sensitivity (five independent workloads)";
    "workload profiles (paper Section 6 future work)";
  ]

(* a Util.Chart.table right under the heading: a header row, a dashed
   rule, and a data row on the lines straight after it (a note after
   an empty table would sit past a blank line) *)
let table_follows report ~after =
  let rec skip_blank = function
    | l :: rest when String.trim l = "" -> skip_blank rest
    | lines -> lines
  in
  let rest = String.sub report after (String.length report - after) in
  match skip_blank (String.split_on_char '\n' rest) with
  | header :: rule :: row :: _ ->
      String.trim header <> ""
      && rule <> ""
      && String.for_all (Char.equal '-') rule
      && String.trim row <> ""
  | _ -> false

let test_all () =
  let report = Benchlib.Ablations.all ~days:3 ~seed:123 () in
  List.iter
    (fun title ->
      let heading = Fmt.str "=== Ablation: %s ===" title in
      match find report heading ~from:0 with
      | None -> Alcotest.failf "missing heading %S" heading
      | Some i ->
          check_bool (title ^ ": table follows") true
            (table_follows report ~after:(i + String.length heading)))
    titles;
  let rec count from =
    match find report "=== Ablation: " ~from with Some i -> 1 + count (i + 1) | None -> 0
  in
  Alcotest.(check int) "one heading per study" (List.length titles) (count 0)

let () =
  Alcotest.run "ablations" [ ("studies", [ Alcotest.test_case "all" `Slow test_all ]) ]
