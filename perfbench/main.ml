(* One process of the benchmark: the set-up or the timed phase of one
   workload, untraced or traced. It prints a single {!Record} JSON line
   last; [run.py] starts one such process per measurement, so GC state
   and heap peaks never carry over from one measurement to the next.

   Usage:
     main.exe setup --workload NAME --seed N --dir DIR
     main.exe run   --workload NAME --seed N --dir DIR [--trace SPANS.jsonl]
     main.exe calib *)

let usage () =
  prerr_endline
    "usage: main.exe (setup|run) --workload NAME --seed N --dir DIR [--trace SPANS.jsonl]\n\
    \       main.exe calib";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let phase, rest = match args with p :: rest -> (p, rest) | [] -> usage () in
  if phase = "calib" then begin
    print_endline (Obs.Json.to_string (Obs.Json.Obj [ ("ref_s", Obs.Json.Float (Calib.run ())) ]));
    exit 0
  end;
  let rec opts acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key -> opts ((key, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] rest in
  let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
  let workload = get "--workload" in
  let seed = match int_of_string_opt (get "--seed") with Some s -> s | None -> usage () in
  let dir = get "--dir" in
  let spans_file = List.assoc_opt "--trace" opts in
  let setup, run, traced =
    match List.assoc_opt workload Workloads.all with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ workload);
        exit 2
  in
  let trace = Option.map (fun _ -> Spans.create ()) spans_file in
  let ctx = { Workloads.seed; dir; trace } in
  let record =
    match (phase, trace) with
    | "setup", _ -> setup ctx
    | "run", None -> run ctx
    | "run", Some _ -> traced ctx
    | _ -> usage ()
  in
  (* spans are written out only now, after the measured phase *)
  (match (trace, spans_file) with
  | Some t, Some file -> Spans.write_jsonl ~path:file (Spans.spans t)
  | _ -> ());
  print_endline (Record.to_string record)
