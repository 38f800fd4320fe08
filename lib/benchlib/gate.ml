type t = {
  benchmark : string;
  detected_jobs : int;
  pins : (string * Obs.Json.t) list;
  figures : (string * float) list;
}

type limit = Max_drop_pct of float | At_most of float

let detected_jobs = Par.Pool.default_jobs ()

let to_json r =
  Obs.Json.Obj
    [
      ("benchmark", Obs.Json.String r.benchmark);
      ("detected_jobs", Obs.Json.Int r.detected_jobs);
      ("pins", Obs.Json.Obj r.pins);
      ("figures", Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) r.figures));
    ]

let of_json json =
  let field name conv = Option.bind (Obs.Json.member name json) conv in
  let obj = function Obs.Json.Obj kvs -> Some kvs | _ -> None in
  let floats kvs =
    List.fold_right
      (fun (k, v) acc ->
        Option.bind acc (fun l -> Option.map (fun f -> (k, f) :: l) (Obs.Json.to_float v)))
      kvs (Some [])
  in
  match
    ( field "benchmark" Obs.Json.to_str,
      field "detected_jobs" Obs.Json.to_int,
      field "pins" obj,
      Option.bind (field "figures" obj) floats )
  with
  | Some benchmark, Some detected_jobs, Some pins, Some figures ->
      Ok { benchmark; detected_jobs; pins; figures }
  | _ -> Error "expected {benchmark, detected_jobs, pins, figures: {name: number}}"

let read path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error (Fmt.str "cannot read baseline %s: %s" path msg)
  | contents -> (
      match Result.bind (Obs.Json.of_string contents) of_json with
      | Ok r -> Ok r
      | Error msg -> Error (Fmt.str "unreadable baseline %s: %s" path msg))

let write path r =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Obs.Json.to_string (to_json r));
      Out_channel.output_char oc '\n')

let check ~skip_baseline ~limits ~baseline:path r =
  match read path with
  | Error _ as e -> e
  | Ok base when base.benchmark <> r.benchmark ->
      Error (Fmt.str "%s records benchmark %S, not %S" path base.benchmark r.benchmark)
  | Ok base -> (
      let show l k =
        Option.fold ~none:"(absent)" ~some:Obs.Json.to_string (List.assoc_opt k l)
      in
      let pins =
        List.sort_uniq compare (List.map fst r.pins @ List.map fst base.pins)
        |> List.filter_map (fun k ->
               let now = show r.pins k and was = show base.pins k in
               if now = was then None
               else Some (Fmt.str "pin %s is %s, %s has %s" k now path was))
      in
      let figure (name, limit) =
        match (List.assoc_opt name r.figures, limit, List.assoc_opt name base.figures) with
        | None, _, _ -> Some (Fmt.str "this run has no figure %s" name)
        | Some now, At_most x, _ ->
            if now <= x then None
            else Some (Fmt.str "%s %.7g exceeds its budget of %.7g" name now x)
        | Some _, Max_drop_pct _, None ->
            Some (Fmt.str "%s lacks gated figure %s" path name)
        | Some now, Max_drop_pct p, Some old ->
            if skip_baseline || now >= (1. -. (p /. 100.)) *. old then None
            else
              Some
                (Fmt.str "%s %.7g is %.0f%% below %.7g in %s (limit %.0f%%)" name now
                   (100. *. (1. -. (now /. old)))
                   old path p)
      in
      match pins @ List.filter_map figure limits with
      | [] -> Ok ()
      | errors ->
          Error (String.concat "\n" (List.map (( ^ ) (r.benchmark ^ " bench: ")) errors)))

let best_of ~n f =
  let r0, s0 = f () in
  let best = ref s0 in
  for _ = 2 to n do
    let r, s = f () in
    if r <> r0 then failwith "bench: repetitions of one measurement diverged";
    if s < !best then best := s
  done;
  (r0, !best)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
