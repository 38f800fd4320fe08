(* The per-process result: one JSON line that each child process of the
   benchmark prints last, and that [run.py] reads back. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  workload : string;
  seed : int;
  phase : string;  (** ["setup"], ["run"] (untraced) or ["traced"] *)
  attempted : int;  (** workload operations the phase attempted *)
  skipped : int;
      (** of which the aging engine skipped (volume full, or the file
          was lost in a crash); an operation that fails with an error
          ends the process instead *)
  metrics : metric list;
  digests : (string * string) list;  (** output fingerprints, compared across runs *)
  checks : (string * bool) list;  (** named output checks; any [false] fails the run *)
  env : (string * Obs.Json.t) list;
}

let metric ~unit_ name value = { name; value; unit_ }

let to_json r =
  let open Obs.Json in
  Obj
    [
      ("workload", String r.workload);
      ("seed", Int r.seed);
      ("phase", String r.phase);
      ("attempted", Int r.attempted);
      ("skipped", Int r.skipped);
      ( "metrics",
        Obj
          (List.map
             (fun m -> (m.name, Obj [ ("value", Float m.value); ("unit", String m.unit_) ]))
             r.metrics) );
      ("digests", Obj (List.map (fun (k, v) -> (k, String v)) r.digests));
      ("checks", Obj (List.map (fun (k, v) -> (k, Bool v)) r.checks));
      ("env", Obj r.env);
    ]

let of_json j =
  let open Obs.Json in
  let ( let* ) = Option.bind in
  let fields k = match member k j with Some (Obj kv) -> Some kv | _ -> None in
  let all f kv =
    List.fold_right
      (fun (k, v) acc ->
        let* acc = acc in
        let* x = f v in
        Some ((k, x) :: acc))
      kv (Some [])
  in
  let parsed =
    let* workload = Option.bind (member "workload" j) to_str in
    let* seed = Option.bind (member "seed" j) to_int in
    let* phase = Option.bind (member "phase" j) to_str in
    let* attempted = Option.bind (member "attempted" j) to_int in
    let* skipped = Option.bind (member "skipped" j) to_int in
    let* metrics =
      let* kv = fields "metrics" in
      all
        (fun m ->
          let* value = Option.bind (member "value" m) to_float in
          let* unit_ = Option.bind (member "unit" m) to_str in
          Some (value, unit_))
        kv
    in
    let* digests = Option.bind (fields "digests") (all to_str) in
    let* checks =
      Option.bind (fields "checks") (all (function Bool b -> Some b | _ -> None))
    in
    let* env = fields "env" in
    Some
      {
        workload;
        seed;
        phase;
        attempted;
        skipped;
        metrics = List.map (fun (name, (value, unit_)) -> { name; value; unit_ }) metrics;
        digests;
        checks;
        env;
      }
  in
  Option.to_result ~none:"not a perfbench record" parsed

let to_string r = Obs.Json.to_string (to_json r)
let of_string s = Result.bind (Obs.Json.of_string s) of_json
