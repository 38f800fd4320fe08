(* The traced run's own replay loop.

   It re-drives a workload through the public [Ffs.Fs] calls the aging
   engine uses ([create_file], [rewrite_file], [delete_inum]), with the
   same placement trick, day rollover, skip rules and crash recovery as
   [Aging.Replay.run_resumable], and times every call. Its image digest
   and daily score series must equal the engine's: that is what shows
   the per-call numbers describe the program the end-to-end run
   measures. *)

let now_ns = Spans.now_ns

(* One instrumented [Fs] entry point. *)
type calls = { ns : Pct.samples; mutable words : float }

let calls () = { ns = Pct.samples (); words = 0.0 }

type probe = {
  create : calls;
  rewrite : calls;
  delete : calls;
  score : calls;  (** [Layout_score.aggregate], once per simulated day *)
  audit : calls;  (** [Check.run] after each injected crash *)
  repair : calls;  (** [Check.repair] after each injected crash *)
}

let probe () =
  {
    create = calls ();
    rewrite = calls ();
    delete = calls ();
    score = calls ();
    audit = calls ();
    repair = calls ();
  }

(* Minor words the two [Gc.minor_words] reads themselves account for,
   measured once so it can be subtracted from every call. *)
let words_bias =
  lazy
    (let w0 = Gc.minor_words () in
     let w1 = Gc.minor_words () in
     w1 -. w0)

let timed c f =
  let bias = Lazy.force words_bias in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  Pct.add c.ns (t1 - t0);
  c.words <- c.words +. (w1 -. w0 -. bias);
  r

type outcome = {
  fs : Ffs.Fs.t;
  daily_scores : float array;
  daily_utilization : float array;
  skipped : int;
}

let day_end d = float_of_int (d + 1) *. Workload.Op.seconds_per_day

let run probe ~config ~params ~days ?(crashes = 0) ?(fault_seed = 0) ops =
  let open Ffs in
  let fs = Fs.create ~config params in
  let ncg = params.Params.ncg in
  let cg_dir cg = Fs.mkdir_in_cg_exn fs ~parent:(Fs.root fs) ~name:(Fmt.str "cg%03d" cg) ~cg in
  let group_dirs = Array.init ncg cg_dir in
  let ino_map = Hashtbl.create 4096 in
  let daily_scores = Array.make days 1.0 in
  let daily_utilization = Array.make days 0.0 in
  let next_day = ref 0 in
  let skipped = ref 0 in
  let finish_day () =
    let d = !next_day in
    daily_scores.(d) <- timed probe.score (fun () -> Aging.Layout_score.aggregate fs);
    daily_utilization.(d) <- Fs.utilization fs;
    incr next_day
  in
  let skip_if_full = function
    | Ok _ -> ()
    | Error Error.Out_of_space -> incr skipped
    | Error err -> Error.raise_ err
  in
  let ipg = Params.inodes_per_group params in
  let apply op =
    Fs.set_time fs (Workload.Op.time_of op);
    match op with
    | Workload.Op.Create { ino; size; _ } -> (
        match Hashtbl.find_opt ino_map ino with
        | Some _ -> incr skipped
        | None ->
            let dir = group_dirs.(ino / ipg mod ncg) in
            let name = Fmt.str "f%d" ino in
            timed probe.create (fun () -> Fs.create_file fs ~dir ~name ~size)
            |> Result.map (fun inum -> Hashtbl.replace ino_map ino inum)
            |> skip_if_full)
    | Workload.Op.Delete { ino; _ } -> (
        match Hashtbl.find_opt ino_map ino with
        | None -> incr skipped
        | Some inum ->
            timed probe.delete (fun () -> Fs.delete_inum_exn fs inum);
            Hashtbl.remove ino_map ino)
    | Workload.Op.Modify { ino; size; _ } -> (
        match Hashtbl.find_opt ino_map ino with
        | None -> incr skipped
        | Some inum -> skip_if_full (timed probe.rewrite (fun () -> Fs.rewrite_file fs ~inum ~size)))
  in
  (* crash recovery as the engine does it: torn metadata writes, audit,
     repair, then forget workload files whose inode did not survive and
     recreate any lost per-group directory *)
  let rng = Util.Prng.create ~seed:(Fault.Plan.logical_seed ~fault_seed) in
  let pending = ref (Fault.Plan.crash_points ~rng ~n_ops:(Array.length ops) ~crashes) in
  let crash () =
    let spec = Fault.Plan.gen ~rng ~intensity:4 in
    ignore (Fault.Inject.apply fs ~rng spec);
    ignore (timed probe.audit (fun () -> Check.run fs));
    ignore (timed probe.repair (fun () -> Check.repair_exn fs));
    let lost =
      Hashtbl.fold
        (fun ino inum acc ->
          match Fs.inode fs inum with
          | inode -> if inode.Inode.kind <> Inode.File then ino :: acc else acc
          | exception Not_found -> ino :: acc)
        ino_map []
    in
    List.iter (Hashtbl.remove ino_map) lost;
    Array.iteri
      (fun cg inum ->
        match Fs.inode fs inum with
        | _ -> ()
        | exception Not_found -> group_dirs.(cg) <- cg_dir cg)
      group_dirs
  in
  Array.iteri
    (fun idx op ->
      while !next_day < days && Workload.Op.time_of op >= day_end !next_day do
        finish_day ()
      done;
      apply op;
      match !pending with
      | p :: rest when p = idx ->
          pending := rest;
          crash ()
      | _ -> ())
    ops;
  while !next_day < days do
    finish_day ()
  done;
  { fs; daily_scores; daily_utilization; skipped = !skipped }
