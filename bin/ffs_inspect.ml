(* ffs_inspect: fragmentation and free-space report of an aged image —
   the analysis of [Smith94] that motivated the paper (large free
   clusters persist even on fragmented file systems). *)

open Cmdliner

(* Rebuild a metrics registry from the marshalled image: aged images
   predate (or were saved without) live instrumentation, so the snapshot
   is reconstructed from the allocator's own [Fs.stats] counters plus
   the current free-space state. *)
let metrics_of_image fs =
  let m = Obs.Metrics.create () in
  let stats = Ffs.Fs.stats fs in
  Obs.Metrics.add m "ffs_alloc_blocks_total" stats.Ffs.Fs.blocks_allocated;
  Obs.Metrics.add m "ffs_alloc_frags_total" stats.Ffs.Fs.frags_allocated;
  Obs.Metrics.add m "ffs_alloc_contiguous_total" stats.Ffs.Fs.contiguous_allocations;
  Obs.Metrics.add m "ffs_alloc_cg_fallbacks_total" stats.Ffs.Fs.cg_fallbacks;
  Obs.Metrics.add m "ffs_realloc_attempts_total" stats.Ffs.Fs.realloc_attempts;
  Obs.Metrics.add m "ffs_realloc_moves_total" stats.Ffs.Fs.realloc_moves;
  Obs.Metrics.add m "ffs_realloc_failures_total" stats.Ffs.Fs.realloc_failures;
  Obs.Metrics.add m "ffs_indirect_switches_total" stats.Ffs.Fs.indirect_switches;
  Obs.Metrics.set m "ffs_utilization_ratio" (Ffs.Fs.utilization fs);
  Obs.Metrics.set m "ffs_files_live" (float_of_int (Ffs.Fs.file_count fs));
  Obs.Metrics.set m "ffs_layout_score" (Aging.Layout_score.aggregate fs);
  Array.iter
    (fun cg ->
      Obs.Metrics.set m
        ~labels:[ ("cg", string_of_int (Ffs.Cg.index cg)) ]
        "ffs_cg_free_blocks"
        (float_of_int (Ffs.Cg.free_block_count cg)))
    (Ffs.Fs.cg_states fs);
  m

(* --header: describe the durable container itself (any artifact —
   aged image or checkpoint) without deserialising the payload. *)
let print_header image_path =
  match Recover.Container.inspect ~path:image_path with
  | Error e ->
      Fmt.epr "cannot inspect %s: %a@." image_path Ffs.Error.pp e;
      exit 2
  | Ok info ->
      Fmt.pr "file:          %s@." image_path;
      Fmt.pr "format:        FFSRECOV v%d@." info.Recover.Container.version;
      Fmt.pr "kind:          %s@." info.Recover.Container.kind;
      Fmt.pr "payload bytes: %d@." info.Recover.Container.payload_bytes;
      Fmt.pr "crc stored:    0x%08lx@." info.Recover.Container.crc_stored;
      (match info.Recover.Container.crc_computed with
      | None -> Fmt.pr "crc status:    UNCHECKABLE (truncated payload)@."
      | Some c ->
          Fmt.pr "crc computed:  0x%08lx@." c;
          Fmt.pr "crc status:    %s@."
            (if Recover.Container.crc_ok info then "OK" else "MISMATCH"));
      if not (Recover.Container.crc_ok info) then exit 1

(* --freespace: dump the allocator's free-extent index — a per-group
   histogram of maximal free extents bucketed by power-of-two run
   length. It is folded from the index's run summary (the per-length
   run counts the realloc pass consults), not a fresh bitmap scan, so
   it is also a quick eyeball check of the index against the layout
   report. *)
let print_freespace fs =
  let cgs = Ffs.Fs.cg_states fs in
  let hists = Array.map Ffs.Cg.extent_histogram cgs in
  let labels =
    Array.mapi
      (fun i (lo, _) ->
        if i = Array.length hists.(0) - 1 then Fmt.str "%d+" lo
        else if (2 * lo) - 1 = lo then string_of_int lo
        else Fmt.str "%d-%d" lo ((2 * lo) - 1))
      hists.(0)
  in
  Fmt.pr "free extents by block-run length (extent index, power-of-two buckets)@.@.";
  let rows =
    Array.to_list
      (Array.mapi
         (fun i cg ->
           string_of_int (Ffs.Cg.index cg)
           :: string_of_int (Ffs.Cg.free_block_count cg)
           :: Array.to_list (Array.map (fun (_, n) -> string_of_int n) hists.(i)))
         cgs)
  in
  print_string
    (Util.Chart.table ~header:("cg" :: "free blocks" :: Array.to_list labels) ~rows);
  let total = Array.fold_left (fun a h -> Array.fold_left (fun a (_, n) -> a + n) a h) 0 hists in
  Fmt.pr "@.%d free extents across %d groups@." total (Array.length cgs)

(* --manifest: decode a fleet manifest — container CRC first (a damaged
   manifest is diagnosed, not decoded), then the per-volume status
   table and each volume's newest durable checkpoint. *)
let print_manifest path =
  (match Recover.Container.inspect ~path with
  | Error e ->
      Fmt.epr "cannot inspect %s: %a@." path Ffs.Error.pp e;
      exit 2
  | Ok info ->
      Fmt.pr "manifest:   %s@." path;
      Fmt.pr "container:  FFSRECOV v%d, kind %s, %d payload bytes@."
        info.Recover.Container.version info.Recover.Container.kind
        info.Recover.Container.payload_bytes;
      Fmt.pr "crc:        0x%08lx %s@." info.Recover.Container.crc_stored
        (if Recover.Container.crc_ok info then "OK" else "MISMATCH");
      if not (Recover.Container.crc_ok info) then begin
        Fmt.epr "manifest payload is corrupt; refusing to decode@.";
        exit 1
      end);
  match Fleet.Manifest.load_file ~path with
  | Error e ->
      Fmt.epr "cannot decode %s: %a@." path Ffs.Error.pp e;
      exit 2
  | Ok m ->
      Fmt.pr "fleet seed: %d   spec crc: 0x%08lx@.@." m.Fleet.Manifest.fleet_seed
        m.Fleet.Manifest.spec_crc;
      print_string (Fleet.Report.text m);
      (* checkpoint pointers: what a resume of each volume would load *)
      let dir = Filename.dirname path in
      print_newline ();
      print_string
        (Util.Chart.table
           ~header:[ "vol"; "checkpoint dir"; "newest checkpoint" ]
           ~rows:
             (Array.to_list
                (Array.map
                   (fun (e : Fleet.Manifest.entry) ->
                     let ckdir = Filename.concat dir e.Fleet.Manifest.checkpoint_dir in
                     let newest =
                       match Aging.Checkpoint.load_latest_opt ?backend:None ~dir:ckdir with
                       | Some (p, ck) ->
                           Fmt.str "%s (day %d, op %d)" (Filename.basename p)
                             (Aging.Replay.checkpoint_day ck)
                             (Aging.Replay.checkpoint_next_op ck)
                       | None -> "-"
                     in
                     [
                       string_of_int e.Fleet.Manifest.spec.Fleet.Spec.id;
                       e.Fleet.Manifest.checkpoint_dir;
                       newest;
                     ])
                   m.Fleet.Manifest.entries)))

let run image_path manifest backend header digest freespace metrics metrics_out =
  (match manifest with
  | Some path -> print_manifest path; exit 0
  | None -> ());
  let image_path =
    match image_path with
    | Some p -> p
    | None ->
        Fmt.epr "one of --image or --manifest is required@.";
        exit 2
  in
  if header then (print_header image_path; exit 0);
  let image = Common.load_image_or_exit ~backend ~path:image_path () in
  let result = image.Aging.Image.result in
  let fs = result.Aging.Replay.fs in
  if digest then begin
    (* the backend-independent content digest: equal strings mean
       bit-identical volume state, whatever store it lives on *)
    Fmt.pr "%s@." (Ffs.Fs.digest fs);
    exit 0
  end;
  if freespace then (print_freespace fs; exit 0);
  let params = Ffs.Fs.params fs in
  Fmt.pr "image: %s@." image.Aging.Image.description;
  Fmt.pr "@.%a@.@." Ffs.Params.pp params;
  Fmt.pr "files: %d  utilization: %.1f%%  aggregate layout score: %.3f@."
    (Ffs.Fs.file_count fs)
    (100.0 *. Ffs.Fs.utilization fs)
    (Aging.Layout_score.aggregate fs);
  (* layout by file size (the data behind figure 3) *)
  let buckets = Aging.Layout_score.by_size fs ~inums:None in
  print_newline ();
  print_string
    (Util.Chart.table
       ~header:[ "size <= "; "layout score"; "files"; "counted blocks" ]
       ~rows:
         (List.map
            (fun b ->
              [
                Fmt.str "%a" Util.Units.pp_bytes b.Aging.Layout_score.max_bytes;
                Fmt.str "%.3f" b.Aging.Layout_score.score;
                string_of_int b.Aging.Layout_score.files;
                string_of_int b.Aging.Layout_score.counted_blocks;
              ])
            buckets));
  (* free-space structure per cylinder group *)
  print_newline ();
  let cgs = Ffs.Fs.cg_states fs in
  let rows =
    Array.to_list
      (Array.map
         (fun cg ->
           let hist = Ffs.Cg.free_run_histogram cg ~max:8 in
           [
             string_of_int (Ffs.Cg.index cg);
             string_of_int (Ffs.Cg.free_block_count cg);
             string_of_int (Ffs.Cg.longest_free_run cg);
             String.concat " " (Array.to_list (Array.map string_of_int hist));
           ])
         cgs)
  in
  print_string
    (Util.Chart.table
       ~header:[ "cg"; "free blocks"; "longest run"; "free runs by length 1..7,8+" ]
       ~rows);
  (* the Smith94 observation: how much free space sits in large clusters *)
  (* a picture of the allocation state: # full, . free, o mixed *)
  Fmt.pr "@.%s" (Aging.Blockmap.render fs);
  (* the Smith94 observation: how much free space sits in large clusters *)
  Fmt.pr "@.%a@." Aging.Freespace.pp (Aging.Freespace.analyze fs);
  (* metrics view of the same image, for scripting and diffing *)
  if metrics || metrics_out <> None then begin
    let snap = Obs.Metrics.snapshot (metrics_of_image fs) in
    if metrics then Fmt.pr "@.=== Metrics ===@.@.%s" (Obs.Metrics.to_text snap);
    match metrics_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Obs.Json.to_string (Obs.Metrics.to_json snap));
        output_char oc '\n';
        close_out oc;
        Fmt.pr "metrics written to %s@." path
  end;
  (* fsck-style audit *)
  let audit = Ffs.Check.run fs in
  Fmt.pr "@.consistency: %a@." Ffs.Check.pp audit;
  if not (Ffs.Check.is_clean audit) then exit 1

let cmd =
  let header =
    Arg.(value & flag
         & info [ "header" ]
             ~doc:"Print the durable-container header (format version, kind, \
                   payload size, CRC status) of any artifact — aged image or \
                   checkpoint — and exit without decoding the payload. Exits 1 \
                   on a CRC mismatch, 2 on an unreadable file.")
  in
  let digest =
    Arg.(value & flag
         & info [ "digest" ]
             ~doc:"Print the image's backend-independent content digest \
                   ($(b,Ffs.Fs.digest)) and exit; equal digests mean bit-identical \
                   volume state across storage backends.")
  in
  let freespace =
    Arg.(value & flag
         & info [ "freespace" ]
             ~doc:"Print the per-group free-extent histogram straight from the \
                   allocator's extent index (maximal free runs bucketed by \
                   power-of-two length) and exit.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Also print the image's allocator counters and layout gauges \
                   as a metrics report (reconstructed from the saved statistics).")
  in
  let image =
    Arg.(value & opt (some string) None
         & info [ "image" ] ~docv:"PATH" ~doc:"Aged image to inspect.")
  in
  let manifest =
    Arg.(value & opt (some string) None
         & info [ "manifest" ] ~docv:"PATH"
             ~doc:"Inspect a fleet manifest instead of an image: verify the container \
                   CRC, then print the per-volume status table, aggregate digest, and \
                   each volume's newest checkpoint pointer. Exits 1 on a corrupt \
                   manifest.")
  in
  Cmd.v
    (Cmd.info "ffs_inspect" ~doc:"Fragmentation and free-space report of an aged image")
    Term.(const run $ image $ manifest $ Common.backend_term $ header $ digest
          $ freespace $ metrics $ Common.metrics_out_term)

let () = exit (Cmd.eval cmd)
