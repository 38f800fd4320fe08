(* The traced run's span recorder.

   Spans are kept in memory while the run goes on and written out once
   it ends, so tracing adds no I/O to the measured phase. Each span has
   a name, a start, an end (monotonic nanoseconds) and the span that was
   open when it began. The recorder is single-domain: every run of the
   benchmark is. *)

type span = { id : int; name : string; parent : int; start_ns : int; end_ns : int }

let no_parent = -1

type t = { mutable finished : span list; mutable open_ : int list; mutable next : int }

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let create () = { finished = []; open_ = []; next = 0 }

(* [with_span (Some t) name f] records [f ()] as a span, also when it
   raises; [with_span None] is exactly [f ()], which is how the untraced
   run calls the same code. *)
let with_span t name f =
  match t with
  | None -> f ()
  | Some t ->
      let id = t.next in
      t.next <- id + 1;
      let parent = match t.open_ with p :: _ -> p | [] -> no_parent in
      t.open_ <- id :: t.open_;
      let start_ns = now_ns () in
      let close () =
        t.open_ <- List.tl t.open_;
        t.finished <- { id; name; parent; start_ns; end_ns = now_ns () } :: t.finished
      in
      Fun.protect ~finally:close f

let spans t = List.rev t.finished

let duration_s s = float_of_int (s.end_ns - s.start_ns) *. 1e-9

(* Self time: a span's duration minus the part of its interval that its
   direct children cover. Children are merged as intervals clipped to
   the parent, so overlapping children are not counted twice. *)
let self_ns spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (max c.start_ns s.start_ns, min c.end_ns s.end_ns))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, min_int) kids
      in
      (s, s.end_ns - s.start_ns - covered))
    spans

(* Self seconds and span count summed per name. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, ns) ->
      let n, total = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0) in
      Hashtbl.replace tbl s.name (n + 1, total + ns))
    (self_ns spans);
  Hashtbl.fold (fun name (n, ns) acc -> (name, n, float_of_int ns *. 1e-9) :: acc) tbl []
  |> List.sort compare

let to_json s =
  Obs.Json.Obj
    [
      ("id", Obs.Json.Int s.id);
      ("name", Obs.Json.String s.name);
      ("parent", Obs.Json.Int s.parent);
      ("start_ns", Obs.Json.Int s.start_ns);
      ("end_ns", Obs.Json.Int s.end_ns);
    ]

let write_jsonl ~path spans =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc (Obs.Json.to_string (to_json s));
          output_char oc '\n')
        spans)
