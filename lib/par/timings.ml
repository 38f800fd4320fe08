type entry = {
  label : string;
  started : float;
  waited : float;
  elapsed : float;
}

type t = { mutex : Mutex.t; mutable entries : entry list (* newest first *) }

let create () = { mutex = Mutex.create (); entries = [] }

let record t ~label ~started ?(waited = 0.0) ~elapsed () =
  Mutex.lock t.mutex;
  t.entries <- { label; started; waited; elapsed } :: t.entries;
  Mutex.unlock t.mutex

let entries t =
  Mutex.lock t.mutex;
  let es = t.entries in
  Mutex.unlock t.mutex;
  List.sort (fun a b -> compare (a.started, a.label) (b.started, b.label)) es

let is_empty t =
  Mutex.lock t.mutex;
  let e = t.entries = [] in
  Mutex.unlock t.mutex;
  e

let total t = List.fold_left (fun acc e -> acc +. e.elapsed) 0.0 (entries t)

let span t =
  match entries t with
  | [] -> 0.0
  | first :: _ as es ->
      let finish = List.fold_left (fun m e -> Float.max m (e.started +. e.elapsed)) 0.0 es in
      finish -. first.started

let report t =
  match entries t with
  | [] -> "no timed tasks\n"
  | es ->
      let tot = total t in
      let sp = span t in
      let rows =
        List.map
          (fun e ->
            [
              e.label;
              Fmt.str "%.2f s" e.elapsed;
              Fmt.str "%.2f s" e.waited;
              Fmt.str "%.0f%%" (if tot > 0.0 then 100.0 *. e.elapsed /. tot else 0.0);
            ])
          es
      in
      Util.Chart.table ~header:[ "task"; "run"; "queued"; "share" ] ~rows
      ^ Fmt.str "%d tasks, %.2f s of task time in %.2f s elapsed\n" (List.length es) tot sp

let pp ppf t = Format.pp_print_string ppf (report t)
