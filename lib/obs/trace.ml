type attr = string * Json.t

type span = { name : string; ts : float; dur : float; attrs : attr list }

type sink = Null | Jsonl of out_channel

type state = {
  mutex : Mutex.t;
  mutable sink : sink;
  mutable recorded : int; (* total spans ever recorded *)
}

let state = { mutex = Mutex.create (); sink = Null; recorded = 0 }

let on = Atomic.make false

let enabled () = Atomic.get on

let span_to_json { name; ts; dur; attrs } =
  Json.Obj
    (("name", Json.String name)
     :: ("ts", Json.Float ts)
     :: ("dur", Json.Float dur)
     :: if attrs = [] then [] else [ ("attrs", Json.Obj attrs) ])

let span_of_json j =
  match (Json.member "name" j, Json.member "ts" j, Json.member "dur" j) with
  | Some (Json.String name), Some ts, Some dur -> (
      match (Json.to_float ts, Json.to_float dur) with
      | Some ts, Some dur ->
          let attrs =
            match Json.member "attrs" j with Some (Json.Obj fields) -> fields | _ -> []
          in
          Ok { name; ts; dur; attrs }
      | _ -> Error "ts/dur are not numbers")
  | _ -> Error "missing name/ts/dur"

let record span =
  Mutex.lock state.mutex;
  state.recorded <- state.recorded + 1;
  (match state.sink with
  | Null -> ()
  | Jsonl oc ->
      output_string oc (Json.to_string (span_to_json span));
      output_char oc '\n');
  Mutex.unlock state.mutex

let event name attrs =
  if Atomic.get on then record { name; ts = Unix.gettimeofday (); dur = 0.0; attrs }

let span name attrs f =
  if not (Atomic.get on) then f ()
  else begin
    let ts = Unix.gettimeofday () in
    let finish () = record { name; ts; dur = Unix.gettimeofday () -. ts; attrs } in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt
  end

let enable ?jsonl () =
  Mutex.lock state.mutex;
  (match state.sink with Jsonl oc -> close_out oc | Null -> ());
  state.sink <- (match jsonl with Some path -> Jsonl (open_out path) | None -> Null);
  state.recorded <- 0;
  Mutex.unlock state.mutex;
  Atomic.set on true

let disable () =
  Atomic.set on false;
  Mutex.lock state.mutex;
  (match state.sink with
  | Jsonl oc ->
      flush oc;
      close_out oc
  | Null -> ());
  state.sink <- Null;
  Mutex.unlock state.mutex

let flush () =
  Mutex.lock state.mutex;
  (match state.sink with Jsonl oc -> flush oc | Null -> ());
  Mutex.unlock state.mutex

let recorded () =
  Mutex.lock state.mutex;
  let n = state.recorded in
  Mutex.unlock state.mutex;
  n

let load_jsonl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let spans = ref [] in
      let line_no = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr line_no;
           if String.trim line <> "" then
             match Json.of_string line with
             | Error msg -> Fmt.failwith "line %d: %s" !line_no msg
             | Ok j -> (
                 match span_of_json j with
                 | Ok s -> spans := s :: !spans
                 | Error msg -> Fmt.failwith "line %d: %s" !line_no msg)
         done
       with End_of_file -> ());
      List.rev !spans)

(* attribute helpers, so call sites stay one-liners *)
let i k v : attr = (k, Json.Int v)
let f k v : attr = (k, Json.Float v)
let s k v : attr = (k, Json.String v)
let b k v : attr = (k, Json.Bool v)
