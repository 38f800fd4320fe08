let header = "# ffs-repro workload v1"

let emit buf op =
  (match op with
  | Op.Create { ino; size; time } -> Buffer.add_string buf (Fmt.str "C %d %d %.17g" ino size time)
  | Op.Modify { ino; size; time } -> Buffer.add_string buf (Fmt.str "M %d %d %.17g" ino size time)
  | Op.Delete { ino; time } -> Buffer.add_string buf (Fmt.str "D %d %.17g" ino time));
  Buffer.add_char buf '\n'

let to_string ops =
  let buf = Buffer.create (Array.length ops * 24) in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Array.iter (emit buf) ops;
  Buffer.contents buf

let save ~path ops =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string ops))

exception Bad_line of int * string

let parse_line lineno line =
  let fail msg = raise (Bad_line (lineno, Fmt.str "%s: %S" msg line)) in
  match String.split_on_char ' ' (String.trim line) with
  | [ "C"; ino; size; time ] -> (
      match (int_of_string_opt ino, int_of_string_opt size, float_of_string_opt time) with
      | Some ino, Some size, Some time -> Op.Create { ino; size; time }
      | _ -> fail "malformed create")
  | [ "M"; ino; size; time ] -> (
      match (int_of_string_opt ino, int_of_string_opt size, float_of_string_opt time) with
      | Some ino, Some size, Some time -> Op.Modify { ino; size; time }
      | _ -> fail "malformed modify")
  | [ "D"; ino; time ] -> (
      match (int_of_string_opt ino, float_of_string_opt time) with
      | Some ino, Some time -> Op.Delete { ino; time }
      | _ -> fail "malformed delete")
  | _ -> fail "unrecognized record"

let corrupt lineno msg = Error (Ffs.Error.Corrupt (Fmt.str "trace line %d: %s" lineno msg))

let of_string s =
  let first, rest =
    match String.split_on_char '\n' s with first :: rest -> (first, rest) | [] -> ("", [])
  in
  if String.trim first <> header then
    corrupt 1 (Fmt.str "bad header %S (expected %S)" first header)
  else begin
    let ops = Util.Vec.create () and linenos = Util.Vec.create () in
    match
      List.iteri
        (fun i line ->
          let line = String.trim line in
          if line <> "" && line.[0] <> '#' then begin
            Util.Vec.push ops (parse_line (i + 2) line);
            Util.Vec.push linenos (i + 2)
          end)
        rest
    with
    | exception Bad_line (lineno, msg) -> corrupt lineno msg
    | () -> (
        let ops = Util.Vec.to_array ops in
        match Op.first_violation ops with
        | None -> Ok ops
        | Some (i, why) -> corrupt (Util.Vec.get linenos i) ("ill-formed workload: " ^ why))
  end

let load ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error message -> Error (Ffs.Error.Io { path; message })
