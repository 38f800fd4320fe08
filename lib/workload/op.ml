type t =
  | Create of { ino : int; size : int; time : float }
  | Delete of { ino : int; time : float }
  | Modify of { ino : int; size : int; time : float }

let time_of = function Create { time; _ } | Delete { time; _ } | Modify { time; _ } -> time
let ino_of = function Create { ino; _ } | Delete { ino; _ } | Modify { ino; _ } -> ino
let seconds_per_day = 86400.0
let day_of op = int_of_float (time_of op /. seconds_per_day)
let is_write = function Create _ | Modify _ -> true | Delete _ -> false

let bytes_written = function
  | Create { size; _ } | Modify { size; _ } -> size
  | Delete _ -> 0

type stats = {
  operations : int;
  creates : int;
  deletes : int;
  modifies : int;
  total_bytes_written : int;
  days : int;
}

let stats ops =
  let creates = ref 0 and deletes = ref 0 and modifies = ref 0 in
  let bytes = ref 0 and last_day = ref 0 in
  Array.iter
    (fun op ->
      (match op with
      | Create _ -> incr creates
      | Delete _ -> incr deletes
      | Modify _ -> incr modifies);
      bytes := !bytes + bytes_written op;
      if day_of op > !last_day then last_day := day_of op)
    ops;
  {
    operations = Array.length ops;
    creates = !creates;
    deletes = !deletes;
    modifies = !modifies;
    total_bytes_written = !bytes;
    days = !last_day + 1;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>%d operations over %d days: %d creates, %d deletes, %d modifies;@ %a written@]"
    s.operations s.days s.creates s.deletes s.modifies Util.Units.pp_bytes
    s.total_bytes_written

let sort_by_time ops =
  (* stable: preserve generation order within equal timestamps *)
  let indexed = Array.mapi (fun i op -> (time_of op, i, op)) ops in
  Array.sort
    (fun (t1, i1, _) (t2, i2, _) -> if t1 <> t2 then compare t1 t2 else compare i1 i2)
    indexed;
  Array.iteri (fun i (_, _, op) -> ops.(i) <- op) indexed

let first_violation ops =
  let live = Hashtbl.create 1024 in
  let exception Bad of int * string in
  let bad i fmt = Fmt.kstr (fun m -> raise (Bad (i, m))) fmt in
  try
    let last_time = ref neg_infinity in
    Array.iteri
      (fun i op ->
        let time = time_of op in
        if time < !last_time then bad i "time goes backwards (%.1f < %.1f)" time !last_time;
        last_time := time;
        match op with
        | Create { ino; size; _ } ->
            if size < 0 then bad i "negative size";
            if Hashtbl.mem live ino then bad i "create of live inode %d" ino;
            Hashtbl.replace live ino ()
        | Delete { ino; _ } ->
            if not (Hashtbl.mem live ino) then bad i "delete of dead inode %d" ino;
            Hashtbl.remove live ino
        | Modify { ino; size; _ } ->
            if size < 0 then bad i "negative size";
            if not (Hashtbl.mem live ino) then bad i "modify of dead inode %d" ino)
      ops;
    None
  with Bad (i, why) -> Some (i, why)

let check_well_formed ops =
  match first_violation ops with
  | None -> Ok ()
  | Some (i, why) -> Error (Fmt.str "op %d: %s" i why)
