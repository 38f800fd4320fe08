type t =
  | Out_of_space
  | Not_a_directory of { inum : int }
  | Is_a_directory of { inum : int; op : string }
  | Directory_not_empty of { inum : int }
  | Cannot_remove_root
  | Name_exists of { dir : int; name : string }
  | No_such_name of { dir : int; name : string }
  | No_such_inode of { inum : int }
  | Invalid_cg of { cg : int; ncg : int }
  | Invalid_params of string
  | Corrupt of string
  | Io of { path : string; message : string }
  | Media_error of { chunk : int; detail : string }

exception Error of t

let raise_ e = raise (Error e)

let pp ppf = function
  | Out_of_space -> Fmt.pf ppf "out of space"
  | Not_a_directory { inum } -> Fmt.pf ppf "inode %d is not a directory" inum
  | Is_a_directory { inum; op } -> Fmt.pf ppf "%s: inode %d is a directory" op inum
  | Directory_not_empty { inum } -> Fmt.pf ppf "directory %d is not empty" inum
  | Cannot_remove_root -> Fmt.pf ppf "cannot remove the root directory"
  | Name_exists { dir; name } -> Fmt.pf ppf "name %S already exists in directory %d" name dir
  | No_such_name { dir; name } -> Fmt.pf ppf "no entry %S in directory %d" name dir
  | No_such_inode { inum } -> Fmt.pf ppf "inode %d is not allocated" inum
  | Invalid_cg { cg; ncg } -> Fmt.pf ppf "cylinder group %d out of range (0..%d)" cg (ncg - 1)
  | Invalid_params msg -> Fmt.pf ppf "invalid parameters: %s" msg
  | Corrupt msg -> Fmt.pf ppf "corrupt file system: %s" msg
  | Io { path; message } -> Fmt.pf ppf "%s: %s" path message
  | Media_error { chunk; detail } ->
      Fmt.pf ppf "unhealable media error at chunk %d: %s" chunk detail

let to_string = Fmt.to_to_string pp

let () =
  Printexc.register_printer (function
    | Error e -> Some (Fmt.str "Ffs.Error.Error (%s)" (to_string e))
    | _ -> None)

let guard f = match f () with v -> Ok v | exception Error e -> Result.Error e
