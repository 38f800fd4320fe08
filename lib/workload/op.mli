(** Workload records: the operations an aging run replays.

    Each operation names the file by the {e inode number it had on the
    original file system}; the replayer derives the target cylinder
    group from it, exactly as the paper's aging tool does. Times are in
    seconds from the start of the workload; a day is 86400 s. *)

type t =
  | Create of { ino : int; size : int; time : float }
  | Delete of { ino : int; time : float }
  | Modify of { ino : int; size : int; time : float }
      (** the paper's model: remove (or truncate to zero) and rewrite *)

val time_of : t -> float
val ino_of : t -> int

val day_of : t -> int
(** 0-based day index. *)

val seconds_per_day : float

val is_write : t -> bool
(** Does the operation write data (create or modify)? *)

val bytes_written : t -> int
(** Data bytes the operation writes (0 for deletes). *)

type stats = {
  operations : int;
  creates : int;
  deletes : int;
  modifies : int;
  total_bytes_written : int;
  days : int;
}

val stats : t array -> stats
val pp_stats : Format.formatter -> stats -> unit

val sort_by_time : t array -> unit
(** Stable in-place sort by timestamp. *)

val check_well_formed : t array -> (unit, string) result
(** Validate: times non-decreasing; no create of a live inode, no
    delete/modify of a dead one. *)

val first_violation : t array -> (int * string) option
(** The index of the first operation {!check_well_formed} rejects, and
    why. *)
