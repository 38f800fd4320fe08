(** Plain-text workload traces.

    One operation per line — [C ino size time], [M ino size time],
    [D ino time] — with a version header. Times are seconds from the
    workload start, printed with enough precision to round-trip.
    The paper distributed its aging workload as a file in this spirit;
    the format lets `ffs_age --save-workload` output be re-run,
    diffed, or generated by external tools. *)

val save : path:string -> Op.t array -> unit

val load : path:string -> (Op.t array, Ffs.Error.t) result
(** [Io] when the file cannot be read; otherwise as {!of_string}. *)

val to_string : Op.t array -> string

val of_string : string -> (Op.t array, Ffs.Error.t) result
(** [Corrupt "trace line N: ..."] naming the first offending line: a
    bad header, an unparseable record, or an operation that fails
    {!Op.check_well_formed}. *)
