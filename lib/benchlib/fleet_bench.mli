(** Fleet supervision throughput: volumes aged per hour at several
    [--jobs] levels, on a standard small heterogeneous fleet with fault
    injection.

    The benchmark doubles as a determinism check — the aggregate
    manifest digest must be identical at every concurrency level, or
    the run fails. *)

type level = { jobs : int; seconds : float; volumes_per_hour : float }

type result = {
  digest : int32;  (** aggregate digest, equal across all levels *)
  levels : level list;
}

val run : unit -> result
(** Ages the standard fleet (12 volumes x 2 days, seed 960117, fault
    rate 0.5) once per jobs level 1, 2 and 4 in throwaway state
    directories. Raises [Failure] if any volume fails to complete or
    the digests diverge across levels. *)

val pins : result -> (string * Obs.Json.t) list
val figures : result -> (string * float) list

val limits : (string * Gate.limit) list
(** The best volumes/hour may drop at most 30% below the baseline. *)

val pp : Format.formatter -> result -> unit
