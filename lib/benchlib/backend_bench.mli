(** Storage-backend benchmark ([BENCH_backend.json]).

    Ages the paper-geometry volume (4 days, seed 960117) on each storage
    backend — in-heap [bytes], mmap'd file [mmap], and the checksummed
    [resilient] layer over bytes with no faults — best of 3 each, and
    reports simulated days per second. It then times one scrub pass
    over the aged resilient volume and measures the on-disk size of a
    full checkpoint against a one-day delta. The run {b asserts} that
    every backend produces the same image digest and allocation totals,
    and that the clean volume's scrub verifies every chunk, before
    reporting a single number. *)

type level = {
  backend : string;  (** [Ffs.Store.spec_name] of the backend measured *)
  seconds : float;  (** best of 3 *)
  days_per_sec : float;
}

type result = {
  digest : string;  (** {!Ffs.Fs.digest} of the aged image, shared by all levels *)
  full_bytes : int;  (** size of a full checkpoint file *)
  delta_bytes : int;  (** size of a one-day delta checkpoint file *)
  levels : level list;
  resilient_overhead_pct : float;  (** resilient vs bytes wall clock *)
  scrub_seconds : float;
  scrub_mb : float;  (** megabytes checksummed by the timed scrub *)
  scrub_chunks : int;
  scrub_verified : int;  (** equals [scrub_chunks], by assertion *)
}

val run : unit -> result
(** Raises [Failure] if the backends disagree on the image digest or
    allocation totals, or the scrub fails to verify a chunk. *)

val pins : result -> (string * Obs.Json.t) list
val figures : result -> (string * float) list

val limits : (string * Gate.limit) list
(** The best of the bytes and mmap days/sec and the scrub MB/sec may
    each drop at most 30% below the baseline; the resilient layer's
    overhead over bytes is at most 10%. *)

val pp : result Fmt.t
