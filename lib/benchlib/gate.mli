(** The one regression gate behind every committed benchmark
    ([BENCH_alloc.json], [BENCH_fleet.json], [BENCH_backend.json]).

    A benchmark run is recorded as {!t}: [pins] are the values that
    depend only on the code (configuration, placement checksums, image
    digests, checkpoint sizes), so they must match the baseline
    exactly on any machine; [figures] are timings, compared within a
    {!limit}. Limits live in code, never in the JSON, so rewriting a
    baseline cannot loosen them. *)

type t = {
  benchmark : string;
  detected_jobs : int;  (** the recording machine's core count; never compared *)
  pins : (string * Obs.Json.t) list;
  figures : (string * float) list;
}

type limit =
  | Max_drop_pct of float
      (** the figure may fall at most this many percent below the
          baseline's *)
  | At_most of float  (** an absolute budget; needs no baseline *)

val detected_jobs : int
(** {!Par.Pool.default_jobs} at process start. *)

val read : string -> (t, string) result
(** Parse a baseline file; [Error] names the file. *)

val write : string -> t -> unit
(** One line of JSON: [{"benchmark", "detected_jobs", "pins",
    "figures": {name: number}}]. *)

val check :
  skip_baseline:bool ->
  limits:(string * limit) list ->
  baseline:string ->
  t ->
  (unit, string) result
(** Compare a run against the baseline file. [Error] lists every
    failure: the baseline is unreadable, names another benchmark or
    lacks a [Max_drop_pct] figure; a pin differs; an [At_most] budget is
    exceeded; or a [Max_drop_pct] figure dropped past its limit. Only
    that last comparison is skipped when [skip_baseline] is set. *)

val best_of : n:int -> (unit -> 'a * float) -> 'a * float
(** Run a timed measurement [n] times; return its result and the
    fastest of the [n] timings. Raises [Failure] if the results differ
    between repetitions. *)

val rm_rf : string -> unit
(** Remove a file or directory tree; a missing path is not an error. *)
