(** Per-task wall-clock timing collected by {!Pool}.

    A [Timings.t] is a thread-safe accumulator: every task a pool runs
    with timing enabled appends one {!entry}. Binaries create one per
    invocation, thread it through the experiment drivers, and print
    {!report} at the end so the cost of each replay, sweep and study is
    visible. *)

type entry = {
  label : string;  (** what ran, e.g. ["replay reconstructed/realloc"] *)
  started : float;  (** [Unix.gettimeofday] at task start (post-queue) *)
  waited : float;
      (** seconds spent queued before a worker picked the task up —
          separated from [elapsed] so queue pressure and task cost don't
          blur together *)
  elapsed : float;  (** wall-clock seconds of execution, excluding the wait *)
}

type t

val create : unit -> t

val record :
  t ->
  label:string ->
  started:float ->
  ?waited:float ->
  elapsed:float ->
  unit ->
  unit
(** Append one entry ([waited] defaults to 0 for directly-run tasks).
    Safe to call from any domain. *)

val entries : t -> entry list
(** All entries in start order. *)

val is_empty : t -> bool

val total : t -> float
(** Sum of task wall-clock times (CPU-seconds of useful work, which
    exceeds elapsed real time when tasks overlapped). *)

val span : t -> float
(** Wall-clock span from the first task's start to the last task's end —
    the real time the timed work occupied. *)

val report : t -> string
(** A printable table: one row per task plus a summary line giving the
    total task time and the span. Their ratio is not reported: it
    overstates the speedup whenever domains share a CPU. *)

val pp : Format.formatter -> t -> unit
