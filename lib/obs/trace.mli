(** The span tracer: a process-wide stream of timestamped, attributed
    events written to an optional JSONL file sink, with a running count
    of the spans recorded.

    The tracer is disabled by default; every emit function first checks
    one atomic flag and returns immediately while off, so allocator hot
    paths can call {!event} unconditionally — call sites that would pay
    to {e build} the attribute list should guard on {!enabled} first.

    Recorded span names (see DESIGN.md for the schema): [alloc.block],
    [alloc.frags], [realloc.move], [replay.run], [replay.day],
    [replay.crash], [fault.inject], [fsck.repair]. *)

type attr = string * Json.t

type span = {
  name : string;
  ts : float;  (** [Unix.gettimeofday] at span start *)
  dur : float;  (** seconds; 0 for instant events *)
  attrs : attr list;
}

val enabled : unit -> bool
(** One atomic load — cheap enough to guard per-block call sites. *)

val enable : ?jsonl:string -> unit -> unit
(** Turn the tracer on and, when [jsonl] is given, open a line-per-span
    JSON file sink (truncated). The {!recorded} count resets. *)

val disable : unit -> unit
(** Turn the tracer off and flush + close the JSONL sink. {!recorded}
    stays readable. *)

val flush : unit -> unit
(** Flush the JSONL sink without disabling. *)

val event : string -> attr list -> unit
(** Record an instant (zero-duration) span. No-op while disabled. *)

val span : string -> attr list -> (unit -> 'a) -> 'a
(** [span name attrs f] runs [f] and records its wall-clock duration,
    also when [f] raises. While disabled it is exactly [f ()]. *)

val recorded : unit -> int
(** Total spans recorded since {!enable}. *)

val span_to_json : span -> Json.t
val span_of_json : Json.t -> (span, string) result

val load_jsonl : string -> span list
(** Parse a JSONL sink file back into spans; raises [Failure] with the
    offending line number on malformed input. *)

(* Attribute constructors: [Trace.i "cg" 3], [Trace.s "op" "create"]. *)

val i : string -> int -> attr
val f : string -> float -> attr
val s : string -> string -> attr
val b : string -> bool -> attr
