(** Incremental free-run tracking — the simulator's [cg_clustersum].

    4.4BSD keeps a per-group summary of free-block runs so the realloc
    pass can reject a cluster request without scanning the block map.
    This structure maintains, under single-slot allocate/free
    operations, both the per-length counts of maximal free runs and the
    run geometry itself:

    - [lengths.(i)] — for each slot of a free run, the run length is
      stored at the run's two endpoints (interior slots are stale, never
      consulted);
    - [counts.(len)] — how many maximal free runs have exactly [len]
      slots.

    {!free} is O(1). {!allocate} and {!run_length_at} are O(1) for a
    slot at either end of its free run, which is where the allocators
    almost always take blocks (the first block of a run, or the next
    one after a file's previous block). For a slot strictly inside a
    run they walk outward from it in both directions, costing twice
    its distance to the nearer end of the run.

    {!Cg} consults it to fail cluster allocations fast and to answer
    run-statistics queries without rescanning. The invariant (counts and
    endpoint lengths agree with a bitmap recount) is enforced by
    property tests. *)

type t

val create : int -> t
(** All slots free: one run covering everything (for size > 0). *)

val copy : t -> t
val size : t -> int

val reset : t -> unit
(** Back to the all-free state, unconditionally. Repair plumbing: unlike
    per-slot {!free} driven by a bitmap walk, this never consults (and so
    never trusts) existing state — required when the on-store bitmaps may
    themselves be corrupt (e.g. device-level bit rot). *)

val is_free : t -> int -> bool

val allocate : t -> int -> unit
(** Mark one free slot used, splitting its run. O(1) at either end of
    the run; see above for a slot inside it. *)

val free : t -> int -> unit
(** Mark one used slot free, merging adjacent runs. *)

val count_of_length : t -> int -> int
(** Number of maximal free runs of exactly this length. *)

val has_run : t -> len:int -> bool
(** Is there any maximal free run of length >= [len]? O(size - len) in
    the worst case but O(1) amortized for the common "no" answer via a
    cached maximum. *)

val longest : t -> int
(** Length of the longest free run (0 if none). *)

val run_length_at : t -> int -> int
(** Length of the maximal free run containing the given free slot; 0 for
    a used slot. Same cost as {!allocate}. *)

val histogram : t -> max:int -> int array
(** Counts of maximal free runs by length: slot [i] holds runs of length
    [i+1], runs longer than [max] folded into the last slot. *)

val check : t -> bitmap_free:(int -> bool) -> unit
(** Verify against ground truth; raises {!Error.Error} with [Corrupt _]
    on divergence. For tests. *)
