(** Per-cylinder-group free-space index: the one derived structure
    behind every placement question the allocators ask of a group.

    Per block it records the longest free-fragment run inside the block
    (its {e maxrun}: [fpb] = entirely free, [0] = entirely used). Over
    those bytes it keeps:

    - a {e free} hierarchy over block slots (bit set = block entirely
      free), answering "first free block at or after [b]" — the query
      behind [ffs_alloccgblk]'s map search;
    - {e fit} hierarchies, one per fragment-run length [1 ..
      frags_per_block-1], listing the partially-filled blocks whose
      longest in-block free-fragment run is at least that length — the
      query behind [ffs_alloccg]'s partial-block walk for file tails;
    - the {e run summary}, 4.4BSD's [cg_clustersum]: each maximal run of
      free blocks has its length stored at its two endpoints, with
      per-length run counts and a longest-run hint, so the realloc
      pass's "is there a free run of [len] blocks, and where?" is
      answered without a scan.

    Each hierarchy is a tree of 63-bit words: every upper-level bit
    records whether the word below it is nonzero, so a successor query
    descends at most [log63 nblocks] words. The run summary splits or
    merges runs in {!update} when a block flips between free and used:
    O(1) for a block at either end of its free run, which is where the
    allocators almost always take blocks; a block strictly inside a run
    costs twice its distance to the nearer end.

    The index is {e derived} state: {!Cg} keeps it in sync with the
    fragment bitmap on every allocate/free, and {!Check.repair} rebuilds
    it from scratch (via {!reset} and the normal claim path) exactly as
    it rebuilds bitmaps and counters. It must never disagree with the
    bitmaps while the allocator runs; {!audit} reports any divergence,
    and the [corrupt_*] primitives let tests manufacture one. *)

type t

val create : nblocks:int -> fpb:int -> t
(** Everything free: [nblocks] block slots of [fpb] fragments each, one
    free run covering them all. *)

val copy : t -> t

val reset : t -> unit
(** Return to the everything-free state, unconditionally (repair pass 2
    rebuilds from here through {!update}). *)

val update : t -> int -> maxrun:int -> unit
(** Record block [b]'s new fragment state, where [maxrun] is the longest
    free-fragment run inside the block ([fpb] = entirely free, [0] =
    entirely used, anything between = partial). Reclassifies the block
    in the free hierarchy and the fit buckets, and splits or merges free
    runs when the block becomes used or free. *)

val block_maxrun : t -> int -> int
(** The recorded in-block longest free run. *)

(** {2 Queries} *)

val succ_free : t -> start:int -> int option
(** First entirely-free block at index [>= start]. [O(log nblocks)]. *)

val succ_fit : t -> count:int -> start:int -> int option
(** First partially-filled block at index [>= start] holding a free
    fragment run of [>= count] fragments ([1 <= count < fpb]).
    [O(log nblocks)]. *)

val run_end : t -> int -> int
(** Last block of the maximal free run containing free block [b]. O(1)
    when [b] starts its run; from inside a run, twice [b]'s distance to
    the nearer end. *)

val count_of_length : t -> int -> int
(** Number of maximal free runs of exactly this many blocks. *)

val longest : t -> int
(** Length of the longest free run (0 if none). Amortized O(1): settles
    the cached hint. *)

val run_histogram : t -> max:int -> int array
(** Counts of maximal free runs by length: slot [i] holds runs of length
    [i+1], runs longer than [max] folded into the last slot. *)

val histogram : t -> (int * int) array
(** Free runs bucketed by power-of-two length: [(bucket_min, count)]
    where bucket [i] holds runs of [2^i .. 2^(i+1)-1] blocks. Always
    covers lengths up to the group size; trailing empty buckets are
    kept so histograms of equal-sized groups align. *)

(** {2 Consistency} *)

val audit : t -> frag_free:(int -> bool) -> string list
(** Compare every derived structure against the fragment bitmap (ground
    truth): stored max runs, free and fit memberships, the internal
    summary levels of each hierarchy, and the run summary (endpoint
    lengths, per-length counts, and the longest-run hint as an upper
    bound). Returns one message per divergence; [[]] means consistent.
    Reads only: the index is left exactly as it was. *)

(** {2 Fault injection}

    Skew the index {e without} touching the bitmaps — the analogue of a
    torn summary-structure write. Only {!Check.repair} may run
    afterwards; used by the audit regression tests. *)

val corrupt_toggle_free : t -> int -> unit
(** Flip block [b]'s bit in the free hierarchy (summaries updated, so
    the skew is only visible against the bitmaps). *)

val corrupt_toggle_fit : t -> int -> len:int -> unit
(** Flip block [b]'s membership in the [len]-fragment fit bucket. *)
