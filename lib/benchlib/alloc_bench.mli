(** The committed allocation benchmark: allocs/sec on the standard aged
    image, scan oracle vs extent index.

    One deterministic operation schedule (seeded block, fragment-tail
    and cluster allocations interleaved with frees of earlier
    allocations, round-robin over the groups of an aged small image) is
    replayed twice over copies of the same groups: once through
    [Cg.Reference]'s linear bitmap scans, once through the extent index.
    The placement traces are checksummed and must be identical — the
    benchmark refuses to report a speedup between implementations that
    place differently — so the two timings differ only in search cost.

    [make bench-alloc] (under [make verify]) gates on a >20% drop of the
    indexed allocs/sec against [BENCH_alloc.json] (see {!Gate}). *)

type side = {
  seconds : float;
  allocs : int;  (** successful allocations (identical on both sides) *)
  allocs_per_sec : float;
}

type result = {
  utilization : float;  (** aged-image fragment utilization, 0..1 *)
  scan : side;
  indexed : side;
  speedup : float;  (** indexed allocs/sec over scan allocs/sec *)
  checksum : int;  (** placement-trace checksum (equal in both modes) *)
}

val run : unit -> result
(** Build the standard aged image (10 days, seed 960117) and measure
    both modes over a 200,000-op schedule, best of 3 each. Raises
    [Failure] if the two placement traces diverge (the differential
    suite's invariant, enforced again here at benchmark time). *)

val pins : result -> (string * Obs.Json.t) list
val figures : result -> (string * float) list
val limits : (string * Gate.limit) list
val pp : Format.formatter -> result -> unit
