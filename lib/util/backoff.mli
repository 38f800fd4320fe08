(** The one retry-backoff schedule: capped exponential growth with a
    seeded, bounded jitter.

    Both retriers in the repository sleep on it — the fleet supervisor
    between volume attempts, and the resilient store between attempts
    at a transiently failing device access. *)

type t = {
  base : float;  (** seconds slept after the first failed attempt *)
  cap : float;  (** upper bound on the doubling delay *)
  jitter : float;
      (** bounded jitter fraction in [0, 1]: each sleep is scaled by a
          factor in [1 - jitter, 1 + jitter] so simultaneous failures
          don't retry in lock-step. 0 disables jitter. *)
  seed : int;
      (** seed of the jitter draw — the factor is a pure function of
          [(seed, key, attempt)], so schedules are deterministic under
          test and reproducible across runs *)
}

val delay : t -> key:string -> attempt:int -> float
(** The sleep after failed attempt [attempt] (1-based) of the retrier
    named [key]: [min cap (base * 2^(attempt-1))] scaled by the seeded
    bounded jitter. *)
