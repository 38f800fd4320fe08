type t = { base : float; cap : float; jitter : float; seed : int }

(* The jitter is a pure function of (seed, key, attempt) — a
   deterministic de-synchronizer, not a random one — so tests can pin
   schedules and a re-run sleeps the same amounts. *)
let delay t ~key ~attempt =
  let attempt = max 1 attempt in
  let base = Float.min t.cap (t.base *. Float.pow 2.0 (float_of_int (attempt - 1))) in
  let jitter = Float.min 1.0 t.jitter in
  if jitter <= 0.0 || base <= 0.0 then Float.max 0.0 base
  else begin
    let u =
      (* collapse (key, attempt) into a child-stream index; derive gives
         statistically independent draws per (seed, index) *)
      let index = Hashtbl.hash (key, attempt) in
      float_of_int (Prng.derive ~seed:t.seed ~index land 0x3FFFFFFF) /. 1073741824.0
    in
    base *. (1.0 -. jitter +. (2.0 *. jitter *. u))
  end
