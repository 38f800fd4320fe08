(* Timing samples and the percentiles the benchmark reports.

   A percentile is reported only when at least [min_beyond] samples lie
   above it: the 99th percentile of 200 samples rests on two values and
   is noise, so it is refused rather than printed. *)

let min_beyond = 10

(* A growable buffer of integer samples (nanoseconds, bytes, words). *)
type samples = { mutable data : int array; mutable len : int }

let samples () = { data = Array.make 1024 0; len = 0 }

let add s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let count s = s.len
let to_array s = Array.sub s.data 0 s.len
let total s = Array.fold_left ( + ) 0 (to_array s)

let sorted s =
  let a = to_array s in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array: the smallest sample with
   at least [p] of the samples at or below it. [None] when fewer than
   [min_beyond] samples lie above the chosen rank. The rank tolerates
   rounding in [p *. n], so that [p = k /. n] selects the k-th sample. *)
let select ?(min_beyond = min_beyond) ~p sorted =
  let n = Array.length sorted in
  if n = 0 || p < 0.0 || p > 1.0 then None
  else
    let rank = max 0 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) - 1) in
    if n - 1 - rank < min_beyond then None else Some sorted.(rank)
