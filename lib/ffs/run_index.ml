type t = {
  size : int;
  used : Bitmap.t;
  lengths : int array;  (* valid at the endpoints of free runs only *)
  counts : int array;  (* counts.(len) = maximal free runs of that length *)
  mutable longest_hint : int;  (* upper bound on the longest free run *)
}

let create size =
  assert (size >= 0);
  let t =
    {
      size;
      used = Bitmap.create size;
      lengths = Array.make (max 1 size) 0;
      counts = Array.make (size + 1) 0;
      longest_hint = size;
    }
  in
  if size > 0 then begin
    t.lengths.(0) <- size;
    t.lengths.(size - 1) <- size;
    t.counts.(size) <- 1
  end;
  t

let copy t =
  {
    t with
    used = Bitmap.copy t.used;
    lengths = Array.copy t.lengths;
    counts = Array.copy t.counts;
  }

let reset t =
  Bitmap.clear_range t.used ~pos:0 ~len:t.size;
  Array.fill t.lengths 0 (Array.length t.lengths) 0;
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.longest_hint <- t.size;
  if t.size > 0 then begin
    t.lengths.(0) <- t.size;
    t.lengths.(t.size - 1) <- t.size;
    t.counts.(t.size) <- 1
  end

let size t = t.size
let is_free t i = not (Bitmap.get t.used i)

let longest t =
  let rec settle len =
    if len <= 0 then 0 else if t.counts.(len) > 0 then len else settle (len - 1)
  in
  let l = settle t.longest_hint in
  t.longest_hint <- l;
  l

let has_run t ~len = len <= longest t
let count_of_length t len = if len >= 0 && len <= t.size then t.counts.(len) else 0

(* First slot of the maximal free run containing free slot [i]. Steps
   outward from [i] in both directions at once ([d] slots so far) and
   stops at whichever run end it meets first; an end's [lengths] entry
   then gives the start. A slot at either end of its run therefore
   costs two probes, and one strictly inside costs twice its distance
   to the nearer end. Top level, so a call allocates no closure. *)
let rec run_start_from t i d =
  let j = i - d and k = i + d in
  if j = 0 || not (is_free t (j - 1)) then j
  else if k = t.size - 1 || not (is_free t (k + 1)) then k - t.lengths.(k) + 1
  else run_start_from t i (d + 1)

let run_start t i = run_start_from t i 0

let run_length_at t i = if not (is_free t i) then 0 else t.lengths.(run_start t i)

let record_run t ~s ~e =
  let len = e - s + 1 in
  if len > 0 then begin
    t.counts.(len) <- t.counts.(len) + 1;
    t.lengths.(s) <- len;
    t.lengths.(e) <- len;
    if len > t.longest_hint then t.longest_hint <- len
  end

let forget_run_of_length t len =
  assert (t.counts.(len) > 0);
  t.counts.(len) <- t.counts.(len) - 1

let allocate t i =
  assert (is_free t i);
  let s = run_start t i in
  let len = t.lengths.(s) in
  let e = s + len - 1 in
  (* both endpoints hold the run's length, and the run ends at [e] *)
  assert (i <= e && t.lengths.(e) = len);
  assert (e = t.size - 1 || not (is_free t (e + 1)));
  forget_run_of_length t len;
  Bitmap.set t.used i;
  record_run t ~s ~e:(i - 1);
  record_run t ~s:(i + 1) ~e

let free t i =
  assert (not (is_free t i));
  let left_len = if i > 0 && is_free t (i - 1) then t.lengths.(i - 1) else 0 in
  let right_len = if i < t.size - 1 && is_free t (i + 1) then t.lengths.(i + 1) else 0 in
  if left_len > 0 then forget_run_of_length t left_len;
  if right_len > 0 then forget_run_of_length t right_len;
  Bitmap.clear t.used i;
  record_run t ~s:(i - left_len) ~e:(i + right_len)

let histogram t ~max =
  assert (max >= 1);
  let out = Array.make max 0 in
  for len = 1 to t.size do
    if t.counts.(len) > 0 then begin
      let slot = min len max - 1 in
      out.(slot) <- out.(slot) + t.counts.(len)
    end
  done;
  out

let check t ~bitmap_free =
  let corrupt fmt = Fmt.kstr (fun msg -> Error.raise_ (Error.Corrupt msg)) fmt in
  (* recount runs from ground truth and compare *)
  let recount = Array.make (t.size + 1) 0 in
  let i = ref 0 in
  while !i < t.size do
    if bitmap_free !i then begin
      let s = !i in
      while !i < t.size && bitmap_free !i do
        incr i
      done;
      let e = !i - 1 in
      let len = e - s + 1 in
      recount.(len) <- recount.(len) + 1;
      if not (is_free t s) || not (is_free t e) then
        corrupt "run_index: freeness disagrees at run [%d,%d]" s e;
      if t.lengths.(s) <> len || t.lengths.(e) <> len then
        corrupt "run_index: endpoint lengths wrong for run [%d,%d] (have %d/%d)" s e
          t.lengths.(s) t.lengths.(e)
    end
    else begin
      if is_free t !i then corrupt "run_index: slot %d should be used" !i;
      incr i
    end
  done;
  Array.iteri
    (fun len c ->
      if c <> t.counts.(len) then
        corrupt "run_index: count for length %d is %d, expected %d" len t.counts.(len) c)
    recount;
  if longest t <> (let rec f l = if l = 0 || recount.(l) > 0 then l else f (l - 1) in f t.size)
  then corrupt "run_index: longest disagrees"
