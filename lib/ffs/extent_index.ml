(* Hierarchical bitmap: 63-bit words, each upper level summarising which
   words of the level below are nonzero. A successor query touches at
   most one word per level going up and one per level coming down. *)
module Hier = struct
  type t = { n : int; levels : int array array }

  let word = 63

  let nwords bits = (bits + word - 1) / word

  let create n =
    assert (n >= 0);
    let rec sizes acc bits =
      let w = max 1 (nwords bits) in
      if w <= 1 then List.rev (1 :: acc) else sizes (w :: acc) w
    in
    { n; levels = Array.of_list (List.map (fun w -> Array.make w 0) (sizes [] n)) }

  let copy t = { t with levels = Array.map Array.copy t.levels }
  let clear_all t = Array.iter (fun lv -> Array.fill lv 0 (Array.length lv) 0) t.levels
  let mem t i = t.levels.(0).(i / word) land (1 lsl (i mod word)) <> 0

  (* set bit [i] of level [k], then its summary bits while the words
     they summarise were empty *)
  let rec set_from levels k i =
    if k < Array.length levels then begin
      let w = i / word in
      let old = levels.(k).(w) in
      levels.(k).(w) <- old lor (1 lsl (i mod word));
      if old = 0 then set_from levels (k + 1) w
    end

  let set t i =
    assert (i >= 0 && i < t.n);
    set_from t.levels 0 i

  (* clear bit [i] of level [k], then its summary bits while the words
     they summarise became empty *)
  let rec clear_from levels k i =
    if k < Array.length levels then begin
      let w = i / word in
      let now = levels.(k).(w) land lnot (1 lsl (i mod word)) in
      levels.(k).(w) <- now;
      if now = 0 then clear_from levels (k + 1) w
    end

  let clear t i =
    assert (i >= 0 && i < t.n);
    clear_from t.levels 0 i

  (* index of the lowest set bit (x <> 0, bits 0..62) *)
  let lowest_set x =
    let x = ref (x land (-x)) and i = ref 0 in
    if !x land 0xFFFFFFFF = 0 then begin i := !i + 32; x := !x lsr 32 end;
    if !x land 0xFFFF = 0 then begin i := !i + 16; x := !x lsr 16 end;
    if !x land 0xFF = 0 then begin i := !i + 8; x := !x lsr 8 end;
    if !x land 0xF = 0 then begin i := !i + 4; x := !x lsr 4 end;
    if !x land 0x3 = 0 then begin i := !i + 2; x := !x lsr 2 end;
    if !x land 0x1 = 0 then incr i;
    !i

  (* first set bit at or after bit [i] of level [k], or -1: climb to
     the first nonempty word, then descend back to its lowest set bit *)
  let rec succ_from levels k i =
    let lv = levels.(k) in
    let w = i / word in
    if w >= Array.length lv then -1
    else begin
      let masked = lv.(w) land ((-1) lsl (i mod word)) in
      if masked <> 0 then (w * word) + lowest_set masked
      else if k + 1 >= Array.length levels then -1
      else begin
        let j = succ_from levels (k + 1) (w + 1) in
        if j < 0 then -1 else (j * word) + lowest_set lv.(j)
      end
    end

  (* first set bit at index >= i, or None *)
  let succ t i =
    let i = max i 0 in
    if i >= t.n then None
    else begin
      let j = succ_from t.levels 0 i in
      if j >= 0 && j < t.n then Some j else None
    end

  (* every summary bit must equal "the word below is nonzero" *)
  let audit t ~name =
    let bad = ref [] in
    for k = 1 to Array.length t.levels - 1 do
      Array.iteri
        (fun j below ->
          let have = t.levels.(k).(j / word) land (1 lsl (j mod word)) <> 0 in
          if have <> (below <> 0) then
            bad :=
              Fmt.str "%s: level-%d summary of word %d says %b, word is %s" name k j have
                (if below = 0 then "empty" else "nonempty")
              :: !bad)
        t.levels.(k - 1)
    done;
    List.rev !bad
end

(* The derived free-space state of one group. Per block, the [maxrun]
   byte is the ground the rest stands on: a block is entirely free iff
   its byte equals [fpb]. Over it sit the free and fit hierarchies (the
   successor queries) and the run summary, 4.4BSD's [cg_clustersum]:
   [lengths] holds each maximal free run's length at its two endpoints
   (interior slots are stale, never read), [counts.(len)] the number of
   runs of exactly that length, and [longest_hint] an upper bound on the
   longest one, settled lazily by {!longest}. *)
type t = {
  nblocks : int;
  fpb : int;
  free : Hier.t;  (* bit set = block entirely free *)
  maxrun : Bytes.t;  (* per block: longest in-block free-fragment run *)
  fit : Hier.t array;  (* fit.(l-1): partial blocks with a free run >= l *)
  lengths : int array;  (* run length, valid at the endpoints of free runs *)
  counts : int array;  (* counts.(len) = maximal free runs of that length *)
  mutable longest_hint : int;  (* upper bound on the longest free run *)
}

let copy t =
  {
    t with
    free = Hier.copy t.free;
    maxrun = Bytes.copy t.maxrun;
    fit = Array.map Hier.copy t.fit;
    lengths = Array.copy t.lengths;
    counts = Array.copy t.counts;
  }

(* everything free, unconditionally: one run covering the whole group *)
let reset t =
  Array.iter Hier.clear_all t.fit;
  Bytes.fill t.maxrun 0 (Bytes.length t.maxrun) (Char.chr t.fpb);
  Hier.clear_all t.free;
  for b = 0 to t.nblocks - 1 do
    Hier.set t.free b
  done;
  Array.fill t.lengths 0 (Array.length t.lengths) 0;
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.longest_hint <- t.nblocks;
  if t.nblocks > 0 then begin
    t.lengths.(0) <- t.nblocks;
    t.lengths.(t.nblocks - 1) <- t.nblocks;
    t.counts.(t.nblocks) <- 1
  end

let create ~nblocks ~fpb =
  assert (nblocks >= 0 && fpb >= 1 && fpb <= 8);
  let t =
    {
      nblocks;
      fpb;
      free = Hier.create nblocks;
      maxrun = Bytes.create (max 1 nblocks);
      fit = Array.init (fpb - 1) (fun _ -> Hier.create nblocks);
      lengths = Array.make (max 1 nblocks) 0;
      counts = Array.make (nblocks + 1) 0;
      longest_hint = nblocks;
    }
  in
  reset t;
  t

let block_maxrun t b = Char.code (Bytes.get t.maxrun b)

(* neighbour freeness from the maxrun byte: no division, unlike a
   hierarchy probe; callers keep [b] in range *)
let is_free t b = Char.code (Bytes.unsafe_get t.maxrun b) = t.fpb

(* --- the run summary ------------------------------------------------------ *)

(* First block of the maximal free run containing free block [i]. Steps
   outward from [i] in both directions at once ([d] blocks so far) and
   stops at whichever run end it meets first; an end's [lengths] entry
   then gives the start. A block at either end of its run therefore
   costs two probes, and one strictly inside costs twice its distance
   to the nearer end. Never reads [i]'s own byte, so {!update} may call
   it before or after rewriting it. Top level, so a call allocates no
   closure. *)
let rec run_start_from t i d =
  let j = i - d and k = i + d in
  if j = 0 || not (is_free t (j - 1)) then j
  else if k = t.nblocks - 1 || not (is_free t (k + 1)) then k - t.lengths.(k) + 1
  else run_start_from t i (d + 1)

let run_start t i = run_start_from t i 0

let run_end t b =
  assert (block_maxrun t b = t.fpb);
  let s = run_start t b in
  s + t.lengths.(s) - 1

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

(* free block [b] becomes used: split its run around it *)
let split_run t b =
  let s = run_start t b in
  let len = t.lengths.(s) in
  let e = s + len - 1 in
  assert (b <= e && t.lengths.(e) = len);
  forget_run_of_length t len;
  record_run t ~s ~e:(b - 1);
  record_run t ~s:(b + 1) ~e

(* used block [b] becomes free: merge it with the runs on either side *)
let merge_runs t b =
  let left = if b > 0 && is_free t (b - 1) then t.lengths.(b - 1) else 0 in
  let right = if b < t.nblocks - 1 && is_free t (b + 1) then t.lengths.(b + 1) else 0 in
  if left > 0 then forget_run_of_length t left;
  if right > 0 then forget_run_of_length t right;
  record_run t ~s:(b - left) ~e:(b + right)

let longest t =
  let rec settle len =
    if len <= 0 then 0 else if t.counts.(len) > 0 then len else settle (len - 1)
  in
  let l = settle t.longest_hint in
  t.longest_hint <- l;
  l

let count_of_length t len = if len >= 0 && len <= t.nblocks then t.counts.(len) else 0

(* --- upkeep ---------------------------------------------------------------- *)

(* a block is in fit bucket l iff it is partial with maxrun >= l; a
   wholly free block (maxrun = fpb) belongs to no bucket *)
let fit_degree t m = if m >= t.fpb then 0 else m

let update t b ~maxrun =
  assert (maxrun >= 0 && maxrun <= t.fpb);
  let old = block_maxrun t b in
  if maxrun <> old then begin
    Bytes.set t.maxrun b (Char.chr maxrun);
    let was_free = old = t.fpb and now_free = maxrun = t.fpb in
    if was_free <> now_free then
      if now_free then begin
        Hier.set t.free b;
        merge_runs t b
      end
      else begin
        Hier.clear t.free b;
        split_run t b
      end;
    let d_old = fit_degree t old and d_new = fit_degree t maxrun in
    for l = d_new + 1 to d_old do
      Hier.clear t.fit.(l - 1) b
    done;
    for l = d_old + 1 to d_new do
      Hier.set t.fit.(l - 1) b
    done
  end

let succ_free t ~start = Hier.succ t.free start

let succ_fit t ~count ~start =
  assert (count >= 1 && count < t.fpb);
  Hier.succ t.fit.(count - 1) start

(* --- histograms, folded from the run counts ------------------------------- *)

let run_histogram t ~max =
  assert (max >= 1);
  let out = Array.make max 0 in
  for len = 1 to t.nblocks do
    if t.counts.(len) > 0 then begin
      let slot = min len max - 1 in
      out.(slot) <- out.(slot) + t.counts.(len)
    end
  done;
  out

let histogram t =
  let nbuckets =
    let rec go i = if 1 lsl i > max 1 t.nblocks then i else go (i + 1) in
    go 1
  in
  let out = Array.make nbuckets 0 in
  let bucket_of len =
    let rec go i = if 1 lsl (i + 1) > len then i else go (i + 1) in
    go 0
  in
  for len = 1 to t.nblocks do
    if t.counts.(len) > 0 then begin
      let i = min (bucket_of len) (nbuckets - 1) in
      out.(i) <- out.(i) + t.counts.(len)
    end
  done;
  Array.mapi (fun i c -> (1 lsl i, c)) out

(* --- consistency ---------------------------------------------------------- *)

let audit t ~frag_free =
  let bad = ref [] in
  let complain fmt = Fmt.kstr (fun m -> bad := m :: !bad) fmt in
  for b = 0 to t.nblocks - 1 do
    (* ground truth from the fragment bitmap *)
    let best = ref 0 and run = ref 0 in
    for f = b * t.fpb to ((b + 1) * t.fpb) - 1 do
      if frag_free f then begin
        incr run;
        if !run > !best then best := !run
      end
      else run := 0
    done;
    let truth = !best in
    if block_maxrun t b <> truth then
      complain "block %d: recorded max free run %d, bitmap says %d" b (block_maxrun t b)
        truth;
    let is_free = truth = t.fpb in
    if Hier.mem t.free b <> is_free then
      complain "block %d: free hierarchy says %b, bitmap says %b" b (Hier.mem t.free b)
        is_free;
    let d = fit_degree t truth in
    for l = 1 to t.fpb - 1 do
      let want = l <= d in
      if Hier.mem t.fit.(l - 1) b <> want then
        complain "block %d: fit bucket %d says %b, bitmap says %b" b l
          (Hier.mem t.fit.(l - 1) b)
          want
    done
  done;
  (* the run summary against the maxrun bytes it is kept from (held to
     the bitmap just above, so one divergence is reported once); the
     longest-run hint is read, never settled, so an audit leaves the
     index exactly as it found it *)
  let recount = Array.make (t.nblocks + 1) 0 and run = ref 0 and longest = ref 0 in
  for b = 0 to t.nblocks do
    if b < t.nblocks && is_free t b then incr run
    else if !run > 0 then begin
      let len = !run and s = b - !run in
      recount.(len) <- recount.(len) + 1;
      longest := max !longest len;
      if t.lengths.(s) <> len || t.lengths.(b - 1) <> len then
        complain "free run [%d,%d]: endpoint lengths %d/%d, run has %d" s (b - 1)
          t.lengths.(s) t.lengths.(b - 1) len;
      run := 0
    end
  done;
  Array.iteri
    (fun len c ->
      if c <> t.counts.(len) then
        complain "run summary: %d runs of length %d, recount says %d" t.counts.(len) len c)
    recount;
  if t.longest_hint < !longest then
    complain "run summary: longest-run hint %d is below the longest run %d" t.longest_hint
      !longest;
  let summaries =
    Hier.audit t.free ~name:"free"
    @ List.concat
        (List.mapi
           (fun i h -> Hier.audit h ~name:(Fmt.str "fit[%d]" (i + 1)))
           (Array.to_list t.fit))
  in
  List.rev !bad @ summaries

(* --- fault injection ------------------------------------------------------ *)

let corrupt_toggle_free t b =
  if Hier.mem t.free b then Hier.clear t.free b else Hier.set t.free b

let corrupt_toggle_fit t b ~len =
  assert (len >= 1 && len < t.fpb);
  let h = t.fit.(len - 1) in
  if Hier.mem h b then Hier.clear h b else Hier.set h b
