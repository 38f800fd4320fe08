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

type t = {
  nblocks : int;
  fpb : int;
  free : Hier.t;  (* bit set = block entirely free *)
  used : Hier.t;  (* bit set = at least one fragment used *)
  maxrun : Bytes.t;  (* per block: longest in-block free-fragment run *)
  fit : Hier.t array;  (* fit.(l-1): partial blocks with a free run >= l *)
}

let create ~nblocks ~fpb =
  assert (nblocks >= 0 && fpb >= 1 && fpb <= 8);
  let t =
    {
      nblocks;
      fpb;
      free = Hier.create nblocks;
      used = Hier.create nblocks;
      maxrun = Bytes.make (max 1 nblocks) (Char.chr fpb);
      fit = Array.init (fpb - 1) (fun _ -> Hier.create nblocks);
    }
  in
  for b = 0 to nblocks - 1 do
    Hier.set t.free b
  done;
  t

let copy t =
  {
    t with
    free = Hier.copy t.free;
    used = Hier.copy t.used;
    maxrun = Bytes.copy t.maxrun;
    fit = Array.map Hier.copy t.fit;
  }

let reset t =
  Hier.clear_all t.used;
  Array.iter Hier.clear_all t.fit;
  Bytes.fill t.maxrun 0 (Bytes.length t.maxrun) (Char.chr t.fpb);
  Hier.clear_all t.free;
  for b = 0 to t.nblocks - 1 do
    Hier.set t.free b
  done

let block_maxrun t b = Char.code (Bytes.get t.maxrun b)

(* a block is in fit bucket l iff it is partial with maxrun >= l; a
   wholly free block (maxrun = fpb) belongs to no bucket *)
let fit_degree t m = if m >= t.fpb then 0 else m

let update t b ~maxrun =
  assert (maxrun >= 0 && maxrun <= t.fpb);
  let old = block_maxrun t b in
  if maxrun <> old then begin
    Bytes.set t.maxrun b (Char.chr maxrun);
    let was_free = old = t.fpb and is_free = maxrun = t.fpb in
    if was_free <> is_free then
      if is_free then begin
        Hier.set t.free b;
        Hier.clear t.used b
      end
      else begin
        Hier.clear t.free b;
        Hier.set t.used b
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
let succ_used t ~start = Hier.succ t.used start

let succ_fit t ~count ~start =
  assert (count >= 1 && count < t.fpb);
  Hier.succ t.fit.(count - 1) start

let iter_free_extents t f =
  let rec go pos =
    match succ_free t ~start:pos with
    | None -> ()
    | Some s ->
        let e = match succ_used t ~start:s with Some u -> u - 1 | None -> t.nblocks - 1 in
        f ~pos:s ~len:(e - s + 1);
        go (e + 1)
  in
  go 0

let histogram t =
  let nbuckets =
    let rec go i = if 1 lsl i > max 1 t.nblocks then i else go (i + 1) in
    go 1
  in
  let counts = Array.make nbuckets 0 in
  let bucket_of len =
    let rec go i = if 1 lsl (i + 1) > len then i else go (i + 1) in
    go 0
  in
  iter_free_extents t (fun ~pos:_ ~len ->
      let i = min (bucket_of len) (nbuckets - 1) in
      counts.(i) <- counts.(i) + 1);
  Array.mapi (fun i c -> (1 lsl i, c)) counts

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
    if Hier.mem t.used b <> not is_free then
      complain "block %d: used hierarchy says %b, bitmap says %b" b (Hier.mem t.used b)
        (not is_free);
    let d = fit_degree t truth in
    for l = 1 to t.fpb - 1 do
      let want = l <= d in
      if Hier.mem t.fit.(l - 1) b <> want then
        complain "block %d: fit bucket %d says %b, bitmap says %b" b l
          (Hier.mem t.fit.(l - 1) b)
          want
    done
  done;
  let summaries =
    Hier.audit t.free ~name:"free"
    @ Hier.audit t.used ~name:"used"
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
