type spec = {
  duplicate_claims : int;
  drop_claims : int;
  forget_inodes : int;
  orphan_files : int;
  dangling_entries : int;
  clear_bitmap_bits : int;
  set_bitmap_bits : int;
  bad_runs : int;
  zero_counter_groups : int;
}

let none =
  {
    duplicate_claims = 0;
    drop_claims = 0;
    forget_inodes = 0;
    orphan_files = 0;
    dangling_entries = 0;
    clear_bitmap_bits = 0;
    set_bitmap_bits = 0;
    bad_runs = 0;
    zero_counter_groups = 0;
  }

let count s =
  s.duplicate_claims + s.drop_claims + s.forget_inodes + s.orphan_files
  + s.dangling_entries + s.clear_bitmap_bits + s.set_bitmap_bits + s.bad_runs
  + s.zero_counter_groups

let gen ~rng ~intensity =
  let s = ref none in
  for _ = 1 to intensity do
    s :=
      (match Util.Prng.int rng 9 with
      | 0 -> { !s with duplicate_claims = !s.duplicate_claims + 1 }
      | 1 -> { !s with drop_claims = !s.drop_claims + 1 }
      | 2 -> { !s with forget_inodes = !s.forget_inodes + 1 }
      | 3 -> { !s with orphan_files = !s.orphan_files + 1 }
      | 4 -> { !s with dangling_entries = !s.dangling_entries + 1 }
      | 5 -> { !s with clear_bitmap_bits = !s.clear_bitmap_bits + 1 }
      | 6 -> { !s with set_bitmap_bits = !s.set_bitmap_bits + 1 }
      | 7 -> { !s with bad_runs = !s.bad_runs + 1 }
      | _ -> { !s with zero_counter_groups = !s.zero_counter_groups + 1 })
  done;
  !s

let crash_points ~rng ~n_ops ~crashes =
  if n_ops <= 0 || crashes <= 0 then []
  else begin
    let want = min crashes n_ops in
    let chosen = Hashtbl.create want in
    (* rejection sampling; bounded because want <= n_ops *)
    while Hashtbl.length chosen < want do
      Hashtbl.replace chosen (Util.Prng.int rng n_ops) ()
    done;
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) chosen [])
  end

let crashes_for_rate ~rng ~rate =
  if rate <= 0.0 then 0
  else begin
    (* Knuth's Poisson draw: products of uniforms against e^-rate.
       Fine for the single-digit rates a fleet spec uses. *)
    let l = exp (-.rate) in
    let rec go k p =
      let p = p *. Util.Prng.unit_float rng in
      if p > l then go (k + 1) p else k
    in
    go 0 1.0
  end

let pp ppf s =
  let field name n rest = if n = 0 then rest else (name, n) :: rest in
  let fields =
    field "duplicate claims" s.duplicate_claims
    @@ field "dropped claims" s.drop_claims
    @@ field "forgotten inodes" s.forget_inodes
    @@ field "orphaned files" s.orphan_files
    @@ field "dangling entries" s.dangling_entries
    @@ field "cleared bitmap bits" s.clear_bitmap_bits
    @@ field "set bitmap bits" s.set_bitmap_bits
    @@ field "bad runs" s.bad_runs
    @@ field "zeroed counter groups" s.zero_counter_groups
    @@ []
  in
  if fields = [] then Fmt.pf ppf "no faults"
  else
    Fmt.pf ppf "%a"
      (Fmt.list ~sep:Fmt.comma (fun ppf (name, n) -> Fmt.pf ppf "%d %s" n name))
      fields

(* One --fault-seed reproduces a whole mixed-fault run: the logical
   corruption stream (this module + Inject) and the device stream
   ([Ffs.Store.Device] plans) are sibling children of the same seed. *)
let logical_seed ~fault_seed = Util.Prng.derive ~seed:fault_seed ~index:0
let device_seed ~fault_seed = Util.Prng.derive ~seed:fault_seed ~index:1
