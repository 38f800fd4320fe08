(* The reference kernel: a fixed piece of work that shares no code with
   the reproduction, timed next to each measurement so that host times
   can be read against the machine's speed at that moment. The runner
   this benchmark targets is shared, and its speed moves by up to a
   factor of two over tens of minutes.

   The kernel mixes what the aging pipeline spends its time on: random
   reads and writes over a table larger than the caches, and hashing
   with short-lived allocation. *)

let table_entries = 1 lsl 22
let probes = 6_000_000
let rounds = 5
let keys = 150_000

let kernel () =
  let open Bigarray in
  let a = Array1.create int c_layout table_entries in
  Array1.fill a 0;
  let x = ref 12345 in
  for _ = 1 to probes do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land (table_entries - 1) in
    Array1.unsafe_set a i (Array1.unsafe_get a i + !x)
  done;
  let h = Hashtbl.create 1024 in
  let sum = ref 0 in
  for round = 1 to rounds do
    for k = 0 to keys - 1 do
      Hashtbl.replace h ((k * 7919) + round) (Array.make 6 k)
    done;
    sum := !sum + Hashtbl.length h;
    Hashtbl.reset h
  done;
  !sum + Array1.get a (!x land (table_entries - 1))

(* Wall seconds of one run of the kernel. *)
let run () =
  let t0 = Spans.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  float_of_int (Spans.now_ns () - t0) *. 1e-9
