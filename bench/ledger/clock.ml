(* The monotonic clock every ledger timer reads, and a small repeated-call
   timer for the phases that compare alternatives. *)

let now = Spiral_util.Trace.now_ns
let secs ns = float_of_int ns /. 1e9
let ms_since t0 = float_of_int (now () - t0) /. 1e6

(* --quick shortens every timing loop (the smoke check only needs each
   number to exist) *)
let quick = ref false

(* Median over 5 rounds of the mean of a loop of about [loop_s] seconds,
   in microseconds per call. *)
let time_us ?(loop_s = 0.02) f =
  for _ = 1 to 3 do
    f ()
  done;
  let loop_ns = int_of_float (loop_s *. if !quick then 1e8 else 1e9) in
  let reps =
    let t0 = now () and k = ref 0 in
    while now () - t0 < loop_ns do
      f ();
      incr k
    done;
    max 1 !k
  in
  Stats.median
    (Array.init 5 (fun _ ->
         let t0 = now () in
         for _ = 1 to reps do
           f ()
         done;
         float_of_int (now () - t0) /. 1e3 /. float_of_int reps))
