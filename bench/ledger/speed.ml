(* Host speed, measured next to every timed stretch.

   On the reference host (a 2-vCPU guest) each vCPU drifts between a fast
   and a slow state, about 1.7x apart, every few seconds, as other tenants
   load the physical cores under it; a half-minute run catches a
   different mix of states each time, so raw timings of the same code
   spread by 10-50% from run to run.  The ledger therefore times a fixed
   reference kernel on both CPUs at once around every round, and scales
   the round's values to the speed the host showed then: a time t
   measured while the kernel read [r] us per call is reported as
   t * nominal_us / r.  The kernel is a textbook radix-2 FFT written here,
   so no change to the library can move it.  Raw round values and the
   reference readings stay in every result file (README.md, "Round
   statistics"). *)

let n = 1024
let bits = 10

(* timings are scaled to the host speed at which the kernel reads this
   many microseconds per call: a round figure between its median readings
   on the reference host (56 us per median call, 65 us of wall time per
   call), so scaled values read within about 10% of raw ones there *)
let nominal_us = 60.0

let bitrev =
  Array.init n (fun i ->
      let r = ref 0 in
      for b = 0 to bits - 1 do
        if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
      done;
      !r)

let tw_re = Array.init (n / 2) (fun k -> cos (-2.0 *. Float.pi *. float_of_int k /. float_of_int n))
let tw_im = Array.init (n / 2) (fun k -> sin (-2.0 *. Float.pi *. float_of_int k /. float_of_int n))

type buffers = { xr : float array; xi : float array; yr : float array; yi : float array }

let buffers () =
  {
    xr = Array.init n (fun i -> sin (float_of_int i));
    xi = Array.init n (fun i -> cos (float_of_int i));
    yr = Array.make n 0.0;
    yi = Array.make n 0.0;
  }

(* iterative decimation-in-time FFT of x into y *)
let fft b =
  for i = 0 to n - 1 do
    b.yr.(bitrev.(i)) <- b.xr.(i);
    b.yi.(bitrev.(i)) <- b.xi.(i)
  done;
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 and step = n / !len in
    let i = ref 0 in
    while !i < n do
      for k = 0 to half - 1 do
        let wr = tw_re.(k * step) and wi = tw_im.(k * step) in
        let a = !i + k and c = !i + k + half in
        let tr = (b.yr.(c) *. wr) -. (b.yi.(c) *. wi)
        and ti = (b.yr.(c) *. wi) +. (b.yi.(c) *. wr) in
        b.yr.(c) <- b.yr.(a) -. tr;
        b.yi.(c) <- b.yi.(a) -. ti;
        b.yr.(a) <- b.yr.(a) +. tr;
        b.yi.(a) <- b.yi.(a) +. ti
      done;
      i := !i + !len
    done;
    len := 2 * !len
  done

let calls = 200
let main_buffers = lazy (buffers ())

(* the kernel's readings: the slower CPU's median call, and the wall time
   per call of the whole probe, both in microseconds *)
type reading = { call_us : float; wall_us : float }

(* median microseconds per call over [calls] timed calls *)
let timed_calls b =
  let t = Array.make calls 0.0 in
  for i = 0 to calls - 1 do
    let t0 = Clock.now () in
    fft b;
    t.(i) <- float_of_int (Clock.now () - t0) /. 1e3
  done;
  Stats.median t

(* The kernel on this thread and, at the same time, on a domain spawned
   for the probe, so both CPUs are read, as every workload here loads
   both.  The median call leaves out the milliseconds for which the
   hypervisor now and then takes a CPU away; the wall time keeps them.
   The short sleep first lets the library's idle workers stop spinning
   (their spin budget is well under a millisecond), so the probe does not
   compete with them. *)
let probe () =
  Unix.sleepf 0.002;
  let ready = Atomic.make false and go = Atomic.make false in
  let helper =
    Domain.spawn (fun () ->
        let b = buffers () in
        Atomic.set ready true;
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        timed_calls b)
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let b = Lazy.force main_buffers in
  let t0 = Clock.now () in
  Atomic.set go true;
  let main = timed_calls b in
  let other = Domain.join helper in
  {
    call_us = Float.max main other;
    wall_us = float_of_int (Clock.now () - t0) /. 1e3 /. float_of_int calls;
  }

(* a time, and a rate, measured while the kernel read [ref_us] *)
let time ~ref_us t = t *. nominal_us /. ref_us
let rate ~ref_us r = r *. ref_us /. nominal_us

(* Probes around each of [count] stretches of [f]: [f i] runs stretch i,
   and stretch i's reading is the mean of the probes taken just before
   and just after it. *)
let around count f =
  let before = ref (probe ()) in
  Array.init count (fun i ->
      let v = f i in
      let after = probe () in
      let mean a b = (a +. b) /. 2.0 in
      let r =
        { call_us = mean !before.call_us after.call_us; wall_us = mean !before.wall_us after.wall_us }
      in
      before := after;
      (v, r))
