open Spiral_util

let max_radix = 32

(* ------------------------------------------------------------------ *)
(* Preallocated scratch.  One record serves every codelet invocation of
   one worker: entry points receive it as their first argument instead of
   allocating per call, which keeps the steady-state hot path free of
   minor-heap traffic.  [stage] holds gathered or twiddle-scaled inputs of
   the staged paths ([make]-built codelets, the untwiddled indexed dft16/
   dft32, Vcodelet), [out] their kernel result; [h1]/[h2] are the
   half-transform buffers of the recursive dft32/dft16 kernels ([h1] for
   the 32-point split, [h2] for the 16-point split, so dft32 can call
   dft16 without clobbering its own halves). *)

type scratch = {
  stage : float array;
  out : float array;
  h1 : float array;
  h2 : float array;
}

let make_scratch () =
  {
    stage = Array.make (2 * max_radix) 0.0;
    out = Array.make (2 * max_radix) 0.0;
    h1 = Array.make (2 * max_radix) 0.0;
    h2 = Array.make (2 * max_radix) 0.0;
  }

type t = {
  radix : int;
  flops : int;
  name : string;
  strided :
    scratch -> float array -> int -> int -> float array -> int -> int -> unit;
  strided_u : scratch -> float array -> int -> float array -> int -> unit;
  strided_tw :
    scratch -> float array -> int -> int -> float array -> int -> int ->
    float array -> int -> unit;
  strided_u_tw :
    scratch -> float array -> int -> float array -> int ->
    float array -> int -> unit;
  indexed :
    scratch -> float array -> int array -> int -> float array -> int array ->
    int -> unit;
  indexed_tw :
    scratch -> float array -> int array -> int -> float array -> int array ->
    int -> float array -> int -> unit;
}

(* Twiddle-scale [count] complex inputs into [stage]; monomorphic in the
   addressing so no closure is built on the hot path. *)
let scale_into_strided stage src g0 gl tw t0 count =
  for l = 0 to count - 1 do
    let s = g0 + (l * gl) in
    let xr = src.(2 * s) and xi = src.((2 * s) + 1) in
    let wr = tw.(2 * (t0 + l)) and wi = tw.((2 * (t0 + l)) + 1) in
    stage.(2 * l) <- (wr *. xr) -. (wi *. xi);
    stage.((2 * l) + 1) <- (wr *. xi) +. (wi *. xr)
  done

let scale_into_indexed stage src gidx gb tw t0 count =
  for l = 0 to count - 1 do
    let s = gidx.(gb + l) in
    let xr = src.(2 * s) and xi = src.((2 * s) + 1) in
    let wr = tw.(2 * (t0 + l)) and wi = tw.((2 * (t0 + l)) + 1) in
    stage.(2 * l) <- (wr *. xr) -. (wi *. xi);
    stage.((2 * l) + 1) <- (wr *. xi) +. (wi *. xr)
  done

(* ------------------------------------------------------------------ *)
(* Generic construction from a local contiguous kernel. *)

let make ~radix ~flops ~name compute =
  if radix > max_radix then
    invalid_arg
      (Printf.sprintf "Codelet.make: radix %d exceeds max_radix %d" radix
         max_radix);
  let r = radix in
  let strided cs src g0 gl dst s0 sl =
    let stage = cs.stage and out = cs.out in
    for l = 0 to r - 1 do
      let s = g0 + (l * gl) in
      stage.(2 * l) <- src.(2 * s);
      stage.((2 * l) + 1) <- src.((2 * s) + 1)
    done;
    compute stage out;
    for l = 0 to r - 1 do
      let d = s0 + (l * sl) in
      dst.(2 * d) <- out.(2 * l);
      dst.((2 * d) + 1) <- out.((2 * l) + 1)
    done
  in
  {
    radix;
    flops;
    name;
    strided;
    strided_u =
      (fun cs src g0 dst s0 ->
        Array.blit src (2 * g0) cs.stage 0 (2 * r);
        compute cs.stage cs.out;
        Array.blit cs.out 0 dst (2 * s0) (2 * r));
    strided_tw =
      (fun cs src g0 gl dst s0 sl tw t0 ->
        scale_into_strided cs.stage src g0 gl tw t0 r;
        compute cs.stage cs.out;
        let out = cs.out in
        for l = 0 to r - 1 do
          let d = s0 + (l * sl) in
          dst.(2 * d) <- out.(2 * l);
          dst.((2 * d) + 1) <- out.((2 * l) + 1)
        done);
    strided_u_tw =
      (fun cs src g0 dst s0 tw t0 ->
        scale_into_strided cs.stage src g0 1 tw t0 r;
        compute cs.stage cs.out;
        Array.blit cs.out 0 dst (2 * s0) (2 * r));
    indexed =
      (fun cs src gidx gb dst sidx sb ->
        let stage = cs.stage and out = cs.out in
        for l = 0 to r - 1 do
          let s = gidx.(gb + l) in
          stage.(2 * l) <- src.(2 * s);
          stage.((2 * l) + 1) <- src.((2 * s) + 1)
        done;
        compute stage out;
        for l = 0 to r - 1 do
          let d = sidx.(sb + l) in
          dst.(2 * d) <- out.(2 * l);
          dst.((2 * d) + 1) <- out.((2 * l) + 1)
        done);
    indexed_tw =
      (fun cs src gidx gb dst sidx sb tw t0 ->
        scale_into_indexed cs.stage src gidx gb tw t0 r;
        compute cs.stage cs.out;
        let out = cs.out in
        for l = 0 to r - 1 do
          let d = sidx.(sb + l) in
          dst.(2 * d) <- out.(2 * l);
          dst.((2 * d) + 1) <- out.((2 * l) + 1)
        done);
  }

(* ------------------------------------------------------------------ *)
(* Unrolled DFT kernels.  Each body takes resolved complex-element
   indices; the entry points compute those indices with inline stride
   arithmetic (no closures).  Bodies never alias src and dst (plans
   ping-pong buffers).

   Every body has a [_tw] twin that multiplies input [l] by the twiddle
   at complex index [t0 + l] (dft8: [t0 + l*ts]) as it loads it, so the
   scaled values stay in registers instead of round-tripping through
   [scratch.stage].  The twin repeats the butterfly rather than calling
   the plain body because floats passed to a function are boxed; the
   products are the same expressions as [scale_into_strided], so results
   are bit-identical to scaling first.  The twins are [@inline]: their
   13-21 index arguments would otherwise pass through the stack on every
   call, which costs dft[1024]f at p=2 about a tenth of its latency. *)

let dft2_body src i0 i1 dst o0 o1 =
  let x0r = src.(2 * i0) and x0i = src.((2 * i0) + 1) in
  let x1r = src.(2 * i1) and x1i = src.((2 * i1) + 1) in
  dst.(2 * o0) <- x0r +. x1r;
  dst.((2 * o0) + 1) <- x0i +. x1i;
  dst.(2 * o1) <- x0r -. x1r;
  dst.((2 * o1) + 1) <- x0i -. x1i

let[@inline] dft2_body_tw src i0 i1 tw t0 dst o0 o1 =
  let w0r = tw.(2 * t0) and w0i = tw.((2 * t0) + 1) in
  let w1r = tw.(2 * (t0 + 1)) and w1i = tw.((2 * (t0 + 1)) + 1) in
  let a0r = src.(2 * i0) and a0i = src.((2 * i0) + 1) in
  let a1r = src.(2 * i1) and a1i = src.((2 * i1) + 1) in
  let x0r = (w0r *. a0r) -. (w0i *. a0i) and x0i = (w0r *. a0i) +. (w0i *. a0r) in
  let x1r = (w1r *. a1r) -. (w1i *. a1i) and x1i = (w1r *. a1i) +. (w1i *. a1r) in
  dst.(2 * o0) <- x0r +. x1r;
  dst.((2 * o0) + 1) <- x0i +. x1i;
  dst.(2 * o1) <- x0r -. x1r;
  dst.((2 * o1) + 1) <- x0i -. x1i

let sqrt3_2 = sqrt 3.0 /. 2.0

let dft3_body src i0 i1 i2 dst o0 o1 o2 =
  let x0r = src.(2 * i0) and x0i = src.((2 * i0) + 1) in
  let x1r = src.(2 * i1) and x1i = src.((2 * i1) + 1) in
  let x2r = src.(2 * i2) and x2i = src.((2 * i2) + 1) in
  let tr = x1r +. x2r and ti = x1i +. x2i in
  let ur = x1r -. x2r and ui = x1i -. x2i in
  let ar = x0r -. (0.5 *. tr) and ai = x0i -. (0.5 *. ti) in
  let br = sqrt3_2 *. ur and bi = sqrt3_2 *. ui in
  dst.(2 * o0) <- x0r +. tr;
  dst.((2 * o0) + 1) <- x0i +. ti;
  (* y1 = a - i*b, y2 = a + i*b *)
  dst.(2 * o1) <- ar +. bi;
  dst.((2 * o1) + 1) <- ai -. br;
  dst.(2 * o2) <- ar -. bi;
  dst.((2 * o2) + 1) <- ai +. br

let[@inline] dft3_body_tw src i0 i1 i2 tw t0 dst o0 o1 o2 =
  let w0r = tw.(2 * t0) and w0i = tw.((2 * t0) + 1) in
  let w1r = tw.(2 * (t0 + 1)) and w1i = tw.((2 * (t0 + 1)) + 1) in
  let w2r = tw.(2 * (t0 + 2)) and w2i = tw.((2 * (t0 + 2)) + 1) in
  let a0r = src.(2 * i0) and a0i = src.((2 * i0) + 1) in
  let a1r = src.(2 * i1) and a1i = src.((2 * i1) + 1) in
  let a2r = src.(2 * i2) and a2i = src.((2 * i2) + 1) in
  let x0r = (w0r *. a0r) -. (w0i *. a0i) and x0i = (w0r *. a0i) +. (w0i *. a0r) in
  let x1r = (w1r *. a1r) -. (w1i *. a1i) and x1i = (w1r *. a1i) +. (w1i *. a1r) in
  let x2r = (w2r *. a2r) -. (w2i *. a2i) and x2i = (w2r *. a2i) +. (w2i *. a2r) in
  let tr = x1r +. x2r and ti = x1i +. x2i in
  let ur = x1r -. x2r and ui = x1i -. x2i in
  let ar = x0r -. (0.5 *. tr) and ai = x0i -. (0.5 *. ti) in
  let br = sqrt3_2 *. ur and bi = sqrt3_2 *. ui in
  dst.(2 * o0) <- x0r +. tr;
  dst.((2 * o0) + 1) <- x0i +. ti;
  dst.(2 * o1) <- ar +. bi;
  dst.((2 * o1) + 1) <- ai -. br;
  dst.(2 * o2) <- ar -. bi;
  dst.((2 * o2) + 1) <- ai +. br

let dft4_body src i0 i1 i2 i3 dst o0 o1 o2 o3 =
  let x0r = src.(2 * i0) and x0i = src.((2 * i0) + 1) in
  let x1r = src.(2 * i1) and x1i = src.((2 * i1) + 1) in
  let x2r = src.(2 * i2) and x2i = src.((2 * i2) + 1) in
  let x3r = src.(2 * i3) and x3i = src.((2 * i3) + 1) in
  let t0r = x0r +. x2r and t0i = x0i +. x2i in
  let t1r = x0r -. x2r and t1i = x0i -. x2i in
  let t2r = x1r +. x3r and t2i = x1i +. x3i in
  let t3r = x1r -. x3r and t3i = x1i -. x3i in
  dst.(2 * o0) <- t0r +. t2r;
  dst.((2 * o0) + 1) <- t0i +. t2i;
  dst.(2 * o2) <- t0r -. t2r;
  dst.((2 * o2) + 1) <- t0i -. t2i;
  (* y1 = t1 - i*t3, y3 = t1 + i*t3 *)
  dst.(2 * o1) <- t1r +. t3i;
  dst.((2 * o1) + 1) <- t1i -. t3r;
  dst.(2 * o3) <- t1r -. t3i;
  dst.((2 * o3) + 1) <- t1i +. t3r

let[@inline] dft4_body_tw src i0 i1 i2 i3 tw t0 dst o0 o1 o2 o3 =
  let w0r = tw.(2 * t0) and w0i = tw.((2 * t0) + 1) in
  let w1r = tw.(2 * (t0 + 1)) and w1i = tw.((2 * (t0 + 1)) + 1) in
  let w2r = tw.(2 * (t0 + 2)) and w2i = tw.((2 * (t0 + 2)) + 1) in
  let w3r = tw.(2 * (t0 + 3)) and w3i = tw.((2 * (t0 + 3)) + 1) in
  let a0r = src.(2 * i0) and a0i = src.((2 * i0) + 1) in
  let a1r = src.(2 * i1) and a1i = src.((2 * i1) + 1) in
  let a2r = src.(2 * i2) and a2i = src.((2 * i2) + 1) in
  let a3r = src.(2 * i3) and a3i = src.((2 * i3) + 1) in
  let x0r = (w0r *. a0r) -. (w0i *. a0i) and x0i = (w0r *. a0i) +. (w0i *. a0r) in
  let x1r = (w1r *. a1r) -. (w1i *. a1i) and x1i = (w1r *. a1i) +. (w1i *. a1r) in
  let x2r = (w2r *. a2r) -. (w2i *. a2i) and x2i = (w2r *. a2i) +. (w2i *. a2r) in
  let x3r = (w3r *. a3r) -. (w3i *. a3i) and x3i = (w3r *. a3i) +. (w3i *. a3r) in
  let t0r = x0r +. x2r and t0i = x0i +. x2i in
  let t1r = x0r -. x2r and t1i = x0i -. x2i in
  let t2r = x1r +. x3r and t2i = x1i +. x3i in
  let t3r = x1r -. x3r and t3i = x1i -. x3i in
  dst.(2 * o0) <- t0r +. t2r;
  dst.((2 * o0) + 1) <- t0i +. t2i;
  dst.(2 * o2) <- t0r -. t2r;
  dst.((2 * o2) + 1) <- t0i -. t2i;
  dst.(2 * o1) <- t1r +. t3i;
  dst.((2 * o1) + 1) <- t1i -. t3r;
  dst.(2 * o3) <- t1r -. t3i;
  dst.((2 * o3) + 1) <- t1i +. t3r

let sqrt1_2 = sqrt 0.5

(* DFT_8 as decimation in time: two DFT_4 on even/odd inputs, then
   twiddled butterflies with w8^k, k = 0..3. *)
let dft8_body src i0 i1 i2 i3 i4 i5 i6 i7 dst o0 o1 o2 o3 o4 o5 o6 o7 =
  (* DFT_4 over the even inputs (x0 x2 x4 x6) *)
  let x0r = src.(2 * i0) and x0i = src.((2 * i0) + 1) in
  let x2r = src.(2 * i2) and x2i = src.((2 * i2) + 1) in
  let x4r = src.(2 * i4) and x4i = src.((2 * i4) + 1) in
  let x6r = src.(2 * i6) and x6i = src.((2 * i6) + 1) in
  let t0r = x0r +. x4r and t0i = x0i +. x4i in
  let t1r = x0r -. x4r and t1i = x0i -. x4i in
  let t2r = x2r +. x6r and t2i = x2i +. x6i in
  let t3r = x2r -. x6r and t3i = x2i -. x6i in
  let e0r = t0r +. t2r and e0i = t0i +. t2i in
  let e2r = t0r -. t2r and e2i = t0i -. t2i in
  let e1r = t1r +. t3i and e1i = t1i -. t3r in
  let e3r = t1r -. t3i and e3i = t1i +. t3r in
  (* DFT_4 over the odd inputs (x1 x3 x5 x7) *)
  let x1r = src.(2 * i1) and x1i = src.((2 * i1) + 1) in
  let x3r = src.(2 * i3) and x3i = src.((2 * i3) + 1) in
  let x5r = src.(2 * i5) and x5i = src.((2 * i5) + 1) in
  let x7r = src.(2 * i7) and x7i = src.((2 * i7) + 1) in
  let u0r = x1r +. x5r and u0i = x1i +. x5i in
  let u1r = x1r -. x5r and u1i = x1i -. x5i in
  let u2r = x3r +. x7r and u2i = x3i +. x7i in
  let u3r = x3r -. x7r and u3i = x3i -. x7i in
  let f0r = u0r +. u2r and f0i = u0i +. u2i in
  let f2r = u0r -. u2r and f2i = u0i -. u2i in
  let f1r = u1r +. u3i and f1i = u1i -. u3r in
  let f3r = u1r -. u3i and f3i = u1i +. u3r in
  (* k = 0: w = 1 *)
  dst.(2 * o0) <- e0r +. f0r;
  dst.((2 * o0) + 1) <- e0i +. f0i;
  dst.(2 * o4) <- e0r -. f0r;
  dst.((2 * o4) + 1) <- e0i -. f0i;
  (* k = 1: w = (1 - i)/sqrt 2;  w*f = s*((fr + fi) + i(fi - fr)) *)
  let w1r = sqrt1_2 *. (f1r +. f1i) and w1i = sqrt1_2 *. (f1i -. f1r) in
  dst.(2 * o1) <- e1r +. w1r;
  dst.((2 * o1) + 1) <- e1i +. w1i;
  dst.(2 * o5) <- e1r -. w1r;
  dst.((2 * o5) + 1) <- e1i -. w1i;
  (* k = 2: w = -i;  w*f = fi - i*fr *)
  dst.(2 * o2) <- e2r +. f2i;
  dst.((2 * o2) + 1) <- e2i -. f2r;
  dst.(2 * o6) <- e2r -. f2i;
  dst.((2 * o6) + 1) <- e2i +. f2r;
  (* k = 3: w = (-1 - i)/sqrt 2;  w*f = s*((fi - fr) - i(fr + fi)) *)
  let w3r = sqrt1_2 *. (f3i -. f3r) and w3i = -.sqrt1_2 *. (f3r +. f3i) in
  dst.(2 * o3) <- e3r +. w3r;
  dst.((2 * o3) + 1) <- e3i +. w3i;
  dst.(2 * o7) <- e3r -. w3r;
  dst.((2 * o7) + 1) <- e3i -. w3i

(* Input [l] is scaled by the twiddle at [t0 + l*ts]: the recursive
   dft16/dft32 kernels hand their halves a strided slice of the table. *)
let[@inline] dft8_body_tw src i0 i1 i2 i3 i4 i5 i6 i7 tw t0 ts dst o0 o1 o2 o3 o4 o5 o6
    o7 =
  let a0r = src.(2 * i0) and a0i = src.((2 * i0) + 1) in
  let a2r = src.(2 * i2) and a2i = src.((2 * i2) + 1) in
  let a4r = src.(2 * i4) and a4i = src.((2 * i4) + 1) in
  let a6r = src.(2 * i6) and a6i = src.((2 * i6) + 1) in
  let v0r = tw.(2 * t0) and v0i = tw.((2 * t0) + 1) in
  let v2r = tw.(2 * (t0 + (2 * ts))) and v2i = tw.((2 * (t0 + (2 * ts))) + 1) in
  let v4r = tw.(2 * (t0 + (4 * ts))) and v4i = tw.((2 * (t0 + (4 * ts))) + 1) in
  let v6r = tw.(2 * (t0 + (6 * ts))) and v6i = tw.((2 * (t0 + (6 * ts))) + 1) in
  let x0r = (v0r *. a0r) -. (v0i *. a0i) and x0i = (v0r *. a0i) +. (v0i *. a0r) in
  let x2r = (v2r *. a2r) -. (v2i *. a2i) and x2i = (v2r *. a2i) +. (v2i *. a2r) in
  let x4r = (v4r *. a4r) -. (v4i *. a4i) and x4i = (v4r *. a4i) +. (v4i *. a4r) in
  let x6r = (v6r *. a6r) -. (v6i *. a6i) and x6i = (v6r *. a6i) +. (v6i *. a6r) in
  let t0r = x0r +. x4r and t0i = x0i +. x4i in
  let t1r = x0r -. x4r and t1i = x0i -. x4i in
  let t2r = x2r +. x6r and t2i = x2i +. x6i in
  let t3r = x2r -. x6r and t3i = x2i -. x6i in
  let e0r = t0r +. t2r and e0i = t0i +. t2i in
  let e2r = t0r -. t2r and e2i = t0i -. t2i in
  let e1r = t1r +. t3i and e1i = t1i -. t3r in
  let e3r = t1r -. t3i and e3i = t1i +. t3r in
  let a1r = src.(2 * i1) and a1i = src.((2 * i1) + 1) in
  let a3r = src.(2 * i3) and a3i = src.((2 * i3) + 1) in
  let a5r = src.(2 * i5) and a5i = src.((2 * i5) + 1) in
  let a7r = src.(2 * i7) and a7i = src.((2 * i7) + 1) in
  let v1r = tw.(2 * (t0 + ts)) and v1i = tw.((2 * (t0 + ts)) + 1) in
  let v3r = tw.(2 * (t0 + (3 * ts))) and v3i = tw.((2 * (t0 + (3 * ts))) + 1) in
  let v5r = tw.(2 * (t0 + (5 * ts))) and v5i = tw.((2 * (t0 + (5 * ts))) + 1) in
  let v7r = tw.(2 * (t0 + (7 * ts))) and v7i = tw.((2 * (t0 + (7 * ts))) + 1) in
  let x1r = (v1r *. a1r) -. (v1i *. a1i) and x1i = (v1r *. a1i) +. (v1i *. a1r) in
  let x3r = (v3r *. a3r) -. (v3i *. a3i) and x3i = (v3r *. a3i) +. (v3i *. a3r) in
  let x5r = (v5r *. a5r) -. (v5i *. a5i) and x5i = (v5r *. a5i) +. (v5i *. a5r) in
  let x7r = (v7r *. a7r) -. (v7i *. a7i) and x7i = (v7r *. a7i) +. (v7i *. a7r) in
  let u0r = x1r +. x5r and u0i = x1i +. x5i in
  let u1r = x1r -. x5r and u1i = x1i -. x5i in
  let u2r = x3r +. x7r and u2i = x3i +. x7i in
  let u3r = x3r -. x7r and u3i = x3i -. x7i in
  let f0r = u0r +. u2r and f0i = u0i +. u2i in
  let f2r = u0r -. u2r and f2i = u0i -. u2i in
  let f1r = u1r +. u3i and f1i = u1i -. u3r in
  let f3r = u1r -. u3i and f3i = u1i +. u3r in
  dst.(2 * o0) <- e0r +. f0r;
  dst.((2 * o0) + 1) <- e0i +. f0i;
  dst.(2 * o4) <- e0r -. f0r;
  dst.((2 * o4) + 1) <- e0i -. f0i;
  let w1r = sqrt1_2 *. (f1r +. f1i) and w1i = sqrt1_2 *. (f1i -. f1r) in
  dst.(2 * o1) <- e1r +. w1r;
  dst.((2 * o1) + 1) <- e1i +. w1i;
  dst.(2 * o5) <- e1r -. w1r;
  dst.((2 * o5) + 1) <- e1i -. w1i;
  dst.(2 * o2) <- e2r +. f2i;
  dst.((2 * o2) + 1) <- e2i -. f2r;
  dst.(2 * o6) <- e2r -. f2i;
  dst.((2 * o6) + 1) <- e2i +. f2r;
  let w3r = sqrt1_2 *. (f3i -. f3r) and w3i = -.sqrt1_2 *. (f3r +. f3i) in
  dst.(2 * o3) <- e3r +. w3r;
  dst.((2 * o3) + 1) <- e3i +. w3i;
  dst.(2 * o7) <- e3r -. w3r;
  dst.((2 * o7) + 1) <- e3i -. w3i

(* w16^k for k = 0..7: cos/sin of -2 pi k / 16.  Trivial entries (k = 0,
   4) go through the same multiply so the butterfly loop stays
   branch-free; the products are exact so results are bit-identical to a
   specialized butterfly. *)
let c16_1 = 0.92387953251128675613
let s16_1 = -0.38268343236508977173
let c16_3 = 0.38268343236508977173
let s16_3 = -0.92387953251128675613

let w16r =
  [| 1.0; c16_1; sqrt1_2; c16_3; 0.0; -.c16_3; -.sqrt1_2; -.c16_1 |]

let w16i = [| 0.0; s16_1; -.sqrt1_2; s16_3; -1.0; s16_3; -.sqrt1_2; s16_1 |]

(* The radix-2 DIT combine of the recursive kernels: [h] holds the
   even-input half transform E in elements [0, m) and the odd-input half
   O in [m, 2m); y[k] = E[k] + w^k O[k], y[k+m] = E[k] - w^k O[k]. *)
let butterflies h m cr ci dst s0 sl =
  for k = 0 to m - 1 do
    let wr = cr.(k) and wi = ci.(k) in
    let er = h.(2 * k) and ei = h.((2 * k) + 1) in
    let xr = h.(2 * (k + m)) and xi = h.((2 * (k + m)) + 1) in
    let tr = (wr *. xr) -. (wi *. xi) and ti = (wr *. xi) +. (wi *. xr) in
    let d0 = s0 + (k * sl) and d1 = s0 + ((k + m) * sl) in
    dst.(2 * d0) <- er +. tr;
    dst.((2 * d0) + 1) <- ei +. ti;
    dst.(2 * d1) <- er -. tr;
    dst.((2 * d1) + 1) <- ei -. ti
  done

let butterflies_indexed h m cr ci dst sidx sb =
  for k = 0 to m - 1 do
    let wr = cr.(k) and wi = ci.(k) in
    let er = h.(2 * k) and ei = h.((2 * k) + 1) in
    let xr = h.(2 * (k + m)) and xi = h.((2 * (k + m)) + 1) in
    let tr = (wr *. xr) -. (wi *. xi) and ti = (wr *. xi) +. (wi *. xr) in
    let d0 = sidx.(sb + k) and d1 = sidx.(sb + k + m) in
    dst.(2 * d0) <- er +. tr;
    dst.((2 * d0) + 1) <- ei +. ti;
    dst.(2 * d1) <- er -. tr;
    dst.((2 * d1) + 1) <- ei -. ti
  done

(* DFT_16 as radix-2 DIT over two DFT_8 through the [h2] scratch half
   buffer. *)
let dft16_core cs src g0 gl dst s0 sl =
  let h = cs.h2 in
  dft8_body src g0
    (g0 + (2 * gl)) (g0 + (4 * gl)) (g0 + (6 * gl)) (g0 + (8 * gl))
    (g0 + (10 * gl)) (g0 + (12 * gl)) (g0 + (14 * gl))
    h 0 1 2 3 4 5 6 7;
  dft8_body src (g0 + gl)
    (g0 + (3 * gl)) (g0 + (5 * gl)) (g0 + (7 * gl)) (g0 + (9 * gl))
    (g0 + (11 * gl)) (g0 + (13 * gl)) (g0 + (15 * gl))
    h 8 9 10 11 12 13 14 15;
  butterflies h 8 w16r w16i dst s0 sl

(* Twiddled DFT_16: input [l], read at [g0 + l*gl], is scaled by the
   twiddle at [t0 + l*ts] inside the loads of the two dft8 halves. *)
let dft16_core_tw cs src g0 gl tw t0 ts dst s0 sl =
  let h = cs.h2 in
  dft8_body_tw src g0
    (g0 + (2 * gl)) (g0 + (4 * gl)) (g0 + (6 * gl)) (g0 + (8 * gl))
    (g0 + (10 * gl)) (g0 + (12 * gl)) (g0 + (14 * gl))
    tw t0 (2 * ts) h 0 1 2 3 4 5 6 7;
  dft8_body_tw src (g0 + gl)
    (g0 + (3 * gl)) (g0 + (5 * gl)) (g0 + (7 * gl)) (g0 + (9 * gl))
    (g0 + (11 * gl)) (g0 + (13 * gl)) (g0 + (15 * gl))
    tw (t0 + ts) (2 * ts) h 8 9 10 11 12 13 14 15;
  butterflies h 8 w16r w16i dst s0 sl

(* The same two twiddled halves, input [l] read at [gidx.(gb + l*gs)],
   into [h]: the indexed_tw entry points of dft16 ([gs = 1]) and of
   dft32 (one call per dft16 half, [gs = 2]). *)
let dft16_halves_itw src gidx gb gs tw t0 ts h =
  dft8_body_tw src gidx.(gb)
    gidx.(gb + (2 * gs)) gidx.(gb + (4 * gs)) gidx.(gb + (6 * gs))
    gidx.(gb + (8 * gs)) gidx.(gb + (10 * gs)) gidx.(gb + (12 * gs))
    gidx.(gb + (14 * gs))
    tw t0 (2 * ts) h 0 1 2 3 4 5 6 7;
  dft8_body_tw src gidx.(gb + gs)
    gidx.(gb + (3 * gs)) gidx.(gb + (5 * gs)) gidx.(gb + (7 * gs))
    gidx.(gb + (9 * gs)) gidx.(gb + (11 * gs)) gidx.(gb + (13 * gs))
    gidx.(gb + (15 * gs))
    tw (t0 + ts) (2 * ts) h 8 9 10 11 12 13 14 15

(* w32^k for k = 0..15, split real/imaginary (flat float arrays, no boxed
   tuples on the hot path). *)
let w32r =
  Array.init 16 (fun k -> cos (-2.0 *. Float.pi *. float_of_int k /. 32.0))

let w32i =
  Array.init 16 (fun k -> sin (-2.0 *. Float.pi *. float_of_int k /. 32.0))

(* DFT_32 as radix-2 DIT over two DFT_16 through [h1] (the dft16 kernels
   use [h2], so the halves survive the recursive calls). *)
let dft32_core cs src g0 gl dst s0 sl =
  let h = cs.h1 in
  dft16_core cs src g0 (2 * gl) h 0 1;
  dft16_core cs src (g0 + gl) (2 * gl) h 16 1;
  butterflies h 16 w32r w32i dst s0 sl

let dft32_core_tw cs src g0 gl tw t0 ts dst s0 sl =
  let h = cs.h1 in
  dft16_core_tw cs src g0 (2 * gl) tw t0 (2 * ts) h 0 1;
  dft16_core_tw cs src (g0 + gl) (2 * gl) tw (t0 + ts) (2 * ts) h 16 1;
  butterflies h 16 w32r w32i dst s0 sl

(* ------------------------------------------------------------------ *)
(* Codelet values. *)

let dft1_codelet =
  {
    radix = 1;
    flops = 0;
    name = "dft1";
    strided =
      (fun _cs src g0 _gl dst s0 _sl ->
        dst.(2 * s0) <- src.(2 * g0);
        dst.((2 * s0) + 1) <- src.((2 * g0) + 1));
    strided_u =
      (fun _cs src g0 dst s0 ->
        dst.(2 * s0) <- src.(2 * g0);
        dst.((2 * s0) + 1) <- src.((2 * g0) + 1));
    strided_tw =
      (fun _cs src g0 _gl dst s0 _sl tw t0 ->
        let xr = src.(2 * g0) and xi = src.((2 * g0) + 1) in
        let wr = tw.(2 * t0) and wi = tw.((2 * t0) + 1) in
        dst.(2 * s0) <- (wr *. xr) -. (wi *. xi);
        dst.((2 * s0) + 1) <- (wr *. xi) +. (wi *. xr));
    strided_u_tw =
      (fun _cs src g0 dst s0 tw t0 ->
        let xr = src.(2 * g0) and xi = src.((2 * g0) + 1) in
        let wr = tw.(2 * t0) and wi = tw.((2 * t0) + 1) in
        dst.(2 * s0) <- (wr *. xr) -. (wi *. xi);
        dst.((2 * s0) + 1) <- (wr *. xi) +. (wi *. xr));
    indexed =
      (fun _cs src gidx gb dst sidx sb ->
        let g = gidx.(gb) and s = sidx.(sb) in
        dst.(2 * s) <- src.(2 * g);
        dst.((2 * s) + 1) <- src.((2 * g) + 1));
    indexed_tw =
      (fun _cs src gidx gb dst sidx sb tw t0 ->
        let g = gidx.(gb) and s = sidx.(sb) in
        let xr = src.(2 * g) and xi = src.((2 * g) + 1) in
        let wr = tw.(2 * t0) and wi = tw.((2 * t0) + 1) in
        dst.(2 * s) <- (wr *. xr) -. (wi *. xi);
        dst.((2 * s) + 1) <- (wr *. xi) +. (wi *. xr));
  }

let dft2_codelet =
  {
    radix = 2;
    flops = 4;
    name = "dft2";
    strided =
      (fun _cs src g0 gl dst s0 sl -> dft2_body src g0 (g0 + gl) dst s0 (s0 + sl));
    strided_u =
      (fun _cs src g0 dst s0 -> dft2_body src g0 (g0 + 1) dst s0 (s0 + 1));
    strided_tw =
      (fun _cs src g0 gl dst s0 sl tw t0 ->
        dft2_body_tw src g0 (g0 + gl) tw t0 dst s0 (s0 + sl));
    strided_u_tw =
      (fun _cs src g0 dst s0 tw t0 ->
        dft2_body_tw src g0 (g0 + 1) tw t0 dst s0 (s0 + 1));
    indexed =
      (fun _cs src gidx gb dst sidx sb ->
        dft2_body src gidx.(gb) gidx.(gb + 1) dst sidx.(sb) sidx.(sb + 1));
    indexed_tw =
      (fun _cs src gidx gb dst sidx sb tw t0 ->
        dft2_body_tw src gidx.(gb) gidx.(gb + 1) tw t0 dst sidx.(sb)
          sidx.(sb + 1));
  }

let dft3_codelet =
  {
    radix = 3;
    flops = 16;
    name = "dft3";
    strided =
      (fun _cs src g0 gl dst s0 sl ->
        dft3_body src g0 (g0 + gl) (g0 + (2 * gl)) dst s0 (s0 + sl)
          (s0 + (2 * sl)));
    strided_u =
      (fun _cs src g0 dst s0 ->
        dft3_body src g0 (g0 + 1) (g0 + 2) dst s0 (s0 + 1) (s0 + 2));
    strided_tw =
      (fun _cs src g0 gl dst s0 sl tw t0 ->
        dft3_body_tw src g0 (g0 + gl) (g0 + (2 * gl)) tw t0 dst s0 (s0 + sl)
          (s0 + (2 * sl)));
    strided_u_tw =
      (fun _cs src g0 dst s0 tw t0 ->
        dft3_body_tw src g0 (g0 + 1) (g0 + 2) tw t0 dst s0 (s0 + 1) (s0 + 2));
    indexed =
      (fun _cs src gidx gb dst sidx sb ->
        dft3_body src gidx.(gb) gidx.(gb + 1) gidx.(gb + 2) dst sidx.(sb)
          sidx.(sb + 1) sidx.(sb + 2));
    indexed_tw =
      (fun _cs src gidx gb dst sidx sb tw t0 ->
        dft3_body_tw src gidx.(gb) gidx.(gb + 1) gidx.(gb + 2) tw t0 dst
          sidx.(sb) sidx.(sb + 1) sidx.(sb + 2));
  }

let dft4_codelet =
  {
    radix = 4;
    flops = 16;
    name = "dft4";
    strided =
      (fun _cs src g0 gl dst s0 sl ->
        dft4_body src g0 (g0 + gl) (g0 + (2 * gl)) (g0 + (3 * gl)) dst s0
          (s0 + sl) (s0 + (2 * sl)) (s0 + (3 * sl)));
    strided_u =
      (fun _cs src g0 dst s0 ->
        dft4_body src g0 (g0 + 1) (g0 + 2) (g0 + 3) dst s0 (s0 + 1) (s0 + 2)
          (s0 + 3));
    strided_tw =
      (fun _cs src g0 gl dst s0 sl tw t0 ->
        dft4_body_tw src g0 (g0 + gl) (g0 + (2 * gl)) (g0 + (3 * gl)) tw t0
          dst s0 (s0 + sl) (s0 + (2 * sl)) (s0 + (3 * sl)));
    strided_u_tw =
      (fun _cs src g0 dst s0 tw t0 ->
        dft4_body_tw src g0 (g0 + 1) (g0 + 2) (g0 + 3) tw t0 dst s0 (s0 + 1)
          (s0 + 2) (s0 + 3));
    indexed =
      (fun _cs src gidx gb dst sidx sb ->
        dft4_body src gidx.(gb) gidx.(gb + 1) gidx.(gb + 2) gidx.(gb + 3) dst
          sidx.(sb) sidx.(sb + 1) sidx.(sb + 2) sidx.(sb + 3));
    indexed_tw =
      (fun _cs src gidx gb dst sidx sb tw t0 ->
        dft4_body_tw src gidx.(gb) gidx.(gb + 1) gidx.(gb + 2) gidx.(gb + 3)
          tw t0 dst sidx.(sb) sidx.(sb + 1) sidx.(sb + 2) sidx.(sb + 3));
  }

let dft8_codelet =
  {
    radix = 8;
    flops = 56;
    name = "dft8";
    strided =
      (fun _cs src g0 gl dst s0 sl ->
        dft8_body src g0 (g0 + gl) (g0 + (2 * gl)) (g0 + (3 * gl))
          (g0 + (4 * gl)) (g0 + (5 * gl)) (g0 + (6 * gl)) (g0 + (7 * gl))
          dst s0 (s0 + sl) (s0 + (2 * sl)) (s0 + (3 * sl)) (s0 + (4 * sl))
          (s0 + (5 * sl)) (s0 + (6 * sl)) (s0 + (7 * sl)));
    strided_u =
      (fun _cs src g0 dst s0 ->
        dft8_body src g0 (g0 + 1) (g0 + 2) (g0 + 3) (g0 + 4) (g0 + 5) (g0 + 6)
          (g0 + 7) dst s0 (s0 + 1) (s0 + 2) (s0 + 3) (s0 + 4) (s0 + 5)
          (s0 + 6) (s0 + 7));
    strided_tw =
      (fun _cs src g0 gl dst s0 sl tw t0 ->
        dft8_body_tw src g0 (g0 + gl) (g0 + (2 * gl)) (g0 + (3 * gl))
          (g0 + (4 * gl)) (g0 + (5 * gl)) (g0 + (6 * gl)) (g0 + (7 * gl))
          tw t0 1 dst s0 (s0 + sl) (s0 + (2 * sl)) (s0 + (3 * sl))
          (s0 + (4 * sl)) (s0 + (5 * sl)) (s0 + (6 * sl)) (s0 + (7 * sl)));
    strided_u_tw =
      (fun _cs src g0 dst s0 tw t0 ->
        dft8_body_tw src g0 (g0 + 1) (g0 + 2) (g0 + 3) (g0 + 4) (g0 + 5)
          (g0 + 6) (g0 + 7) tw t0 1 dst s0 (s0 + 1) (s0 + 2) (s0 + 3)
          (s0 + 4) (s0 + 5) (s0 + 6) (s0 + 7));
    indexed =
      (fun _cs src gidx gb dst sidx sb ->
        dft8_body src gidx.(gb) gidx.(gb + 1) gidx.(gb + 2) gidx.(gb + 3)
          gidx.(gb + 4) gidx.(gb + 5) gidx.(gb + 6) gidx.(gb + 7) dst
          sidx.(sb) sidx.(sb + 1) sidx.(sb + 2) sidx.(sb + 3) sidx.(sb + 4)
          sidx.(sb + 5) sidx.(sb + 6) sidx.(sb + 7));
    indexed_tw =
      (fun _cs src gidx gb dst sidx sb tw t0 ->
        dft8_body_tw src gidx.(gb) gidx.(gb + 1) gidx.(gb + 2) gidx.(gb + 3)
          gidx.(gb + 4) gidx.(gb + 5) gidx.(gb + 6) gidx.(gb + 7) tw t0 1 dst
          sidx.(sb) sidx.(sb + 1) sidx.(sb + 2) sidx.(sb + 3) sidx.(sb + 4)
          sidx.(sb + 5) sidx.(sb + 6) sidx.(sb + 7));
  }

(* Gather / compute-to-[out] / scatter, for the untwiddled indexed entry
   points of the recursive kernels (rare path: bit-reversal style
   fallbacks). *)
let indexed_via_core core r cs src gidx gb dst sidx sb =
  let stage = cs.stage in
  for l = 0 to r - 1 do
    let s = gidx.(gb + l) in
    stage.(2 * l) <- src.(2 * s);
    stage.((2 * l) + 1) <- src.((2 * s) + 1)
  done;
  core cs stage 0 1 cs.out 0 1;
  let out = cs.out in
  for l = 0 to r - 1 do
    let d = sidx.(sb + l) in
    dst.(2 * d) <- out.(2 * l);
    dst.((2 * d) + 1) <- out.((2 * l) + 1)
  done

let dft16_codelet =
  (* flops: 2 x dft8 (112) + 8 butterflies: 2 trivial (w = 1, -i: 4 each)
     + 6 twiddled (10 each) = 112 + 8 + 60 = 180 *)
  {
    radix = 16;
    flops = 180;
    name = "dft16";
    strided = (fun cs src g0 gl dst s0 sl -> dft16_core cs src g0 gl dst s0 sl);
    strided_u = (fun cs src g0 dst s0 -> dft16_core cs src g0 1 dst s0 1);
    strided_tw =
      (fun cs src g0 gl dst s0 sl tw t0 ->
        dft16_core_tw cs src g0 gl tw t0 1 dst s0 sl);
    strided_u_tw =
      (fun cs src g0 dst s0 tw t0 -> dft16_core_tw cs src g0 1 tw t0 1 dst s0 1);
    indexed =
      (fun cs src gidx gb dst sidx sb ->
        indexed_via_core dft16_core 16 cs src gidx gb dst sidx sb);
    indexed_tw =
      (fun cs src gidx gb dst sidx sb tw t0 ->
        dft16_halves_itw src gidx gb 1 tw t0 1 cs.h2;
        butterflies_indexed cs.h2 8 w16r w16i dst sidx sb);
  }

let dft32_codelet =
  (* flops: 2 x dft16 (360) + 16 butterflies at <= 10 flops: ~508 *)
  {
    radix = 32;
    flops = 508;
    name = "dft32";
    strided = (fun cs src g0 gl dst s0 sl -> dft32_core cs src g0 gl dst s0 sl);
    strided_u = (fun cs src g0 dst s0 -> dft32_core cs src g0 1 dst s0 1);
    strided_tw =
      (fun cs src g0 gl dst s0 sl tw t0 ->
        dft32_core_tw cs src g0 gl tw t0 1 dst s0 sl);
    strided_u_tw =
      (fun cs src g0 dst s0 tw t0 -> dft32_core_tw cs src g0 1 tw t0 1 dst s0 1);
    indexed =
      (fun cs src gidx gb dst sidx sb ->
        indexed_via_core dft32_core 32 cs src gidx gb dst sidx sb);
    indexed_tw =
      (fun cs src gidx gb dst sidx sb tw t0 ->
        let h = cs.h1 and q = cs.h2 in
        dft16_halves_itw src gidx gb 2 tw t0 2 q;
        butterflies q 8 w16r w16i h 0 1;
        dft16_halves_itw src gidx (gb + 1) 2 tw (t0 + 1) 2 q;
        butterflies q 8 w16r w16i h 16 1;
        butterflies_indexed h 16 w32r w32i dst sidx sb);
  }

(* ------------------------------------------------------------------ *)
(* Kernel compute functions shared by the current and legacy generic
   codelets. *)

(* Direct matrix-vector product against the precomputed DFT matrix: the
   fallback for radices without an unrolled kernel. *)
let dft_generic_compute r =
  let mat =
    Array.init (r * r) (fun idx ->
        Twiddle.omega_pow ~n:r ~k:(idx / r) ~l:(idx mod r))
  in
  fun inp out ->
    for k = 0 to r - 1 do
      let accr = ref 0.0 and acci = ref 0.0 in
      for l = 0 to r - 1 do
        let w = mat.((k * r) + l) in
        let xr = inp.(2 * l) and xi = inp.((2 * l) + 1) in
        accr := !accr +. (w.Complex.re *. xr) -. (w.Complex.im *. xi);
        acci := !acci +. (w.Complex.re *. xi) +. (w.Complex.im *. xr)
      done;
      out.(2 * k) <- !accr;
      out.((2 * k) + 1) <- !acci
    done

let wht_compute r inp out =
  Array.blit inp 0 out 0 (2 * r);
  (* log2 r stages of in-place butterflies at doubling distance *)
  let h = ref 1 in
  while !h < r do
    let step = 2 * !h in
    let b = ref 0 in
    while !b < r do
      for j = !b to !b + !h - 1 do
        let ar = out.(2 * j) and ai = out.((2 * j) + 1) in
        let br = out.(2 * (j + !h)) and bi = out.((2 * (j + !h)) + 1) in
        out.(2 * j) <- ar +. br;
        out.((2 * j) + 1) <- ai +. bi;
        out.(2 * (j + !h)) <- ar -. br;
        out.((2 * (j + !h)) + 1) <- ai -. bi
      done;
      b := !b + step
    done;
    h := step
  done

let copy_compute r inp out = Array.blit inp 0 out 0 (2 * r)

let dft_generic r =
  make ~radix:r
    ~flops:((8 * r * r) - (2 * r))
    ~name:(Printf.sprintf "dft%d_generic" r)
    (dft_generic_compute r)

(* Codelet caches are filled by concurrent planners (Engine compiles
   outside its registry lock), so lookup and insertion happen under one
   lock: every domain gets the same physical instance per radix. *)
let cache_lock = Mutex.create ()

let cached table build r =
  Mutex.protect cache_lock (fun () ->
      match Hashtbl.find_opt table r with
      | Some c -> c
      | None ->
          let c = build r in
          Hashtbl.add table r c;
          c)

let dft_table : (int, t) Hashtbl.t = Hashtbl.create 16

let dft r =
  if r < 1 || r > max_radix then
    invalid_arg (Printf.sprintf "Codelet.dft: radix %d outside [1, %d]" r max_radix);
  cached dft_table
    (function
      | 1 -> dft1_codelet
      | 2 -> dft2_codelet
      | 3 -> dft3_codelet
      | 4 -> dft4_codelet
      | 8 -> dft8_codelet
      | 16 -> dft16_codelet
      | 32 -> dft32_codelet
      | r -> dft_generic r)
    r

let wht r =
  if not (Int_util.is_pow2 r) then invalid_arg "Codelet.wht: radix must be 2^k";
  if r > max_radix then invalid_arg "Codelet.wht: radix too large";
  let k = Int_util.ilog2 r in
  make ~radix:r ~flops:(2 * r * k) ~name:(Printf.sprintf "wht%d" r)
    (wht_compute r)

let copy r =
  make ~radix:r ~flops:0 ~name:(Printf.sprintf "copy%d" r) (copy_compute r)

(* ------------------------------------------------------------------ *)
(* Legacy (pre-optimization) codelets: per-call scratch allocation and
   closure-based addressing, exactly as the interpreter originally
   executed them.  They satisfy the current interface (the scratch
   argument is ignored) and are the measured baseline of the wall-clock
   benchmark ablation ([bench --json]) and a reference implementation in
   tests.  Do not use them on any production path. *)

module Legacy = struct
  let scale_into src idx tw t0 scratch count =
    for l = 0 to count - 1 do
      let s = idx l in
      let xr = src.(2 * s) and xi = src.((2 * s) + 1) in
      let wr = tw.(2 * (t0 + l)) and wi = tw.((2 * (t0 + l)) + 1) in
      scratch.(2 * l) <- (wr *. xr) -. (wi *. xi);
      scratch.((2 * l) + 1) <- (wr *. xi) +. (wi *. xr)
    done

  let make ~radix ~flops ~name compute =
    let r = radix in
    let load_plain src f =
      let inp = Array.make (2 * r) 0.0 in
      for l = 0 to r - 1 do
        let s = f l in
        inp.(2 * l) <- src.(2 * s);
        inp.((2 * l) + 1) <- src.((2 * s) + 1)
      done;
      inp
    in
    let load_tw src f tw t0 =
      let inp = Array.make (2 * r) 0.0 in
      for l = 0 to r - 1 do
        let s = f l in
        let xr = src.(2 * s) and xi = src.((2 * s) + 1) in
        let wr = tw.(2 * (t0 + l)) and wi = tw.((2 * (t0 + l)) + 1) in
        inp.(2 * l) <- (wr *. xr) -. (wi *. xi);
        inp.((2 * l) + 1) <- (wr *. xi) +. (wi *. xr)
      done;
      inp
    in
    let store dst f out =
      for l = 0 to r - 1 do
        let d = f l in
        dst.(2 * d) <- out.(2 * l);
        dst.((2 * d) + 1) <- out.((2 * l) + 1)
      done
    in
    let run inp dst f =
      let out = Array.make (2 * r) 0.0 in
      compute inp out;
      store dst f out
    in
    let strided _cs src g0 gl dst s0 sl =
      run (load_plain src (fun l -> g0 + (l * gl))) dst (fun l -> s0 + (l * sl))
    in
    let strided_tw _cs src g0 gl dst s0 sl tw t0 =
      run (load_tw src (fun l -> g0 + (l * gl)) tw t0) dst
        (fun l -> s0 + (l * sl))
    in
    {
      radix;
      flops;
      name;
      strided;
      strided_u = (fun cs src g0 dst s0 -> strided cs src g0 1 dst s0 1);
      strided_tw;
      strided_u_tw =
        (fun cs src g0 dst s0 tw t0 -> strided_tw cs src g0 1 dst s0 1 tw t0);
      indexed =
        (fun _cs src gidx gb dst sidx sb ->
          run (load_plain src (fun l -> gidx.(gb + l))) dst
            (fun l -> sidx.(sb + l)));
      indexed_tw =
        (fun _cs src gidx gb dst sidx sb tw t0 ->
          run (load_tw src (fun l -> gidx.(gb + l)) tw t0) dst
            (fun l -> sidx.(sb + l)));
    }

  let dft3 =
    let tw_wrap src idx tw t0 dst o0 o1 o2 =
      let scratch = Array.make 6 0.0 in
      scale_into src idx tw t0 scratch 3;
      dft3_body scratch 0 1 2 dst o0 o1 o2
    in
    let strided_tw _cs src g0 gl dst s0 sl tw t0 =
      tw_wrap src (fun l -> g0 + (l * gl)) tw t0 dst s0 (s0 + sl)
        (s0 + (2 * sl))
    in
    {
      dft3_codelet with
      strided_tw;
      strided_u_tw =
        (fun cs src g0 dst s0 tw t0 -> strided_tw cs src g0 1 dst s0 1 tw t0);
      indexed_tw =
        (fun _cs src gidx gb dst sidx sb tw t0 ->
          tw_wrap src (fun l -> gidx.(gb + l)) tw t0 dst sidx.(sb)
            sidx.(sb + 1) sidx.(sb + 2));
    }

  let dft4 =
    let tw_wrap src idx tw t0 dst o0 o1 o2 o3 =
      let scratch = Array.make 8 0.0 in
      scale_into src idx tw t0 scratch 4;
      dft4_body scratch 0 1 2 3 dst o0 o1 o2 o3
    in
    let strided_tw _cs src g0 gl dst s0 sl tw t0 =
      tw_wrap src (fun l -> g0 + (l * gl)) tw t0 dst s0 (s0 + sl)
        (s0 + (2 * sl)) (s0 + (3 * sl))
    in
    {
      dft4_codelet with
      strided_tw;
      strided_u_tw =
        (fun cs src g0 dst s0 tw t0 -> strided_tw cs src g0 1 dst s0 1 tw t0);
      indexed_tw =
        (fun _cs src gidx gb dst sidx sb tw t0 ->
          tw_wrap src (fun l -> gidx.(gb + l)) tw t0 dst sidx.(sb)
            sidx.(sb + 1) sidx.(sb + 2) sidx.(sb + 3));
    }

  let dft8 =
    let body8 src i dst o =
      dft8_body src (i 0) (i 1) (i 2) (i 3) (i 4) (i 5) (i 6) (i 7) dst (o 0)
        (o 1) (o 2) (o 3) (o 4) (o 5) (o 6) (o 7)
    in
    let tw_wrap src idx tw t0 dst o =
      let scratch = Array.make 16 0.0 in
      scale_into src idx tw t0 scratch 8;
      body8 scratch (fun l -> l) dst o
    in
    let strided _cs src g0 gl dst s0 sl =
      body8 src (fun l -> g0 + (l * gl)) dst (fun l -> s0 + (l * sl))
    in
    let strided_tw _cs src g0 gl dst s0 sl tw t0 =
      tw_wrap src (fun l -> g0 + (l * gl)) tw t0 dst (fun l -> s0 + (l * sl))
    in
    {
      dft8_codelet with
      strided;
      strided_u = (fun cs src g0 dst s0 -> strided cs src g0 1 dst s0 1);
      strided_tw;
      strided_u_tw =
        (fun cs src g0 dst s0 tw t0 -> strided_tw cs src g0 1 dst s0 1 tw t0);
      indexed =
        (fun _cs src gidx gb dst sidx sb ->
          body8 src (fun l -> gidx.(gb + l)) dst (fun l -> sidx.(sb + l)));
      indexed_tw =
        (fun _cs src gidx gb dst sidx sb tw t0 ->
          tw_wrap src (fun l -> gidx.(gb + l)) tw t0 dst
            (fun l -> sidx.(sb + l)));
    }

  (* Allocating recursive bodies (stack-local e/o buffers per call). *)
  let dft16_body src idx dst out =
    let e = Array.make 16 0.0 and o = Array.make 16 0.0 in
    dft8_body src (idx 0) (idx 2) (idx 4) (idx 6) (idx 8) (idx 10) (idx 12)
      (idx 14) e 0 1 2 3 4 5 6 7;
    dft8_body src (idx 1) (idx 3) (idx 5) (idx 7) (idx 9) (idx 11) (idx 13)
      (idx 15) o 0 1 2 3 4 5 6 7;
    for k = 0 to 7 do
      let wr = w16r.(k) and wi = w16i.(k) in
      let er = e.(2 * k) and ei = e.((2 * k) + 1) in
      let xr = o.(2 * k) and xi = o.((2 * k) + 1) in
      let tr = (wr *. xr) -. (wi *. xi) and ti = (wr *. xi) +. (wi *. xr) in
      let d0 = out k and d1 = out (k + 8) in
      dst.(2 * d0) <- er +. tr;
      dst.((2 * d0) + 1) <- ei +. ti;
      dst.(2 * d1) <- er -. tr;
      dst.((2 * d1) + 1) <- ei -. ti
    done

  let dft32_body src idx dst out =
    let e = Array.make 32 0.0 and o = Array.make 32 0.0 in
    dft16_body src (fun l -> idx (2 * l)) e (fun l -> l);
    dft16_body src (fun l -> idx ((2 * l) + 1)) o (fun l -> l);
    for k = 0 to 15 do
      let wr = w32r.(k) and wi = w32i.(k) in
      let er = e.(2 * k) and ei = e.((2 * k) + 1) in
      let xr = o.(2 * k) and xi = o.((2 * k) + 1) in
      let tr = (wr *. xr) -. (wi *. xi) and ti = (wr *. xi) +. (wi *. xr) in
      let d0 = out k and d1 = out (k + 16) in
      dst.(2 * d0) <- er +. tr;
      dst.((2 * d0) + 1) <- ei +. ti;
      dst.(2 * d1) <- er -. tr;
      dst.((2 * d1) + 1) <- ei -. ti
    done

  let recursive_codelet base body scratch_len =
    let tw_wrap src idx tw t0 dst out =
      let scratch = Array.make scratch_len 0.0 in
      scale_into src idx tw t0 scratch (scratch_len / 2);
      body scratch (fun l -> l) dst out
    in
    let strided _cs src g0 gl dst s0 sl =
      body src (fun l -> g0 + (l * gl)) dst (fun l -> s0 + (l * sl))
    in
    let strided_tw _cs src g0 gl dst s0 sl tw t0 =
      tw_wrap src (fun l -> g0 + (l * gl)) tw t0 dst (fun l -> s0 + (l * sl))
    in
    {
      base with
      strided;
      strided_u = (fun cs src g0 dst s0 -> strided cs src g0 1 dst s0 1);
      strided_tw;
      strided_u_tw =
        (fun cs src g0 dst s0 tw t0 -> strided_tw cs src g0 1 dst s0 1 tw t0);
      indexed =
        (fun _cs src gidx gb dst sidx sb ->
          body src (fun l -> gidx.(gb + l)) dst (fun l -> sidx.(sb + l)));
      indexed_tw =
        (fun _cs src gidx gb dst sidx sb tw t0 ->
          tw_wrap src (fun l -> gidx.(gb + l)) tw t0 dst
            (fun l -> sidx.(sb + l)));
    }

  let dft16 = recursive_codelet dft16_codelet dft16_body 32
  let dft32 = recursive_codelet dft32_codelet dft32_body 64

  let dft_table : (int, t) Hashtbl.t = Hashtbl.create 16

  let dft r =
    cached dft_table
      (function
        | 1 ->
            make ~radix:1 ~flops:0 ~name:"dft1" (fun inp out ->
                out.(0) <- inp.(0);
                out.(1) <- inp.(1))
        | 2 -> dft2_codelet (* allocation-free then as now *)
        | 3 -> dft3
        | 4 -> dft4
        | 8 -> dft8
        | 16 -> dft16
        | 32 -> dft32
        | r ->
            make ~radix:r
              ~flops:((8 * r * r) - (2 * r))
              ~name:(Printf.sprintf "dft%d_generic" r)
              (dft_generic_compute r))
      r

  let wht r =
    let k = Int_util.ilog2 r in
    make ~radix:r ~flops:(2 * r * k) ~name:(Printf.sprintf "wht%d" r)
      (wht_compute r)

  let copy r =
    make ~radix:r ~flops:0 ~name:(Printf.sprintf "copy%d" r) (copy_compute r)
end

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let legacy (c : t) =
  if has_prefix "dft" c.name then Legacy.dft c.radix
  else if has_prefix "wht" c.name then Legacy.wht c.radix
  else if has_prefix "copy" c.name then Legacy.copy c.radix
  else c
