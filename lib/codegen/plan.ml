type addressing =
  | Strided of {
      exts : int array;  (** loop extents, outermost first *)
      suffix : int array;
          (** suffix products of [exts]: [suffix.(j)] = Π extents from
              level [j]; length [Array.length exts + 1], innermost 1 *)
      gstrs : int array;  (** gather stride per loop level *)
      sstrs : int array;
      g0 : int;
      s0 : int;
      gl : int;  (** gather stride per codelet element *)
      sl : int;
    }
  | Indexed of { gidx : int array; sidx : int array }

(* Buffer layout of a plan's vectors: [Interleaved] is the classic
   re,im,re,im float array of 2n; [Split] keeps the same 2n float array
   but as two planes — re at [0,n), im at [n,2n) — executed by planar
   {!Vcodelet}s.  Split plans run the identical pass/range/barrier
   machinery (buffers have the same type and length), so [Par_exec]
   works on them unchanged. *)
type layout = Interleaved | Split

type split_exec = {
  vk : Vcodelet.t;
  im : int;  (** Plane offset (= n) of every buffer of the plan. *)
}

type pass = {
  count : int;
  radix : int;
  par : int option;
  mu : int option;
  vec : int option;
  kernel : Codelet.t;
  addr : addressing;
  tw : float array option;
  flops : int;
  split : split_exec option;
      (** [Some _] iff the plan layout is [Split]: the planar kernel this
          pass runs instead of [kernel]. *)
}

(* Per-worker execution context: codelet scratch plus the odometer digit
   buffer, preallocated so the pass loops allocate nothing. *)
type ctx = { cscratch : Codelet.scratch; dig : int array }

type vreport = {
  vdigest : int;
  mutable vbase : bool;
  mutable vworkers : int list;
}

type t = {
  n : int;
  layout : layout;
  passes : pass array;
  tmp_a : float array;
  tmp_b : float array;
  ctx : ctx;  (** Scratch of the sequential executor (worker 0). *)
  mutable wctx : ctx array;
      (** Per-worker scratch, grown by [ensure_worker_ctxs]. *)
  mutable elision : (int * bool array) list;
      (** Cache of barrier-elision masks, keyed by worker count
          (maintained by [Par_exec.elision_mask]). *)
  mutable misaligned : (int * int) list;
      (** Cache of the false-sharing check: worker count -> number of
          cache lines written by more than one worker under the aligned
          Block partition (maintained by [Par_exec]). *)
  fusion_cert : Optimize.fusion_cert option;
      (** Certificate of the fusion rewrites the plan's IR went through
          ([Some] iff [of_ir ~fuse:true] actually ran the optimizer);
          discharged by [Spiral_validate.check_fusion]. *)
  mutable validation : vreport option;
      (** Validation results, keyed by {!digest} at validation time so a
          mutated plan cannot inherit a stale certificate (maintained by
          [Spiral_validate.validate_plan]). *)
}

let max_depth passes =
  Array.fold_left
    (fun acc p ->
      match p.addr with
      | Strided { exts; _ } -> max acc (Array.length exts)
      | Indexed _ -> acc)
    1 passes

let make_ctx_for passes =
  { cscratch = Codelet.make_scratch (); dig = Array.make (max_depth passes) 0 }

let make_ctx t = make_ctx_for t.passes
let context t = t.ctx

let ensure_worker_ctxs t workers =
  let len = Array.length t.wctx in
  if len < workers then
    t.wctx <-
      Array.init workers (fun i ->
          if i < len then t.wctx.(i) else make_ctx_for t.passes)

let worker_ctx t w =
  ensure_worker_ctxs t (w + 1);
  t.wctx.(w)

let affine_check_threshold = 1 lsl 16

(* Decompose a flat iteration index into digits along [exts]. *)
let digits exts =
  let k = Array.length exts in
  let suffix = Array.make (k + 1) 1 in
  for j = k - 1 downto 0 do
    suffix.(j) <- suffix.(j + 1) * exts.(j)
  done;
  fun i j -> i / suffix.(j + 1) mod exts.(j)

(* Test whether [f i l] equals [f00 + Σ_j digit_j(i)·strs_j + l·dl] for the
   loop structure [exts], returning the strides when it does. *)
let detect ~count ~radix ~exts f =
  let k = Array.length exts in
  let dig = digits exts in
  let f00 = f 0 0 in
  let dl = if radix > 1 then f 0 1 - f00 else 0 in
  let suffix = Array.make (k + 1) 1 in
  for j = k - 1 downto 0 do
    suffix.(j) <- suffix.(j + 1) * exts.(j)
  done;
  let strs =
    Array.init k (fun j ->
        if exts.(j) > 1 then f suffix.(j + 1) 0 - f00 else 0)
  in
  let check i l =
    let acc = ref (f00 + (l * dl)) in
    for j = 0 to k - 1 do
      acc := !acc + (dig i j * strs.(j))
    done;
    f i l = !acc
  in
  let ok = ref true in
  (try
     if count * radix <= affine_check_threshold then begin
       (* every point, in order: the prediction's base is carried by an
          odometer over [exts] (as the executors carry theirs), not
          re-derived from the digits of [i] at every point *)
       let dg = Array.make k 0 in
       let base = ref f00 in
       for i = 0 to count - 1 do
         for l = 0 to radix - 1 do
           if f i l <> !base + (l * dl) then (
             ok := false;
             raise Exit)
         done;
         let j = ref (k - 1) in
         let moving = ref true in
         while !moving do
           dg.(!j) <- dg.(!j) + 1;
           base := !base + strs.(!j);
           if dg.(!j) = exts.(!j) && !j > 0 then begin
             dg.(!j) <- 0;
             base := !base - (exts.(!j) * strs.(!j));
             decr j
           end
           else moving := false
         done
       done
     end
     else begin
       (* Deterministic dense sample: boundaries, powers of two and an
          even spread.  Our compiler only produces per-level affine maps;
          this guards against compiler bugs, not adversarial input. *)
       let samples = 1024 in
       for s = 0 to samples - 1 do
         let i = s * (count - 1) / (samples - 1) in
         for l = 0 to radix - 1 do
           if not (check i l) then (
             ok := false;
             raise Exit)
         done
       done;
       let i = ref 1 in
       while !i < count do
         List.iter
           (fun j ->
             if j >= 0 && j < count && not (check j 0) then (
               ok := false;
               raise Exit))
           [ !i - 1; !i; !i + 1 ];
         i := !i * 2
       done
     end
   with Exit -> ());
  if !ok then Some (f00, strs, dl) else None

let materialize_pass (p : Ir.pass) : pass =
  let exts =
    let h = List.filter (fun e -> e > 1) p.hint in
    let h = if h = [] then [ p.count ] else h in
    Array.of_list h
  in
  let exts =
    if Array.fold_left ( * ) 1 exts = p.count then exts else [| p.count |]
  in
  let addr =
    match
      ( detect ~count:p.count ~radix:p.radix ~exts p.gather,
        detect ~count:p.count ~radix:p.radix ~exts p.scatter )
    with
    | Some (g0, gstrs, gl), Some (s0, sstrs, sl) ->
        let k = Array.length exts in
        let suffix = Array.make (k + 1) 1 in
        for j = k - 1 downto 0 do
          suffix.(j) <- suffix.(j + 1) * exts.(j)
        done;
        Strided { exts; suffix; gstrs; sstrs; g0; s0; gl; sl }
    | _ ->
        let size = p.count * p.radix in
        let gidx = Array.make size 0 and sidx = Array.make size 0 in
        for i = 0 to p.count - 1 do
          for l = 0 to p.radix - 1 do
            gidx.((i * p.radix) + l) <- p.gather i l;
            sidx.((i * p.radix) + l) <- p.scatter i l
          done
        done;
        Indexed { gidx; sidx }
  in
  let tw =
    Option.map
      (fun s ->
        let table = Array.make (2 * p.count * p.radix) 0.0 in
        for i = 0 to p.count - 1 do
          for l = 0 to p.radix - 1 do
            let (z : Complex.t) = s i l in
            table.(2 * ((i * p.radix) + l)) <- z.re;
            table.((2 * ((i * p.radix) + l)) + 1) <- z.im
          done
        done;
        table)
      p.scale
  in
  {
    count = p.count;
    radix = p.radix;
    par = p.par;
    mu = p.mu;
    vec = p.vec;
    kernel = p.kernel;
    addr;
    tw;
    flops = Ir.pass_flops p;
    split = None;
  }

(* A pass of a Split-layout plan gets its planar kernel here.  The ν-lane
   block materializes only when the innermost loop level actually carries
   ν-aligned iterations — loop merging can rotate the tagged lane
   dimension to any level (see {!Ir.pass.vec}), so legality is re-checked
   on the materialized extents, and unblocked passes fall back to scalar
   planar execution. *)
let attach_split ~n (p : pass) =
  let lanes =
    match (p.vec, p.addr) with
    | Some nu, Strided { exts; _ } when nu > 1 ->
        let k = Array.length exts in
        if k > 0 && exts.(k - 1) mod nu = 0 then nu else 1
    | _ -> 1
  in
  Spiral_util.Counters.incr
    (if lanes > 1 then "vec.pass_blocked" else "vec.pass_scalar");
  { p with split = Some { vk = Vcodelet.get ~lanes p.kernel; im = n } }

(* Structural digest over everything validation depends on: pass shapes,
   tags, kernels and the materialized addressing and twiddles.  An
   explicit fold (not [Hashtbl.hash], which truncates its traversal) so
   that any mutation of a pass array entry or its index tables changes
   the digest and invalidates cached validation results.  Large index
   and twiddle tables are sampled at a fixed stride — plenty to catch
   the accidental mutations this guards against. *)
let digest t =
  let h = ref (Hashtbl.hash (t.n, Array.length t.passes, t.layout = Split)) in
  let mix v = h := ((!h * 131) + v) lxor (v lsl 7) in
  let mix_table a =
    let m = Array.length a in
    mix m;
    let step = max 1 (m / 64) in
    let i = ref 0 in
    while !i < m do
      mix a.(!i);
      i := !i + step
    done
  in
  Array.iter
    (fun p ->
      mix p.count;
      mix p.radix;
      mix (match p.par with None -> -1 | Some q -> q);
      mix (match p.mu with None -> -1 | Some m -> 1000 + m);
      mix (match p.vec with None -> -1 | Some v -> 2000 + v);
      mix (Hashtbl.hash p.kernel.Codelet.name);
      mix
        (match p.split with
        | None -> 0
        | Some se -> 3000 + se.vk.Vcodelet.lanes);
      (match p.addr with
      | Strided { exts; gstrs; sstrs; g0; s0; gl; sl; _ } ->
          Array.iter mix exts;
          Array.iter mix gstrs;
          Array.iter mix sstrs;
          mix g0;
          mix s0;
          mix gl;
          mix sl
      | Indexed { gidx; sidx } ->
          mix_table gidx;
          mix_table sidx);
      match p.tw with
      | None -> mix 0
      | Some tw ->
          let m = Array.length tw in
          mix m;
          let step = max 1 (m / 64) in
          let i = ref 0 in
          while !i < m do
            mix (Hashtbl.hash tw.(!i));
            i := !i + step
          done)
    t.passes;
  !h land max_int

let of_ir ?(fuse = true) ?(baseline = false) ?(layout = Interleaved)
    (ir : Ir.t) =
  let ir, fusion_cert =
    if fuse then
      let fused, cert = Optimize.fuse_data_certified ir in
      (fused, Some cert)
    else (ir, None)
  in
  let passes = Array.of_list (List.map materialize_pass ir.passes) in
  let passes =
    if baseline then
      Array.map (fun p -> { p with kernel = Codelet.legacy p.kernel }) passes
    else passes
  in
  let passes =
    match layout with
    | Interleaved -> passes
    | Split -> Array.map (attach_split ~n:ir.n) passes
  in
  let need_tmp = Array.length passes > 1 in
  let tmp_size = if need_tmp then 2 * ir.n else 0 in
  {
    n = ir.n;
    layout;
    passes;
    tmp_a = Array.make tmp_size 0.0;
    tmp_b = Array.make (if Array.length passes > 2 then tmp_size else 0) 0.0;
    ctx = make_ctx_for passes;
    wctx = [||];
    elision = [];
    misaligned = [];
    fusion_cert;
    validation = None;
  }

let of_formula ?fuse ?baseline ?layout ?(explicit_data = false) f =
  (* [explicit_data] plans exist to show the unmerged execution; fusing
     them back would defeat the point, so fusion defaults off for them. *)
  let fuse = match fuse with Some b -> b | None -> not explicit_data in
  of_ir ~fuse ?baseline ?layout (Ir.of_formula ~explicit_data f)

let clone t =
  {
    t with
    tmp_a = Array.make (Array.length t.tmp_a) 0.0;
    tmp_b = Array.make (Array.length t.tmp_b) 0.0;
    ctx = make_ctx_for t.passes;
    wctx = [||];
  }

(* ------------------------------------------------------------------ *)
(* Pass execution.  Strided passes run an odometer: per-level bases are
   updated incrementally so the inner loop is straight-line integer
   arithmetic plus one kernel call — no closures, no allocation.  The
   four (twiddle × unit-stride) variants are monomorphized by hand; the
   odometer block is intentionally duplicated in each, because hoisting
   it into a local function would box the running state.  This subsumes
   the old [run_strided] helper (whose [radix]/[gl]/[sl] parameters were
   dead). *)

let run_interleaved ctx p ~src ~dst ~lo ~hi =
  let r = p.radix in
  let cs = ctx.cscratch in
  match p.addr with
  | Strided { exts; suffix; gstrs; sstrs; g0; s0; gl; sl } -> (
      let k = Array.length exts in
      let dig = ctx.dig in
      let bg = ref g0 and bs = ref s0 in
      for j = 0 to k - 1 do
        let d = lo / suffix.(j + 1) mod exts.(j) in
        dig.(j) <- d;
        bg := !bg + (d * gstrs.(j));
        bs := !bs + (d * sstrs.(j))
      done;
      match p.tw with
      | None ->
          if gl = 1 && sl = 1 then begin
            let kern = p.kernel.Codelet.strided_u in
            for _i = lo to hi - 1 do
              kern cs src !bg dst !bs;
              let j = ref (k - 1) in
              let moving = ref true in
              while !moving do
                dig.(!j) <- dig.(!j) + 1;
                bg := !bg + gstrs.(!j);
                bs := !bs + sstrs.(!j);
                if dig.(!j) = exts.(!j) && !j > 0 then begin
                  dig.(!j) <- 0;
                  bg := !bg - (exts.(!j) * gstrs.(!j));
                  bs := !bs - (exts.(!j) * sstrs.(!j));
                  decr j
                end
                else moving := false
              done
            done
          end
          else begin
            let kern = p.kernel.Codelet.strided in
            for _i = lo to hi - 1 do
              kern cs src !bg gl dst !bs sl;
              let j = ref (k - 1) in
              let moving = ref true in
              while !moving do
                dig.(!j) <- dig.(!j) + 1;
                bg := !bg + gstrs.(!j);
                bs := !bs + sstrs.(!j);
                if dig.(!j) = exts.(!j) && !j > 0 then begin
                  dig.(!j) <- 0;
                  bg := !bg - (exts.(!j) * gstrs.(!j));
                  bs := !bs - (exts.(!j) * sstrs.(!j));
                  decr j
                end
                else moving := false
              done
            done
          end
      | Some tw ->
          if gl = 1 && sl = 1 then begin
            let kern = p.kernel.Codelet.strided_u_tw in
            for i = lo to hi - 1 do
              kern cs src !bg dst !bs tw (i * r);
              let j = ref (k - 1) in
              let moving = ref true in
              while !moving do
                dig.(!j) <- dig.(!j) + 1;
                bg := !bg + gstrs.(!j);
                bs := !bs + sstrs.(!j);
                if dig.(!j) = exts.(!j) && !j > 0 then begin
                  dig.(!j) <- 0;
                  bg := !bg - (exts.(!j) * gstrs.(!j));
                  bs := !bs - (exts.(!j) * sstrs.(!j));
                  decr j
                end
                else moving := false
              done
            done
          end
          else begin
            let kern = p.kernel.Codelet.strided_tw in
            for i = lo to hi - 1 do
              kern cs src !bg gl dst !bs sl tw (i * r);
              let j = ref (k - 1) in
              let moving = ref true in
              while !moving do
                dig.(!j) <- dig.(!j) + 1;
                bg := !bg + gstrs.(!j);
                bs := !bs + sstrs.(!j);
                if dig.(!j) = exts.(!j) && !j > 0 then begin
                  dig.(!j) <- 0;
                  bg := !bg - (exts.(!j) * gstrs.(!j));
                  bs := !bs - (exts.(!j) * sstrs.(!j));
                  decr j
                end
                else moving := false
              done
            done
          end)
  | Indexed { gidx; sidx } -> (
      match p.tw with
      | None ->
          let kern = p.kernel.Codelet.indexed in
          for i = lo to hi - 1 do
            kern cs src gidx (i * r) dst sidx (i * r)
          done
      | Some tw ->
          let kern = p.kernel.Codelet.indexed_tw in
          for i = lo to hi - 1 do
            kern cs src gidx (i * r) dst sidx (i * r) tw (i * r)
          done)

(* Planar (split re/im) pass execution.  The odometer is the same as the
   interleaved path, but advances by the lane count ν when the innermost
   digit is ν-aligned and the remaining range covers a whole block, so a
   blocked planar kernel ([Vcodelet.blk]) runs ν consecutive iterations
   per call: consecutive flat iterations differ only in the innermost
   digit within a block (ν divides the innermost extent), which also
   means blocks never straddle a carry and their twiddle indices are the
   [lanes × radix] panel starting at [i·r]. *)
let run_split ctx p se ~src ~dst ~lo ~hi =
  let r = p.radix in
  let cs = ctx.cscratch in
  let vk = se.vk and im = se.im in
  match p.addr with
  | Strided { exts; suffix; gstrs; sstrs; g0; s0; gl; sl } -> (
      let k = Array.length exts in
      let dig = ctx.dig in
      let bg = ref g0 and bs = ref s0 in
      for j = 0 to k - 1 do
        let d = lo / suffix.(j + 1) mod exts.(j) in
        dig.(j) <- d;
        bg := !bg + (d * gstrs.(j));
        bs := !bs + (d * sstrs.(j))
      done;
      let nu = vk.Vcodelet.lanes in
      let ki = k - 1 in
      let gv = gstrs.(ki) and sv = sstrs.(ki) in
      (* the odometer advance is written out in both twiddle branches
         (rather than shared via a local function) so no closure
         captures [bg]/[bs]: all refs stay local and unboxed, keeping
         the executor allocation-free *)
      match p.tw with
      | None ->
          let blk = vk.Vcodelet.blk and s1 = vk.Vcodelet.s1 in
          let i = ref lo in
          while !i < hi do
            let step =
              if nu > 1 && dig.(ki) mod nu = 0 && !i + nu <= hi then begin
                blk cs im src !bg gl gv dst !bs sl sv;
                nu
              end
              else begin
                s1 cs im src !bg gl dst !bs sl;
                1
              end
            in
            i := !i + step;
            dig.(ki) <- dig.(ki) + step;
            bg := !bg + (step * gv);
            bs := !bs + (step * sv);
            let j = ref ki in
            while dig.(!j) = exts.(!j) && !j > 0 do
              dig.(!j) <- 0;
              bg := !bg - (exts.(!j) * gstrs.(!j));
              bs := !bs - (exts.(!j) * sstrs.(!j));
              decr j;
              dig.(!j) <- dig.(!j) + 1;
              bg := !bg + gstrs.(!j);
              bs := !bs + sstrs.(!j)
            done
          done
      | Some tw ->
          let blk_tw = vk.Vcodelet.blk_tw and s1_tw = vk.Vcodelet.s1_tw in
          let i = ref lo in
          while !i < hi do
            let step =
              if nu > 1 && dig.(ki) mod nu = 0 && !i + nu <= hi then begin
                blk_tw cs im src !bg gl gv dst !bs sl sv tw (!i * r);
                nu
              end
              else begin
                s1_tw cs im src !bg gl dst !bs sl tw (!i * r);
                1
              end
            in
            i := !i + step;
            dig.(ki) <- dig.(ki) + step;
            bg := !bg + (step * gv);
            bs := !bs + (step * sv);
            let j = ref ki in
            while dig.(!j) = exts.(!j) && !j > 0 do
              dig.(!j) <- 0;
              bg := !bg - (exts.(!j) * gstrs.(!j));
              bs := !bs - (exts.(!j) * sstrs.(!j));
              decr j;
              dig.(!j) <- dig.(!j) + 1;
              bg := !bg + gstrs.(!j);
              bs := !bs + sstrs.(!j)
            done
          done)
  | Indexed { gidx; sidx } -> (
      match p.tw with
      | None ->
          let ix1 = vk.Vcodelet.ix1 in
          for i = lo to hi - 1 do
            ix1 cs im src gidx (i * r) dst sidx (i * r)
          done
      | Some tw ->
          let ix1_tw = vk.Vcodelet.ix1_tw in
          for i = lo to hi - 1 do
            ix1_tw cs im src gidx (i * r) dst sidx (i * r) tw (i * r)
          done)

let run_pass_range ctx p ~src ~dst ~lo ~hi =
  match p.split with
  | Some se -> run_split ctx p se ~src ~dst ~lo ~hi
  | None -> run_interleaved ctx p ~src ~dst ~lo ~hi

(* Ping-pong buffer schedule: pass 0 reads [x], the last pass writes [y],
   intermediates alternate tmp_a/tmp_b.  Split accessors so the executors
   can resolve buffers without allocating a tuple. *)
let pass_src t ~x k =
  if k = 0 then x else if (k - 1) land 1 = 0 then t.tmp_a else t.tmp_b

let pass_dst t ~y k =
  if k = Array.length t.passes - 1 then y
  else if k land 1 = 0 then t.tmp_a
  else t.tmp_b

let src_dst_of_pass t ~x ~y k = (pass_src t ~x k, pass_dst t ~y k)

let execute t x y =
  if Array.length x <> 2 * t.n || Array.length y <> 2 * t.n then
    invalid_arg "Plan.execute: wrong vector length";
  let last = Array.length t.passes - 1 in
  for k = 0 to last do
    let p = t.passes.(k) in
    let src = if k = 0 then x else if (k - 1) land 1 = 0 then t.tmp_a else t.tmp_b in
    let dst = if k = last then y else if k land 1 = 0 then t.tmp_a else t.tmp_b in
    run_pass_range t.ctx p ~src ~dst ~lo:0 ~hi:p.count
  done

(* Per-iteration address computation (simulation and sampled-check path
   — this allocates closures and is not used by the executors). *)
let iter_addresses (p : pass) =
  match p.addr with
  | Strided { suffix; exts; gstrs; sstrs; g0; s0; gl; sl } ->
      let k = Array.length exts in
      fun i ->
        let bg = ref g0 and bs = ref s0 in
        for j = 0 to k - 1 do
          let d = i / suffix.(j + 1) mod exts.(j) in
          bg := !bg + (d * gstrs.(j));
          bs := !bs + (d * sstrs.(j))
        done;
        ((fun l -> !bg + (l * gl)), fun l -> !bs + (l * sl))
  | Indexed { gidx; sidx } ->
      fun i ->
        let base = i * p.radix in
        ((fun l -> gidx.(base + l)), fun l -> sidx.(base + l))

(* Footprint walk over [lo, hi): the analyses' view of every (iteration,
   gather, scatter) point, in the executors' order.  The strided case
   carries its bases with the executors' odometer, so the walk allocates
   only the digit buffer whatever the range. *)
let footprint (p : pass) ~lo ~hi f =
  let r = p.radix in
  match p.addr with
  | Strided { exts; suffix; gstrs; sstrs; g0; s0; gl; sl } ->
      if lo < hi then begin
        let k = Array.length exts in
        let dig = Array.make k 0 in
        let bg = ref g0 and bs = ref s0 in
        for j = 0 to k - 1 do
          let d = lo / suffix.(j + 1) mod exts.(j) in
          dig.(j) <- d;
          bg := !bg + (d * gstrs.(j));
          bs := !bs + (d * sstrs.(j))
        done;
        for i = lo to hi - 1 do
          for l = 0 to r - 1 do
            f i (!bg + (l * gl)) (!bs + (l * sl))
          done;
          let j = ref (k - 1) in
          let moving = ref true in
          while !moving do
            dig.(!j) <- dig.(!j) + 1;
            bg := !bg + gstrs.(!j);
            bs := !bs + sstrs.(!j);
            if dig.(!j) = exts.(!j) && !j > 0 then begin
              dig.(!j) <- 0;
              bg := !bg - (exts.(!j) * gstrs.(!j));
              bs := !bs - (exts.(!j) * sstrs.(!j));
              decr j
            end
            else moving := false
          done
        done
      end
  | Indexed { gidx; sidx } ->
      for i = lo to hi - 1 do
        let base = i * r in
        for l = 0 to r - 1 do
          f i gidx.(base + l) sidx.(base + l)
        done
      done

let total_flops t = Array.fold_left (fun acc p -> acc + p.flops) 0 t.passes

let describe t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "plan n=%d%s, %d passes\n" t.n
       (match t.layout with Interleaved -> "" | Split -> " split-re/im")
       (Array.length t.passes));
  Array.iteri
    (fun k p ->
      Buffer.add_string b
        (Printf.sprintf "  pass %d: %-14s count=%-8d %s%s%s%s\n" k
           p.kernel.Codelet.name p.count
           (match p.addr with
           | Strided { exts; _ } ->
               Printf.sprintf "strided[%s]"
                 (String.concat "x"
                    (Array.to_list (Array.map string_of_int exts)))
           | Indexed _ -> "indexed")
           (match p.tw with Some _ -> " +twiddle" | None -> "")
           (match p.par with
           | Some q -> Printf.sprintf " parallel(%d)" q
           | None -> "")
           (match p.split with
           | Some { vk; _ } when vk.Vcodelet.lanes > 1 ->
               Printf.sprintf " vec(%d)" vk.Vcodelet.lanes
           | Some _ -> " planar"
           | None -> "")))
    t.passes;
  Buffer.contents b
