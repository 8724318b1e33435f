open Spiral_util
open Spiral_codegen
module Par_exec = Spiral_smp.Par_exec

exception Validation_failed of string

type mode = Off | Sampled | Exhaustive

let mode_to_string = function
  | Off -> "off"
  | Sampled -> "sampled"
  | Exhaustive -> "exhaustive"

let mode =
  ref
    (match Sys.getenv_opt "SPIRAL_PARANOID" with
    | Some ("1" | "true" | "yes" | "on") -> Exhaustive
    | _ -> Sampled)

let exhaustive_threshold = 4096
let samples = 512

type vec_cert = {
  vc_scalar : Spiral_spl.Formula.t;
  vc_vector : Spiral_spl.Formula.t;
  vc_nu : int;
}

(* Checks communicate failure through a local exception so the obligation
   code reads as straight-line assertions; [guard] converts to result. *)
exception Bad of string

let badf fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt
let guard f = match f () with () -> Ok () | exception Bad m -> Error m

(* Representative points of [lo, hi): everything when exhaustive or
   small; otherwise an even spread plus the power-of-two neighbourhoods
   (the same shape as [Plan.detect]'s affine sampling — boundaries and
   carries are where addressing goes wrong). *)
let iter_points_range md ~lo ~hi f =
  let count = hi - lo in
  if count > 0 then
    if md = Exhaustive || count <= exhaustive_threshold then
      for i = lo to hi - 1 do
        f i
      done
    else begin
      for s = 0 to samples - 1 do
        f (lo + (s * (count - 1) / (samples - 1)))
      done;
      let i = ref 1 in
      while !i < count do
        f (lo + !i - 1);
        f (lo + !i);
        i := !i * 2
      done
    end

let iter_points md count f = iter_points_range md ~lo:0 ~hi:count f

let complex_eq (a : Complex.t) (b : Complex.t) = a.re = b.re && a.im = b.im

(* ---------------------------------------------------------------- *)
(* Fusion certificates. *)

(* Behavioural identity probe: a radix-1 kernel claimed to be pure data
   movement must copy its (complex) input unchanged.  Two probes with
   different values rule out constant outputs. *)
let identity_probe (k : Codelet.t) =
  let cs = Codelet.make_scratch () in
  let src = [| 3.25; -1.5 |] and dst = [| 0.0; 0.0 |] in
  k.Codelet.strided_u cs src 0 dst 0;
  let ok1 = dst.(0) = 3.25 && dst.(1) = -1.5 in
  src.(0) <- -0.75;
  src.(1) <- 42.0;
  k.Codelet.strided_u cs src 0 dst 0;
  ok1 && dst.(0) = -0.75 && dst.(1) = 42.0

let data_pass_checked n (orig : Ir.pass array) idx =
  if idx < 0 || idx >= Array.length orig then
    badf "claim names pass %d outside the original list" idx;
  let d = orig.(idx) in
  if d.Ir.radix <> 1 then
    badf "chained pass %d has radix %d, not 1" idx d.Ir.radix;
  if d.Ir.count <> n then
    badf "chained pass %d is not total: count %d over a size-%d vector" idx
      d.Ir.count n;
  if not (identity_probe d.Ir.kernel) then
    badf "chained pass %d kernel %S is not the identity" idx
      d.Ir.kernel.Codelet.name;
  d

(* Replay of [Optimize.compose] over a claimed chain, independently
   re-checking totality, scatter bijectivity and gather range at every
   step.  The accumulated scale multiplies in the optimizer's exact
   operation order, so a correct certificate reproduces its load-scale
   bit for bit. *)
let compose_chain n orig idxs =
  List.fold_left
    (fun (pperm, pscale) idx ->
      let d = data_pass_checked n orig idx in
      let inv = Array.make n (-1) in
      for i = 0 to n - 1 do
        let s = d.Ir.scatter i 0 in
        if s < 0 || s >= n then
          badf "chained pass %d scatter out of range at iteration %d" idx i;
        if inv.(s) >= 0 then
          badf "chained pass %d scatter is not a bijection of [0, %d)" idx n;
        inv.(s) <- i
      done;
      let perm = Array.make n 0 in
      let scale =
        if d.Ir.scale <> None || pscale <> None then
          Some (Array.make n Complex.one)
        else None
      in
      for q = 0 to n - 1 do
        let i = inv.(q) in
        let g = d.Ir.gather i 0 in
        if g < 0 || g >= n then
          badf "chained pass %d gather out of range at iteration %d" idx i;
        perm.(q) <- (match pperm with None -> g | Some pp -> pp.(g));
        match scale with
        | None -> ()
        | Some sc ->
            let s1 =
              match d.Ir.scale with Some s -> s i 0 | None -> Complex.one
            in
            let s0 =
              match pscale with Some ps -> ps.(g) | None -> Complex.one
            in
            sc.(q) <- Complex.mul s1 s0
      done;
      (Some perm, scale))
    (None, None) idxs

let invert_perm k perm =
  let n = Array.length perm in
  let pinv = Array.make n (-1) in
  Array.iteri
    (fun q s ->
      if s < 0 || s >= n || pinv.(s) >= 0 then
        badf "claim %d: backward-fused permutation is not a bijection" k;
      pinv.(s) <- q)
    perm;
  pinv

let check_scale_point k it l expected actual =
  match (expected, actual) with
  | None, None -> ()
  | Some e, Some a ->
      if not (complex_eq a e) then
        badf "claim %d: fused load-scale differs at (%d, %d)" k it l
  | Some e, None ->
      if not (complex_eq e Complex.one) then
        badf "claim %d: fused pass dropped a non-trivial load-scale" k
  | None, Some a ->
      if not (complex_eq a Complex.one) then
        badf "claim %d: fused pass invented a load-scale at (%d, %d)" k it l

let replay_claim ~md n (orig : Ir.pass array) (f : Ir.pass) k
    (c : Optimize.fusion_claim) =
  let gperm, gscale = compose_chain n orig c.Optimize.gchain in
  let sperm, sscale = compose_chain n orig c.Optimize.schain in
  (match sscale with
  | Some _ -> badf "claim %d: backward-fused chain carries a diagonal" k
  | None -> ());
  let spinv = Option.map (invert_perm k) sperm in
  match c.Optimize.src with
  | Some i ->
      if i < 0 || i >= Array.length orig then
        badf "claim %d names pass %d outside the original list" k i;
      let b = orig.(i) in
      if f.Ir.count <> b.Ir.count || f.Ir.radix <> b.Ir.radix then
        badf
          "claim %d: fused pass shape (%d, %d) differs from original pass %d \
           (%d, %d)"
          k f.Ir.count f.Ir.radix i b.Ir.count b.Ir.radix;
      if f.Ir.kernel != b.Ir.kernel then
        badf "claim %d: fused pass does not run original pass %d's kernel" k i;
      iter_points md b.Ir.count (fun it ->
          for l = 0 to b.Ir.radix - 1 do
            let bg = b.Ir.gather it l in
            let eg =
              match gperm with
              | None -> bg
              | Some gp ->
                  if bg < 0 || bg >= n then
                    badf "claim %d: original pass %d gather out of range" k i;
                  gp.(bg)
            in
            if f.Ir.gather it l <> eg then
              badf "claim %d: fused gather (%d, %d) = %d, expected %d" k it l
                (f.Ir.gather it l) eg;
            let bs = b.Ir.scatter it l in
            let es =
              match spinv with
              | None -> bs
              | Some pi ->
                  if bs < 0 || bs >= n then
                    badf "claim %d: original pass %d scatter out of range" k i;
                  pi.(bs)
            in
            if f.Ir.scatter it l <> es then
              badf "claim %d: fused scatter (%d, %d) = %d, expected %d" k it l
                (f.Ir.scatter it l) es;
            let expected =
              match gscale with
              | None -> Option.map (fun s -> s it l) b.Ir.scale
              | Some sc ->
                  let s0 = sc.(bg) in
                  Some
                    (match b.Ir.scale with
                    | None -> s0
                    | Some s -> Complex.mul (s it l) s0)
            in
            check_scale_point k it l expected
              (Option.map (fun s -> s it l) f.Ir.scale)
          done)
  | None ->
      (* residual: a synthesized identity-kernel pass carrying the whole
         unabsorbed chain *)
      if f.Ir.radix <> 1 || f.Ir.count <> n then
        badf "claim %d: residual pass is not a full-size radix-1 pass" k;
      if not (identity_probe f.Ir.kernel) then
        badf "claim %d: residual kernel %S is not the identity" k
          f.Ir.kernel.Codelet.name;
      let gp =
        match gperm with
        | Some gp -> gp
        | None -> badf "claim %d: residual pass with an empty chain" k
      in
      iter_points md n (fun it ->
          if f.Ir.gather it 0 <> gp.(it) then
            badf "claim %d: residual gather %d = %d, expected %d" k it
              (f.Ir.gather it 0) gp.(it);
          let es = match spinv with None -> it | Some pi -> pi.(it) in
          if f.Ir.scatter it 0 <> es then
            badf "claim %d: residual scatter %d = %d, expected %d" k it
              (f.Ir.scatter it 0) es;
          check_scale_point k it 0
            (Option.map (fun sc -> sc.(it)) gscale)
            (Option.map (fun s -> s it 0) f.Ir.scale))

let counter_identity = "validate.fusion_identity"

let check_claim ~md n (orig : Ir.pass array) (f : Ir.pass) k
    (c : Optimize.fusion_claim) =
  match c with
  | { Optimize.src = Some i; gchain = []; schain = [] }
    when md <> Exhaustive && i >= 0 && i < Array.length orig && f == orig.(i)
    ->
      (* nothing was composed and the fused pass is physically the
         original record: its gather, scatter, scale and kernel are the
         original ones, so the pointwise replay could only compare each
         closure with itself.  [Exhaustive] replays it anyway. *)
      Counters.incr counter_identity
  | _ -> replay_claim ~md n orig f k c

let check_fusion ?mode:(md = !mode) (cert : Optimize.fusion_cert) =
  guard (fun () ->
      let orig = Array.of_list cert.Optimize.original.Ir.passes in
      let fused = Array.of_list cert.Optimize.fused.Ir.passes in
      let claims = Array.of_list cert.Optimize.claims in
      let n = cert.Optimize.original.Ir.n in
      if cert.Optimize.fused.Ir.n <> n then
        badf "fusion changed the transform size: %d -> %d" n
          cert.Optimize.fused.Ir.n;
      if Array.length fused <> Array.length claims then
        badf "certificate carries %d claims for %d fused passes"
          (Array.length claims) (Array.length fused);
      (* the claims must spend every original pass exactly once, in
         execution order *)
      let seq = ref [] in
      Array.iter
        (fun (c : Optimize.fusion_claim) ->
          seq := List.rev_append c.Optimize.gchain !seq;
          (match c.Optimize.src with
          | Some i -> seq := i :: !seq
          | None -> ());
          seq := List.rev_append c.Optimize.schain !seq)
        claims;
      if List.rev !seq <> List.init (Array.length orig) Fun.id then
        badf
          "claims do not account for the %d original passes exactly once in \
           order"
          (Array.length orig);
      Array.iteri (fun k c -> check_claim ~md n orig fused.(k) k c) claims)

(* ---------------------------------------------------------------- *)
(* Partition exactness and µ-alignment. *)

let pass_worker_ranges ~workers (p : Plan.pass) w =
  if p.Plan.par <> None && workers > 1 then
    Par_exec.worker_range ~align:(Par_exec.pass_align p) Par_exec.Block
      ~count:p.Plan.count ~workers w
  else if w = 0 then [ (0, p.Plan.count) ]
  else []

let check_partition ?mode:(md = !mode) ~workers (plan : Plan.t) =
  guard (fun () ->
      ignore md;
      Array.iteri
        (fun k (p : Plan.pass) ->
          let align = Par_exec.pass_align p in
          let pos = ref 0 in
          for w = 0 to workers - 1 do
            List.iter
              (fun (lo, hi) ->
                if lo <> !pos then
                  badf
                    "pass %d: worker %d starts at %d, expected %d (gap or \
                     overlap)"
                    k w lo !pos;
                if hi <= lo then badf "pass %d: worker %d has an empty range" k w;
                if p.Plan.par <> None && lo > 0 && lo mod align <> 0 then
                  badf
                    "pass %d: internal boundary %d not aligned to µ-split %d"
                    k lo align;
                pos := hi)
              (pass_worker_ranges ~workers p w)
          done;
          if !pos <> p.Plan.count then
            badf "pass %d: partition covers [0, %d) of %d iterations" k !pos
              p.Plan.count)
        plan.Plan.passes)

(* ---------------------------------------------------------------- *)
(* Barrier elision. *)

let derive_footprint ~workers ~n (pk : Plan.pass) =
  let writer = Array.make n (-1) and reader = Array.make n (-1) in
  for w = 0 to workers - 1 do
    List.iter
      (fun (lo, hi) ->
        Plan.footprint pk ~lo ~hi (fun i gp sp ->
            if sp < 0 || sp >= n then
              badf "write footprint out of range at iteration %d" i;
            writer.(sp) <- w;
            if gp < 0 || gp >= n then
              badf "read footprint out of range at iteration %d" i;
            if reader.(gp) = -1 then reader.(gp) <- w
            else if reader.(gp) <> w then reader.(gp) <- -2))
      (Par_exec.worker_range ~align:(Par_exec.pass_align pk) Par_exec.Block
         ~count:pk.Plan.count ~workers w)
  done;
  (writer, reader)

let check_elision_claims ?mode:(md = !mode) ~workers (plan : Plan.t)
    ((mask, wits) : bool array * Par_exec.boundary_witness list) =
  guard (fun () ->
      let np = Array.length plan.Plan.passes in
      let nb = max 0 (np - 1) in
      if Array.length mask <> nb then
        badf "elision mask has %d entries for %d boundaries"
          (Array.length mask) nb;
      if workers > 1 then begin
        (* Chain legality: with one worker there is no skew to bound and
           the analysis rightly elides every boundary; with several, at
           most two consecutive boundaries may elide, and each length-2
           chain must satisfy condition C — the passes bracketing it
           (b-1 and b+1, whose outputs share a ping-pong intermediate
           unless pass b+1 writes the final output) agree pointwise on
           which worker writes each position, so per-worker program
           order serializes the distance-2 WAW/WAR hazards.  Re-derived
           from the materialized addressing, not the analysis's word. *)
        for b = 1 to nb - 1 do
          if mask.(b) && mask.(b - 1) then begin
            if b >= 2 && mask.(b - 2) then
              badf "chained elision of length 3 at boundaries %d..%d" (b - 2)
                b;
            if b + 1 < np - 1 then begin
              let n = plan.Plan.n in
              let wa, _ =
                derive_footprint ~workers ~n plan.Plan.passes.(b + 1)
              and wb, _ =
                derive_footprint ~workers ~n plan.Plan.passes.(b - 1)
              in
              for q = 0 to n - 1 do
                if wa.(q) >= 0 && wb.(q) >= 0 && wa.(q) <> wb.(q) then
                  badf
                    "chained boundaries %d and %d: passes %d and %d write \
                     position %d from different workers (condition C)"
                    (b - 1) b (b - 1) (b + 1) q
              done
            end
          end
        done;
        Array.iteri
          (fun b elided ->
            if elided then begin
              let wit =
                match
                  List.find_opt
                    (fun (w : Par_exec.boundary_witness) ->
                      w.Par_exec.boundary = b)
                    wits
                with
                | Some w -> w
                | None -> badf "boundary %d elided without a witness" b
              in
              let pk = plan.Plan.passes.(b)
              and pk1 = plan.Plan.passes.(b + 1) in
              if pk.Plan.par = None || pk1.Plan.par = None then
                badf "boundary %d elided around a sequential pass" b;
              let n = plan.Plan.n in
              (* the analysis's witness must match a fresh re-derivation
                 of pass b's footprint from the materialized addressing *)
              let writer, reader = derive_footprint ~workers ~n pk in
              if writer <> wit.Par_exec.writer then
                badf
                  "boundary %d: write-set witness disagrees with the \
                   materialized addressing"
                  b;
              if reader <> wit.Par_exec.reader then
                badf
                  "boundary %d: read-set witness disagrees with the \
                   materialized addressing"
                  b;
              (* conditions A and B (DESIGN.md §5a) on the re-derived
                 footprints.  Sampling pass b+1's iterations is one-sided:
                 it can only miss a violation, never reject a valid
                 elision. *)
              let aliasing = b > 0 && b + 1 < np - 1 in
              let addrs_k1 = Plan.iter_addresses pk1 in
              for w = 0 to workers - 1 do
                List.iter
                  (fun (lo, hi) ->
                    iter_points_range md ~lo ~hi (fun i ->
                        let g, s = addrs_k1 i in
                        for l = 0 to pk1.Plan.radix - 1 do
                          let gp = g l in
                          if gp < 0 || gp >= n || writer.(gp) <> w then
                            badf
                              "boundary %d: worker %d reads position %d not \
                               written by itself (condition A)"
                              b w gp;
                          if aliasing then begin
                            let sp = s l in
                            let rd =
                              if sp < 0 || sp >= n then -2 else reader.(sp)
                            in
                            if rd <> -1 && rd <> w then
                              badf
                                "boundary %d: worker %d overwrites position \
                                 %d another worker still reads (condition B)"
                                b w sp
                          end
                        done))
                  (Par_exec.worker_range ~align:(Par_exec.pass_align pk1)
                     Par_exec.Block ~count:pk1.Plan.count ~workers w)
              done
            end)
          mask
      end)

let check_elision ?mode:(md = !mode) ~workers (plan : Plan.t) =
  check_elision_claims ~mode:md ~workers plan
    (Par_exec.elision_witness ~workers plan)

(* ---------------------------------------------------------------- *)
(* ν-blocked split-schedule coverage. *)

let check_split_coverage ?mode:(md = !mode) ~workers (plan : Plan.t) =
  guard (fun () ->
      if plan.Plan.layout = Plan.Split then
        Array.iteri
          (fun k (p : Plan.pass) ->
            match p.Plan.split with
            | None ->
                badf "pass %d of a split-layout plan has no planar kernel" k
            | Some se -> (
                if se.Plan.im <> plan.Plan.n then
                  badf "pass %d: plane offset %d, expected n = %d" k
                    se.Plan.im plan.Plan.n;
                let nu = se.Plan.vk.Vcodelet.lanes in
                if nu > 1 then
                  match p.Plan.addr with
                  | Plan.Indexed _ ->
                      badf "pass %d: ν-blocked kernel over indexed addressing"
                        k
                  | Plan.Strided { exts; suffix; gstrs; sstrs; _ } ->
                      let kk = Array.length exts in
                      if kk = 0 || exts.(kk - 1) mod nu <> 0 then
                        badf
                          "pass %d: innermost extent %d not divisible by ν = \
                           %d"
                          k
                          (if kk = 0 then 0 else exts.(kk - 1))
                          nu;
                      let ki = kk - 1 in
                      let gv = gstrs.(ki) and sv = sstrs.(ki) in
                      let addrs = Plan.iter_addresses p in
                      let blocks = ref 0 in
                      (* replay of [Plan.run_split]'s odometer stepping
                         over one [lo, hi) range *)
                      let replay seen ~lo ~hi =
                        let dig = Array.make (max 1 kk) 0 in
                        for j = 0 to kk - 1 do
                          dig.(j) <- lo / suffix.(j + 1) mod exts.(j)
                        done;
                        let i = ref lo in
                        while !i < hi do
                          let step =
                            if dig.(ki) mod nu = 0 && !i + nu <= hi then begin
                              if dig.(ki) + nu > exts.(ki) then
                                badf
                                  "pass %d: ν-block at iteration %d straddles \
                                   a digit carry"
                                  k !i;
                              (* block addresses must advance linearly by
                                 the innermost stride — what [blk] assumes *)
                              if
                                md = Exhaustive || !blocks land 63 = 0
                              then begin
                                let g0, s0 = addrs !i in
                                for v = 1 to nu - 1 do
                                  let g, s = addrs (!i + v) in
                                  for l = 0 to p.Plan.radix - 1 do
                                    if g l <> g0 l + (v * gv) then
                                      badf
                                        "pass %d: block gather at iteration \
                                         %d lane %d is not linear in the \
                                         innermost stride"
                                        k !i v;
                                    if s l <> s0 l + (v * sv) then
                                      badf
                                        "pass %d: block scatter at iteration \
                                         %d lane %d is not linear in the \
                                         innermost stride"
                                        k !i v
                                  done
                                done
                              end;
                              incr blocks;
                              for v = 0 to nu - 1 do
                                seen.(!i + v) <- seen.(!i + v) + 1
                              done;
                              nu
                            end
                            else begin
                              seen.(!i) <- seen.(!i) + 1;
                              1
                            end
                          in
                          i := !i + step;
                          dig.(ki) <- dig.(ki) + step;
                          let j = ref ki in
                          while dig.(!j) = exts.(!j) && !j > 0 do
                            dig.(!j) <- 0;
                            decr j;
                            dig.(!j) <- dig.(!j) + 1
                          done
                        done
                      in
                      let cover label range_sets =
                        List.iter
                          (fun ranges ->
                            let seen = Array.make p.Plan.count 0 in
                            List.iter
                              (fun (lo, hi) -> replay seen ~lo ~hi)
                              ranges;
                            Array.iteri
                              (fun i c ->
                                if c <> 1 then
                                  badf
                                    "pass %d: %s schedule executes iteration \
                                     %d %d times"
                                    k label i c)
                              seen)
                          range_sets
                      in
                      (* the sequential executor's range, and the union of
                         every worker's ranges when the pass is parallel *)
                      cover "sequential" [ [ (0, p.Plan.count) ] ];
                      if p.Plan.par <> None && workers > 1 then
                        cover "worker"
                          [
                            List.concat
                              (List.init workers (fun w ->
                                   Par_exec.worker_range
                                     ~align:(Par_exec.pass_align p)
                                     Par_exec.Block ~count:p.Plan.count
                                     ~workers w));
                          ]))
          plan.Plan.passes)

(* ---------------------------------------------------------------- *)
(* Tiled data-movement coverage (the 2D transpose pass).  A radix-r copy
   pass (zero-flop kernel, no load-scale) claims to relocate all n
   points: the kernel must behave as the radix-r identity, and over the
   full iteration walk the materialized gather must read every source
   position exactly once and the scatter write every destination
   position exactly once — the tile odometer has no seams, overlaps or
   double-writes.  Partition exactness (checked separately) already
   proves the union of the worker ranges is that same walk, so the
   per-worker schedules inherit the coverage. *)

let copy_probe (k : Codelet.t) =
  let r = k.Codelet.radix in
  let cs = Codelet.make_scratch () in
  let src = Array.init (2 * r) (fun i -> float_of_int (i + 3) +. 0.25) in
  let dst = Array.make (2 * r) 0.0 in
  k.Codelet.strided_u cs src 0 dst 0;
  let ok = ref true in
  for i = 0 to (2 * r) - 1 do
    if dst.(i) <> src.(i) then ok := false
  done;
  !ok

let check_tile_coverage ?mode:(md = !mode) (plan : Plan.t) =
  guard (fun () ->
      ignore md;
      let n = plan.Plan.n in
      Array.iteri
        (fun k (p : Plan.pass) ->
          if p.Plan.radix > 1 && p.Plan.kernel.Codelet.flops = 0 then begin
            if p.Plan.tw <> None then
              badf "pass %d: zero-flop copy pass carries a load-scale table" k;
            if not (copy_probe p.Plan.kernel) then
              badf "pass %d: kernel %S is not the radix-%d identity copy" k
                p.Plan.kernel.Codelet.name p.Plan.radix;
            if p.Plan.count * p.Plan.radix <> n then
              badf "pass %d: copy pass moves %d of %d points" k
                (p.Plan.count * p.Plan.radix) n;
            let read = Array.make n 0 and written = Array.make n 0 in
            Plan.footprint p ~lo:0 ~hi:p.Plan.count (fun i gp sp ->
                if gp < 0 || gp >= n then
                  badf "pass %d: tile gather out of range at iteration %d" k i;
                if sp < 0 || sp >= n then
                  badf "pass %d: tile scatter out of range at iteration %d" k i;
                read.(gp) <- read.(gp) + 1;
                written.(sp) <- written.(sp) + 1);
            for q = 0 to n - 1 do
              if read.(q) <> 1 then
                badf "pass %d: tile walk reads position %d %d times" k q
                  read.(q);
              if written.(q) <> 1 then
                badf "pass %d: tile walk writes position %d %d times" k q
                  written.(q)
            done
          end)
        plan.Plan.passes)

(* ---------------------------------------------------------------- *)
(* Short-vector lowering. *)

let vec_check_limit = 1 lsl 12
let vec_check_limit_paranoid = 1 lsl 14

let check_vectorization ?mode:(md = !mode) (c : vec_cert) =
  guard (fun () ->
      let dim = Spiral_spl.Formula.dim c.vc_scalar in
      if Spiral_spl.Formula.dim c.vc_vector <> dim then
        badf "vectorized formula changed dimension: %d -> %d" dim
          (Spiral_spl.Formula.dim c.vc_vector);
      if c.vc_nu < 2 then badf "vectorization certificate claims ν = %d" c.vc_nu;
      let limit =
        if md = Exhaustive then vec_check_limit_paranoid else vec_check_limit
      in
      if dim > limit then Counters.incr "validate.vec_skipped"
      else begin
        (* structural semantics of both formulas on a deterministic
           pseudo-random vector *)
        let x = Cvec.random ~seed:(0x5eed + dim) dim in
        let ys = Spiral_spl.Semantics.apply c.vc_scalar x in
        let yv = Spiral_spl.Semantics.apply c.vc_vector x in
        let err = Cvec.max_abs_diff ys yv in
        let tol = 1e-9 *. log (float_of_int (max 2 dim)) in
        if err > tol then
          badf "lowered formula diverges from scalar semantics (max err %.3e)"
            err
      end)

(* ---------------------------------------------------------------- *)
(* Plan-level orchestration. *)

let counter_plan = "validate.plan"
let counter_check = "validate.check"
let counter_cached = "validate.cached"
let counter_stale = "validate.stale_cert"
let counter_failed = "validate.failed"
let fault_site = "validate.check"

(* One obligation: short-circuits on an earlier failure, passes the
   fault-injection site (so tests can forge a bad certificate at any
   obligation) and counts the discharge. *)
let discharge acc name f =
  match acc with
  | Error _ -> acc
  | Ok () -> (
      match
        Fault.check fault_site;
        f ()
      with
      | Ok () ->
          Counters.incr counter_check;
          Ok ()
      | Error m -> Error (name ^ ": " ^ m)
      | exception Fault.Injected _ ->
          Error (name ^ ": injected certificate fault"))

let validate_plan_result ?mode:(md = !mode) ?(workers = 1) ?vec
    (plan : Plan.t) =
  if md = Off then Ok ()
  else begin
    let dg = Plan.digest plan in
    let report =
      match plan.Plan.validation with
      | Some r when r.Plan.vdigest = dg -> Some r
      | Some _ ->
          (* the plan changed under its certificate: discard, revalidate *)
          Counters.incr counter_stale;
          plan.Plan.validation <- None;
          None
      | None -> None
    in
    let need_base =
      match report with Some r -> not r.Plan.vbase | None -> true
    in
    let need_workers =
      match report with
      | Some r -> not (List.mem workers r.Plan.vworkers)
      | None -> true
    in
    if (not need_base) && not need_workers then begin
      Counters.incr counter_cached;
      Ok ()
    end
    else begin
      Counters.incr counter_plan;
      Counters.incr
        (match md with
        | Exhaustive -> "validate.exhaustive"
        | _ -> "validate.sampled");
      let r = Ok () in
      let r =
        if not need_base then r
        else
          let r =
            discharge r "fusion" (fun () ->
                match plan.Plan.fusion_cert with
                | None -> Ok ()
                | Some c -> check_fusion ~mode:md c)
          in
          let r =
            discharge r "tile-coverage" (fun () ->
                check_tile_coverage ~mode:md plan)
          in
          match vec with
          | None -> r
          | Some c ->
              discharge r "vec-lowering" (fun () ->
                  check_vectorization ~mode:md c)
      in
      let r =
        if not need_workers then r
        else
          let r =
            discharge r "partition" (fun () ->
                check_partition ~mode:md ~workers plan)
          in
          let r =
            discharge r "barrier-elision" (fun () ->
                check_elision ~mode:md ~workers plan)
          in
          discharge r "split-coverage" (fun () ->
              check_split_coverage ~mode:md ~workers plan)
      in
      match r with
      | Ok () ->
          (match plan.Plan.validation with
          | Some rep when rep.Plan.vdigest = dg ->
              if need_base then rep.Plan.vbase <- true;
              if not (List.mem workers rep.Plan.vworkers) then
                rep.Plan.vworkers <- workers :: rep.Plan.vworkers
          | _ ->
              plan.Plan.validation <-
                Some { Plan.vdigest = dg; vbase = true; vworkers = [ workers ] });
          Ok ()
      | Error m ->
          Counters.incr counter_failed;
          Error m
    end
  end

let validate_plan ?mode ?workers ?vec plan =
  match validate_plan_result ?mode ?workers ?vec plan with
  | Ok () -> ()
  | Error m -> raise (Validation_failed m)
