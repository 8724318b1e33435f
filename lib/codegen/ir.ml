open Spiral_spl

exception Unsupported of string

type pass = {
  count : int;
  radix : int;
  par : int option;
  mu : int option;
  vec : int option;
  kernel : Codelet.t;
  gather : int -> int -> int;
  scatter : int -> int -> int;
  scale : (int -> int -> Complex.t) option;
  hint : int list;
}

type t = { n : int; passes : pass list }

(* Embedding context: where a subformula of dimension [dim] sits inside the
   full problem.  [in_of it k] maps (embedding iteration, local index) to a
   physical complex index of the buffer the subformula reads; [out_of]
   likewise for writes.  [scale] is a pending diagonal merged into the
   first load. *)
type embed = {
  count : int;
  dim : int;
  in_of : int -> int -> int;
  out_of : int -> int -> int;
  scale : (int -> int -> Complex.t) option;
  par : int option;
  mu : int option;  (* cache-line granularity from smp(p,µ) / CacheTensor *)
  vec : int option;  (* ν-way vector block width from VTensor/VShuffle *)
  hint : int list;  (* loop extents, outermost first; product = count *)
}

let compose_scale outer inner =
  match (outer, inner) with
  | None, s | s, None -> s
  | Some f, Some g -> Some (fun it k -> Complex.mul (f it k) (g it k))

(* Merge a run of data factors (in execution order) into a local
   permutation [loc] and a local diagonal [scale]. *)
let merge_decors ~roots decors =
  (* Invariant: after processing a prefix (in execution order), reading
     logical index [k] fetches physical [loc k] scaled by [scale k]. *)
  List.fold_left
    (fun (loc, scale) f ->
      match Shape.perm_sigma f with
      | Some sigma ->
          ( (fun k -> loc (sigma k)),
            Option.map (fun s k -> s (sigma k)) scale )
      | None -> (
          match Shape.diag_entry ~roots f with
          | Some d ->
              let scale' =
                match scale with
                | None -> d
                | Some s -> fun k -> Complex.mul (d k) (s k)
              in
              (loc, Some scale')
          | None -> assert false))
    ((fun k -> k), None)
    decors

let merge_mu a b =
  match (a, b) with
  | None, m | m, None -> m
  | Some x, Some y -> Some (max x y)

(* Largest smp(p, µ)/CacheTensor tag anywhere inside a formula.  Data
   factors never become passes of their own under loop merging, so the
   µ tag of a [CacheTensor]-wrapped permutation must be attributed to
   the computation pass that absorbs it. *)
let rec formula_mu (f : Formula.t) =
  match f with
  | CacheTensor (a, mu) -> merge_mu (Some mu) (formula_mu a)
  | Smp (_, mu, a) -> merge_mu (Some mu) (formula_mu a)
  | Tensor (a, b) -> merge_mu (formula_mu a) (formula_mu b)
  | ParTensor (_, a) | Vec (_, a) | VTensor (a, _) -> formula_mu a
  | Compose fs | DirectSum fs | ParDirectSum fs ->
      List.fold_left (fun acc g -> merge_mu acc (formula_mu g)) None fs
  | DFT _ | WHT _ | I _ | Perm _ | Diag _ | VShuffle _ -> None

let invert_local dim sigma =
  let inv = Array.make dim 0 in
  for k = 0 to dim - 1 do
    inv.(sigma k) <- k
  done;
  fun s -> inv.(s)

let rec compile ~explicit ~roots ~emit embed (f : Formula.t) =
  match f with
  | DFT r ->
      if r > Codelet.max_radix then
        raise
          (Unsupported
             (Printf.sprintf "DFT_%d leaf exceeds max codelet radix %d" r
                Codelet.max_radix));
      emit_leaf ~emit embed (Codelet.dft r)
  | WHT r ->
      if r > Codelet.max_radix then
        raise (Unsupported (Printf.sprintf "WHT_%d leaf too large" r));
      emit_leaf ~emit embed (Codelet.wht r)
  | I _ -> emit_data ~emit embed (fun k -> k) None
  | Perm p -> emit_data ~emit embed (Perm.gather p) None
  | Diag d ->
      emit_data ~emit embed (fun k -> k) (Some (Diag.memo_entry roots d))
  | Tensor (I m, a) ->
      let da = Formula.dim a in
      compile ~explicit ~roots ~emit
        {
          count = embed.count * m;
          dim = da;
          in_of =
            (fun it k -> embed.in_of (it / m) ((it mod m * da) + k));
          out_of =
            (fun it k -> embed.out_of (it / m) ((it mod m * da) + k));
          scale =
            Option.map
              (fun s it k -> s (it / m) ((it mod m * da) + k))
              embed.scale;
          par = embed.par;
          mu = embed.mu;
          vec = embed.vec;
          hint = embed.hint @ [ m ];
        }
        a
  | Tensor (a, I q) ->
      compile ~explicit ~roots ~emit
        {
          count = embed.count * q;
          dim = Formula.dim a;
          in_of = (fun it k -> embed.in_of (it / q) ((k * q) + (it mod q)));
          out_of = (fun it k -> embed.out_of (it / q) ((k * q) + (it mod q)));
          scale =
            Option.map
              (fun s it k -> s (it / q) ((k * q) + (it mod q)))
              embed.scale;
          par = embed.par;
          mu = embed.mu;
          vec = embed.vec;
          hint = embed.hint @ [ q ];
        }
        a
  | Tensor (a, b) ->
      (* A ⊗ B = (A ⊗ I)(I ⊗ B): a two-pass chain. *)
      let na = Formula.dim a and nb = Formula.dim b in
      compile_chain ~explicit ~roots ~emit embed
        [ Formula.Tensor (a, I nb); Formula.Tensor (I na, b) ]
  | ParTensor (p, a) ->
      let da = Formula.dim a in
      compile ~explicit ~roots ~emit
        {
          count = embed.count * p;
          dim = da;
          in_of = (fun it k -> embed.in_of (it / p) ((it mod p * da) + k));
          out_of = (fun it k -> embed.out_of (it / p) ((it mod p * da) + k));
          scale =
            Option.map
              (fun s it k -> s (it / p) ((it mod p * da) + k))
              embed.scale;
          par = (match embed.par with None -> Some p | some -> some);
          mu = embed.mu;
          vec = embed.vec;
          hint = embed.hint @ [ p ];
        }
        a
  | CacheTensor (a, mu) ->
      (* Outermost cache-line tag wins, like [par]. *)
      let embed =
        { embed with mu = (match embed.mu with None -> Some mu | s -> s) }
      in
      compile ~explicit ~roots ~emit embed (Tensor (a, I mu))
  | Compose fs -> compile_chain ~explicit ~roots ~emit embed fs
  | (DirectSum _ | ParDirectSum _) as f -> (
      match Shape.diag_entry ~roots f with
      | Some d -> emit_data ~emit embed (fun k -> k) (Some d)
      | None ->
          raise
            (Unsupported
               "general (non-diagonal) direct sums are outside the paper's \
                rule space"))
  | Smp (_, mu, a) ->
      let embed =
        { embed with mu = (match embed.mu with None -> Some mu | s -> s) }
      in
      compile ~explicit ~roots ~emit embed a
  | Vec (_, a) -> compile ~explicit ~roots ~emit embed a
  | VTensor (a, nu) ->
      (* the ν-way block structure survives loop merging as a tag on the
         emitted pass; backends re-verify lane legality structurally *)
      let embed =
        { embed with vec = (match embed.vec with None -> Some nu | s -> s) }
      in
      compile ~explicit ~roots ~emit embed (Tensor (a, I nu))
  | VShuffle (k, nu) ->
      let embed =
        { embed with vec = (match embed.vec with None -> Some nu | s -> s) }
      in
      compile ~explicit ~roots ~emit embed
        (Tensor (I k, Perm (Perm.L (nu * nu, nu))))

and emit_leaf ~emit embed kernel =
  emit
    {
      count = embed.count;
      radix = kernel.Codelet.radix;
      par = embed.par;
      mu = embed.mu;
      vec = embed.vec;
      kernel;
      gather = embed.in_of;
      scatter = embed.out_of;
      scale = embed.scale;
      hint = embed.hint;
    }

(* An explicit data pass (radix 1): output element (it, k) is
   [scale_local k · embed.scale (it, σ k) · x (in_of (it, σ k))]. *)
and emit_data ~emit embed sigma scale_local =
  let d = embed.dim in
  let scale =
    match (scale_local, embed.scale) with
    | None, None -> None
    | _ ->
        Some
          (fun it (_l : int) ->
            let e = it / d and k = it mod d in
            let s1 =
              match scale_local with Some s -> s k | None -> Complex.one
            in
            match embed.scale with
            | Some s -> Complex.mul s1 (s e (sigma k))
            | None -> s1)
  in
  emit
    {
      count = embed.count * d;
      radix = 1;
      par = embed.par;
      mu = embed.mu;
      vec = embed.vec;
      kernel = Codelet.dft 1;
      gather = (fun it _l -> embed.in_of (it / d) (sigma (it mod d)));
      scatter = (fun it _l -> embed.out_of (it / d) (it mod d));
      scale;
      hint = embed.hint @ [ d ];
    }

and compile_chain ~explicit ~roots ~emit embed factors =
  let d = embed.dim in
  (* Partition, in execution order (reverse product order), into compute
     segments each carrying the data factors executed just before it. *)
  let exec_order = List.rev factors in
  let is_decor f = (not explicit) && Shape.is_data f in
  let segs, leading =
    let rec go pending segs = function
      | [] -> (List.rev segs, List.rev pending)
      | f :: rest ->
          if is_decor f then go (f :: pending) segs rest
          else go [] ((f, List.rev pending) :: segs) rest
    in
    go [] [] exec_order
  in
  let decors_mu fs =
    List.fold_left (fun acc g -> merge_mu acc (formula_mu g)) None fs
  in
  match segs with
  | [] ->
      (* Pure data chain: one merged explicit pass. *)
      let loc, scale = merge_decors ~roots leading in
      emit_data ~emit
        { embed with mu = merge_mu embed.mu (decors_mu leading) }
        loc scale
  | _ ->
      let nsegs = List.length segs in
      let trail_loc, trail_scale = merge_decors ~roots leading in
      let trail_is_id = leading = [] in
      let inv_trail =
        if trail_is_id then fun k -> k else invert_local d trail_loc
      in
      List.iteri
        (fun idx (comp, decors) ->
          let loc, lscale = merge_decors ~roots decors in
          let first = idx = 0 and last = idx = nsegs - 1 in
          let in_of it k =
            let k' = loc k in
            if first then embed.in_of it k' else (it * d) + k'
          in
          let scale =
            let local = Option.map (fun s (_ : int) k -> s k) lscale in
            if first then
              (* the embedding's pending scale lives in the chain input
                 space: apply it at the fetched position. *)
              compose_scale local
                (Option.map (fun s it k -> s it (loc k)) embed.scale)
            else local
          in
          let out_of it k =
            if last then
              if trail_is_id then embed.out_of it k
              else embed.out_of it (inv_trail k)
            else (it * d) + k
          in
          let scale =
            if last then (
              (match trail_scale with
              | Some _ ->
                  raise
                    (Unsupported
                       "trailing diagonal (store-scale) not supported; \
                        diagonals must have a computation to their left")
              | None -> ());
              scale)
            else scale
          in
          let mu =
            (* a µ-tagged data factor executes as part of the pass that
               absorbs it: its decors' tags for every segment, plus the
               chain's trailing factors for the last one *)
            merge_mu
              (merge_mu embed.mu (decors_mu decors))
              (if last then decors_mu leading else None)
          in
          compile ~explicit ~roots ~emit
            {
              count = embed.count;
              dim = d;
              in_of;
              out_of;
              scale;
              par = embed.par;
              mu;
              vec = embed.vec;
              hint = embed.hint;
            }
            comp)
        segs

let of_formula ?(explicit_data = false) f =
  let n = Formula.dim f in
  let acc = ref [] in
  let emit p = acc := p :: !acc in
  let root =
    {
      count = 1;
      dim = n;
      in_of = (fun _ k -> k);
      out_of = (fun _ k -> k);
      scale = None;
      par = None;
      mu = None;
      vec = None;
      hint = [];
    }
  in
  (* one roots-of-unity memo per compilation: every twiddle of [f] is
     evaluated through it, by materialization, fusion and validation *)
  compile ~explicit:explicit_data ~roots:(Diag.roots ()) ~emit root f;
  { n; passes = List.rev !acc }

let pass_flops (p : pass) =
  let tw = match p.scale with Some _ -> 6 * p.radix | None -> 0 in
  p.count * (p.kernel.Codelet.flops + tw)

let total_flops t = List.fold_left (fun acc p -> acc + pass_flops p) 0 t.passes

let validate t =
  List.iter
    (fun (p : pass) ->
      let written = Array.make t.n false in
      for i = 0 to p.count - 1 do
        for l = 0 to p.radix - 1 do
          let g = p.gather i l and s = p.scatter i l in
          if g < 0 || g >= t.n then
            failwith
              (Printf.sprintf "Ir.validate: gather out of range (%d)" g);
          if s < 0 || s >= t.n then
            failwith
              (Printf.sprintf "Ir.validate: scatter out of range (%d)" s);
          if written.(s) then
            failwith
              (Printf.sprintf "Ir.validate: double write at %d" s);
          written.(s) <- true
        done
      done;
      if p.count * p.radix <> t.n then
        failwith "Ir.validate: pass does not cover the vector")
    t.passes

(* Tiled transpose pass for 2D plans: relocate a row-major [rows]x[cols]
   matrix into its column-major (transposed) image, walking [tile]x[tile]
   cache blocks so each block's loads and stores stay within a few cache
   lines regardless of the matrix extent.  One iteration copies [tile]
   consecutive elements of one row of a block (gather stride 1, scatter
   stride [rows]) — affine in the element index, so materialization
   recovers strided addressing and the ν/µ machinery applies unchanged.
   Iteration order: column blocks outermost, then row blocks, then rows
   within the block (hint [cols/tile; rows/tile; tile]). *)
let transpose_pass ~rows ~cols ~tile ?par ?mu () =
  if tile < 1 then invalid_arg "Ir.transpose_pass: tile >= 1";
  if rows mod tile <> 0 || cols mod tile <> 0 then
    invalid_arg "Ir.transpose_pass: tile must divide both extents";
  let n = rows * cols in
  let rblk = rows / tile in
  let decomp it =
    let cb = it / (rblk * tile) in
    let rem = it mod (rblk * tile) in
    (cb, rem / tile, rem mod tile)
  in
  {
    count = n / tile;
    radix = tile;
    par;
    mu;
    vec = None;
    kernel = Codelet.copy tile;
    gather =
      (fun it l ->
        let cb, rb, ri = decomp it in
        (((rb * tile) + ri) * cols) + (cb * tile) + l);
    scatter =
      (fun it l ->
        let cb, rb, ri = decomp it in
        (((cb * tile) + l) * rows) + (rb * tile) + ri);
    scale = None;
    hint = [ cols / tile; rblk; tile ];
  }
