(* Cold planning: the allocation-free footprint walk agrees point for
   point with the closure view it replaces, the barrier-elision analysis
   built on it reproduces the closure-based analysis's masks and
   witnesses, memoized twiddles are bit-identical to directly computed
   ones and never shared between compilations, and a cold plan stays
   within its allocation budget. *)

open Spiral_util
open Spiral_spl
open Spiral_rewrite
open Spiral_codegen
open Spiral_smp

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let derived_plan ?layout ~threads n =
  let f, _ =
    Spiral_fft.Planner.derive_formula ~threads ~mu:4
      ~tree:(Ruletree.mixed_radix n) n
  in
  Plan.of_formula ?layout f

(* ------------------------------------------------------------------ *)
(* Plan.footprint against Plan.iter_addresses                          *)

let points_of_closures (p : Plan.pass) ~lo ~hi =
  let addrs = Plan.iter_addresses p in
  let acc = ref [] in
  for i = lo to hi - 1 do
    let g, s = addrs i in
    for l = 0 to p.Plan.radix - 1 do
      acc := (i, g l, s l) :: !acc
    done
  done;
  List.rev !acc

let points_of_walk (p : Plan.pass) ~lo ~hi =
  let acc = ref [] in
  Plan.footprint p ~lo ~hi (fun i g s -> acc := (i, g, s) :: !acc);
  List.rev !acc

(* the full range, short ranges around carries of every loop level, and
   random [lo, hi) that mostly start mid-carry *)
let same_footprint name ~st (p : Plan.pass) =
  let count = p.Plan.count in
  let agree lo hi =
    if points_of_walk p ~lo ~hi <> points_of_closures p ~lo ~hi then
      Alcotest.failf "%s: footprint [%d, %d) differs from iter_addresses"
        name lo hi
  in
  let near lo len = agree lo (min count (lo + min 3000 len)) in
  agree 0 count;
  (match p.Plan.addr with
  | Plan.Strided { suffix; _ } ->
      (* suffix.(j) is the carry period of loop level j - 1 *)
      for j = 1 to Array.length suffix - 2 do
        for t = 1 to 3 do
          let b = t * suffix.(j) in
          if b < count then begin
            near (b - 1) 2;
            near b (2 * suffix.(j));
            near (b - 1) 3000
          end
        done
      done
  | Plan.Indexed _ -> ());
  for _ = 1 to 20 do
    near (Random.State.int st count) (1 + Random.State.int st 3000)
  done

let synthetic_strided ~st levels =
  let exts = Array.init levels (fun _ -> 2 + Random.State.int st 4) in
  let k = Array.length exts in
  let suffix = Array.make (k + 1) 1 in
  for j = k - 1 downto 0 do
    suffix.(j) <- suffix.(j + 1) * exts.(j)
  done;
  let stride () = Random.State.int st 101 - 50 in
  let radix = 1 + Random.State.int st 4 in
  {
    Plan.count = suffix.(0);
    radix;
    par = None;
    mu = None;
    vec = None;
    kernel = Codelet.dft radix;
    addr =
      Plan.Strided
        {
          exts;
          suffix;
          gstrs = Array.init k (fun _ -> stride ());
          sstrs = Array.init k (fun _ -> stride ());
          g0 = Random.State.int st 1000;
          s0 = Random.State.int st 1000;
          gl = stride ();
          sl = stride ();
        };
    tw = None;
    flops = 0;
    split = None;
  }

(* a gather through an explicit shuffle is not affine: the compute pass
   that absorbs it materializes index tables *)
let indexed_plan () =
  let st = Random.State.make [| 17 |] in
  let sigma = Array.init 64 Fun.id in
  for i = 63 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = sigma.(i) in
    sigma.(i) <- sigma.(j);
    sigma.(j) <- t
  done;
  Plan.of_formula
    (Formula.Compose
       [
         Formula.Tensor (Formula.I 16, Formula.DFT 4);
         Formula.Perm (Perm.Explicit sigma);
       ])

let transpose_plan () =
  Plan.of_ir
    { Ir.n = 64 * 32; passes = [ Ir.transpose_pass ~rows:64 ~cols:32 ~tile:8 () ] }

let test_footprint_equivalence () =
  let st = Random.State.make [| 42 |] in
  for levels = 1 to 6 do
    for trial = 1 to 4 do
      same_footprint
        (Printf.sprintf "synthetic %d-level #%d" levels trial)
        ~st (synthetic_strided ~st levels)
    done
  done;
  let depths = ref [] in
  List.iter
    (fun (name, (plan : Plan.t)) ->
      Array.iteri
        (fun k (p : Plan.pass) ->
          (match p.Plan.addr with
          | Plan.Strided { exts; _ } -> depths := Array.length exts :: !depths
          | Plan.Indexed _ -> ());
          same_footprint (Printf.sprintf "%s pass %d" name k) ~st p)
        plan.Plan.passes)
    [
      ("dft[1024] p=2", derived_plan ~threads:2 1024);
      ("dft[65536] p=2", derived_plan ~threads:2 65536);
      ("dft[4096] p=4", derived_plan ~threads:4 4096);
      ("split dft[256] p=2", derived_plan ~layout:Plan.Split ~threads:2 256);
      ("indexed", indexed_plan ());
      ("transpose 64x32", transpose_plan ());
    ];
  check cb "real plans reach six loop levels" true (List.mem 6 !depths);
  let idx = indexed_plan () in
  check cb "the shuffled plan is indexed" true
    (Array.exists
       (fun (p : Plan.pass) ->
         match p.Plan.addr with Plan.Indexed _ -> true | _ -> false)
       idx.Plan.passes);
  let xp = (transpose_plan ()).Plan.passes.(0) in
  check cb "the transpose pass is a strided copy" true
    (match xp.Plan.addr with
    | Plan.Strided { exts; _ } -> Array.length exts = 3
    | Plan.Indexed _ -> false)

let alloc_words iters call =
  call ();
  call ();
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    call ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

let test_footprint_allocation () =
  let acc = ref 0 in
  let sink i g s = acc := !acc + i + g + s in
  let deep = (derived_plan ~threads:2 65536).Plan.passes.(0) in
  check cb "six-level pass" true
    (match deep.Plan.addr with
    | Plan.Strided { exts; _ } -> Array.length exts = 6
    | Plan.Indexed _ -> false);
  let cases =
    [
      ("six-level strided", deep);
      ("indexed", (indexed_plan ()).Plan.passes.(0));
      ("transpose", (transpose_plan ()).Plan.passes.(0));
    ]
  in
  List.iter
    (fun (name, (p : Plan.pass)) ->
      List.iter
        (fun (lo, hi) ->
          let w = alloc_words 20 (fun () -> Plan.footprint p ~lo ~hi sink) in
          if w >= 16.0 then
            Alcotest.failf "%s: footprint [%d, %d) allocates %.1f words per call"
              name lo hi w)
        [ (0, p.Plan.count); (p.Plan.count / 3, p.Plan.count / 2) ])
    cases

(* ------------------------------------------------------------------ *)
(* Barrier elision against the closure-based analysis it replaced      *)

(* The pre-footprint [Par_exec.compute_elision], verbatim but for the
   module paths: per-iteration [Plan.iter_addresses] closures over the
   µ-aligned Block partition. *)
let reference_elision ~workers (plan : Plan.t) =
  let worker_range = Par_exec.worker_range and pass_align = Par_exec.pass_align in
  let np = Array.length plan.Plan.passes in
  let nb = max 0 (np - 1) in
  let mask = Array.make nb false in
  let wits = ref [] in
  if workers = 1 then Array.fill mask 0 nb true
  else begin
    let n = plan.Plan.n in
    let writer = Array.make n (-1) in
    let reader = Array.make n (-1) in
    for b = 0 to nb - 1 do
      let pk = plan.Plan.passes.(b) and pk1 = plan.Plan.passes.(b + 1) in
      if pk.Plan.par <> None && pk1.Plan.par <> None then begin
        Array.fill writer 0 n (-1);
        Array.fill reader 0 n (-1);
        let addrs_k = Plan.iter_addresses pk in
        let addrs_k1 = Plan.iter_addresses pk1 in
        for w = 0 to workers - 1 do
          List.iter
            (fun (lo, hi) ->
              for i = lo to hi - 1 do
                let g, s = addrs_k i in
                for l = 0 to pk.Plan.radix - 1 do
                  writer.(s l) <- w;
                  let gp = g l in
                  if reader.(gp) = -1 then reader.(gp) <- w
                  else if reader.(gp) <> w then reader.(gp) <- -2
                done
              done)
            (worker_range ~align:(pass_align pk) Par_exec.Block
               ~count:pk.Plan.count ~workers w)
        done;
        let aliasing = b > 0 && b + 1 < np - 1 in
        let ok = ref true in
        (try
           for w = 0 to workers - 1 do
             List.iter
               (fun (lo, hi) ->
                 for i = lo to hi - 1 do
                   let g, s = addrs_k1 i in
                   for l = 0 to pk1.Plan.radix - 1 do
                     if writer.(g l) <> w then begin
                       ok := false;
                       raise Exit
                     end;
                     if aliasing then begin
                       let rd = reader.(s l) in
                       if rd <> -1 && rd <> w then begin
                         ok := false;
                         raise Exit
                       end
                     end
                   done
                 done)
               (worker_range ~align:(pass_align pk1) Par_exec.Block
                  ~count:pk1.Plan.count ~workers w)
           done
         with Exit -> ());
        mask.(b) <- !ok;
        if !ok then
          wits :=
            {
              Par_exec.boundary = b;
              writer = Array.copy writer;
              reader = Array.copy reader;
            }
            :: !wits
      end
    done;
    let pass_writer = Array.make np None in
    let writer_of k =
      match pass_writer.(k) with
      | Some a -> a
      | None ->
          let p = plan.Plan.passes.(k) in
          let a = Array.make n (-1) in
          let addrs = Plan.iter_addresses p in
          for w = 0 to workers - 1 do
            List.iter
              (fun (lo, hi) ->
                for i = lo to hi - 1 do
                  let _, s = addrs i in
                  for l = 0 to p.Plan.radix - 1 do
                    a.(s l) <- w
                  done
                done)
              (worker_range ~align:(pass_align p) Par_exec.Block
                 ~count:p.Plan.count ~workers w)
          done;
          pass_writer.(k) <- Some a;
          a
    in
    let writers_agree j k =
      let wa = writer_of j and wb = writer_of k in
      let same = ref true in
      for q = 0 to n - 1 do
        if wa.(q) >= 0 && wb.(q) >= 0 && wa.(q) <> wb.(q) then same := false
      done;
      !same
    in
    for b = 1 to nb - 1 do
      if mask.(b) && mask.(b - 1) then begin
        let chain3 = b >= 2 && mask.(b - 2) in
        let ok =
          (not chain3) && (b + 1 = np - 1 || writers_agree (b + 1) (b - 1))
        in
        if not ok then mask.(b) <- false
      end
    done
  end;
  ( mask,
    List.rev
      (List.filter (fun (w : Par_exec.boundary_witness) -> mask.(w.boundary)) !wits) )

(* the tiled 2-D schedule's shape: row transforms, the µ-aligned tile
   transpose, column transforms whose last scatter un-transposes *)
let tiled_2d_plan ~threads ~rows ~cols =
  let n = rows * cols in
  let dim k = Ruletree.expand (Ruletree.mixed_radix k) in
  let stage m k =
    Formula.Smp
      ( threads,
        4,
        Formula.ParTensor
          (threads, Formula.Tensor (Formula.I (m / threads), dim k)) )
  in
  let ir_row = Ir.of_formula (stage rows cols) in
  let ir_col =
    Ir.of_formula
      (Formula.compose [ Formula.Perm (Perm.L (n, rows)); stage cols rows ])
  in
  let xpose = Ir.transpose_pass ~rows ~cols ~tile:16 ~par:threads ~mu:4 () in
  Plan.of_ir
    { Ir.n; passes = ir_row.Ir.passes @ (xpose :: ir_col.Ir.passes) }

let strided_2d_plan ~threads ~rows ~cols =
  Spiral_fft.Dft2d.with_plan ~threads ~variant:Spiral_fft.Dft2d.Strided ~rows
    ~cols (fun t -> Plan.of_formula (Spiral_fft.Dft2d.formula t))

let test_elision_matches_reference () =
  let elided = ref 0 in
  let agree name workers plan =
    let mask, wits = Par_exec.elision_witness ~workers plan in
    let rmask, rwits = reference_elision ~workers plan in
    if mask <> rmask then Alcotest.failf "%s p=%d: elision masks differ" name workers;
    if wits <> rwits then
      Alcotest.failf "%s p=%d: elision witnesses differ" name workers;
    elided := !elided + List.length wits
  in
  List.iter
    (fun workers ->
      for k = 6 to 14 do
        let n = 1 lsl k in
        agree (Printf.sprintf "dft[%d]" n) workers (derived_plan ~threads:workers n)
      done)
    [ 2; 4 ];
  List.iter
    (fun (rows, cols) ->
      List.iter
        (fun workers ->
          let name = Printf.sprintf "dft2d[%dx%d]" rows cols in
          agree (name ^ " strided") workers
            (strided_2d_plan ~threads:workers ~rows ~cols);
          agree (name ^ " tiled") workers
            (tiled_2d_plan ~threads:workers ~rows ~cols))
        [ 2; 4 ])
    [ (64, 64); (128, 128) ];
  check cb "the sweep elides boundaries" true (!elided > 0)

(* ------------------------------------------------------------------ *)
(* Roots-of-unity memo                                                  *)

let bits (z : Complex.t) = (Int64.bits_of_float z.re, Int64.bits_of_float z.im)

let same_entries name roots d =
  let e = Diag.memo_entry roots d in
  for i = 0 to Diag.size d - 1 do
    if bits (e i) <> bits (Diag.entry d i) then
      Alcotest.failf "%s: memoized entry %d is not bit-identical" name i
  done

(* every factorization m·n of the order, each whole and cut into
   segments, through one shared memo (so tables are filled in varying
   orders, as in a compilation) *)
let same_order roots order =
  List.iter
    (fun m ->
      let d = Diag.Twiddle (m, order / m) in
      same_entries (Printf.sprintf "D(%d,%d)" m (order / m)) roots d;
      List.iter
        (fun p ->
          if order mod p = 0 then
            List.iteri
              (fun s seg ->
                same_entries
                  (Printf.sprintf "D(%d,%d) segment %d/%d" m (order / m) s p)
                  roots seg)
              (Diag.split d p))
        [ 2; 3; 4 ])
    (Int_util.divisors order)

let rec diags (f : Formula.t) =
  match f with
  | Diag d -> [ d ]
  | Tensor (a, b) -> diags a @ diags b
  | Compose fs | DirectSum fs | ParDirectSum fs -> List.concat_map diags fs
  | ParTensor (_, a) | CacheTensor (a, _) | VTensor (a, _) | Smp (_, _, a)
  | Vec (_, a) ->
      diags a
  | DFT _ | WHT _ | I _ | Perm _ | VShuffle _ -> []

let rec order = function
  | Diag.Twiddle (m, n) -> Some (m * n)
  | Diag.Segment (d, _, _) -> order d
  | Diag.Explicit _ -> None

let test_memo_bit_identical () =
  List.iter
    (fun n -> same_order (Diag.roots ()) n)
    [ 8; 60; 1024; 2048; 3 * 1024; 4096; 65536 ];
  (* the diagonals (and their orders) of the Bluestein inner transform
     of dft[1009] and of both dft2d[128x128] schedules *)
  let inner = Spiral_fft.Bluestein.plan ~threads:2 1009 in
  let m = Spiral_fft.Bluestein.inner_size inner in
  Spiral_fft.Bluestein.destroy inner;
  let bluestein, _ =
    Spiral_fft.Planner.derive_formula ~threads:2 ~mu:4
      ~tree:(Ruletree.mixed_radix m) m
  in
  let formulas =
    bluestein
    :: List.map
         (fun variant ->
           Spiral_fft.Dft2d.with_plan ~threads:2 ~variant ~rows:128 ~cols:128
             Spiral_fft.Dft2d.formula)
         [ Spiral_fft.Dft2d.Strided; Spiral_fft.Dft2d.Tiled ]
  in
  let ds = List.concat_map diags formulas in
  check cb "the plans carry twiddles" true (ds <> []);
  let roots = Diag.roots () in
  List.iteri
    (fun k d -> same_entries (Printf.sprintf "plan diagonal %d" k) roots d)
    ds;
  List.iter (same_order (Diag.roots ()))
    (List.sort_uniq compare (List.filter_map order ds))

let test_memo_per_compilation () =
  let f, _ =
    Spiral_fft.Planner.derive_formula ~threads:2 ~mu:4
      ~tree:(Ruletree.mixed_radix 4096) 4096
  in
  let c0 = Diag.roots_built () in
  ignore (Ir.of_formula f);
  let c1 = Diag.roots_built () in
  ignore (Ir.of_formula f);
  let c2 = Diag.roots_built () in
  check cb "a compilation builds root tables" true (c1 > c0);
  check ci "the next compilation rebuilds every one of them" (c1 - c0) (c2 - c1)

(* ------------------------------------------------------------------ *)
(* Cold-plan allocation guard                                           *)

(* Minor words of one Dft.plan from an empty registry, under the default
   (sampled) validation mode whatever the process default: the guard
   measures the default planning path, and minor-word counts are
   deterministic, unlike timings.  The pool is created beforehand. *)
let cold_plan_words n =
  let module V = Spiral_validate in
  let saved = !V.mode in
  Fun.protect
    ~finally:(fun () -> V.mode := saved)
    (fun () ->
      V.mode := V.Sampled;
      Spiral_fft.Dft.destroy (Spiral_fft.Dft.plan ~threads:2 64);
      Spiral_fft.Engine.reset_registry ();
      let w0 = Gc.minor_words () in
      let d = Spiral_fft.Dft.plan ~threads:2 n in
      let w = Gc.minor_words () -. w0 in
      Spiral_fft.Dft.destroy d;
      Spiral_fft.Engine.reset_registry ();
      w)

let test_cold_plan_allocation () =
  List.iter
    (fun (n, budget) ->
      let w = cold_plan_words n in
      if w >= budget then
        Alcotest.failf "cold Dft.plan ~threads:2 %d allocated %.0f minor words \
                        (budget %.0f)"
          n w budget)
    [ (16384, 1_000_000.0); (1024, 80_000.0) ]

let suite =
  [
    Alcotest.test_case "footprint: same points as iter_addresses" `Quick
      test_footprint_equivalence;
    Alcotest.test_case "footprint: allocation-free walk" `Quick
      test_footprint_allocation;
    Alcotest.test_case "elision: matches closure-based reference" `Quick
      test_elision_matches_reference;
    Alcotest.test_case "roots memo: bit-identical twiddles" `Quick
      test_memo_bit_identical;
    Alcotest.test_case "roots memo: one per compilation" `Quick
      test_memo_per_compilation;
    Alcotest.test_case "cold plan: allocation budget" `Quick
      test_cold_plan_allocation;
  ]
