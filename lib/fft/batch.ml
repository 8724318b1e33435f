open Spiral_util
open Spiral_spl
open Spiral_rewrite

type t = { count : int; n : int; engine : Engine.t }

let derive ~count ~n ~threads ~mu =
  let top = Formula.Tensor (Formula.I count, Formula.DFT n) in
  let inner = Ruletree.expand (Ruletree.mixed_radix n) in
  if threads <= 1 then (Derive.substitute_nonterminals top [ inner ], 1)
  else
    match Parallel_rules.parallelize ~p:threads ~mu top with
    | Ok f when Props.fully_optimized ~p:threads ~mu f ->
        (Derive.substitute_nonterminals f [ inner ], threads)
    | Ok _ | Error _ -> (Derive.substitute_nonterminals top [ inner ], 1)

let plan ?(threads = 1) ?(mu = 4) ?(vec = `Off) ~count n =
  if count < 1 || n < 1 then invalid_arg "Batch.plan: count and n >= 1";
  let engine =
    Engine.plan ~threads ~mu ~vec ~derive:(derive ~count ~n)
      (Problem.make ~batch:count Problem.Dft [ n ])
  in
  { count; n; engine }

let count t = t.count
let n t = t.n
let parallel t = Engine.parallel t.engine
let formula t = Engine.formula t.engine

let execute_into t ~src ~dst = Engine.execute_into t.engine ~src ~dst

let execute t x =
  let y = Cvec.create (Engine.size t.engine) in
  execute_into t ~src:x ~dst:y;
  y

let execute_many t xs =
  let total = Engine.size t.engine in
  let ys = Array.map (fun _ -> Cvec.create total) xs in
  Engine.execute_many t.engine (Array.mapi (fun i x -> (x, ys.(i))) xs);
  ys

let destroy t = Engine.destroy t.engine

let with_plan ?threads ?mu ?vec ~count n f =
  let t = plan ?threads ?mu ?vec ~count n in
  Fun.protect ~finally:(fun () -> destroy t) (fun () -> f t)
