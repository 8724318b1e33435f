open Spiral_util
open Spiral_spl
open Spiral_rewrite

type t = { engine : Engine.t }

let seq_formula n =
  let rec split n =
    if n <= Ruletree.leaf_max then Formula.WHT n
    else
      Formula.compose
        [ Formula.Tensor (Formula.WHT 2, Formula.I (n / 2));
          Formula.Tensor (Formula.I 2, split (n / 2)) ]
  in
  split n

let derive n ~threads ~mu =
  if threads <= 1 || n < Int_util.pow (threads * mu) 2 then (seq_formula n, 1)
  else
    (* most balanced power split with pµ | both halves *)
    let rec half m = if m * m >= n then m else half (2 * m) in
    let m = half (threads * mu) in
    match Derive.multicore_wht ~p:threads ~mu ~m ~n:(n / m) with
    | Ok f -> (f, threads)
    | Error _ -> (seq_formula n, 1)

let plan ?(threads = 1) ?(mu = 4) n =
  if not (Int_util.is_pow2 n) then invalid_arg "Wht.plan: n must be 2^k";
  { engine = Engine.plan ~threads ~mu ~derive:(derive n) (Problem.make Problem.Wht [ n ]) }

let n t = Engine.size t.engine
let parallel t = Engine.parallel t.engine

let execute_into t ~src ~dst = Engine.execute_into t.engine ~src ~dst

let execute t x =
  let y = Cvec.create (Engine.size t.engine) in
  execute_into t ~src:x ~dst:y;
  y

let destroy t = Engine.destroy t.engine

let with_plan ?threads ?mu n f =
  let t = plan ?threads ?mu n in
  Fun.protect ~finally:(fun () -> destroy t) (fun () -> f t)
