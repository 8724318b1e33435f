open Spiral_util

type t =
  | Twiddle of int * int
  | Segment of t * int * int
  | Explicit of Complex.t array

let size = function
  | Twiddle (m, n) -> m * n
  | Segment (_, _, len) -> len
  | Explicit a -> Array.length a

let rec entry d i =
  match d with
  | Twiddle (m, n) ->
      if i < 0 || i >= m * n then invalid_arg "Diag.entry: out of range";
      Twiddle.omega_pow ~n:(m * n) ~k:(i / n) ~l:(i mod n)
  | Segment (d, offset, len) ->
      if i < 0 || i >= len then invalid_arg "Diag.entry: out of range";
      entry d (offset + i)
  | Explicit a -> a.(i)

(* Roots-of-unity memo of one IR compilation: the table of order [N]
   holds [Twiddle.omega N k] at index [k], built the first time the
   compilation meets order [N].  Entry functions resolve their table
   once, at partial application, so evaluating a twiddle is an index
   computation and an array load.  Tables are never written after they
   are built. *)
type roots = (int, Complex.t array) Hashtbl.t

(* tables built by this domain, for tests that check memos are not
   shared between compilations *)
let built = Domain.DLS.new_key (fun () -> ref 0)
let roots_built () = !(Domain.DLS.get built)
let roots () : roots = Hashtbl.create 8

let root_table roots order =
  match Hashtbl.find_opt roots order with
  | Some t -> t
  | None ->
      let t = Array.init order (Twiddle.omega order) in
      Hashtbl.add roots order t;
      incr (Domain.DLS.get built);
      t

let rec memo_entry roots d =
  match d with
  | Twiddle (m, n) ->
      let order = m * n in
      let t = root_table roots order in
      fun i ->
        if i < 0 || i >= order then invalid_arg "Diag.entry: out of range";
        (* the exponent [Twiddle.omega_pow] reduces to *)
        t.(i / n * (i mod n) mod order)
  | Segment (d, offset, len) ->
      let e = memo_entry roots d in
      fun i ->
        if i < 0 || i >= len then invalid_arg "Diag.entry: out of range";
        e (offset + i)
  | Explicit a -> fun i -> a.(i)

let to_array d = Array.init (size d) (entry d)

let to_table d =
  let n = size d in
  let t = Array.make (2 * n) 0.0 in
  for i = 0 to n - 1 do
    let z = entry d i in
    t.(2 * i) <- z.re;
    t.((2 * i) + 1) <- z.im
  done;
  t

let split d p =
  let n = size d in
  if p <= 0 || n mod p <> 0 then invalid_arg "Diag.split: p must divide size";
  let len = n / p in
  List.init p (fun i -> Segment (d, i * len, len))

let rec pp ppf = function
  | Twiddle (m, n) -> Format.fprintf ppf "D(%d,%d)" m n
  | Segment (d, offset, len) ->
      Format.fprintf ppf "%a[%d..%d]" pp d offset (offset + len - 1)
  | Explicit a -> Format.fprintf ppf "diag(%d)" (Array.length a)
