(* Seeded request payloads for service descriptors, with the output each
   must produce (the service's float layout: see Spiral_service.Plans). *)

module Problem = Spiral_fft.Problem

type t = {
  descriptor : string;
  input : float array;
  expect : float array;
  tol : float;
}

let problem descriptor =
  match Problem.of_string descriptor with
  | Some p -> p
  | None -> invalid_arg ("Payload: " ^ descriptor)

let input ~seed ~slot descriptor =
  let pr = problem descriptor in
  let dims = Problem.dims pr and tag = descriptor in
  match Problem.kind pr with
  | Problem.Dft ->
      Array.concat
        (List.init (Problem.batch pr) (fun b ->
             Check.random_cvec ~seed ~tag ~slot:((slot * 1000) + b) dims.(0)))
  | Problem.Rfft -> Check.random_reals ~seed ~tag ~slot dims.(0)
  | Problem.Dft2d -> Check.random_cvec ~seed ~tag ~slot (dims.(0) * dims.(1))
  | _ -> invalid_arg ("Payload: unsupported kind in " ^ descriptor)

let expected descriptor (x : float array) =
  let pr = problem descriptor in
  let dims = Problem.dims pr in
  match Problem.kind pr with
  | Problem.Dft ->
      let n = dims.(0) in
      let rows = Array.init (Problem.batch pr) (fun b -> Array.sub x (2 * b * n) (2 * n)) in
      Array.concat (Array.to_list (Check.dft_refs n rows))
  | Problem.Rfft -> Check.rfft_ref x
  | _ -> (Check.dft2d_refs ~rows:dims.(0) ~cols:dims.(1) [| x |]).(0)

let make ~seed ~slot descriptor =
  let input = input ~seed ~slot descriptor in
  {
    descriptor;
    input;
    expect = expected descriptor input;
    tol = Check.tolerance (Problem.size (problem descriptor));
  }

let err t (out : float array) =
  if Array.length out <> Array.length t.expect then infinity
  else Check.rel_err out t.expect
