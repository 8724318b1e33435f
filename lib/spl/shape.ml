open Formula

let rec perm_sigma f =
  match f with
  | Perm p -> Some (Perm.gather p)
  | I _ -> Some (fun k -> k)
  | Tensor (a, b) -> (
      match (perm_sigma a, perm_sigma b) with
      | Some sa, Some sb ->
          let db = dim b in
          Some (fun k -> (sa (k / db) * db) + sb (k mod db))
      | _ -> None)
  | CacheTensor (a, mu) | VTensor (a, mu) -> perm_sigma (Tensor (a, I mu))
  | ParTensor (p, a) -> perm_sigma (Tensor (I p, a))
  | VShuffle (k, nu) -> perm_sigma (Tensor (I k, Perm (Perm.L (nu * nu, nu))))
  | Compose fs ->
      (* y = F1 (F2 (… x)): σ = σ_last ∘ … ∘ σ_first-applied reversed:
         reading position k goes through σ_{F1} first. *)
      let rec build = function
        | [] -> Some (fun k -> k)
        | g :: rest -> (
            match (perm_sigma g, build rest) with
            | Some sg, Some srest -> Some (fun k -> srest (sg k))
            | _ -> None)
      in
      build fs
  | Smp (_, _, a) | Vec (_, a) -> perm_sigma a
  | DFT _ | WHT _ | Diag _ | DirectSum _ | ParDirectSum _ -> None

let rec diag_entry ?roots f =
  match f with
  | Diag d ->
      Some
        (match roots with
        | Some r -> Diag.memo_entry r d
        | None -> Diag.entry d)
  | I _ -> Some (fun _ -> Complex.one)
  | DirectSum fs | ParDirectSum fs ->
      let blocks = List.map (fun g -> (dim g, diag_entry ?roots g)) fs in
      if List.for_all (fun (_, e) -> e <> None) blocks then
        let blocks =
          List.map (fun (d, e) -> (d, Option.get e)) blocks
        in
        Some
          (fun k ->
            let rec find off = function
              | [] -> invalid_arg "Shape.diag_entry: index out of range"
              | (d, e) :: rest ->
                  if k < off + d then e (k - off) else find (off + d) rest
            in
            find 0 blocks)
      else None
  | Tensor (I m, a) -> (
      match diag_entry ?roots a with
      | Some e ->
          let da = dim a in
          ignore m;
          Some (fun k -> e (k mod da))
      | None -> None)
  | Tensor (a, I q) -> (
      match diag_entry ?roots a with
      | Some e -> Some (fun k -> e (k / q))
      | None -> None)
  | Smp (_, _, a) | Vec (_, a) -> diag_entry ?roots a
  | VTensor (a, nu) -> diag_entry ?roots (Tensor (a, I nu))
  | DFT _ | WHT _ | Perm _ | Compose _ | Tensor _ | ParTensor _
  | CacheTensor _ | VShuffle _ ->
      None

let is_data f =
  match perm_sigma f with
  | Some _ -> true
  | None -> ( match diag_entry f with Some _ -> true | None -> false)
