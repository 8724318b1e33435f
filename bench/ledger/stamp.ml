(* The machine stamp every full ledger result carries: what the numbers
   were measured on, and how noisy the host was while they were. *)

let read_line path =
  match In_channel.with_open_text path In_channel.input_line with
  | Some l -> Some (String.trim l)
  | None -> None
  | exception Sys_error _ -> None

(* cache levels as sysfs reports them for cpu0: "L1d 48K", "L2 2048K" ... *)
let caches () =
  let dir = "/sys/devices/system/cpu/cpu0/cache" in
  let entries = try Array.to_list (Sys.readdir dir) with Sys_error _ -> [] in
  List.sort compare entries
  |> List.filter_map (fun e ->
         let f x = read_line (Filename.concat (Filename.concat dir e) x) in
         match (f "level", f "type", f "size") with
         | Some level, Some typ, Some size ->
             let suffix =
               match typ with "Data" -> "d" | "Instruction" -> "i" | _ -> ""
             in
             Some (Json.Str (Printf.sprintf "L%s%s %s" level suffix size))
         | _ -> None)

let git_head () =
  match
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        let r, w = Unix.pipe ~cloexec:true () in
        let pid =
          Unix.create_process "git" [| "git"; "rev-parse"; "HEAD" |] Unix.stdin w null
        in
        Unix.close w;
        let out = In_channel.input_all (Unix.in_channel_of_descr r) in
        Unix.close r;
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> String.trim out
        | _ -> "unknown")
  with
  | h -> h
  | exception Unix.Unix_error _ -> "unknown"

(* Host-noise probe: per-round median of a p=1 dft[4096]f loop.  Its
   spread across rounds says how much the host moved under this run. *)
let noise_probe ~rounds ~round_s =
  let n = 4096 in
  let x = Spiral_util.Cvec.random ~seed:n n and y = Spiral_util.Cvec.create n in
  Spiral_fft.Dft.with_plan ~threads:1 n (fun p ->
      let samples = Stats.Samples.create () in
      let values =
        Array.init rounds (fun _ ->
            Stats.Samples.clear samples;
            let t_end = Clock.now () + int_of_float (round_s *. 1e9) in
            while Clock.now () < t_end do
              let t0 = Clock.now () in
              Spiral_fft.Dft.execute_into p ~src:x ~dst:y;
              Stats.Samples.add samples (Clock.now () - t0)
            done;
            Stats.median (Stats.Samples.to_us samples))
      in
      Json.Obj
        [
          ("probe", Json.Str "dft[4096]f p=1 per-round p50, us");
          ("rounds", Json.Arr (Array.to_list (Array.map (fun v -> Json.Num v) values)));
          ("rel_spread", Json.Num (Stats.rel_spread values));
        ])

let collect ~seed ~quick =
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("caches", Json.Arr (caches ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("git_head", Json.Str (git_head ()));
      ("seed", Json.Num (float_of_int seed));
      ( "host_noise",
        noise_probe ~rounds:(if quick then 3 else 8) ~round_s:(if quick then 0.05 else 0.25) );
    ]
