(* The performance ledger: five workloads through the library's public
   API, each run in a process of its own.

     ledger.exe                              every workload, untraced
     ledger.exe --traced                     ... and traced (per-layer)
     ledger.exe --quick                      every workload at 1/20 length
     ledger.exe --workload W --seed N --seconds S --trace 0|1
                                             one workload in this process;
                                             the last stdout line is its
                                             JSON result
     ledger.exe --compare A.json... -- B.json...
                                             two sets of full results,
                                             judged against the bounds in
                                             BENCHMARK.json
     ledger.exe --smoke                      --quick --traced, then check
                                             the results carry every
                                             declared metric

   It runs from the repository root: BENCHMARK.json there declares the
   metrics it prints and the seconds each workload measures.  See
   README.md for the workloads, metrics and round statistics. *)

type kind = Engine of Engine_wl.spec | Service | Cold

(* [round_s] is the nominal round length: a run of S seconds measures
   max 3 (S / round_s) rounds, each long enough for its tail percentile
   to rest on several samples beyond it (README.md, "Round statistics"). *)
type workload = { name : string; kind : kind; round_s : float }

let workloads =
  [
    { name = "dft1k_p2"; kind = Engine (Engine_wl.Dft 1024); round_s = 0.5 };
    { name = "dft64k_p2"; kind = Engine (Engine_wl.Dft 65536); round_s = 1.0 };
    {
      name = "dft2d_batch_p2";
      kind = Engine (Engine_wl.Batch2d { rows = 128; cols = 128; batch = 8 });
      round_s = 1.0;
    };
    { name = "service_mix"; kind = Service; round_s = 1.0 };
    { name = "plan_cold"; kind = Cold; round_s = 1.0 };
  ]

let find name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None -> failwith ("unknown workload " ^ name)

let benchmark = lazy (Json.of_file "BENCHMARK.json")

(* BENCHMARK.json's metrics under [key] ("end_to_end" or "per_layer"):
   name, unit and bound (nan where none is declared) *)
let declared key =
  List.map
    (fun m ->
      let field k = Json.member k m in
      ( Json.str (field "name"),
        Json.str (field "unit"),
        match field "bound" with Some (Json.Num b) -> b | _ -> Float.nan ))
    (Json.list (Json.member key (Lazy.force benchmark)))

(* the workloads BENCHMARK.json holds to its bounds; the others are in
   the ledger for their per-layer breakdown only (README.md, "Workloads") *)
let gated () =
  List.map
    (fun w -> Json.str (Json.member "name" w))
    (Json.list (Json.member "workloads" (Lazy.force benchmark)))

(* the length of one workload's run, and --quick's share of it *)
let run_seconds ~quick =
  Json.num (Json.member "run_seconds" (Lazy.force benchmark))
  /. if quick then 20.0 else 1.0

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* rounds of about [round_s] filling [seconds] *)
let split seconds round_s =
  let n = max 3 (int_of_float ((seconds /. round_s) +. 0.5)) in
  (n, seconds /. float_of_int n)

(* ---- child processes ---- *)

(* run [args] on this executable; returns its stdout, failing unless it
   exits 0 *)
let run_self args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> out
  | _ -> failwith ("child failed: " ^ String.concat " " args)

(* Cold set-ups, each in a fresh process so nothing is warm: (total,
   plan-only) seconds and the reference kernel's readings right after. *)
let setups w ~seed ~dir ~count =
  List.init count (fun i ->
      let out =
        run_self
          [ "--setup"; w.name; "--seed"; string_of_int (seed + i); "--dir"; dir ]
      in
      Scanf.sscanf out " %f %f %f %f" (fun a b call_us wall_us ->
          (a, b, { Speed.call_us; wall_us })))

let setup_once w ~seed ~dir =
  let total, plan =
    match w.kind with
    | Engine spec -> Engine_wl.cold_setup ~seed spec
    | Service -> Service_wl.cold_setup ~seed ~dir
    | Cold -> Cold_wl.cold_setup ~seed
  in
  let r = Speed.probe () in
  Printf.printf "%.9f %.9f %.6f %.6f\n" total plan r.call_us r.wall_us

(* ---- one workload, in this process ---- *)

let run_workload w ~seed ~seconds ~trace ~quick ~dir =
  let o = Outcome.create () in
  let reps = if quick then 1 else 3 in
  if not trace then begin
    let s = Array.of_list (setups w ~seed ~dir ~count:(if quick then 1 else 5)) in
    Outcome.rounds o "setup_s" (Array.map (fun (total, _, _) -> total) s);
    (* a set-up is one stretch of wall time, scaled like one *)
    Outcome.speed_rounds o "setup_" (Array.map (fun (_, _, r) -> r) s);
    Outcome.metric o "setup_s" "s"
      (Stats.median
         (Array.map (fun (total, _, r) -> Speed.time ~ref_us:r.Speed.wall_us total) s));
    let rounds, round_s = split seconds w.round_s in
    match w.kind with
    | Engine spec -> Engine_wl.run ~seed ~rounds ~round_s spec o
    | Cold -> Cold_wl.run ~seed ~rounds ~round_s o
    | Service ->
        let rounds_a, round_a = split (0.25 *. seconds) w.round_s in
        let rounds_b, round_b = split (0.75 *. seconds) w.round_s in
        Service_wl.run ~seed ~dir ~rounds_a ~round_a ~rounds_b ~round_b o
  end
  else begin
    let round_s = Float.max 0.05 (seconds /. 20.0) in
    let trace_file = Filename.concat dir ("trace_" ^ w.name ^ ".json") in
    (match w.kind with
    | Engine (Engine_wl.Dft n as spec) ->
        Engine_wl.run_traced ~seed ~round_s ~trace_file ~setup_plan_s:0.0 spec o;
        Replay.report o [ Replay.run ~reps ~threads:2 n ]
    | Engine spec ->
        (* Dft2d's Auto shoot-out only runs in a fresh process *)
        let plan_s = List.map (fun (_, plan, _) -> plan) (setups w ~seed ~dir ~count:reps) in
        Engine_wl.run_traced ~seed ~round_s ~trace_file
          ~setup_plan_s:(Stats.median (Array.of_list plan_s))
          spec o
    | Service -> Service_wl.run_traced ~seed ~dir ~round_s ~trace_file o
    | Cold -> Cold_wl.run_traced ~seed ~round_s ~trace_file ~replay_reps:reps o);
    (* a layer this workload does not exercise reads 0 *)
    List.iter
      (fun (name, unit, _) ->
        if Outcome.value o name = None then Outcome.metric o name unit 0.0)
      (declared "per_layer");
    Outcome.detail o "trace_file" (Json.Str trace_file)
  end;
  o

(* the line the benchmark command ends with: exactly these four keys, and
   only this mode's declared metrics *)
let result_line (o : Outcome.t) ~trace =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (o.wrong = 0));
         ("attempted", Json.Num (float_of_int o.attempted));
         ("failed", Json.Num (float_of_int o.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit, _) ->
                  let v = Option.value (Outcome.value o name) ~default:Float.nan in
                  (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
                (declared (if trace then "per_layer" else "end_to_end"))) );
       ])

(* one metric per line; a round statistic also shows the spread of its
   round values (IQR / median) *)
let print_metric ?(rounds = [||]) name v unit =
  Printf.printf "  %-30s %14.4f %-9s%s\n" name v unit
    (if Array.length rounds < 2 then ""
     else
       Printf.sprintf " spread %5.1f%% over %d rounds"
         (100.0 *. Stats.rel_spread rounds)
         (Array.length rounds))

let path j keys =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) keys

(* ---- all workloads, each in its own process ---- *)

let full ~seed ~quick ~traced ~dir ~out =
  mkdir_p dir;
  let seconds = run_seconds ~quick in
  let stamp = Stamp.collect ~seed ~quick in
  let one w trace =
    let file =
      Filename.concat dir
        (Printf.sprintf "%s.%s.json" w.name (if trace then "traced" else "untraced"))
    in
    ignore
      (run_self
         ([ "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
            Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
            "--dir"; dir; "--out"; file ]
         @ if quick then [ "--quick" ] else []));
    let j = Json.of_file file in
    Sys.remove file;
    j
  in
  let results =
    List.map
      (fun w ->
        let modes =
          ("untraced", one w false) :: (if traced then [ ("traced", one w true) ] else [])
        in
        List.iter
          (fun (mode, r) ->
            Printf.printf "%s (%s)\n" w.name mode;
            List.iter
              (fun (m, v) ->
                let rounds =
                  match path r [ "rounds"; m ] with
                  | Some (Json.Arr l) -> Array.of_list (List.map (fun x -> Json.num (Some x)) l)
                  | _ -> [||]
                in
                print_metric ~rounds m
                  (Json.num (Json.member "value" v))
                  (Json.str (Json.member "unit" v)))
              (Json.fields (Json.member "metrics" r)))
          modes;
        (w.name, modes))
      workloads
  in
  Json.to_file out
    (Json.Obj
       [
         ("ledger", Json.Str "spiral-smp performance ledger");
         ("seconds_per_workload", Json.Num seconds);
         ("quick", Json.Bool quick);
         ("stamp", stamp);
         ("workloads", Json.Obj (List.map (fun (n, ms) -> (n, Json.Obj ms)) results));
       ]);
  Printf.printf "wrote %s\n" out;
  let wrong =
    List.fold_left
      (fun acc (_, ms) ->
        List.fold_left (fun acc (_, r) -> acc +. Json.num (Json.member "wrong" r)) acc ms)
      0.0 results
  in
  if wrong > 0.0 then begin
    Printf.printf "%.0f wrong answers\n" wrong;
    exit 1
  end

(* ---- comparison of two result sets ---- *)

let compare a_files b_files =
  let load = List.map Json.of_file in
  let a = load a_files and b = load b_files in
  let values set w m =
    Array.of_list
      (List.filter_map
         (fun j ->
           match path j [ "workloads"; w; "untraced"; "metrics"; m; "value" ] with
           | Some (Json.Num v) -> Some v
           | _ -> None)
         set)
  in
  let summary v =
    if Array.length v = 0 then "-"
    else
      Printf.sprintf "%.4g [%.4g, %.4g]" (Stats.median v) (Stats.lower_quartile v)
        (Stats.upper_quartile v)
  in
  Printf.printf "%-15s %-16s %-30s %-30s %8s %6s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "B/A-1" "bound" "verdict";
  let unresolved = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (m, _, bound) ->
          let va = values a w m and vb = values b w m in
          let delta = (Stats.median vb /. Stats.median va) -. 1.0 in
          (* agree: both sets' own spreads and the shift between their
             medians stay within the metric's bound *)
          let agree =
            Array.length va > 0
            && Array.length vb > 0
            && Float.abs delta <= bound
            && Stats.rel_spread va <= bound
            && Stats.rel_spread vb <= bound
          in
          if not agree then incr unresolved;
          Printf.printf "%-15s %-16s %-30s %-30s %+7.1f%% %5.0f%%  %s\n" w m
            (summary va) (summary vb) (100.0 *. delta) (100.0 *. bound)
            (if agree then "agree" else "unresolved"))
        (declared "end_to_end"))
    (gated ());
  if !unresolved > 0 then exit 1

(* ---- smoke check ---- *)

let smoke ~dir =
  let dir = Filename.concat dir "smoke" in
  let out = Filename.concat dir "ledger.json" in
  full ~seed:1 ~quick:true ~traced:true ~dir ~out;
  let result = Json.of_file out in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun w ->
      List.iter
        (fun (mode, key) ->
          match path result [ "workloads"; w.name; mode ] with
          | None -> problem "%s: no %s result" w.name mode
          | Some r ->
              if Json.num (Json.member "failed" r) <> 0.0 then
                problem "%s (%s): failed_frac is not 0" w.name mode;
              List.iter
                (fun (name, unit, _) ->
                  match path r [ "metrics"; name ] with
                  | None -> problem "%s (%s): %s missing" w.name mode name
                  | Some m ->
                      if Json.member "unit" m <> Some (Json.Str unit) then
                        problem "%s (%s): %s has the wrong unit" w.name mode name;
                      if not (Float.is_finite (Json.num (Json.member "value" m))) then
                        problem "%s (%s): %s is not a number" w.name mode name)
                (declared key))
        [ ("untraced", "end_to_end"); ("traced", "per_layer") ])
    workloads;
  match List.rev !problems with
  | [] -> print_endline "smoke: every declared metric present, with its unit; nothing failed"
  | ps ->
      List.iter prerr_endline ps;
      exit 1

(* ---- command line ---- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt k = function
    | a :: v :: _ when a = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let flag k = List.mem k args in
  let dir = Option.value (opt "--dir" args) ~default:"bench/ledger/out" in
  let seed = match opt "--seed" args with Some v -> int_of_string v | None -> 1 in
  let quick = flag "--quick" in
  Clock.quick := quick;
  match (opt "--setup" args, opt "--workload" args, flag "--smoke") with
  | Some name, _, _ -> setup_once (find name) ~seed ~dir
  | None, _, true -> smoke ~dir
  | None, Some name, false ->
      mkdir_p dir;
      let w = find name in
      let seconds =
        match opt "--seconds" args with
        | Some s -> float_of_string s
        | None -> run_seconds ~quick
      in
      let trace = opt "--trace" args = Some "1" in
      let o = run_workload w ~seed ~seconds ~trace ~quick ~dir in
      Option.iter (fun f -> Json.to_file f (Outcome.to_json o)) (opt "--out" args);
      Printf.printf "%s (%s, seed %d)\n" w.name (if trace then "traced" else "untraced") seed;
      List.iter
        (fun (n, v, u) ->
          print_metric ?rounds:(List.assoc_opt n o.rounds) n v u)
        (List.rev o.metrics);
      Printf.printf "  attempted %d, failed %d, wrong %d, worst relative error %.3g\n"
        o.attempted o.failed o.wrong o.worst_err;
      print_endline (result_line o ~trace);
      if o.wrong > 0 then exit 1
  | None, None, false -> (
      let rec after_compare = function
        | "--compare" :: rest -> Some rest
        | _ :: rest -> after_compare rest
        | [] -> None
      in
      match after_compare args with
      | Some rest ->
          let rec upto acc = function
            | "--" :: b -> (List.rev acc, b)
            | x :: r -> upto (x :: acc) r
            | [] -> (List.rev acc, [])
          in
          let a, b = upto [] rest in
          compare a b
      | None ->
          full ~seed ~quick ~traced:(flag "--traced") ~dir
            ~out:
              (Option.value (opt "--out" args)
                 ~default:(Filename.concat dir (Printf.sprintf "ledger-%d.json" seed))))
