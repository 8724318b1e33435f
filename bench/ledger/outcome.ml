(* What one workload run produces: operation counts, the metrics it
   prints (name, value, unit), the raw per-round values behind each
   round statistic, and free-form detail for the result file. *)

type t = {
  mutable attempted : int;
  mutable failed : int;  (* exceptions, non-Ok replies, sheds, wrong answers *)
  mutable wrong : int;  (* outputs outside the error bound *)
  mutable worst_err : float;  (* largest relative error seen *)
  mutable metrics : (string * float * string) list;  (* newest first *)
  mutable rounds : (string * float array) list;
  mutable detail : (string * Json.t) list;
}

let create () =
  {
    attempted = 0;
    failed = 0;
    wrong = 0;
    worst_err = 0.0;
    metrics = [];
    rounds = [];
    detail = [];
  }

let metric t name unit v =
  t.metrics <- (name, v, unit) :: List.filter (fun (n, _, _) -> n <> name) t.metrics

let rounds t name values = t.rounds <- t.rounds @ [ (name, values) ]
let detail t name v = t.detail <- t.detail @ [ (name, v) ]

(* one operation whose output had relative error [e] *)
let checked t ~tol e =
  t.attempted <- t.attempted + 1;
  if e > t.worst_err || Float.is_nan e then t.worst_err <- e;
  if not (e <= tol) then begin
    t.wrong <- t.wrong + 1;
    t.failed <- t.failed + 1
  end

(* one operation that failed without an output: an exception, an error
   reply or a shed request *)
let failed_op t =
  t.attempted <- t.attempted + 1;
  t.failed <- t.failed + 1

let value t name =
  List.find_map (fun (n, v, _) -> if n = name then Some v else None) t.metrics

(* Round statistics (README, "Round statistics"): each round value is a
   percentile or rate over that round's calls, scaled to the host speed
   the reference kernel read around that round ([ref_us], one of the
   readings kept by [speed_rounds]); across rounds a metric is the median
   of its scaled round values.  The raw round values are kept under
   [name]. *)
let scaled_rounds t name unit scale ~ref_us values =
  rounds t name values;
  metric t name unit
    (Stats.median (Array.map2 (fun v r -> scale ~ref_us:r v) values ref_us))

let latency_rounds t name = scaled_rounds t name "us" Speed.time
let throughput_rounds t name = scaled_rounds t name "req/s" Speed.rate

let speed_rounds t prefix (readings : Speed.reading array) =
  rounds t (prefix ^ "ref_call_us") (Array.map (fun r -> r.Speed.call_us) readings);
  rounds t (prefix ^ "ref_wall_us") (Array.map (fun r -> r.Speed.wall_us) readings)

let to_json t =
  Json.Obj
    ([
       ("correct", Json.Bool (t.wrong = 0));
       ("attempted", Json.Num (float_of_int t.attempted));
       ("failed", Json.Num (float_of_int t.failed));
       ("wrong", Json.Num (float_of_int t.wrong));
       ("worst_rel_err", Json.Num t.worst_err);
       ( "failed_frac",
         Json.Num
           (if t.attempted = 0 then 0.0
            else float_of_int t.failed /. float_of_int t.attempted) );
       ( "metrics",
         Json.Obj
           (List.rev_map
              (fun (n, v, u) ->
                (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
              t.metrics) );
       ( "rounds",
         Json.Obj
           (List.map
              (fun (n, a) ->
                (n, Json.Arr (Array.to_list (Array.map (fun v -> Json.Num v) a))))
              t.rounds) );
     ]
    @ t.detail)
