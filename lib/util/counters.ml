let table : (string, int ref) Hashtbl.t = Hashtbl.create 16
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* [Par_exec] calls [incr] on every parallel execution, so [incr], [get]
   and [observe] lock and unlock directly: no [Fun.protect] closure, no
   [Some] from [find_opt].  Nothing between the two can raise (hashing
   and string comparison do not). *)
let incr ?(by = 1) name =
  Mutex.lock lock;
  (match Hashtbl.find table name with
  | r -> r := !r + by
  | exception Not_found -> Hashtbl.add table name (ref by));
  Mutex.unlock lock

let get name =
  Mutex.lock lock;
  let v = match Hashtbl.find table name with r -> !r | exception Not_found -> 0 in
  Mutex.unlock lock;
  v

let snapshot () =
  with_lock (fun () ->
      Hashtbl.fold (fun k r acc -> if !r <> 0 then (k, !r) :: acc else acc) table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Observations: bounded-memory summaries (count/sum/max) of a measured
   quantity, e.g. reply latencies.  Like counters they are only touched
   on service/failure paths, never in the per-sample hot loop. *)

type obs = { count : int; sum : float; max : float }

(* The running summary is an all-float record, stored flat, so folding
   in a sample allocates nothing (the count is exact up to 2^53). *)
type acc = { mutable n : float; mutable s : float; mutable m : float }

let obs_table : (string, acc) Hashtbl.t = Hashtbl.create 16

let observe name v =
  Mutex.lock lock;
  (match Hashtbl.find obs_table name with
  | a ->
      a.n <- a.n +. 1.0;
      a.s <- a.s +. v;
      a.m <- Float.max a.m v
  | exception Not_found -> Hashtbl.add obs_table name { n = 1.0; s = v; m = v });
  Mutex.unlock lock

let summary a = { count = int_of_float a.n; sum = a.s; max = a.m }

let observation name =
  with_lock (fun () -> Option.map summary (Hashtbl.find_opt obs_table name))

let observations () =
  with_lock (fun () ->
      Hashtbl.fold (fun k a acc -> (k, summary a) :: acc) obs_table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () =
  with_lock (fun () ->
      Hashtbl.reset table;
      Hashtbl.reset obs_table)

(* Prometheus text exposition format: every counter as one sample of a
   single metric family, the counter name as a label (counter names
   contain dots, which are not legal in Prometheus metric names). *)
let to_prometheus () =
  let b = Buffer.create 256 in
  Buffer.add_string b
    "# HELP spiral_events_total Runtime event counters \
     (Spiral_util.Counters).\n";
  Buffer.add_string b "# TYPE spiral_events_total counter\n";
  List.iter
    (fun (k, v) ->
      Buffer.add_string b
        (Printf.sprintf "spiral_events_total{name=\"%s\"} %d\n" k v))
    (snapshot ());
  (match observations () with
  | [] -> ()
  | obs ->
      Buffer.add_string b
        "# HELP spiral_observed Observation summaries \
         (Spiral_util.Counters.observe).\n";
      Buffer.add_string b "# TYPE spiral_observed gauge\n";
      List.iter
        (fun (k, o) ->
          Buffer.add_string b
            (Printf.sprintf
               "spiral_observed{name=\"%s\",stat=\"count\"} %d\n\
                spiral_observed{name=\"%s\",stat=\"sum\"} %.6g\n\
                spiral_observed{name=\"%s\",stat=\"max\"} %.6g\n"
               k o.count k o.sum k o.max))
        obs);
  Buffer.contents b
