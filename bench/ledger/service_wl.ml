(* service_mix: the daemon's path.  An in-process Server (default_config,
   warmed with the mix) is driven over its Unix socket by one generator
   thread that multiplexes two connections with Unix.select, using only
   the public Protocol frame functions.  A blocking Client would stall
   here: the server drops a connection that stops reading for its 1 s
   send timeout.

   Phase A is an open loop (Poisson arrivals at [rate]); each request is
   timed from its scheduled send time, so a stalled generator shows up
   as latency, and the generator's own lateness is reported as lag.
   [rate] is about a quarter of the closed-loop capacity on the
   reference host, so a host slowdown of 2x still leaves the queue short
   of the server's per-client limit, where requests would be shed.

   Phase B is a closed loop ([depth] outstanding per connection) that
   measures capacity.  One request per connection already keeps the
   server's single executor busy: in eight paired runs on the reference
   host, four per connection gave the same rate (1 100-1 300 req/s) with
   round trips six times longer, spent queueing, and a wider spread of
   the rate from run to run (11% against 3%).

   Requests are sent from pre-encoded frames and replies are decoded and
   checked in the generator's idle time, so the client's own codec stays
   out of the measured round trip. *)

open Spiral_util
module Protocol = Spiral_service.Protocol
module Server = Spiral_service.Server
module Plans = Spiral_service.Plans

let mix =
  [|
    ("dft[1024]f", 0.6); ("rfft[4096]f", 0.2); ("dft2d[64x64]f", 0.1);
    ("dft[16384]f", 0.1);
  |]

let slots = 4
let rate = 300.0
let conns = 2
let depth = 1
let now = Clock.now

type env = {
  payloads : Payload.t array array;  (* [descriptor][slot] *)
  bodies : bytes array array;  (* encoded request bodies, id patched per send *)
}

let make_env ~seed =
  let payloads =
    Array.map (fun (d, _) -> Array.init slots (fun slot -> Payload.make ~seed ~slot d)) mix
  in
  let bodies =
    Array.map
      (Array.map (fun (p : Payload.t) ->
           Protocol.encode_request
             { op = Protocol.Exec; id = 0; deadline_ms = 0; descriptor = p.descriptor;
               payload = p.input }))
      payloads
  in
  { payloads; bodies }

let pick rng =
  let u = Random.State.float rng 1.0 in
  let rec go i acc =
    let acc = acc +. snd mix.(i) in
    if u < acc || i = Array.length mix - 1 then i else go (i + 1) acc
  in
  go 0 0.0

type server = { srv : Server.t; fds : Unix.file_descr array }

let start ~dir =
  let path = Filename.concat dir (Printf.sprintf "svc-%d.sock" (Unix.getpid ())) in
  let cfg =
    { (Server.default_config ~socket_path:path ()) with
      warm = Array.to_list (Array.map fst mix) }
  in
  let srv = Server.start cfg in
  (* The generator writes requests with blocking writes.  A send buffer
     that holds many large requests keeps such a write from waiting on a
     server reader that is itself waiting to write a reply on the same
     connection, which the server would end by dropping the connection
     after its send timeout.  The kernel caps the size at wmem_max. *)
  let fds =
    Array.init conns (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.setsockopt_int fd Unix.SO_SNDBUF (4 lsl 20);
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd)
  in
  { srv; fds }

(* closing our ends first lets the server's readers see EOF and exit *)
let stop s =
  Array.iter Unix.close s.fds;
  Server.stop s.srv

type req = { sched : int; desc : int; slot : int }

type gen = {
  env : env;
  fds : Unix.file_descr array;
  rng : Random.State.t;
  pending : (int, req) Hashtbl.t;
  inbox : (int * bytes) Queue.t;  (* receive time, reply body *)
  outstanding : int array;
  mutable next_id : int;
}

let gen ~seed env fds =
  {
    env;
    fds;
    rng = Random.State.make [| seed; 77 |];
    pending = Hashtbl.create 64;
    inbox = Queue.create ();
    outstanding = Array.make conns 0;
    next_id = 1;
  }

let send g c ~sched =
  let desc = pick g.rng and slot = Random.State.int g.rng slots in
  let id = g.next_id in
  g.next_id <- id + 1;
  let body = g.env.bodies.(desc).(slot) in
  (* request body: u8 op | u32 id | ... (Protocol's documented layout) *)
  Bytes.set_int32_be body 1 (Int32.of_int id);
  Hashtbl.replace g.pending id { sched; desc; slot };
  Protocol.write_frame g.fds.(c) body;
  g.outstanding.(c) <- g.outstanding.(c) + 1

(* wait up to [timeout] seconds for replies; returns the connections a
   frame arrived on *)
let poll g timeout =
  match Unix.select (Array.to_list g.fds) [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | ready, _, _ ->
      List.filter_map
        (fun fd ->
          let c = if fd = g.fds.(0) then 0 else 1 in
          match Protocol.read_frame fd with
          | Protocol.Frame body ->
              Queue.push (now (), body) g.inbox;
              g.outstanding.(c) <- g.outstanding.(c) - 1;
              Some c
          | Protocol.Eof | Protocol.Oversized _ -> failwith "service connection lost")
        ready

(* decode and check one reply; its round trip joins [lat] *)
let decode g (o : Outcome.t) lat =
  let recv, body = Queue.pop g.inbox in
  match Protocol.decode_reply body with
  | Error _ -> Outcome.failed_op o
  | Ok r -> (
      match Hashtbl.find_opt g.pending r.id with
      | None -> Outcome.failed_op o
      | Some q ->
          Hashtbl.remove g.pending r.id;
          let p = g.env.payloads.(q.desc).(q.slot) in
          Stats.Samples.add lat (recv - q.sched);
          if r.status = Protocol.Ok then Outcome.checked o ~tol:p.tol (Payload.err p r.payload)
          else Outcome.failed_op o)

let drain g o lat =
  let deadline = now () + 30_000_000_000 in
  while Array.exists (fun k -> k > 0) g.outstanding do
    if now () > deadline then failwith "service replies did not arrive";
    ignore (poll g 0.1)
  done;
  while not (Queue.is_empty g.inbox) do
    decode g o lat
  done

let exp_gap rng = int_of_float (-.log (1.0 -. Random.State.float rng 1.0) /. rate *. 1e9)

(* Phase A round: Poisson arrivals, round-robin over the connections. *)
let open_round g o ~round_ns ~lat ~lag =
  Stats.Samples.clear lat;
  Stats.Samples.clear lag;
  let t_end = now () + round_ns in
  let next = ref (now () + exp_gap g.rng) and k = ref 0 in
  while !next < t_end do
    let t = now () in
    if t >= !next then begin
      Stats.Samples.add lag (t - !next);
      send g (!k mod conns) ~sched:!next;
      incr k;
      next := !next + exp_gap g.rng
    end
    else if (not (Queue.is_empty g.inbox)) && !next - t > 2_000_000 then decode g o lat
    else ignore (poll g (Clock.secs (!next - t)))
  done;
  drain g o lat

(* Phase B round: [depth] requests outstanding per connection; returns
   the replies completed within the round per second. *)
let closed_round g o ~round_ns ~lat =
  Stats.Samples.clear lat;
  let t_end = now () + round_ns in
  for c = 0 to conns - 1 do
    for _ = 1 to depth do
      send g c ~sched:(now ())
    done
  done;
  let completed = ref 0 in
  while now () < t_end do
    List.iter
      (fun c ->
        if now () < t_end then begin
          incr completed;
          send g c ~sched:(now ())
        end)
      (poll g 0.05);
    while not (Queue.is_empty g.inbox) do
      decode g o lat
    done
  done;
  drain g o lat;
  float_of_int !completed /. Clock.secs round_ns

let quantile_us samples q =
  Stats.quantile (Stats.Samples.to_us samples) q

(* Cold set-up: server start with the mix warmed, the connections, and
   the first verified reply. *)
let cold_setup ~seed ~dir =
  let p = Payload.make ~seed ~slot:0 (fst mix.(0)) in
  let body =
    Protocol.encode_request
      { op = Protocol.Exec; id = 1; deadline_ms = 0; descriptor = p.descriptor; payload = p.input }
  in
  let t0 = now () in
  let s = start ~dir in
  Protocol.write_frame s.fds.(0) body;
  let reply = Protocol.read_frame s.fds.(0) in
  let dt = Clock.secs (now () - t0) in
  stop s;
  (match reply with
  | Protocol.Frame b -> (
      match Protocol.decode_reply b with
      | Ok r when r.status = Protocol.Ok && Payload.err p r.payload <= p.tol -> ()
      | _ -> failwith "cold set-up: first reply is wrong")
  | _ -> failwith "cold set-up: no reply");
  (dt, dt)

let warm g =
  let scratch = Outcome.create () in
  open_round g scratch ~round_ns:300_000_000 ~lat:(Stats.Samples.create ())
    ~lag:(Stats.Samples.create ())

(* Server and generator around [f g o]; the server always stops. *)
let with_service ~seed ~dir env f =
  let s = start ~dir in
  Fun.protect ~finally:(fun () -> stop s) (fun () ->
      let g = gen ~seed env s.fds in
      warm g;
      f g)

(* The end-to-end metrics come from phase B, whose round trips and rate
   scale with host speed like the engine workloads' calls.  Phase A's
   open-loop latencies do not: a slow stretch builds a queue that later
   requests wait behind, so they are reported raw, outside BENCHMARK.json
   (README.md, "Workloads"). *)
let run ~seed ~dir ~rounds_a ~round_a ~rounds_b ~round_b (o : Outcome.t) =
  let lat = Stats.Samples.create () and lag = Stats.Samples.create () in
  let a, b =
    with_service ~seed ~dir (make_env ~seed) (fun g ->
        let a =
          Array.init rounds_a (fun _ ->
              open_round g o ~round_ns:(int_of_float (round_a *. 1e9)) ~lat ~lag;
              (quantile_us lat 0.5, quantile_us lat 0.99, quantile_us lag 0.99))
        in
        let b =
          Speed.around rounds_b (fun _ ->
              let rps = closed_round g o ~round_ns:(int_of_float (round_b *. 1e9)) ~lat in
              (quantile_us lat 0.5, quantile_us lat 0.99, rps))
        in
        (a, b))
  in
  (* a round trip crosses the generator, the server's threads and its
     executor, each of which may wait for a CPU, so round trips are
     scaled like the rate, by the kernel's wall reading *)
  let readings = Array.map snd b and pick f = Array.map (fun (x, _) -> f x) b in
  let ref_us = Array.map (fun r -> r.Speed.wall_us) readings in
  Outcome.speed_rounds o "" readings;
  Outcome.latency_rounds o "latency_us_p50" ~ref_us (pick (fun (x, _, _) -> x));
  Outcome.latency_rounds o "latency_us_tail" ~ref_us (pick (fun (_, x, _) -> x));
  Outcome.throughput_rounds o "throughput_rps" ~ref_us (pick (fun (_, _, x) -> x));
  Outcome.detail o "tail_percentile" (Json.Num 99.0);
  List.iter
    (fun (name, f) ->
      let v = Array.map f a in
      Outcome.rounds o name v;
      Outcome.metric o name "us" (Stats.median v))
    [
      ("open_loop_us_p50", fun (x, _, _) -> x);
      ("open_loop_us_p99", fun (_, x, _) -> x);
      ("loadgen.lag_us_p99", fun (_, _, x) -> x);
    ]

(* ---- replays for the per-layer ledger ---- *)

let weighted f = Array.fold_left ( +. ) 0.0 (Array.mapi (fun i (_, w) -> w *. f i) mix)

(* Protocol cost per request of the mix, each direction's encode and
   decode timed on its own (microseconds, mix-weighted). *)
type codec = { req_enc : float; req_dec : float; rep_enc : float; rep_dec : float }

let codec_replay env =
  let per i =
    let p = env.payloads.(i).(0) in
    let req =
      { Protocol.op = Protocol.Exec; id = 1; deadline_ms = 0; descriptor = p.descriptor;
        payload = p.input }
    in
    let rep = { Protocol.id = 1; status = Protocol.Ok; message = ""; payload = p.expect } in
    let req_b = Protocol.encode_request req and rep_b = Protocol.encode_reply rep in
    let t f = Clock.time_us ~loop_s:0.01 (fun () -> ignore (f ())) in
    [|
      t (fun () -> Protocol.encode_request req);
      t (fun () -> Protocol.decode_request req_b);
      t (fun () -> Protocol.encode_reply rep);
      t (fun () -> Protocol.decode_reply rep_b);
    |]
  in
  let ts = Array.init (Array.length mix) per in
  let w k = weighted (fun i -> ts.(i).(k)) in
  { req_enc = w 0; req_dec = w 1; rep_enc = w 2; rep_dec = w 3 }

(* Plans entry.exec per request of the mix, and its adapter cost: exec
   minus the front-end's allocation-free execute of the same descriptor. *)
let plans_replay env =
  let plans = Plans.create ~threads:2 () in
  let front i =
    let p = env.payloads.(i).(0) in
    let pr = Payload.problem p.descriptor in
    let dims = Spiral_fft.Problem.dims pr in
    let time f = Clock.time_us ~loop_s:0.01 f in
    match Spiral_fft.Problem.kind pr with
    | Spiral_fft.Problem.Rfft ->
        let n = dims.(0) in
        let dst = Cvec.create ((n / 2) + 1) in
        Spiral_fft.Rfft.with_plan ~threads:2 n (fun r ->
            time (fun () -> Spiral_fft.Rfft.forward_into r ~src:p.input ~dst))
    | Spiral_fft.Problem.Dft2d ->
        let dst = Cvec.create (dims.(0) * dims.(1)) in
        Spiral_fft.Dft2d.with_plan ~threads:2 ~rows:dims.(0) ~cols:dims.(1) (fun d ->
            time (fun () -> Spiral_fft.Dft2d.execute_into d ~src:p.input ~dst))
    | _ ->
        let dst = Cvec.create dims.(0) in
        Spiral_fft.Dft.with_plan ~threads:2 dims.(0) (fun d ->
            time (fun () -> Spiral_fft.Dft.execute_into d ~src:p.input ~dst))
  in
  let exec i =
    let p = env.payloads.(i).(0) in
    match Plans.lookup plans p.descriptor with
    | Ok e -> Clock.time_us ~loop_s:0.01 (fun () -> ignore (e.exec p.input))
    | Error _ -> failwith ("plans replay: " ^ p.descriptor)
  in
  let ex = Array.init (Array.length mix) exec in
  let fe = Array.init (Array.length mix) front in
  Plans.destroy_all plans;
  (weighted (fun i -> ex.(i)), weighted (fun i -> ex.(i) -. fe.(i)))

let service_counters = [ "service.shed"; "service.breaker_open"; "service.degraded_seq" ]

let residence () =
  match Counters.observation "service.reply_us" with
  | Some ob -> (ob.Counters.count, ob.Counters.sum)
  | None -> (0, 0.0)

(* Traced run: three interleaved pairs of phase-A rounds, untraced then
   traced; the replays run after the server has stopped (they share its
   worker pool). *)
let run_traced ~seed ~dir ~round_s ~trace_file (o : Outcome.t) =
  let lat = Stats.Samples.create () and lag = Stats.Samples.create () in
  let round_ns = int_of_float (round_s *. 1e9) in
  let snap = Layers.snapshot (service_counters @ Layers.runtime_counters) in
  let a = Layers.acc () and gc = Layers.gc () and dropped = ref 0 and reqs = ref [] in
  let rtt_ns = ref 0 and rtt_n = ref 0 and res_n = ref 0 and res_sum = ref 0.0 in
  let env = make_env ~seed in
  let rounds =
    with_service ~seed ~dir env (fun g ->
        Array.init 3 (fun r ->
            Layers.gc_measured gc o (fun () -> open_round g o ~round_ns ~lat ~lag);
            let untraced = quantile_us lat 0.5 and lag_p99 = quantile_us lag 0.99 in
            let rn0, rs0 = residence () in
            Trace.enable ~workers:2 ~capacity:(1 lsl 17) ();
            open_round g o ~round_ns ~lat ~lag;
            Trace.disable ();
            let rn1, rs1 = residence () in
            res_n := !res_n + rn1 - rn0;
            res_sum := !res_sum +. rs1 -. rs0;
            dropped := !dropped + Trace.dropped ();
            List.iter (Layers.add a) (Layers.ops ());
            reqs := Layers.request_spans () @ !reqs;
            if r = 2 then
              Out_channel.with_open_bin trace_file (fun oc ->
                  output_string oc (Trace.to_chrome_json ()));
            Trace.clear ();
            rtt_ns := !rtt_ns + Stats.Samples.total_ns lat;
            rtt_n := !rtt_n + Stats.Samples.length lat;
            (untraced, quantile_us lat 0.5, lag_p99)))
  in
  let pick f = Array.map f rounds in
  Layers.report_overhead o
    ~untraced:(pick (fun (u, _, _) -> u))
    ~traced:(pick (fun (_, t, _) -> t));
  Layers.report o a;
  Layers.report_counters o snap;
  Layers.report_gc o gc;
  let m = Outcome.metric o in
  m "loadgen.lag_us_p99" "us" (Stats.median (pick (fun (_, _, l) -> l)));
  m "trace.dropped" "count" (float_of_int !dropped);
  m "admission.shed_frac" "ratio"
    (Layers.since snap "service.shed" /. float_of_int (max 1 o.attempted));
  m "server.breaker_open" "count" (Layers.since snap "service.breaker_open");
  m "server.degraded_seq" "count" (Layers.since snap "service.degraded_seq");
  let c = codec_replay env in
  let exec_us, adapter_us = plans_replay env in
  m "protocol.codec_us" "us" (c.req_enc +. c.req_dec +. c.rep_enc +. c.rep_dec);
  m "plans.exec_us" "us" exec_us;
  m "plans.adapter_us" "us" adapter_us;
  let res = !res_sum /. float_of_int (max 1 !res_n) in
  m "server.residence_us" "us" res;
  (* residence ends before the reply is encoded and written; the
     executor's request span ends after *)
  let req_us = Stats.mean (Array.of_list (List.map (fun ns -> float_of_int ns /. 1e3) !reqs)) in
  m "admission.wait_us" "us" (res -. (req_us -. c.rep_enc));
  (* what the round trip spends outside the server's residence and the
     server-side codec: socket transfer, thread wake-ups, generator lag *)
  let rtt = float_of_int !rtt_ns /. float_of_int (max 1 !rtt_n) /. 1e3 in
  let transport = rtt -. res -. c.req_dec -. c.rep_enc in
  m "transport.us" "us" transport;
  m "layers.unaccounted_frac" "ratio" (transport /. rtt)
