open Spiral_util

(* Chaos soak for the daemon: concurrent client domains (honest tenants,
   a chaos tenant with scoped fault injection, a rogue that slams
   connections shut mid-request) hammer one server while worker faults
   fire in the parallel runtime.  The invariants the report lets a test
   assert:

   - zero wrong answers: every Ok reply matches a sequential reference
     within tolerance (degraded and retried executions included);
   - zero daemon deaths: the server still answers a ping and a fresh
     exec after the storm;
   - bounded error latency: the worst error reply (shed, deadline,
     injected) was produced in bounded time, not by a stuck wait;
   - isolation: honest tenants see no injected-fault errors even while
     the chaos tenant's requests trip them. *)

type client_stats = {
  mutable sent : int;
  mutable ok : int;
  mutable wrong : int;
  mutable shed : int;
  mutable deadline : int;
  mutable internal : int;
  mutable other_err : int;
}

let new_stats () =
  { sent = 0; ok = 0; wrong = 0; shed = 0; deadline = 0; internal = 0;
    other_err = 0 }

type report = {
  total : int;
  ok : int;
  wrong : int;
  shed : int;
  deadline : int;
  internal : int;
  other_err : int;
  honest_internal : int;  (* injected/internal errors seen by honest tenants *)
  rogue_connects : int;
  server_survived : bool;
  max_error_reply_us : float;  (* worst-case latency of an error reply *)
  pool_rebuilds : int;
  seq_fallbacks : int;
  breaker_opens : int;
}

let descriptors =
  [| "dft[64]f"; "dft[32]i"; "dft[128]f"; "dft2d[8x8]f"; "wht[64]f";
     "rfft[64]f"; "rfft[64]i"; "dct[32]f"; "dft[16]fx4" |]

(* deterministic payload for (seed, client, iteration) *)
let payload_for rng n =
  Array.init n (fun _ -> Random.State.float rng 2.0 -. 1.0)

let rms a =
  let s = ref 0.0 in
  Array.iter (fun x -> s := !s +. (x *. x)) a;
  sqrt (!s /. float_of_int (max 1 (Array.length a)))

let matches reference out =
  Array.length reference = Array.length out
  &&
  let d = Array.mapi (fun i x -> x -. out.(i)) reference in
  rms d <= 1e-6 *. Float.max 1.0 (rms reference)

(* one honest or chaos client: checked traffic over a mixed descriptor
   diet, every Ok reply verified against a sequential reference.  The
   reference table is this client's own: plan entries are single-caller
   (they own scratch buffers), so client domains sharing one table would
   corrupt the very answers they check against. *)
let traffic_client ~socket_path ~tenant ~seed ~requests ~deadline_ms stats =
  let rng = Random.State.make [| seed |] in
  let c = Client.connect socket_path in
  let reference = Plans.create ~threads:1 () in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      Plans.destroy_all reference)
    (fun () ->
      ignore (Client.hello c tenant);
      for i = 0 to requests - 1 do
        let descriptor =
          descriptors.(Random.State.int rng (Array.length descriptors))
        in
        match Plans.lookup reference descriptor with
        | Error _ -> ()
        | Ok entry ->
            let x = payload_for rng entry.in_floats in
            stats.sent <- stats.sent + 1;
            (match Client.exec c ~deadline_ms ~descriptor x with
            | { status = Protocol.Ok; payload = out; _ } ->
                let expected = entry.exec (Array.copy x) in
                if matches expected out then stats.ok <- stats.ok + 1
                else stats.wrong <- stats.wrong + 1
            | { status = Protocol.Overloaded; _ } -> stats.shed <- stats.shed + 1
            | { status = Protocol.Deadline; _ } ->
                stats.deadline <- stats.deadline + 1
            | { status = Protocol.Internal; _ } ->
                stats.internal <- stats.internal + 1
            | _ -> stats.other_err <- stats.other_err + 1
            | exception Client.Disconnected ->
                stats.other_err <- stats.other_err + 1);
            ignore i
      done)

(* the rogue: connect, post work, vanish without reading — the in-process
   stand-in for a client killed with SIGKILL mid-request.  The server
   must reap the connection and drop the orphaned replies without
   wedging. *)
let rogue_client ~socket_path ~seed ~rounds =
  let rng = Random.State.make [| seed |] in
  let connects = ref 0 in
  for _ = 1 to rounds do
    match Client.connect socket_path with
    | c ->
        incr connects;
        (try
           let descriptor =
             descriptors.(Random.State.int rng (Array.length descriptors))
           in
           let n = 128 in
           ignore (Client.exec_async c ~descriptor (payload_for rng n));
           ignore (Client.exec_async c ~descriptor (payload_for rng n))
         with Client.Disconnected -> ());
        (* no read, no goodbye *)
        Client.close c
    | exception Unix.Unix_error _ -> ()
  done;
  !connects

let run ?(seed = 42) ?(clients = 3) ?(requests = 200) ?(socket_path : string option)
    () =
  let socket_path =
    match socket_path with
    | Some p -> p
    | None ->
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "spiral-soak-%d-%d.sock" (Unix.getpid ()) seed)
  in
  let cfg = Server.default_config ~socket_path () in
  let cfg = { cfg with max_pending = 64; max_per_client = 16 } in
  let server = Server.start cfg in
  (* sequential reference plans for the survival check, which runs after
     every client domain has joined *)
  let reference = Plans.create ~threads:1 () in
  let rebuilds0 = Counters.get "pool.rebuild" in
  let seqfb0 = Counters.get "par_exec.sequential_fallback" in
  let breaker0 = Counters.get "service.breaker_open" in
  (* chaos schedule: the chaos tenant's requests trip scoped faults at
     the execution and delay sites; the whole runtime sees occasional
     worker faults (absorbed by the supervised path — answers stay
     correct) *)
  Fault.arm ~site:"service.exec" ~scope:"chaos" ~prob:0.25 ~times:max_int
    ~seed ();
  Fault.arm ~site:"service.delay" ~scope:"chaos" ~prob:0.15 ~times:max_int
    ~seed:(seed + 1) ();
  Fault.arm ~site:"pool.worker" ~prob:0.002 ~times:6 ~seed:(seed + 2) ();
  let honest_stats = Array.init (max 1 clients) (fun _ -> new_stats ()) in
  let chaos_stats = new_stats () in
  Fun.protect
    ~finally:(fun () ->
      Fault.reset ();
      Server.stop server;
      Plans.destroy_all reference)
    (fun () ->
      let honest =
        Array.mapi
          (fun i stats ->
            Domain.spawn (fun () ->
                traffic_client ~socket_path
                  ~tenant:(Printf.sprintf "honest%d" i)
                  ~seed:(seed + (7 * i))
                  ~requests ~deadline_ms:10_000 stats))
          honest_stats
      in
      let chaos =
        Domain.spawn (fun () ->
            traffic_client ~socket_path ~tenant:"chaos" ~seed:(seed + 100)
              ~requests ~deadline_ms:40 chaos_stats)
      in
      let rogue =
        Domain.spawn (fun () ->
            rogue_client ~socket_path ~seed:(seed + 200)
              ~rounds:(max 8 (requests / 8)))
      in
      Array.iter Domain.join honest;
      Domain.join chaos;
      let rogue_connects = Domain.join rogue in
      (* the survival check: after the storm the daemon answers a ping
         and serves a fresh, correct transform *)
      let survived =
        match Client.connect socket_path with
        | c ->
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                let pong = Client.ping c in
                let descriptor = "dft[64]f" in
                match Plans.lookup reference descriptor with
                | Error _ -> false
                | Ok entry ->
                    let rng = Random.State.make [| seed + 999 |] in
                    let x = payload_for rng entry.in_floats in
                    let reply = Client.exec c ~descriptor x in
                    pong.status = Protocol.Ok
                    && reply.status = Protocol.Ok
                    && matches (entry.exec (Array.copy x)) reply.payload)
        | exception (Unix.Unix_error _ | Client.Disconnected) -> false
      in
      let sum f =
        Array.fold_left (fun acc s -> acc + f s) 0 honest_stats + f chaos_stats
      in
      let honest_internal =
        Array.fold_left
          (fun acc (s : client_stats) -> acc + s.internal)
          0 honest_stats
      in
      let max_err_us =
        match Counters.observation "service.error_reply_us" with
        | Some o -> o.Counters.max
        | None -> 0.0
      in
      {
        total = sum (fun s -> s.sent);
        ok = sum (fun s -> s.ok);
        wrong = sum (fun s -> s.wrong);
        shed = sum (fun s -> s.shed);
        deadline = sum (fun s -> s.deadline);
        internal = sum (fun s -> s.internal);
        other_err = sum (fun s -> s.other_err);
        honest_internal;
        rogue_connects;
        server_survived = survived;
        max_error_reply_us = max_err_us;
        pool_rebuilds = Counters.get "pool.rebuild" - rebuilds0;
        seq_fallbacks = Counters.get "par_exec.sequential_fallback" - seqfb0;
        breaker_opens = Counters.get "service.breaker_open" - breaker0;
      })

let pp_report ppf r =
  Format.fprintf ppf
    "soak: total=%d ok=%d wrong=%d shed=%d deadline=%d internal=%d other=%d@ \
     honest_internal=%d rogue_connects=%d survived=%b@ \
     max_error_reply_us=%.0f pool_rebuilds=%d seq_fallbacks=%d \
     breaker_opens=%d"
    r.total r.ok r.wrong r.shed r.deadline r.internal r.other_err
    r.honest_internal r.rogue_connects r.server_survived r.max_error_reply_us
    r.pool_rebuilds r.seq_fallbacks r.breaker_opens
