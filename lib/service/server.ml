open Spiral_util

(* The resident FFT daemon.  Engineering goal: stay up under hostile
   load.  The robustness layers, outermost first:

   - framing: a 4-byte length prefix bounds every read; the request
     limit is derived from the configured [max_total] (not a generous
     global), so a hostile length prefix cannot pin more memory than a
     legitimate maximal request; oversized or malformed frames get an
     error reply without desynchronizing or crashing anything.  Each
     reader reuses one frame buffer for its connection (requests in,
     its replies out) and the executor one for its replies; storage grown past [Protocol.retain_max] is
     dropped after its frame, so retained frame memory stays bounded
     by (max_conns + 1) x 1 MiB;
   - admission: a bounded, client-fair queue ({!Admission}); excess load
     is shed immediately with [Overloaded], one pipelining tenant cannot
     starve the others; concurrent connections are capped at accept, so
     reader threads and frame buffers stay bounded too;
   - deadlines: a request carries its total budget; it is rejected with
     [Deadline] the moment the budget is found exhausted (at dequeue and
     after execution), and the execution itself can never hang — every
     pool/barrier wait in the runtime is bounded, surfacing as an
     exception that becomes a structured reply;
   - supervised execution: the engine's safe path already retries once
     on a healed pool and falls back to a correct sequential run; the
     server adds a circuit breaker on top — consecutive degraded
     executions open it, parallel planning is bypassed for an
     exponentially growing backoff window (requests run on cached
     sequential plans), then a probe request closes it again;
   - tenant isolation: faults are scoped per client
     ({!Spiral_util.Fault.check_scoped}); a request that trips injection
     or produces corrupt output gets an [Internal] reply, sick pools are
     healed ({!Spiral_smp.Pool_registry.heal_sick}) and the possibly
     poisoned plan is evicted — cached plans and queued requests of
     other clients are untouched;
   - connection supervision: each connection has one reader thread; a
     client that vanishes (kill -9) mid-request is detected on read or
     write failure, its queue is purged, and in-flight replies to it are
     dropped; reply writes carry a send timeout (SO_SNDTIMEO per
     syscall, a wall-clock bound per frame), so a live client that
     simply stops reading takes the same exit — neither a dead nor a
     stalled peer can wedge the executor.

   Threading: the accept loop and per-connection readers are systhreads
   (they block in I/O); the single executor runs in its own domain and
   is the only thread that executes plans, so the worker pool's
   one-dispatcher discipline holds by construction. *)

type config = {
  socket_path : string;
  threads : int;  (* worker count requests are planned for *)
  mu : int;
  max_pending : int;  (* admission: global queue bound *)
  max_per_client : int;  (* admission: per-client pending bound *)
  max_conns : int;  (* concurrent connections; excess rejected at accept *)
  max_total : int;  (* largest problem (complex elements) served *)
  max_plans : int;  (* resident compiled plans before LRU eviction *)
  pool_timeout : float;  (* bound on every parallel wait (seconds) *)
  send_timeout : float;  (* total budget for any one reply write (seconds) *)
  breaker_threshold : int;  (* consecutive sick executions to open *)
  backoff_base : float;  (* first backoff window (seconds) *)
  backoff_max : float;  (* backoff growth cap *)
  warm : string list;  (* descriptors planned at boot, before accept *)
}

let default_config ~socket_path () =
  {
    socket_path;
    threads = 2;
    mu = 4;
    max_pending = 256;
    max_per_client = 32;
    max_conns = 64;
    max_total = Spiral_fft.Engine.default_total_limit;
    max_plans = 64;
    pool_timeout = 5.0;
    send_timeout = 1.0;
    breaker_threshold = 3;
    backoff_base = 0.05;
    backoff_max = 2.0;
    warm = [];
  }

type conn = {
  fd : Unix.file_descr;
  cid : int;
  mutable tenant : string;
      (* fault scope; defaults to "c<cid>".  Written only by this
         connection's reader thread (Hello) and captured into each job
         at admission — the executor domain never reads this field, so
         there is no cross-domain race and a request keeps the scope it
         was admitted under even if a Hello lands while it is queued. *)
  alive : bool Atomic.t;
  wlock : Mutex.t;  (* reader (sheds, pings) and executor both write *)
  send_timeout : float;  (* total budget for one reply write *)
}

type job = {
  conn : conn;
  req : Protocol.request;
  enq_ns : int;
  tenant : string;  (* fault scope frozen at admission *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  frame_limit : int;  (* request frames above this are rejected unread *)
  queue : job Admission.t;
  plans : Plans.t;
  stopping : bool Atomic.t;
  conns : (int, conn) Hashtbl.t;
  conns_lock : Mutex.t;
  mutable next_cid : int;
  mutable accept_thread : Thread.t option;
  mutable executor : unit Domain.t option;
  readers : (int, Thread.t) Hashtbl.t;
      (* reader thread per live connection, keyed by cid; guarded by
         conns_lock.  Each reader registers itself on entry and prunes
         its own entry on exit, so connection churn cannot grow it. *)
  reply_buf : Protocol.Buf.t;
      (* executor-domain private: every executor reply is framed here *)
  (* circuit breaker state — executor-domain private *)
  mutable sick_streak : int;
  mutable breaker_level : int;
  mutable breaker_until : float;
}

(* ---- replies ---- *)

(* Reply writes are doubly bounded: SO_SNDTIMEO on the fd caps each
   blocking syscall, and [write_reply ~timeout] caps the whole frame —
   so neither a full socket buffer (a ~64 MiB reply against a ~200 KiB
   buffer) nor a byte-at-a-time trickle reader can hold the executor.
   A write that fails takes the same exit as a dead peer: the connection
   is marked dead (queued jobs for it are skipped), and the fd is shut
   down so the blocked reader wakes, reaps the connection, and purges
   its admission queue.

   Every reply is framed straight into a caller-owned buffer and
   written from it (no per-reply frame allocation, no body-to-frame
   copy): the executor frames into its own, a reader into the buffer
   its request was read into — the request is fully decoded into fresh
   values by then, and only that reader thread touches the buffer. *)
let send_reply buf conn (reply : Protocol.reply) =
  if Atomic.get conn.alive then begin
    Mutex.lock conn.wlock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock conn.wlock)
      (fun () ->
        try Protocol.write_reply ~timeout:conn.send_timeout buf conn.fd reply
        with Unix.Unix_error _ | Sys_error _ as e ->
          (* ETIMEDOUT: live peer that stopped reading; anything else
             (EPIPE after a kill -9, …): peer is gone.  Either way the
             reply is dropped and the reader reaps the connection. *)
          Atomic.set conn.alive false;
          (match e with
          | Unix.Unix_error (Unix.ETIMEDOUT, _, _) ->
              Counters.incr "service.client_stalled"
          | _ -> Counters.incr "service.client_gone");
          (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
           with Unix.Unix_error _ -> ()))
  end

let error_reply ?(payload = [||]) id status message : Protocol.reply =
  { id; status; message; payload }

(* every error reply is latency-accounted so the soak can assert the
   bound: errors must be fast, not the result of a stuck wait *)
let send_error buf conn ~since_ns id status message =
  Counters.incr ("service.reply." ^ Protocol.status_to_string status);
  Counters.observe "service.error_reply_us"
    (float_of_int (Trace.now_ns () - since_ns) /. 1e3);
  send_reply buf conn (error_reply id status message)

let status_of_engine_error : Spiral_fft.Engine.error -> Protocol.status =
  function
  | Bad_descriptor _ -> Protocol.Bad_descriptor
  | Too_large _ | Unsupported _ -> Protocol.Unsupported
  | Destroyed | Failed _ -> Protocol.Internal
  | Bad_length _ -> Protocol.Bad_payload

(* ---- executor ---- *)

let now () = Unix.gettimeofday ()

let deadline_expired job =
  job.req.deadline_ms > 0
  && Trace.now_ns () - job.enq_ns > job.req.deadline_ms * 1_000_000

let all_finite a =
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    if not (Float.is_finite (Array.unsafe_get a i)) then ok := false
  done;
  !ok

(* Degradation bookkeeping around one execution: the parallel runtime is
   "sick" when the supervised path had to retry or fall back, or a pool
   was rebuilt.  [breaker_threshold] consecutive sick executions open
   the breaker: for an exponentially growing window all requests run on
   sequential plans (counted under "service.degraded_seq" and the
   engine-wide "engine.seq_fallback"), then one probe request tries the
   parallel path again. *)
let sickness_signal () =
  Counters.get "par_exec.retry"
  + Counters.get "par_exec.sequential_fallback"
  + Counters.get "pool.rebuild"

let breaker_open t = t.breaker_level > 0 && now () < t.breaker_until

let breaker_note_sick t =
  t.sick_streak <- t.sick_streak + 1;
  if t.sick_streak >= t.cfg.breaker_threshold || t.breaker_level > 0 then begin
    t.sick_streak <- 0;
    t.breaker_level <- min 16 (t.breaker_level + 1);
    let window =
      Float.min t.cfg.backoff_max
        (t.cfg.backoff_base *. (2.0 ** float_of_int (t.breaker_level - 1)))
    in
    t.breaker_until <- now () +. window;
    Counters.incr "service.breaker_open"
  end

let breaker_note_healthy t =
  t.sick_streak <- 0;
  if t.breaker_level > 0 then begin
    t.breaker_level <- 0;
    Counters.incr "service.breaker_close"
  end

let exec_one t job =
  let { conn; req; enq_ns; tenant } = job in
  let buf = t.reply_buf in
  let reply_error status msg =
    send_error buf conn ~since_ns:enq_ns req.id status msg
  in
  if deadline_expired job then reply_error Protocol.Deadline "expired in queue"
  else begin
    (* chaos hook: a "service.delay" injection stalls this request (the
       executor survives; deadline/shedding behavior becomes testable) *)
    (try Fault.check_scoped ~scope:tenant "service.delay"
     with Fault.Injected _ -> Unix.sleepf 0.05);
    let seq = breaker_open t in
    if seq then begin
      Counters.incr "service.degraded_seq";
      Counters.incr "engine.seq_fallback"
    end
    else if t.breaker_level > 0 then Counters.incr "service.breaker_probe";
    let sick0 = sickness_signal () in
    match
      (* per-tenant injection point: a fault here is this request's
         fault and nobody else's *)
      Fault.check_scoped ~scope:tenant "service.exec";
      Plans.lookup ~seq t.plans req.descriptor
    with
    | Error e ->
        reply_error (status_of_engine_error e)
          (Spiral_fft.Engine.error_to_string e)
    | Ok entry when Array.length req.payload <> entry.in_floats ->
        reply_error Protocol.Bad_payload
          (Printf.sprintf "expected %d float64s, got %d" entry.in_floats
             (Array.length req.payload))
    | Ok _ when not (all_finite req.payload) ->
        reply_error Protocol.Bad_payload "payload contains non-finite samples"
    | Ok entry -> (
        (* in place: the entry owns [out], and the reply is framed from
           it before the executor takes its next job *)
        let out = Plans.output entry in
        match entry.exec_into req.payload out with
        | () when not (all_finite out) ->
            (* finite in, non-finite out: the cached plan (or its pool)
               is corrupt.  Isolate: error reply to this tenant, heal
               sick pools, evict the plan so the next request replans —
               other tenants' plans and queued requests are untouched. *)
            Counters.incr "service.corrupt_output";
            let healed = Spiral_smp.Pool_registry.heal_sick () in
            Plans.evict t.plans req.descriptor;
            breaker_note_sick t;
            reply_error Protocol.Internal
              (Printf.sprintf
                 "non-finite output from a finite payload (plan evicted, %d \
                  pool(s) healed)"
                 healed)
        | () ->
            if sickness_signal () > sick0 then breaker_note_sick t
            else if not seq then breaker_note_healthy t;
            if deadline_expired job then
              reply_error Protocol.Deadline "completed past the deadline"
            else begin
              Counters.incr "service.reply.ok";
              Counters.observe "service.reply_us"
                (float_of_int (Trace.now_ns () - enq_ns) /. 1e3);
              send_reply buf conn
                { id = req.id; status = Protocol.Ok; message = ""; payload = out }
            end
        | exception e ->
            (* execution failed (injected fault, worker wreckage that
               escaped the safe path, …).  The daemon survives: error
               reply, heal what is sick, drop the possibly poisoned
               plan. *)
            Counters.incr "service.internal";
            let healed = Spiral_smp.Pool_registry.heal_sick () in
            (match e with
            | Fault.Injected _ ->
                (* request-scoped chaos; the plan is fine and one
                   tenant's faults must not open the breaker (that would
                   degrade every other tenant to sequential service) *)
                ()
            | _ ->
                Plans.evict t.plans req.descriptor;
                breaker_note_sick t);
            reply_error Protocol.Internal
              (Printf.sprintf "%s (%d pool(s) healed)" (Printexc.to_string e)
                 healed))
    | exception Fault.Injected site ->
        (* tenant-scoped injection: structured reply and pool hygiene,
           but no breaker pressure — isolation means one tenant's chaos
           cannot degrade the others *)
        Counters.incr "service.internal";
        let healed = Spiral_smp.Pool_registry.heal_sick () in
        reply_error Protocol.Internal
          (Printf.sprintf "injected fault at %s (%d pool(s) healed)" site healed)
  end

let executor_loop t =
  let rec loop () =
    match Admission.take t.queue with
    | None -> () (* closed and drained: graceful exit *)
    | Some job ->
        if Atomic.get job.conn.alive then begin
          Trace.begin_span 0 Trace.cat_request job.req.id;
          (* belt and braces: nothing may escape the executor — an
             uncaught exception here would kill the daemon for every
             tenant *)
          (try exec_one t job
           with e ->
             Counters.incr "service.executor_rescue";
             send_error t.reply_buf job.conn ~since_ns:job.enq_ns
               job.req.id Protocol.Internal (Printexc.to_string e));
          Protocol.Buf.trim t.reply_buf;
          Trace.end_span 0 Trace.cat_request job.req.id
        end
        else Counters.incr "service.orphaned";
        loop ()
  in
  loop ()

(* ---- per-connection reader ---- *)

let handle_request t conn buf (req : Protocol.request) =
  let since_ns = Trace.now_ns () in
  match req.op with
  | Protocol.Ping ->
      send_reply buf conn
        { id = req.id; status = Protocol.Ok; message = "pong"; payload = [||] }
  | Protocol.Hello ->
      (* tenant self-identification: the name becomes the fault scope *)
      if req.descriptor <> "" then conn.tenant <- req.descriptor;
      send_reply buf conn
        { id = req.id; status = Protocol.Ok; message = conn.tenant; payload = [||] }
  | Protocol.Stats ->
      send_reply buf conn
        {
          id = req.id;
          status = Protocol.Ok;
          message = Counters.to_prometheus ();
          payload = [||];
        }
  | Protocol.Info -> (
      match Spiral_fft.Engine.parse_problem ~limit:t.cfg.max_total req.descriptor with
      | Error e ->
          send_error buf conn ~since_ns req.id (status_of_engine_error e)
            (Spiral_fft.Engine.error_to_string e)
      | Ok problem -> (
          match Plans.io_floats problem with
          | Error e ->
              send_error buf conn ~since_ns req.id (status_of_engine_error e)
                (Spiral_fft.Engine.error_to_string e)
          | Ok (i, o) ->
              send_reply buf conn
                {
                  id = req.id;
                  status = Protocol.Ok;
                  message = Printf.sprintf "in=%d out=%d" i o;
                  payload = [||];
                }))
  | Protocol.Exec -> (
      if Atomic.get t.stopping then
        send_error buf conn ~since_ns req.id Protocol.Shutting_down
          "server is draining"
      else
        match
          Fault.check_scoped ~scope:conn.tenant "service.admit";
          (* freeze the fault scope here: [conn.tenant] belongs to this
             reader thread, the executor domain only ever sees the
             captured copy *)
          Admission.submit t.queue ~client:conn.cid
            { conn; req; enq_ns = since_ns; tenant = conn.tenant }
        with
        | Admission.Accepted -> Counters.incr "service.accepted"
        | Admission.Queue_full ->
            Counters.incr "service.shed";
            send_error buf conn ~since_ns req.id Protocol.Overloaded
              "admission queue full"
        | Admission.Client_full ->
            Counters.incr "service.shed";
            send_error buf conn ~since_ns req.id Protocol.Overloaded
              "per-client pending limit reached"
        | Admission.Closed ->
            send_error buf conn ~since_ns req.id Protocol.Shutting_down
              "server is draining"
        | exception Fault.Injected site ->
            Counters.incr "service.internal";
            send_error buf conn ~since_ns req.id Protocol.Internal
              ("injected fault at " ^ site))

let reader_loop t conn =
  (* register under conns_lock so [stop] can join us; the matching
     removal happens in [fin] on this same thread, so registration
     always precedes it and the table is bounded by live connections *)
  Mutex.lock t.conns_lock;
  Hashtbl.replace t.readers conn.cid (Thread.self ());
  Mutex.unlock t.conns_lock;
  let fin () =
    if Atomic.get conn.alive then begin
      Atomic.set conn.alive false;
      Counters.incr "service.disconnect"
    end;
    let purged = Admission.drop_client t.queue conn.cid in
    if purged <> [] then
      Counters.incr ~by:(List.length purged) "service.purged";
    Mutex.lock t.conns_lock;
    Hashtbl.remove t.conns conn.cid;
    Hashtbl.remove t.readers conn.cid;
    Mutex.unlock t.conns_lock;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  in
  (* this reader's frame storage: every request body lands here and
     every reply it sends is framed here; the decoded payload is the one
     fresh array a request costs *)
  let buf = Protocol.Buf.create () in
  (try
     while Atomic.get conn.alive do
       match Protocol.read_frame_into ~limit:t.frame_limit buf conn.fd with
       | Protocol.Eof -> Atomic.set conn.alive false
       | Protocol.Oversized len ->
           Counters.incr "service.oversized";
           send_reply buf conn
             (error_reply 0 Protocol.Bad_request
                (Printf.sprintf "frame of %d bytes exceeds the limit" len));
           (* the stream position is unknown past a rejected length:
              drop the connection rather than serve garbage *)
           Atomic.set conn.alive false
       | Protocol.Frame len ->
           (match
              Protocol.decode_request_prefix (Protocol.Buf.bytes buf) len
            with
           | Error msg ->
               Counters.incr "service.bad_frame";
               send_reply buf conn (error_reply 0 Protocol.Bad_request msg)
           | Ok req -> handle_request t conn buf req);
           Protocol.Buf.trim buf
     done
   with
  | Unix.Unix_error _ | Sys_error _ -> ()
  | e ->
      Counters.incr "service.reader_rescue";
      prerr_endline ("spiral-service reader: " ^ Printexc.to_string e));
  fin ()

(* ---- lifecycle ---- *)

(* Poll with a short timeout instead of parking in [accept]: on Linux,
   closing a socket does NOT wake a thread already blocked in accept(2)
   on it, so a blocking loop would hang shutdown.  The 200 ms tick
   bounds how long [stop] waits for this thread. *)
let accept_loop t =
  while not (Atomic.get t.stopping) do
    match Unix.select [ t.listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | exception Unix.Unix_error _ -> Thread.yield ()
    | _ -> (
        match Unix.accept t.listen_fd with
        | exception Unix.Unix_error _ -> ()
        | fd, _ ->
            (* bound every blocking write syscall on this connection: a
               peer that stops reading makes the write fail instead of
               parking a server thread forever *)
            (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.send_timeout
             with Unix.Unix_error _ | Invalid_argument _ -> ());
            let over =
              Mutex.lock t.conns_lock;
              let n = Hashtbl.length t.conns in
              Mutex.unlock t.conns_lock;
              n >= t.cfg.max_conns
            in
            if over then begin
              (* connection cap: resident reader threads and per-frame
                 buffers stay bounded no matter how many peers pile in;
                 the reject is a best-effort structured reply *)
              Counters.incr "service.conn_rejected";
              (try
                 Protocol.write_reply ~timeout:t.cfg.send_timeout
                   (Protocol.Buf.create ()) fd
                   {
                     id = 0;
                     status = Protocol.Overloaded;
                     message = "connection limit reached";
                     payload = [||];
                   }
               with Unix.Unix_error _ | Sys_error _ -> ());
              try Unix.close fd with Unix.Unix_error _ -> ()
            end
            else begin
              let conn =
                Mutex.lock t.conns_lock;
                let cid = t.next_cid in
                t.next_cid <- cid + 1;
                let conn =
                  {
                    fd;
                    cid;
                    tenant = "c" ^ string_of_int cid;
                    alive = Atomic.make true;
                    wlock = Mutex.create ();
                    send_timeout = t.cfg.send_timeout;
                  }
                in
                Hashtbl.replace t.conns cid conn;
                Mutex.unlock t.conns_lock;
                conn
              in
              Counters.incr "service.accept";
              ignore (Thread.create (fun () -> reader_loop t conn) () : Thread.t)
            end)
  done

let start cfg =
  if cfg.threads < 1 then invalid_arg "Server.start: threads >= 1";
  (* a client death between our poll of its socket and our write must be
     an EPIPE error, not a process-killing signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  (* create the shared pool up front with the service's bounded wait, so
     every plan's parallel run inherits a deadline-compatible timeout and
     the first request does not pay domain-spawn latency *)
  if cfg.threads > 1 then
    Spiral_smp.Pool_registry.release
      (Spiral_smp.Pool_registry.acquire ~timeout:cfg.pool_timeout cfg.threads);
  let t =
    {
      cfg;
      listen_fd;
      frame_limit = Protocol.request_frame_bound ~max_total:cfg.max_total;
      queue =
        Admission.create ~max_pending:cfg.max_pending
          ~max_per_client:cfg.max_per_client ();
      plans =
        Plans.create ~threads:cfg.threads ~mu:cfg.mu ~max_total:cfg.max_total
          ~max_plans:cfg.max_plans ();
      stopping = Atomic.make false;
      conns = Hashtbl.create 16;
      conns_lock = Mutex.create ();
      next_cid = 0;
      accept_thread = None;
      executor = None;
      readers = Hashtbl.create 16;
      reply_buf = Protocol.Buf.create ();
      sick_streak = 0;
      breaker_level = 0;
      breaker_until = 0.0;
    }
  in
  (* plan warm descriptors before the socket starts accepting: the first
     request for a warmed transform hits a cached plan instead of paying
     derivation and pool-residency establishment on its own latency.
     Runs on this thread, before the executor domain exists, so the
     one-dispatcher discipline holds.  Bad descriptors are counted, not
     fatal — a typo in a boot flag must not take the service down. *)
  List.iter
    (fun d ->
      match Plans.lookup t.plans d with
      | Ok _ -> Counters.incr "service.warm_plan"
      | Error _ -> Counters.incr "service.warm_fail")
    cfg.warm;
  t.executor <- Some (Domain.spawn (fun () -> executor_loop t));
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let stop t =
  if not (Atomic.get t.stopping) then begin
    Atomic.set t.stopping true;
    (* the accept loop polls the flag every 200 ms; join it before
       closing the fd it selects on *)
    Option.iter Thread.join t.accept_thread;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* graceful drain: accepted work finishes, then the executor exits *)
    Admission.close t.queue;
    Option.iter Domain.join t.executor;
    (* reap connections: closing the fds unblocks the readers *)
    let conns =
      Mutex.lock t.conns_lock;
      let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
      Mutex.unlock t.conns_lock;
      cs
    in
    List.iter
      (fun c ->
        Atomic.set c.alive false;
        try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    let readers =
      Mutex.lock t.conns_lock;
      let rs = Hashtbl.fold (fun _ th acc -> th :: acc) t.readers [] in
      Mutex.unlock t.conns_lock;
      rs
    in
    List.iter Thread.join readers;
    Plans.destroy_all t.plans;
    (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ())
  end

let plan_count t = Plans.size t.plans

let pending t = Admission.pending t.queue

let reader_count t =
  Mutex.lock t.conns_lock;
  let n = Hashtbl.length t.readers in
  Mutex.unlock t.conns_lock;
  n
