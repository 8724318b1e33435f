(* Service layer: wire protocol, admission queue, and end-to-end daemon
   behavior — correctness per descriptor kind, structured error replies,
   deadlines, load shedding, tenant isolation, abrupt disconnects, and
   the in-process chaos soak. *)

open Spiral_util
open Spiral_service

let sock_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spiral-test-%d-%d.sock" (Unix.getpid ()) !n)

let with_server ?(threads = 2) ?(tweak = fun c -> c) f =
  let path = sock_path () in
  let cfg = Server.default_config ~socket_path:path () in
  let cfg = tweak { cfg with Server.threads } in
  let server = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Fault.reset ();
      Server.stop server)
    (fun () -> f path server)

let with_client path f =
  let c = Client.connect path in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let check_status msg expected got = Alcotest.(check string) msg expected got

let status_name (r : Protocol.reply) = Protocol.status_to_string r.status

(* ---- protocol ---- *)

let test_protocol_roundtrip () =
  let req : Protocol.request =
    {
      op = Protocol.Exec;
      id = 0xDEAD;
      deadline_ms = 1500;
      descriptor = "dft2d[16x16]f";
      payload = [| 1.5; -0.0; Float.min_float; 1e300; -3.25 |];
    }
  in
  (match Protocol.decode_request (Protocol.encode_request req) with
  | Error e -> Alcotest.failf "decode_request: %s" e
  | Ok got ->
      Alcotest.(check int) "id" req.id got.id;
      Alcotest.(check int) "deadline" req.deadline_ms got.deadline_ms;
      Alcotest.(check string) "descriptor" req.descriptor got.descriptor;
      Alcotest.(check bool) "op" true (got.op = Protocol.Exec);
      Alcotest.(check int) "payload length" 5 (Array.length got.payload);
      Array.iteri
        (fun i x ->
          Alcotest.(check bool)
            (Printf.sprintf "float bit-exact at %d" i)
            true
            (Int64.equal (Int64.bits_of_float x)
               (Int64.bits_of_float got.payload.(i))))
        req.payload);
  let reply : Protocol.reply =
    { id = 7; status = Protocol.Overloaded; message = "queue full"; payload = [||] }
  in
  match Protocol.decode_reply (Protocol.encode_reply reply) with
  | Error e -> Alcotest.failf "decode_reply: %s" e
  | Ok got ->
      Alcotest.(check int) "reply id" 7 got.id;
      Alcotest.(check bool) "reply status" true (got.status = Protocol.Overloaded);
      Alcotest.(check string) "reply message" "queue full" got.message

let test_protocol_garbage () =
  (match Protocol.decode_request (Bytes.of_string "xx") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated request decoded");
  (* a valid header with a descriptor length pointing past the body *)
  let b = Bytes.make 12 '\000' in
  Bytes.set b 0 '\001';
  Bytes.set b 10 '\255';
  (match Protocol.decode_request b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overlong descriptor decoded");
  match Protocol.decode_reply (Bytes.of_string "") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty reply decoded"

(* ---- codec equivalence and fuzzing ---- *)

(* The closure-based codec the unboxed loops replaced, kept verbatim as
   the wire-format oracle: every frame must stay byte-identical to it. *)
module Ref_codec = struct
  let put_floats b off xs =
    Array.iteri
      (fun i v -> Bytes.set_int64_be b (off + (8 * i)) (Int64.bits_of_float v))
      xs

  let op_code : Protocol.op -> int = function
    | Exec -> 1
    | Ping -> 2
    | Stats -> 3
    | Hello -> 4
    | Info -> 5

  let encode_request (r : Protocol.request) =
    let dlen = String.length r.descriptor in
    let b = Bytes.create (1 + 4 + 4 + 2 + dlen + (8 * Array.length r.payload)) in
    Bytes.set_uint8 b 0 (op_code r.op);
    Bytes.set_int32_be b 1 (Int32.of_int r.id);
    Bytes.set_int32_be b 5 (Int32.of_int r.deadline_ms);
    Bytes.set_uint16_be b 9 dlen;
    Bytes.blit_string r.descriptor 0 b 11 dlen;
    put_floats b (11 + dlen) r.payload;
    b

  let encode_reply (r : Protocol.reply) =
    let mlen = String.length r.message in
    let b = Bytes.create (1 + 4 + 4 + mlen + (8 * Array.length r.payload)) in
    Bytes.set_uint8 b 0 (Protocol.status_code r.status);
    Bytes.set_int32_be b 1 (Int32.of_int r.id);
    Bytes.set_int32_be b 5 (Int32.of_int mlen);
    Bytes.blit_string r.message 0 b 9 mlen;
    put_floats b (9 + mlen) r.payload;
    b
end

(* samples whose bits a lossy path would change: signed zero, the
   smallest subnormals, infinities, quiet/signalling/negative NaNs *)
let special_samples =
  Array.append
    [|
      -0.0;
      0.0;
      Int64.float_of_bits 1L;
      Int64.float_of_bits 0x000fffffffffffffL;
      Float.infinity;
      Float.neg_infinity;
    |]
    (Array.map Int64.float_of_bits
       [| 0x7ff8000000000000L; 0x7ff0000000000001L; 0xfff8000000000000L;
          0x7fffffffffffffffL; 0xfff4000000000abcL |])

let codec_payload n =
  let rng = Random.State.make [| n |] in
  let k = Array.length special_samples in
  Array.init n (fun i ->
      if i mod 3 = 0 then special_samples.(i / 3 mod k)
      else Random.State.float rng 2e3 -. 1e3)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let test_codec_reference () =
  let buf = Protocol.Buf.create () in
  (* descending sizes: each framed reply reuses storage a longer frame
     left behind *)
  List.iter
    (fun n ->
      let payload = codec_payload n in
      let req : Protocol.request =
        {
          op = Protocol.Exec;
          id = 0xFFFFFFFF - n;
          deadline_ms = n;
          descriptor = "dft[16]f";
          payload;
        }
      in
      let body = Protocol.encode_request req in
      Alcotest.(check bool)
        (Printf.sprintf "request bytes = reference (n=%d)" n)
        true
        (Bytes.equal body (Ref_codec.encode_request req));
      (match Protocol.decode_request body with
      | Ok got ->
          Alcotest.(check int) "id" req.id got.id;
          Alcotest.(check int) "deadline" req.deadline_ms got.deadline_ms;
          Alcotest.(check string) "descriptor" req.descriptor got.descriptor;
          Alcotest.(check bool)
            (Printf.sprintf "request payload bit-exact (n=%d)" n)
            true
            (same_bits payload got.payload)
      | Error e -> Alcotest.failf "decode_request n=%d: %s" n e);
      (* a body decoded from the prefix of a larger buffer ignores the
         bytes past it *)
      let slack = Bytes.cat body (Bytes.make 24 '\xff') in
      (match Protocol.decode_request_prefix slack (Bytes.length body) with
      | Ok got ->
          Alcotest.(check bool)
            "prefix decode bit-exact" true
            (same_bits payload got.payload)
      | Error e -> Alcotest.failf "decode_request_prefix n=%d: %s" n e);
      let rep : Protocol.reply =
        { id = n; status = Protocol.Internal; message = "detail"; payload }
      in
      let rbody = Protocol.encode_reply rep in
      Alcotest.(check bool)
        (Printf.sprintf "reply bytes = reference (n=%d)" n)
        true
        (Bytes.equal rbody (Ref_codec.encode_reply rep));
      let len = Protocol.frame_reply buf rep in
      let framed = Bytes.sub (Protocol.Buf.bytes buf) 0 len in
      let expect = Bytes.create 4 in
      Bytes.set_int32_be expect 0 (Int32.of_int (Bytes.length rbody));
      Alcotest.(check bool)
        (Printf.sprintf "framed reply = header + reference body (n=%d)" n)
        true
        (Bytes.equal framed (Bytes.cat expect (Ref_codec.encode_reply rep)));
      match Protocol.decode_reply rbody with
      | Ok got ->
          Alcotest.(check string) "message" rep.message got.message;
          Alcotest.(check bool)
            (Printf.sprintf "reply payload bit-exact (n=%d)" n)
            true
            (same_bits payload got.payload)
      | Error e -> Alcotest.failf "decode_reply n=%d: %s" n e)
    [ 32768; 2048; 1; 0 ]

(* A decoder must answer every input with a value, never an exception.
   A cut through the fixed header, the descriptor/message or a float is
   an [Error]; a cut on a float boundary is itself a well-formed body
   (the frame, not the body, carries the length), so it decodes to the
   shorter payload.  Whatever decodes must re-encode to the same bytes:
   the decoders accept only canonical bodies. *)
let test_codec_fuzz () =
  let req : Protocol.request =
    { op = Protocol.Exec; id = 77; deadline_ms = 5; descriptor = "dft[4]f";
      payload = codec_payload 8 }
  in
  let rep : Protocol.reply =
    { id = 77; status = Protocol.Ok; message = "m"; payload = codec_payload 8 }
  in
  let check_trunc name decode encode body fixed =
    for k = 0 to Bytes.length body - 1 do
      match decode (Bytes.sub body 0 k) with
      | Error _ -> ()
      | Ok v ->
          Alcotest.(check bool)
            (Printf.sprintf "%s cut at %d: only whole-float cuts decode" name k)
            true
            (k >= fixed && (k - fixed) mod 8 = 0);
          Alcotest.(check bool)
            (Printf.sprintf "%s cut at %d is a payload prefix" name k)
            true
            (Bytes.equal (encode v) (Bytes.sub body 0 k))
      | exception e ->
          Alcotest.failf "%s cut at %d raised %s" name k (Printexc.to_string e)
    done
  in
  check_trunc "request" Protocol.decode_request Protocol.encode_request
    (Protocol.encode_request req) (11 + String.length req.descriptor);
  check_trunc "reply" Protocol.decode_reply Protocol.encode_reply
    (Protocol.encode_reply rep) (9 + String.length rep.message);
  let rng = Random.State.make [| 2024 |] in
  for i = 1 to 10_000 do
    let len = Random.State.int rng 64 in
    let b = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
    (* steer half the bodies past the opcode/status check and give them
       short descriptor/message lengths, so the deeper paths are hit *)
    if len >= 11 && i mod 2 = 0 then begin
      Bytes.set_uint8 b 0 (Random.State.int rng 6);
      Bytes.set_uint16_be b 9 (Random.State.int rng 16);
      Bytes.set_int32_be b 5 (Int32.of_int (Random.State.int rng 16))
    end;
    let roundtrip name decode encode =
      match decode b with
      | Error _ -> ()
      | Ok v ->
          Alcotest.(check bool)
            (Printf.sprintf "random %s body %d re-encodes identically" name i)
            true
            (Bytes.equal (encode v) b)
      | exception e ->
          Alcotest.failf "random %s body %d raised %s" name i
            (Printexc.to_string e)
    in
    roundtrip "request" Protocol.decode_request Protocol.encode_request;
    roundtrip "reply" Protocol.decode_reply Protocol.encode_reply;
    match Protocol.decode_request_prefix b (Random.State.int rng (len + 1)) with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "random prefix %d raised %s" i (Printexc.to_string e)
  done

(* Gc.minor_words over steady-state calls, as in test_optimize *)
let alloc_words iters call =
  call ();
  call ();
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    call ()
  done;
  Gc.minor_words () -. w0

let test_codec_alloc () =
  let payload = codec_payload 32768 in
  let body =
    Protocol.encode_request
      {
        op = Protocol.Exec;
        id = 1;
        deadline_ms = 0;
        descriptor = "dft[16384]f";
        payload;
      }
  in
  (* fill a reader-style buffer through the framing layer; the writer
     runs on its own thread because the frame outgrows a socket buffer *)
  let rd, wr = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer = Thread.create (fun () -> Protocol.write_frame wr body) () in
  let buf = Protocol.Buf.create () in
  let len =
    match Protocol.read_frame_into buf rd with
    | Protocol.Frame len -> len
    | Protocol.Eof | Protocol.Oversized _ -> Alcotest.fail "frame not read"
  in
  Thread.join writer;
  Unix.close rd;
  Unix.close wr;
  Alcotest.(check int) "body length" (Bytes.length body) len;
  let decode () =
    match Protocol.decode_request_prefix (Protocol.Buf.bytes buf) len with
    | Ok r -> assert (Array.length r.payload = 32768)
    | Error e -> failwith e
  in
  let w = alloc_words 20 decode /. 20.0 in
  Alcotest.(check bool)
    (Printf.sprintf "32768-float request decode: %.1f minor words < 64" w)
    true (w < 64.0);
  let rep : Protocol.reply =
    { id = 1; status = Protocol.Ok; message = ""; payload }
  in
  let out = Protocol.Buf.create () in
  let w =
    alloc_words 20 (fun () -> ignore (Protocol.frame_reply out rep)) /. 20.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "framed 32768-float reply encode: %.1f minor words < 8" w)
    true (w < 8.0);
  (* a frame past the retain cap is not kept after [trim] *)
  let big : Protocol.reply =
    { rep with payload = Array.make (Protocol.retain_max / 8) 0.5 }
  in
  ignore (Protocol.frame_reply out big);
  Alcotest.(check bool) "grown past the cap" true
    (Protocol.Buf.capacity out > Protocol.retain_max);
  Protocol.Buf.trim out;
  Alcotest.(check bool) "trimmed back under the cap" true
    (Protocol.Buf.capacity out <= Protocol.retain_max);
  Protocol.Buf.trim buf;
  Alcotest.(check bool) "a buffer under the cap is kept" true
    (Protocol.Buf.capacity buf >= len)

(* ---- admission ---- *)

let test_admission_fairness () =
  let q = Admission.create ~max_pending:16 ~max_per_client:8 () in
  (* client 1 floods three deep, client 2 submits one item: round-robin
     serves client 2 after a single item of the flood, not after the
     whole backlog *)
  for i = 1 to 3 do
    Alcotest.(check bool)
      "accepted" true
      (Admission.submit q ~client:1 (1000 + i) = Admission.Accepted)
  done;
  Alcotest.(check bool)
    "accepted" true
    (Admission.submit q ~client:2 2001 = Admission.Accepted);
  Alcotest.(check (option int)) "flood head" (Some 1001) (Admission.take q);
  Alcotest.(check (option int)) "client 2 next" (Some 2001) (Admission.take q);
  Alcotest.(check (option int)) "back to flood" (Some 1002) (Admission.take q);
  Alcotest.(check (option int)) "flood tail" (Some 1003) (Admission.take q)

let test_admission_bounds () =
  let q = Admission.create ~max_pending:4 ~max_per_client:2 () in
  Alcotest.(check bool) "a1" true (Admission.submit q ~client:1 1 = Admission.Accepted);
  Alcotest.(check bool) "a2" true (Admission.submit q ~client:1 2 = Admission.Accepted);
  Alcotest.(check bool)
    "client bound" true
    (Admission.submit q ~client:1 3 = Admission.Client_full);
  Alcotest.(check bool) "b1" true (Admission.submit q ~client:2 4 = Admission.Accepted);
  Alcotest.(check bool) "c1" true (Admission.submit q ~client:3 5 = Admission.Accepted);
  Alcotest.(check bool)
    "global bound" true
    (Admission.submit q ~client:4 6 = Admission.Queue_full);
  Alcotest.(check int) "pending" 4 (Admission.pending q)

let test_admission_drop_and_close () =
  let q = Admission.create () in
  ignore (Admission.submit q ~client:1 1);
  ignore (Admission.submit q ~client:1 2);
  ignore (Admission.submit q ~client:2 3);
  Alcotest.(check (list int)) "purged" [ 1; 2 ] (Admission.drop_client q 1);
  Alcotest.(check int) "left" 1 (Admission.pending q);
  Admission.close q;
  Alcotest.(check bool)
    "closed" true
    (Admission.submit q ~client:2 4 = Admission.Closed);
  (* graceful: accepted work still drains, then None *)
  Alcotest.(check (option int)) "drains" (Some 3) (Admission.take q);
  Alcotest.(check (option int)) "then closed" None (Admission.take q)

(* ---- end-to-end ---- *)

let reference = lazy (Plans.create ~threads:1 ())

let checked_exec c descriptor =
  match Plans.lookup (Lazy.force reference) descriptor with
  | Error e -> Alcotest.failf "reference plan: %s" (Spiral_fft.Engine.error_to_string e)
  | Ok entry ->
      let rng = Random.State.make [| Hashtbl.hash descriptor |] in
      let x = Array.init entry.in_floats (fun _ -> Random.State.float rng 2.0 -. 1.0) in
      let reply = Client.exec c ~descriptor x in
      check_status (descriptor ^ " status") "ok" (status_name reply);
      let expected = entry.exec (Array.copy x) in
      let err = ref 0.0 in
      Array.iteri
        (fun i v -> err := Float.max !err (Float.abs (v -. reply.payload.(i))))
        expected;
      Alcotest.(check bool)
        (descriptor ^ " matches sequential reference")
        true (!err < 1e-8)

let test_e2e_kinds () =
  with_server (fun path _server ->
      with_client path (fun c ->
          List.iter (checked_exec c)
            [
              "dft[64]f"; "dft[64]i"; "dft[12]f"; "dft2d[8x8]f"; "wht[64]f";
              "rfft[64]f"; "rfft[64]i"; "dct[32]f"; "dft[16]fx4";
            ]))

let test_e2e_errors () =
  with_server (fun path _server ->
      with_client path (fun c ->
          let exec ?deadline_ms descriptor payload =
            status_name (Client.exec c ?deadline_ms ~descriptor payload)
          in
          check_status "parse failure" "bad-descriptor" (exec "nonsense" [||]);
          check_status "empty" "bad-descriptor" (exec "" [||]);
          check_status "oversized" "unsupported" (exec "dft[16777216]f" [||]);
          check_status "unsupported inverse batch" "unsupported"
            (exec "dft[16]ix4" (Array.make 128 0.0));
          check_status "short payload" "bad-payload"
            (exec "dft[64]f" (Array.make 7 0.0));
          check_status "non-finite payload" "bad-payload"
            (exec "dft[64]f"
               (Array.init 128 (fun i -> if i = 77 then Float.nan else 0.5)));
          (* the connection is still perfectly usable after every error *)
          checked_exec c "dft[64]f"))

let test_e2e_info_ping_stats () =
  with_server (fun path _server ->
      with_client path (fun c ->
          let pong = Client.ping c in
          check_status "ping" "ok" (status_name pong);
          let r = Client.info c "rfft[64]f" in
          check_status "info" "ok" (status_name r);
          Alcotest.(check string) "geometry" "in=64 out=66" r.message;
          let r = Client.info c "bogus" in
          check_status "info error" "bad-descriptor" (status_name r);
          let stats = Client.stats c in
          let contains hay needle =
            let nl = String.length needle and hl = String.length hay in
            let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool)
            "stats mention service counters" true
            (contains stats "service.")))

let test_e2e_deadline () =
  with_server (fun path _server ->
      with_client path (fun c ->
          ignore (Client.hello c "slow-tenant");
          (* every request of this tenant stalls 50 ms in the executor;
             a 1 ms deadline must produce a Deadline reply, not a hang
             and not an Ok *)
          Fault.arm ~site:"service.delay" ~scope:"slow-tenant" ~times:max_int ();
          let reply = Client.exec c ~deadline_ms:1 ~descriptor:"dft[64]f"
              (Array.make 128 0.25)
          in
          check_status "deadline" "deadline-exceeded" (status_name reply);
          Fault.reset ();
          (* no deadline: same request now succeeds *)
          checked_exec c "dft[64]f"))

let test_e2e_shedding () =
  with_server
    ~tweak:(fun c -> { c with Server.max_pending = 8; max_per_client = 4 })
    (fun path _server ->
      with_client path (fun c ->
          ignore (Client.hello c "pipeliner");
          Fault.arm ~site:"service.delay" ~scope:"pipeliner" ~times:max_int ();
          let x = Array.make 128 0.5 in
          let ids =
            List.init 12 (fun _ -> Client.exec_async c ~descriptor:"dft[64]f" x)
          in
          Fault.disarm "service.delay";
          let replies = List.map (Client.wait c) ids in
          let count s =
            List.length (List.filter (fun r -> status_name r = s) replies)
          in
          Alcotest.(check int) "everything answered" 12 (List.length replies);
          Alcotest.(check bool) "some shed" true (count "overloaded" > 0);
          Alcotest.(check bool) "some served" true (count "ok" > 0);
          (* overload is shed, never silently dropped or crashed *)
          Alcotest.(check int)
            "ok + overloaded = all" 12
            (count "ok" + count "overloaded")))

let test_e2e_isolation () =
  with_server (fun path server ->
      with_client path (fun evil ->
          with_client path (fun honest ->
              ignore (Client.hello evil "evil");
              ignore (Client.hello honest "honest");
              (* warm the plan both tenants share *)
              checked_exec honest "dft[64]f";
              let plans_before = Server.plan_count server in
              Fault.arm ~site:"service.exec" ~scope:"evil" ~times:max_int ();
              let x = Array.make 128 0.125 in
              for _ = 1 to 5 do
                let r = Client.exec evil ~descriptor:"dft[64]f" x in
                check_status "evil gets structured error" "internal-error"
                  (status_name r)
              done;
              (* the honest tenant is untouched: same descriptor, same
                 shared plan, correct answers all along *)
              for _ = 1 to 3 do
                checked_exec honest "dft[64]f"
              done;
              Alcotest.(check int)
                "cached plans survive the faulted tenant" plans_before
                (Server.plan_count server);
              Fault.reset ();
              (* the faulted tenant recovers the moment faults stop *)
              checked_exec evil "dft[64]f")))

let test_e2e_abrupt_disconnect () =
  with_server (fun path _server ->
      (* clients that post work and vanish without reading — the server
         must reap them and keep serving everyone else *)
      for _ = 1 to 5 do
        let c = Client.connect path in
        ignore (Client.exec_async c ~descriptor:"dft[64]f" (Array.make 128 1.0));
        ignore (Client.exec_async c ~descriptor:"dft[64]f" (Array.make 128 2.0));
        Client.close c
      done;
      with_client path (fun c ->
          check_status "ping after rogues" "ok" (status_name (Client.ping c));
          checked_exec c "dft[64]f"))

let test_e2e_frame_limits () =
  with_server (fun path _server ->
      (* a raw oversized frame header: the server must reply Bad_request
         and drop the connection without reading the announced body *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 0x7FFFFFFFl;
      ignore (Unix.write fd header 0 4);
      (match Protocol.read_frame fd with
      | Protocol.Frame body -> (
          match Protocol.decode_reply body with
          | Ok r ->
              check_status "oversized rejected" "bad-request"
                (Protocol.status_to_string r.status)
          | Error e -> Alcotest.failf "undecodable reply: %s" e)
      | Protocol.Eof -> Alcotest.fail "connection dropped without a reply"
      | Protocol.Oversized _ -> Alcotest.fail "reply oversized");
      Unix.close fd;
      (* and the server is still fine *)
      with_client path (fun c ->
          check_status "ping" "ok" (status_name (Client.ping c))))

let test_e2e_stalled_reader () =
  (* a LIVE client that stops reading (slow or malicious) must not wedge
     the executor: its reply writes hit the send timeout, the connection
     is dropped like a dead peer, and other tenants stay promptly
     served *)
  with_server
    ~tweak:(fun c -> { c with Server.send_timeout = 0.2 })
    (fun path _server ->
      let stalled0 = Counters.get "service.client_stalled" in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      (* 16 x dft[2048] replies = 16 x 32 KiB, far beyond a unix socket
         buffer; the stall is guaranteed once we never read them *)
      let payload = Array.make 4096 0.5 in
      (try
         for id = 1 to 16 do
           Protocol.write_frame fd
             (Protocol.encode_request
                {
                  op = Protocol.Exec;
                  id;
                  deadline_ms = 0;
                  descriptor = "dft[2048]f";
                  payload;
                })
         done
       with Unix.Unix_error _ ->
         (* the server may drop us mid-burst once replies start timing
            out — that is exactly the behavior under test *)
         ());
      let t0 = Unix.gettimeofday () in
      with_client path (fun c ->
          checked_exec c "dft[64]f";
          check_status "ping after stall" "ok" (status_name (Client.ping c)));
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "honest tenant served promptly (%.2fs)" elapsed)
        true (elapsed < 10.0);
      let rec settle tries =
        if Counters.get "service.client_stalled" > stalled0 then ()
        else if tries = 0 then Alcotest.fail "stalled client never detected"
        else begin
          Unix.sleepf 0.1;
          settle (tries - 1)
        end
      in
      settle 100;
      Unix.close fd)

let test_e2e_conn_cap () =
  with_server
    ~tweak:(fun c -> { c with Server.max_conns = 2 })
    (fun path _server ->
      with_client path (fun c1 ->
          with_client path (fun c2 ->
              check_status "c1" "ok" (status_name (Client.ping c1));
              check_status "c2" "ok" (status_name (Client.ping c2));
              (* a third connection is rejected with a structured reply
                 and closed — the server never grows a reader for it *)
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_UNIX path);
              (match Protocol.read_frame fd with
              | Protocol.Frame body -> (
                  match Protocol.decode_reply body with
                  | Ok r ->
                      check_status "over-cap rejected" "overloaded"
                        (Protocol.status_to_string r.status)
                  | Error e -> Alcotest.failf "undecodable reject: %s" e)
              | Protocol.Eof -> Alcotest.fail "no rejection reply"
              | Protocol.Oversized _ -> Alcotest.fail "reject oversized");
              (match Protocol.read_frame fd with
              | Protocol.Eof -> ()
              | _ -> Alcotest.fail "rejected connection left open");
              Unix.close fd);
          (* closing a connection frees its slot (after the reader reaps
             it, hence the retry) *)
          let rec retry tries =
            let c = Client.connect path in
            match Client.ping c with
            | r ->
                Client.close c;
                check_status "slot freed" "ok" (status_name r)
            | exception Client.Disconnected ->
                Client.close c;
                if tries = 0 then Alcotest.fail "slot never freed"
                else begin
                  Unix.sleepf 0.1;
                  retry (tries - 1)
                end
          in
          retry 30))

let test_e2e_derived_frame_limit () =
  (* the per-frame memory bound follows the configured max_total: a
     frame far under the permissive 128 MiB default must still be
     rejected when the server is sized for small problems *)
  with_server
    ~tweak:(fun c -> { c with Server.max_total = 1024 })
    (fun path _server ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 (Int32.of_int (1024 * 1024));
      ignore (Unix.write fd header 0 4);
      (match Protocol.read_frame fd with
      | Protocol.Frame body -> (
          match Protocol.decode_reply body with
          | Ok r ->
              check_status "1 MiB frame rejected on a 1k-element server"
                "bad-request"
                (Protocol.status_to_string r.status)
          | Error e -> Alcotest.failf "undecodable reply: %s" e)
      | Protocol.Eof -> Alcotest.fail "connection dropped without a reply"
      | Protocol.Oversized _ -> Alcotest.fail "reply oversized");
      Unix.close fd;
      (* legitimate requests still fit comfortably under the bound *)
      with_client path (fun c -> checked_exec c "dft[64]f"))

let test_e2e_reader_prune () =
  (* connection churn must not grow the reader-thread table: each reader
     prunes its own entry when its connection dies *)
  with_server (fun path server ->
      for _ = 1 to 10 do
        with_client path (fun c ->
            check_status "ping" "ok" (status_name (Client.ping c)))
      done;
      let rec settle tries =
        if Server.reader_count server = 0 then ()
        else if tries = 0 then
          Alcotest.failf "reader threads not pruned: %d left"
            (Server.reader_count server)
        else begin
          Unix.sleepf 0.05;
          settle (tries - 1)
        end
      in
      settle 60)

let test_e2e_graceful_stop () =
  let path = sock_path () in
  let cfg = Server.default_config ~socket_path:path () in
  let server = Server.start cfg in
  with_client path (fun c -> check_status "up" "ok" (status_name (Client.ping c)));
  Server.stop server;
  Server.stop server (* idempotent *);
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path);
  match Client.connect path with
  | exception Unix.Unix_error _ -> ()
  | c ->
      Client.close c;
      Alcotest.fail "connect succeeded after stop"

(* one connection, frames of shrinking size: the reader's buffer and the
   executor's reply buffer both carry a longer frame's bytes when the
   shorter one arrives, and neither may leak into the answer *)
let test_e2e_buffer_reuse () =
  with_server (fun path _server ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let roundtrip body =
            Protocol.write_frame fd body;
            match Protocol.read_frame fd with
            | Protocol.Frame b -> (
                match Protocol.decode_reply b with
                | Ok r -> r
                | Error e -> Alcotest.failf "undecodable reply: %s" e)
            | Protocol.Eof | Protocol.Oversized _ -> Alcotest.fail "no reply"
          in
          let exec id descriptor =
            match Plans.lookup (Lazy.force reference) descriptor with
            | Error e ->
                Alcotest.failf "reference: %s"
                  (Spiral_fft.Engine.error_to_string e)
            | Ok entry ->
                let rng = Random.State.make [| id |] in
                let x =
                  Array.init entry.in_floats (fun _ ->
                      Random.State.float rng 2.0 -. 1.0)
                in
                let r =
                  roundtrip
                    (Protocol.encode_request
                       {
                         op = Protocol.Exec;
                         id;
                         deadline_ms = 0;
                         descriptor;
                         payload = x;
                       })
                in
                check_status (descriptor ^ " status") "ok" (status_name r);
                Alcotest.(check int) (descriptor ^ " id") id r.id;
                Alcotest.(check int) (descriptor ^ " length") entry.out_floats
                  (Array.length r.payload);
                let expected = entry.exec (Array.copy x) in
                let err = ref 0.0 in
                Array.iteri
                  (fun i v ->
                    err := Float.max !err (Float.abs (v -. r.payload.(i))))
                  expected;
                Alcotest.(check bool)
                  (descriptor ^ " matches reference")
                  true (!err < 1e-8)
          in
          exec 1 "dft[16384]f";
          exec 2 "dft[64]f";
          let r = roundtrip (Bytes.of_string "\001\000\000") in
          check_status "short body after long frames" "bad-request"
            (status_name r);
          exec 3 "dft[64]f";
          (* the limit is still enforced on the grown, reused buffer *)
          let header = Bytes.create 4 in
          Bytes.set_int32_be header 0 0x7FFFFFFFl;
          ignore (Unix.write fd header 0 4);
          match Protocol.read_frame fd with
          | Protocol.Frame b -> (
              match Protocol.decode_reply b with
              | Ok r ->
                  check_status "oversized on a reused buffer" "bad-request"
                    (status_name r)
              | Error e -> Alcotest.failf "undecodable reply: %s" e)
          | Protocol.Eof -> Alcotest.fail "dropped without a reply"
          | Protocol.Oversized _ -> Alcotest.fail "reply oversized"))

(* the front-end [*_into] the executor runs must not allocate per call;
   [exec] keeps allocating exactly its fresh result *)
let test_plans_in_place () =
  let plans = Plans.create ~threads:1 () in
  Fun.protect
    ~finally:(fun () -> Plans.destroy_all plans)
    (fun () ->
      List.iter
        (fun descriptor ->
          match Plans.lookup plans descriptor with
          | Error e ->
              Alcotest.failf "%s: %s" descriptor
                (Spiral_fft.Engine.error_to_string e)
          | Ok entry ->
              let rng = Random.State.make [| entry.in_floats |] in
              let x =
                Array.init entry.in_floats (fun _ ->
                    Random.State.float rng 2.0 -. 1.0)
              in
              let out = Plans.output entry in
              Alcotest.(check bool)
                (descriptor ^ ": output is reused")
                true
                (out == Plans.output entry);
              entry.exec_into x out;
              Alcotest.(check bool) (descriptor ^ ": exec_into = exec") true
                (same_bits out (entry.exec x));
              let w =
                alloc_words 20 (fun () -> entry.exec_into x out) /. 20.0
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s exec_into: %.1f minor words < 8"
                   descriptor w)
                true (w < 8.0))
        [
          "dft[1024]f"; "rfft[4096]f"; "dft2d[64x64]f"; "wht[64]f";
          "dft[16]fx4"; "dct[32]f"; "rfft[64]i";
        ];
      (* a cache hit skips the descriptor parse, which alone allocates
         some 50 words for this descriptor *)
      let w =
        alloc_words 20 (fun () -> ignore (Plans.lookup plans "dft2d[64x64]f"))
        /. 20.0
      in
      Alcotest.(check bool)
        (Printf.sprintf "lookup hit: %.1f minor words < 40" w)
        true (w < 40.0);
      (* the seq flag is part of the key, not a descriptor prefix: a
         cached sequential entry must not make a bad descriptor servable *)
      (match Plans.lookup ~seq:true plans "dft[16]f" with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "seq dft[16]f: %s" (Spiral_fft.Engine.error_to_string e));
      List.iter
        (fun seq ->
          match Plans.lookup ~seq plans "seq!dft[16]f" with
          | Ok _ -> Alcotest.fail "seq!dft[16]f was served"
          | Error _ -> ())
        [ false; true ])

(* ---- chaos soak (the tentpole invariants) ---- *)

let test_soak () =
  let r = Soak.run ~seed:42 ~clients:3 ~requests:200 () in
  Format.printf "%a@." Soak.pp_report r;
  Alcotest.(check bool) "enough traffic" true (r.total >= 800);
  Alcotest.(check int) "zero wrong answers" 0 r.wrong;
  Alcotest.(check bool) "server survived" true r.server_survived;
  Alcotest.(check int) "honest tenants isolated from chaos" 0 r.honest_internal;
  Alcotest.(check bool) "chaos tenant saw its faults" true (r.internal > 0);
  (* bounded = a few multiples of the 5 s pool timeout, never the 30 s
     unbounded-wait signature *)
  Alcotest.(check bool)
    "error replies bounded (worst < 15s)" true
    (r.max_error_reply_us < 15e6);
  Alcotest.(check bool) "rogue kept connecting" true (r.rogue_connects > 0)

(* warm plans are compiled at boot, before the socket accepts: the first
   request for a warmed descriptor must not plan, and a bad descriptor in
   the warm list is counted, never fatal *)
let test_warm_plans () =
  Counters.reset ();
  with_server
    ~tweak:(fun c ->
      { c with Server.warm = [ "dft[256]f"; "rfft[128]f"; "nonsense[1]" ] })
    (fun path server ->
      Alcotest.(check int) "two descriptors planned" 2 (Server.plan_count server);
      Alcotest.(check int) "warm successes" 2 (Counters.get "service.warm_plan");
      Alcotest.(check int) "warm failures" 1 (Counters.get "service.warm_fail");
      with_client path (fun c ->
          let x = Array.init 512 (fun i -> float_of_int (i mod 7) /. 7.0) in
          let r = Client.exec c ~descriptor:"dft[256]f" x in
          check_status "warm exec ok" "ok" (status_name r);
          Alcotest.(check int) "first request hit the warmed plan" 2
            (Server.plan_count server)))

let suite =
  [
    Alcotest.test_case "protocol: roundtrip is bit-exact" `Quick
      test_protocol_roundtrip;
    Alcotest.test_case "protocol: garbage is rejected" `Quick
      test_protocol_garbage;
    Alcotest.test_case "protocol: codec byte-identical to reference" `Quick
      test_codec_reference;
    Alcotest.test_case "protocol: truncated and random bodies" `Quick
      test_codec_fuzz;
    Alcotest.test_case "protocol: reused-buffer codec allocation" `Quick
      test_codec_alloc;
    Alcotest.test_case "admission: round-robin fairness" `Quick
      test_admission_fairness;
    Alcotest.test_case "admission: global and per-client bounds" `Quick
      test_admission_bounds;
    Alcotest.test_case "admission: drop_client and graceful close" `Quick
      test_admission_drop_and_close;
    Alcotest.test_case "e2e: every descriptor kind matches reference" `Quick
      test_e2e_kinds;
    Alcotest.test_case "e2e: structured error replies" `Quick test_e2e_errors;
    Alcotest.test_case "e2e: info, ping, stats" `Quick test_e2e_info_ping_stats;
    Alcotest.test_case "e2e: deadline enforcement" `Quick test_e2e_deadline;
    Alcotest.test_case "e2e: load shedding under pipelining" `Quick
      test_e2e_shedding;
    Alcotest.test_case "e2e: tenant isolation under scoped faults" `Quick
      test_e2e_isolation;
    Alcotest.test_case "e2e: abrupt disconnects don't wedge" `Quick
      test_e2e_abrupt_disconnect;
    Alcotest.test_case "e2e: oversized frame rejected" `Quick
      test_e2e_frame_limits;
    Alcotest.test_case "e2e: stalled reader can't wedge the executor" `Quick
      test_e2e_stalled_reader;
    Alcotest.test_case "e2e: connection cap" `Quick test_e2e_conn_cap;
    Alcotest.test_case "e2e: frame limit derives from max_total" `Quick
      test_e2e_derived_frame_limit;
    Alcotest.test_case "e2e: reader threads are pruned" `Quick
      test_e2e_reader_prune;
    Alcotest.test_case "e2e: graceful stop" `Quick test_e2e_graceful_stop;
    Alcotest.test_case "e2e: warm plans at boot" `Quick test_warm_plans;
    Alcotest.test_case "e2e: frame buffers reused across sizes" `Quick
      test_e2e_buffer_reuse;
    Alcotest.test_case "plans: in-place execution" `Quick test_plans_in_place;
    Alcotest.test_case "soak: chaos invariants" `Slow test_soak;
  ]
