(* Length-prefixed binary wire protocol of the FFT service.

   Every message is one frame: a 4-byte big-endian body length followed
   by the body.  Integers are big-endian ("network order"); float
   payloads are IEEE-754 doubles transported as big-endian int64 bit
   patterns.  The format is deliberately dumb — fixed header, one
   variable-length string, raw floats — so a client in any language is a
   page of code, and a malformed frame can always be rejected without
   desynchronizing the stream (the frame boundary is known before the
   body is parsed). *)

type op = Exec | Ping | Stats | Hello | Info

type status =
  | Ok
  | Bad_request
  | Bad_descriptor
  | Unsupported
  | Bad_payload
  | Overloaded
  | Deadline
  | Internal
  | Shutting_down

type request = {
  op : op;
  id : int;  (* client-chosen, echoed verbatim in the reply *)
  deadline_ms : int;  (* 0 = no deadline *)
  descriptor : string;  (* Exec/Info: problem descriptor; Hello: tenant name *)
  payload : float array;
}

type reply = {
  id : int;
  status : status;
  message : string;  (* human-readable detail; "" on success *)
  payload : float array;
}

let op_code = function Exec -> 1 | Ping -> 2 | Stats -> 3 | Hello -> 4 | Info -> 5

let op_of_code = function
  | 1 -> Some Exec
  | 2 -> Some Ping
  | 3 -> Some Stats
  | 4 -> Some Hello
  | 5 -> Some Info
  | _ -> None

let status_code = function
  | Ok -> 0
  | Bad_request -> 1
  | Bad_descriptor -> 2
  | Unsupported -> 3
  | Bad_payload -> 4
  | Overloaded -> 5
  | Deadline -> 6
  | Internal -> 7
  | Shutting_down -> 8

let status_of_code = function
  | 0 -> Some Ok
  | 1 -> Some Bad_request
  | 2 -> Some Bad_descriptor
  | 3 -> Some Unsupported
  | 4 -> Some Bad_payload
  | 5 -> Some Overloaded
  | 6 -> Some Deadline
  | 7 -> Some Internal
  | 8 -> Some Shutting_down
  | _ -> None

let status_to_string = function
  | Ok -> "ok"
  | Bad_request -> "bad-request"
  | Bad_descriptor -> "bad-descriptor"
  | Unsupported -> "unsupported"
  | Bad_payload -> "bad-payload"
  | Overloaded -> "overloaded"
  | Deadline -> "deadline-exceeded"
  | Internal -> "internal-error"
  | Shutting_down -> "shutting-down"

(* Frames over this size are rejected before the body is read, so a
   hostile length prefix cannot make the server allocate gigabytes.
   This is the permissive default (clients reading replies); the server
   tightens it per its own configuration via [request_frame_bound]. *)
let max_frame = ref (128 * 1024 * 1024)

(* The largest request body a server sized for [max_total] complex
   elements can legitimately receive: the fixed header (op u8, id u32,
   deadline u32, desc_len u16 = 11 bytes), the largest descriptor a u16
   length can announce, and 2 big-endian float64s per complex element. *)
let request_frame_bound ~max_total = 11 + 0xffff + (16 * max_total)

(* ---- growable frame buffers ---- *)

(* Storage grown past this is dropped once its frame is done: a reused
   buffer keeps the largest frame it has carried, so without a cap one
   maximal request would pin its size for the connection's lifetime. *)
let retain_max = 1 lsl 20

module Buf = struct
  type t = { mutable bytes : bytes }

  let initial = 4096
  let create () = { bytes = Bytes.create initial }
  let bytes t = t.bytes
  let capacity t = Bytes.length t.bytes

  (* contents are not preserved: every user refills the whole prefix *)
  let reserve t n =
    if Bytes.length t.bytes < n then t.bytes <- Bytes.create n;
    t.bytes

  let trim t =
    if Bytes.length t.bytes > retain_max then t.bytes <- Bytes.create initial
end

(* ---- body encoding ---- *)

(* Plain [for] loops: the float never leaves a register, where an
   [Array.iteri]/[Array.init] closure boxes every sample it passes (4-6
   minor words per float). *)
let put_floats b off xs =
  for i = 0 to Array.length xs - 1 do
    Bytes.set_int64_be b
      (off + (8 * i))
      (Int64.bits_of_float (Array.unsafe_get xs i))
  done

let get_floats b off n =
  let a = Array.create_float n in
  for i = 0 to n - 1 do
    Array.unsafe_set a i
      (Int64.float_of_bits (Bytes.get_int64_be b (off + (8 * i))))
  done;
  a

(* request body: u8 op | u32 id | u32 deadline_ms | u16 desc_len | desc
   | float64s *)
let encode_request r =
  let dlen = String.length r.descriptor in
  if dlen > 0xffff then invalid_arg "Protocol.encode_request: descriptor too long";
  let b = Bytes.create (1 + 4 + 4 + 2 + dlen + (8 * Array.length r.payload)) in
  Bytes.set_uint8 b 0 (op_code r.op);
  Bytes.set_int32_be b 1 (Int32.of_int r.id);
  Bytes.set_int32_be b 5 (Int32.of_int r.deadline_ms);
  Bytes.set_uint16_be b 9 dlen;
  Bytes.blit_string r.descriptor 0 b 11 dlen;
  put_floats b (11 + dlen) r.payload;
  b

let decode_request_prefix b len =
  if len < 0 || len > Bytes.length b then
    invalid_arg "Protocol.decode_request_prefix";
  if len < 11 then Error "request body shorter than the fixed header"
  else
    match op_of_code (Bytes.get_uint8 b 0) with
    | None -> Error (Printf.sprintf "unknown opcode %d" (Bytes.get_uint8 b 0))
    | Some op ->
        let id = Int32.to_int (Bytes.get_int32_be b 1) land 0xffffffff in
        let deadline_ms =
          Int32.to_int (Bytes.get_int32_be b 5) land 0xffffffff
        in
        let dlen = Bytes.get_uint16_be b 9 in
        if len < 11 + dlen then Error "descriptor length exceeds the frame"
        else if (len - 11 - dlen) mod 8 <> 0 then
          Error "payload is not a whole number of float64s"
        else
          let descriptor = Bytes.sub_string b 11 dlen in
          let payload = get_floats b (11 + dlen) ((len - 11 - dlen) / 8) in
          Stdlib.Ok { op; id; deadline_ms; descriptor; payload }

let decode_request b = decode_request_prefix b (Bytes.length b)

(* reply body: u8 status | u32 id | u32 msg_len | msg | float64s *)
let reply_length r =
  1 + 4 + 4 + String.length r.message + (8 * Array.length r.payload)

let put_reply b off r =
  let mlen = String.length r.message in
  Bytes.set_uint8 b off (status_code r.status);
  Bytes.set_int32_be b (off + 1) (Int32.of_int r.id);
  Bytes.set_int32_be b (off + 5) (Int32.of_int mlen);
  Bytes.blit_string r.message 0 b (off + 9) mlen;
  put_floats b (off + 9 + mlen) r.payload

let encode_reply r =
  let b = Bytes.create (reply_length r) in
  put_reply b 0 r;
  b

let frame_reply buf r =
  let len = reply_length r in
  let b = Buf.reserve buf (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  put_reply b 4 r;
  4 + len

let decode_reply b =
  let len = Bytes.length b in
  if len < 9 then Error "reply body shorter than the fixed header"
  else
    match status_of_code (Bytes.get_uint8 b 0) with
    | None -> Error (Printf.sprintf "unknown status %d" (Bytes.get_uint8 b 0))
    | Some status ->
        let id = Int32.to_int (Bytes.get_int32_be b 1) land 0xffffffff in
        let mlen = Int32.to_int (Bytes.get_int32_be b 5) in
        if mlen < 0 || len < 9 + mlen then
          Error "message length exceeds the frame"
        else if (len - 9 - mlen) mod 8 <> 0 then
          Error "payload is not a whole number of float64s"
        else
          let message = Bytes.sub_string b 9 mlen in
          let payload = get_floats b (9 + mlen) ((len - 9 - mlen) / 8) in
          Stdlib.Ok { id; status; message; payload }

(* ---- framing over a file descriptor ---- *)

(* [deadline] bounds the *total* wall-clock time of the frame write, so
   even a peer draining its socket one byte per second (each syscall
   succeeds, the frame never finishes) cannot hold the caller past it.
   [EAGAIN]/[EWOULDBLOCK] — [SO_SNDTIMEO] expired with a full buffer —
   and an exhausted deadline both surface as [ETIMEDOUT], so callers
   have a single "peer stopped reading" signal to act on. *)
let rec write_all ?deadline fd b off len =
  if len > 0 then begin
    (match deadline with
    | Some d when Unix.gettimeofday () > d ->
        raise (Unix.Unix_error (Unix.ETIMEDOUT, "write_frame", ""))
    | _ -> ());
    let n =
      try Unix.write fd b off len with
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          raise (Unix.Unix_error (Unix.ETIMEDOUT, "write_frame", ""))
    in
    write_all ?deadline fd b (off + n) (len - n)
  end

let deadline_of timeout =
  Option.map (fun t -> Unix.gettimeofday () +. t) timeout

let write_frame ?timeout fd body =
  let len = Bytes.length body in
  (* one write for header+body keeps small frames in one segment *)
  let all = Bytes.create (4 + len) in
  Bytes.set_int32_be all 0 (Int32.of_int len);
  Bytes.blit body 0 all 4 len;
  write_all ?deadline:(deadline_of timeout) fd all 0 (4 + len)

let write_reply ?timeout buf fd r =
  let n = frame_reply buf r in
  write_all ?deadline:(deadline_of timeout) fd (Buf.bytes buf) 0 n

type 'a frame = Frame of 'a | Eof | Oversized of int
type read_result = bytes frame

(* [read_exact] returns false on a clean or mid-read EOF: a peer that
   died (or was killed -9) mid-frame must register as a disconnect, not
   an exception. *)
let read_exact fd b off len =
  let off = ref off and len = ref len in
  let ok = ref true in
  while !ok && !len > 0 do
    match Unix.read fd b !off !len with
    | 0 -> ok := false
    | n ->
        off := !off + n;
        len := !len - n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  !ok

(* The header lands in the buffer's first 4 bytes and the body then
   overwrites it from offset 0; the buffer grows only after the
   announced length passed [limit]. *)
let read_frame_into ?limit buf fd =
  let limit = match limit with Some l -> l | None -> !max_frame in
  if not (read_exact fd (Buf.reserve buf 4) 0 4) then Eof
  else
    let len = Int32.to_int (Bytes.get_int32_be (Buf.bytes buf) 0) in
    if len < 0 || len > limit then Oversized len
    else if read_exact fd (Buf.reserve buf len) 0 len then Frame len
    else Eof

let read_frame ?limit fd =
  let buf = { Buf.bytes = Bytes.create 4 } in
  match read_frame_into ?limit buf fd with
  | Frame len ->
      let b = Buf.bytes buf in
      Frame (if Bytes.length b = len then b else Bytes.sub b 0 len)
  | Eof -> Eof
  | Oversized len -> Oversized len
