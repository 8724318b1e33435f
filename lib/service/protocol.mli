(** Length-prefixed binary wire protocol of the FFT service.

    Every message is one frame: a 4-byte big-endian body length, then the
    body.  Integers are big-endian; float payloads are IEEE-754 doubles
    as big-endian int64 bit patterns.

    Request body: [u8 op | u32 id | u32 deadline_ms | u16 desc_len |
    descriptor | float64 payload…]; reply body: [u8 status | u32 id |
    u32 msg_len | message | float64 payload…].  The frame boundary is
    known before the body is parsed, so a malformed body never
    desynchronizes the stream. *)

type op =
  | Exec  (** run the transform named by [descriptor] on [payload] *)
  | Ping  (** liveness probe; empty reply *)
  | Stats  (** server counters as Prometheus text in the reply message *)
  | Hello  (** register [descriptor] as this connection's tenant name *)
  | Info  (** payload float counts for [descriptor]: "in=… out=…" *)

type status =
  | Ok
  | Bad_request  (** frame decoded but malformed (bad opcode, sizes…) *)
  | Bad_descriptor  (** descriptor string did not parse *)
  | Unsupported  (** parsed, but the server cannot serve it *)
  | Bad_payload  (** wrong float count, or non-finite samples *)
  | Overloaded  (** load shed: admission queue or per-client cap hit *)
  | Deadline  (** the request's deadline expired before completion *)
  | Internal  (** execution failed; the daemon survived and healed *)
  | Shutting_down

type request = {
  op : op;
  id : int;  (** client-chosen, echoed verbatim in the reply *)
  deadline_ms : int;  (** total budget from admission, 0 = none *)
  descriptor : string;
  payload : float array;
}

type reply = {
  id : int;
  status : status;
  message : string;  (** human-readable detail; [""] on success *)
  payload : float array;
}

val status_to_string : status -> string
val status_code : status -> int
val status_of_code : int -> status option

val max_frame : int ref
(** Default bound on an announced frame body (128 MiB), used when
    {!read_frame} is given no explicit [limit] — a hostile length prefix
    must not OOM the reader.  Clients reading replies use this; the
    server derives a much tighter per-configuration limit with
    {!request_frame_bound}. *)

val request_frame_bound : max_total:int -> int
(** The largest request body (bytes) a server capped at [max_total]
    complex elements can legitimately receive: fixed header + maximal
    descriptor + [2 * max_total] float64s. *)

val retain_max : int
(** 1 MiB.  A reused {!Buf} whose storage grew past this is shrunk back
    by {!Buf.trim}, so a long-lived connection does not pin the size of
    the largest frame it ever carried. *)

(** Growable, caller-owned frame storage, reused across frames so the
    steady-state data path allocates nothing per frame.  A buffer is
    single-owner: one thread fills it and reads it back. *)
module Buf : sig
  type t

  val create : unit -> t
  val bytes : t -> bytes
  (** Current storage; valid until the next call that may grow it. *)

  val capacity : t -> int
  val trim : t -> unit
  (** Drop storage that grew past {!retain_max}. *)
end

val encode_request : request -> bytes
val decode_request : bytes -> (request, string) result

val decode_request_prefix : bytes -> int -> (request, string) result
(** [decode_request_prefix b len] decodes the body held in the first
    [len] bytes of [b] (bytes past [len] are ignored) — the body
    {!read_frame_into} left in a {!Buf}.  The payload is the one fresh
    array; nothing else is allocated per float. *)

val encode_reply : reply -> bytes
val decode_reply : bytes -> (reply, string) result

val frame_reply : Buf.t -> reply -> int
(** Encode the whole frame (length header + body) into the first bytes
    of the buffer, growing it if needed; returns the frame length.
    Byte-identical to {!write_frame} of {!encode_reply}. *)

val write_frame : ?timeout:float -> Unix.file_descr -> bytes -> unit
(** Write one frame (header + body), restarting on [EINTR].  [timeout]
    bounds the {e total} wall-clock time of the write; combined with
    [SO_SNDTIMEO] on the fd (which bounds each blocking syscall) a peer
    that stops reading — full socket buffer or byte-at-a-time trickle —
    makes the write fail with [ETIMEDOUT] instead of blocking forever.
    @raise Unix.Unix_error when the peer is gone ([EPIPE], …) or has
    stopped reading ([ETIMEDOUT]). *)

val write_reply : ?timeout:float -> Buf.t -> Unix.file_descr -> reply -> unit
(** {!frame_reply} into the caller's buffer, then one write under the
    same [timeout] contract as {!write_frame} — no per-reply frame
    allocation and no body-to-frame copy. *)

type 'a frame =
  | Frame of 'a
  | Eof  (** clean close, or the peer died mid-frame *)
  | Oversized of int  (** announced length; nothing was consumed after it *)

type read_result = bytes frame

val read_frame : ?limit:int -> Unix.file_descr -> read_result
(** Read one frame, restarting on [EINTR].  A peer that disappears
    mid-frame is an [Eof], not an exception.  An announced body length
    above [limit] (default [!max_frame]) is [Oversized] and nothing is
    allocated or consumed past the header.
    @raise Unix.Unix_error on hard socket errors. *)

val read_frame_into : ?limit:int -> Buf.t -> Unix.file_descr -> int frame
(** As {!read_frame}, into the caller's buffer: [Frame len] leaves the
    body in the first [len] bytes of [Buf.bytes buf] (decode it with
    {!decode_request_prefix}).  The limit is checked before the buffer
    grows. *)
