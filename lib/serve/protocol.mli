(** The imtp serving protocol — the executable form of
    [docs/PROTOCOL.md] (the normative spec): length-prefixed JSON
    frames over a Unix-domain socket, a small request/response
    vocabulary, and a closed table of typed error codes.

    A frame is a 4-byte big-endian unsigned payload length followed by
    exactly that many bytes of UTF-8 JSON.  Every connection opens with
    a [hello] exchange that pins the protocol {!version}; after that,
    requests and responses alternate strictly — one response frame per
    request frame, in order. *)

module Json = Imtp_obs.Obs.Json

val version : int
(** Protocol version this build speaks (1).  A server rejects a
    [hello] carrying any other version with {!Bad_version}. *)

val max_frame : int
(** Largest accepted payload, bytes (4 MiB).  Larger length prefixes
    are answered with {!Too_large} and close the connection. *)

(** {1 Error codes}

    The closed set of machine-readable failure categories — the
    compatibility contract is that codes are only ever {e added}. *)

type error_code =
  | Bad_frame  (** unparsable framing: truncation, empty frame, I/O error. *)
  | Bad_version  (** [hello] version mismatch. *)
  | Bad_request  (** well-framed but malformed or ill-typed request. *)
  | Unknown_op  (** operation name outside the op registry. *)
  | Engine_error  (** build/measure/search failed; message has details. *)
  | Busy  (** admission queue full — retry later. *)
  | Shutting_down  (** daemon is draining; no new work accepted. *)
  | Not_found  (** referenced file (tuning log) does not exist. *)
  | Too_large  (** frame exceeds {!max_frame}. *)
  | Internal  (** unexpected server-side exception. *)

val error_code_to_string : error_code -> string
(** The wire name, e.g. [Bad_frame] ↦ ["bad_frame"]. *)

val error_code_of_string : string -> error_code option
(** Inverse of {!error_code_to_string}; [None] for unknown codes. *)

(** {1 Framing} *)

val read_frame : Unix.file_descr -> (string option, error_code * string) result
(** Read one frame.  [Ok None] is a clean close (EOF between frames);
    [Ok (Some payload)] is a complete frame; [Error] is truncation, an
    oversized length prefix, or an I/O failure — the connection cannot
    be resynchronized after one.  Never raises; restarts on [EINTR]. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one frame (length prefix + payload).
    @raise Invalid_argument on an empty or oversized payload.
    @raise Unix.Unix_error when the peer is gone. *)

(** {1 Requests} *)

type tune_spec = {
  op : string;  (** operation name, e.g. ["gemv"]. *)
  sizes : int list;  (** dimension extents, all positive. *)
  trials : int;  (** trial budget, >= 1. *)
  seed : int;  (** search seed. *)
  measure_ratio : float option;
      (** measurement-gate ratio in (0, 1], if gated. *)
  islands : int option;
      (** island count for the search, >= 1; 1 when omitted.  Pin it
          (along with the seed) when the history digest must reproduce
          across daemons. *)
  session : string option;
      (** session name, which names the session's tuning log; derived
          from the other fields when omitted.  Restricted to
          [A-Za-z0-9._-]. *)
}

type request =
  | Hello of int  (** protocol version — must open every connection. *)
  | Run of { op : string; sizes : int list }
      (** compile + execute + validate with a default schedule. *)
  | Tune of tune_spec  (** logged, resumable autotuning session. *)
  | Replay of { log : string; sizes : int list }
      (** re-measure the best entry of a server-local tuning log. *)
  | Stats  (** engine / pool / session / metrics snapshot. *)
  | Shutdown  (** acknowledge, then drain and exit. *)

val request_to_json : request -> Json.t
val request_of_json : Json.t -> (request, error_code * string) result

val request_of_string : string -> (request, error_code * string) result
(** Parse a frame payload: JSON decode then {!request_of_json}. *)

(** {1 Responses} *)

type response =
  | Resp_ok of Json.t  (** request-specific body, see docs/PROTOCOL.md. *)
  | Resp_error of { code : error_code; message : string }

val response_to_json : response -> Json.t
val response_of_json : Json.t -> (response, error_code * string) result
val response_of_string : string -> (response, error_code * string) result

val send_request : Unix.file_descr -> request -> unit
(** Encode and {!write_frame} in one step. *)

val send_response : Unix.file_descr -> response -> unit

(** {1 History digests} *)

val history_digest : Imtp_autotune.Search.outcome -> string
(** Hex MD5 over the outcome's history rendered as tuning-log lines
    ({!Imtp_autotune.Tuning_log.entry_to_string}, newline-joined) —
    the wire-level witness that a resumed search reproduced the
    uninterrupted run's trajectory bit-for-bit. *)
