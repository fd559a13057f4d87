(* The imtp serving protocol: length-prefixed JSON frames over a
   Unix-domain socket.  docs/PROTOCOL.md is the normative spec; this
   module is its executable form — framing, the request/response
   vocabulary, and the error-code table live here and nowhere else. *)

module Json = Imtp_obs.Obs.Json

let version = 1
let max_frame = 4 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Error codes                                                         *)
(* ------------------------------------------------------------------ *)

type error_code =
  | Bad_frame
  | Bad_version
  | Bad_request
  | Unknown_op
  | Engine_error
  | Busy
  | Shutting_down
  | Not_found
  | Too_large
  | Internal

let error_code_to_string = function
  | Bad_frame -> "bad_frame"
  | Bad_version -> "bad_version"
  | Bad_request -> "bad_request"
  | Unknown_op -> "unknown_op"
  | Engine_error -> "engine_error"
  | Busy -> "busy"
  | Shutting_down -> "shutting_down"
  | Not_found -> "not_found"
  | Too_large -> "too_large"
  | Internal -> "internal"

let error_code_of_string = function
  | "bad_frame" -> Some Bad_frame
  | "bad_version" -> Some Bad_version
  | "bad_request" -> Some Bad_request
  | "unknown_op" -> Some Unknown_op
  | "engine_error" -> Some Engine_error
  | "busy" -> Some Busy
  | "shutting_down" -> Some Shutting_down
  | "not_found" -> Some Not_found
  | "too_large" -> Some Too_large
  | "internal" -> Some Internal
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

(* [read_exactly] restarts on EINTR; a connection reset mid-frame is
   indistinguishable from truncation for the reader's purposes, so
   both surface as [`Short]. *)
let read_exactly fd buf off len =
  let rec go off len got =
    if len = 0 then if got = 0 then `Empty else `Ok
    else
      match Unix.read fd buf off len with
      | 0 -> if got = 0 then `Empty else `Short
      | n -> go (off + n) (len - n) (got + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len got
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          if got = 0 then `Empty else `Short
  in
  go off len 0

let read_frame_unsafe fd =
  let hdr = Bytes.create 4 in
  match read_exactly fd hdr 0 4 with
  | `Empty -> Ok None
  | `Short -> Error (Bad_frame, "truncated length prefix")
  | `Ok ->
      let b i = Char.code (Bytes.get hdr i) in
      let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
      if len > max_frame then
        Error
          ( Too_large,
            Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len
              max_frame )
      else if len = 0 then Error (Bad_frame, "empty frame")
      else
        let payload = Bytes.create len in
        (match read_exactly fd payload 0 len with
        | `Ok -> Ok (Some (Bytes.unsafe_to_string payload))
        | `Empty | `Short ->
            Error
              ( Bad_frame,
                Printf.sprintf "truncated payload (expected %d bytes)" len ))

let read_frame fd =
  try read_frame_unsafe fd
  with Unix.Unix_error (e, _, _) -> Error (Bad_frame, Unix.error_message e)

let write_frame fd payload =
  let n = String.length payload in
  if n = 0 || n > max_frame then
    invalid_arg
      (Printf.sprintf "Protocol.write_frame: payload of %d bytes" n);
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b 4 n;
  let rec go off len =
    if len > 0 then begin
      let w =
        try Unix.write fd b off len
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      go (off + w) (len - w)
    end
  in
  go 0 (4 + n)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type tune_spec = {
  op : string;
  sizes : int list;
  trials : int;
  seed : int;
  measure_ratio : float option;
  islands : int option;
  session : string option;
}

type request =
  | Hello of int
  | Run of { op : string; sizes : int list }
  | Tune of tune_spec
  | Replay of { log : string; sizes : int list }
  | Stats
  | Shutdown

let request_to_json = function
  | Hello v ->
      Json.Obj [ ("type", Json.Str "hello"); ("version", Json.Num (float_of_int v)) ]
  | Run { op; sizes } ->
      Json.Obj
        [
          ("type", Json.Str "run");
          ("op", Json.Str op);
          ("sizes", Json.List (List.map (fun s -> Json.Num (float_of_int s)) sizes));
        ]
  | Tune { op; sizes; trials; seed; measure_ratio; islands; session } ->
      Json.Obj
        ([
           ("type", Json.Str "tune");
           ("op", Json.Str op);
           ( "sizes",
             Json.List (List.map (fun s -> Json.Num (float_of_int s)) sizes) );
           ("trials", Json.Num (float_of_int trials));
           ("seed", Json.Num (float_of_int seed));
         ]
        @ (match measure_ratio with
          | None -> []
          | Some r -> [ ("measure_ratio", Json.Num r) ])
        @ (match islands with
          | None -> []
          | Some k -> [ ("islands", Json.Num (float_of_int k)) ])
        @ match session with
          | None -> []
          | Some s -> [ ("session", Json.Str s) ])
  | Replay { log; sizes } ->
      Json.Obj
        [
          ("type", Json.Str "replay");
          ("log", Json.Str log);
          ("sizes", Json.List (List.map (fun s -> Json.Num (float_of_int s)) sizes));
        ]
  | Stats -> Json.Obj [ ("type", Json.Str "stats") ]
  | Shutdown -> Json.Obj [ ("type", Json.Str "shutdown") ]

let ( let* ) = Result.bind
let err fmt = Printf.ksprintf (fun m -> Error (Bad_request, m)) fmt

let as_int name = function
  | Json.Num f when Float.is_integer f && Float.abs f <= 1e15 ->
      Ok (int_of_float f)
  | _ -> err "field %S must be an integer" name

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> err "missing field %S" name

let str_field name j =
  let* v = field name j in
  match v with Json.Str s -> Ok s | _ -> err "field %S must be a string" name

let int_field name j =
  let* v = field name j in
  as_int name v

let sizes_field j =
  let* v = field "sizes" j in
  match v with
  | Json.List items ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* n = as_int "sizes" item in
          if n < 1 then err "sizes must be positive" else Ok (n :: acc))
        (Ok []) items
      |> Result.map List.rev
  | _ -> err "field \"sizes\" must be a list of integers"

let request_of_json j =
  let* ty = str_field "type" j in
  match ty with
  | "hello" ->
      let* v = int_field "version" j in
      Ok (Hello v)
  | "run" ->
      let* op = str_field "op" j in
      let* sizes = sizes_field j in
      Ok (Run { op; sizes })
  | "tune" ->
      let* op = str_field "op" j in
      let* sizes = sizes_field j in
      let* trials = int_field "trials" j in
      let* seed = int_field "seed" j in
      let* measure_ratio =
        match Json.member "measure_ratio" j with
        | None | Some Json.Null -> Ok None
        | Some (Json.Num r) when r > 0. && r <= 1. -> Ok (Some r)
        | Some (Json.Num _) -> err "measure_ratio must be in (0, 1]"
        | Some _ -> err "field \"measure_ratio\" must be a number"
      in
      let* islands =
        match Json.member "islands" j with
        | None | Some Json.Null -> Ok None
        | Some v ->
            let* k = as_int "islands" v in
            if k < 1 then err "islands must be >= 1" else Ok (Some k)
      in
      let* session =
        match Json.member "session" j with
        | None | Some Json.Null -> Ok None
        | Some (Json.Str s) -> Ok (Some s)
        | Some _ -> err "field \"session\" must be a string"
      in
      if trials < 1 then err "trials must be >= 1"
      else Ok (Tune { op; sizes; trials; seed; measure_ratio; islands; session })
  | "replay" ->
      let* log = str_field "log" j in
      let* sizes = sizes_field j in
      Ok (Replay { log; sizes })
  | "stats" -> Ok Stats
  | "shutdown" -> Ok Shutdown
  | other -> err "unknown request type %S" other

let request_of_string s =
  match Json.of_string s with
  | Error m -> Error (Bad_request, "malformed JSON: " ^ m)
  | Ok j -> request_of_json j

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

type response =
  | Resp_ok of Json.t
  | Resp_error of { code : error_code; message : string }

let response_to_json = function
  | Resp_ok body -> Json.Obj [ ("type", Json.Str "ok"); ("body", body) ]
  | Resp_error { code; message } ->
      Json.Obj
        [
          ("type", Json.Str "error");
          ("code", Json.Str (error_code_to_string code));
          ("message", Json.Str message);
        ]

let response_of_json j =
  let* ty = str_field "type" j in
  match ty with
  | "ok" ->
      let* body = field "body" j in
      Ok (Resp_ok body)
  | "error" ->
      let* code_s = str_field "code" j in
      let* message = str_field "message" j in
      (match error_code_of_string code_s with
      | Some code -> Ok (Resp_error { code; message })
      | None -> err "unknown error code %S" code_s)
  | other -> err "unknown response type %S" other

let response_of_string s =
  match Json.of_string s with
  | Error m -> Error (Bad_request, "malformed JSON: " ^ m)
  | Ok j -> response_of_json j

let send_request fd req =
  write_frame fd (Json.to_string (request_to_json req))

let send_response fd resp =
  write_frame fd (Json.to_string (response_to_json resp))

(* ------------------------------------------------------------------ *)
(* History digests                                                     *)
(* ------------------------------------------------------------------ *)

(* One buffer, reused under a lock: a history renders to about 12 KB,
   and a fresh buffer of that size per request is a large allocation on
   every tune, which raised the serve benchmark's peak RSS by about
   2 MB. *)
let digest_buffer = Buffer.create 16384
let digest_lock = Mutex.create ()

let history_digest (o : Imtp_autotune.Search.outcome) =
  let module Tl = Imtp_autotune.Tuning_log in
  Mutex.protect digest_lock @@ fun () ->
  let b = digest_buffer in
  Buffer.clear b;
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b '\n';
      Tl.add_entry b (Tl.of_record r))
    o.Imtp_autotune.Search.history;
  let d = Digest.string (Buffer.contents b) in
  (* an unusually long history does not keep its buffer *)
  if Buffer.length b > 1 lsl 16 then Buffer.reset b;
  Digest.to_hex d
