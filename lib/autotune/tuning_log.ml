type entry = {
  trial : int;
  island : int;
  params : Sketch.params;
  latency_s : float;
  measured : bool;
  predicted_s : float option;
}
type header = { op_name : string }

(* Log lines are rendered into one [Buffer], ints by a digit loop and
   floats through a single [%.9e] conversion each: a digest of a whole
   search history renders a hundred lines per request.  The digits of
   [v <= 0], most significant first; accumulating on the negative side
   covers [min_int], whose magnitude is not an [int]. *)
let rec add_neg_digits b v =
  if v <= -10 then add_neg_digits b (v / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (v mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b n
  end
  else add_neg_digits b (-n)

(* The C conversion [Printf]'s [%.9e] ends in, without interpreting the
   format on every call. *)
external format_float : string -> float -> string = "caml_format_float"

let add_float b f = Buffer.add_string b (format_float "%.9e" f)

let add_field b key n =
  Buffer.add_string b key;
  add_int b n

let add_params b (p : Sketch.params) =
  add_field b "sd=" p.Sketch.spatial_dpus;
  add_field b " rd=" p.Sketch.reduction_dpus;
  add_field b " t=" p.Sketch.tasklets;
  add_field b " c=" p.Sketch.cache_elems;
  add_field b " rows=" p.Sketch.rows_per_tasklet;
  add_field b " unroll=" (Bool.to_int p.Sketch.unroll_inner);
  add_field b " ht=" p.Sketch.host_threads

let params_to_string p =
  let b = Buffer.create 64 in
  add_params b p;
  Buffer.contents b

let params_of_string s =
  let kvs =
    List.filter_map
      (fun tok ->
        match String.split_on_char '=' tok with
        | [ k; v ] -> Some (k, v)
        | _ -> None)
      (String.split_on_char ' ' (String.trim s))
  in
  let int_of k =
    match List.assoc_opt k kvs with
    | None -> Error (Printf.sprintf "missing key %s" k)
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "bad value for %s: %s" k v))
  in
  let ( let* ) = Result.bind in
  let* sd = int_of "sd" in
  let* rd = int_of "rd" in
  let* t = int_of "t" in
  let* c = int_of "c" in
  let* rows = int_of "rows" in
  let* unroll = int_of "unroll" in
  let* ht = int_of "ht" in
  Ok
    {
      Sketch.spatial_dpus = sd;
      reduction_dpus = rd;
      tasklets = t;
      cache_elems = c;
      rows_per_tasklet = rows;
      unroll_inner = unroll <> 0;
      host_threads = ht;
    }

(* [measured]/[predicted_cost]/[island] ride at the end of the line so
   parsers that only know the required keys (and [params_of_string],
   which ignores unknown keys) still read gated and island logs.
   [island] is only emitted when non-zero, so single-island logs stay
   byte-identical to their pre-island form — the golden-trace and
   replay fixtures depend on that. *)
let add_entry b e =
  add_field b "trial=" e.trial;
  Buffer.add_string b " latency=";
  add_float b e.latency_s;
  Buffer.add_char b ' ';
  add_params b e.params;
  add_field b " measured=" (Bool.to_int e.measured);
  (match e.predicted_s with
  | Some p ->
      Buffer.add_string b " predicted_cost=";
      add_float b p
  | None -> ());
  if e.island > 0 then add_field b " island=" e.island

let entry_to_string e =
  let b = Buffer.create 128 in
  add_entry b e;
  Buffer.contents b

let of_record (r : Search.record) =
  {
    trial = r.Search.trial;
    island = r.Search.island;
    params = r.Search.params;
    latency_s = r.Search.latency_s;
    measured = r.Search.measured;
    predicted_s = r.Search.predicted_s;
  }

let entry_of_string line =
  let ( let* ) = Result.bind in
  match String.split_on_char ' ' (String.trim line) with
  | trial_tok :: lat_tok :: rest ->
      let get prefix tok =
        match String.split_on_char '=' tok with
        | [ k; v ] when String.equal k prefix -> Ok v
        | _ -> Error (Printf.sprintf "expected %s=..., got %s" prefix tok)
      in
      let* trial_s = get "trial" trial_tok in
      let* lat_s = get "latency" lat_tok in
      let* trial =
        Option.to_result ~none:"bad trial" (int_of_string_opt trial_s)
      in
      let* latency_s =
        Option.to_result ~none:"bad latency" (float_of_string_opt lat_s)
      in
      let* params = params_of_string (String.concat " " rest) in
      (* Pre-gating logs have neither key: default to a measured trial. *)
      let kvs =
        List.filter_map
          (fun tok ->
            match String.split_on_char '=' tok with
            | [ k; v ] -> Some (k, v)
            | _ -> None)
          rest
      in
      let measured =
        match List.assoc_opt "measured" kvs with
        | Some "0" -> false
        | Some _ | None -> true
      in
      let predicted_s =
        Option.bind (List.assoc_opt "predicted_cost" kvs) float_of_string_opt
      in
      (* Pre-island logs carry no island key: everything came from the
         one population. *)
      let island =
        match Option.bind (List.assoc_opt "island" kvs) int_of_string_opt with
        | Some i when i >= 0 -> i
        | Some _ | None -> 0
      in
      Ok { trial; island; params; latency_s; measured; predicted_s }
  | _ -> Error "malformed log line"

(* The complete lines of a log: the piece after the last newline is
   empty, or a line a kill left unterminated, which was never logged.
   No newline at all means not even the header was. *)
let complete_lines text =
  match String.rindex_opt text '\n' with
  | None -> []
  | Some i -> String.split_on_char '\n' (String.sub text 0 i)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text -> (
      let header_line, lines =
        match complete_lines text with [] -> ("", []) | h :: t -> (h, t)
      in
      (* Header tokens after the "# imtp-tuning-log" tag are k=v pairs. *)
      let kvs =
        List.filter_map
          (fun tok ->
            match String.split_on_char '=' tok with
            | [ k; v ] -> Some (k, v)
            | _ -> None)
          (String.split_on_char ' ' (String.trim header_line))
      in
      let op_name = Option.value ~default:"" (List.assoc_opt "op" kvs) in
      if op_name = "" then Error "missing or malformed header"
      else
        let rec entries acc = function
          | [] -> Ok ({ op_name }, List.rev acc)
          | line :: rest when String.trim line = "" -> entries acc rest
          | line :: rest -> (
              match entry_of_string line with
              | Ok e -> entries (e :: acc) rest
              | Error m -> Error m)
        in
        entries [] lines)

(* Only simulator-backed entries can win: a gated log's predicted-cost
   lines are the model's opinion, not a measurement. *)
let best entries =
  List.fold_left
    (fun acc e ->
      if not e.measured then acc
      else
        match acc with
        | Some b when b.latency_s <= e.latency_s -> acc
        | _ -> Some e)
    None entries

(* ------------------------------------------------------------------ *)
(* Session logs                                                        *)
(* ------------------------------------------------------------------ *)

let ratio_to_string r =
  let rec go precision =
    let s = Printf.sprintf "%.*g" precision r in
    if precision >= 17 || float_of_string s = r then s else go (precision + 1)
  in
  go 15

let session_header ~op_name ~sizes ~seed ~trials ?measure_ratio ~islands () =
  Printf.sprintf
    "# imtp-tuning-log op=%s sizes=%s seed=%d trials=%d%s islands=%d" op_name
    (String.concat "x" (List.map string_of_int sizes))
    seed trials
    (match measure_ratio with
    | None -> ""
    | Some r -> " measure_ratio=" ^ ratio_to_string r)
    islands

type session_error =
  | Header_mismatch of { path : string; logged : string; expected : string }
  | Line_mismatch of {
      path : string;
      line : int;
      logged : string;
      recorded : string;
    }

let session_error_to_string = function
  | Header_mismatch { path; logged; expected } ->
      Printf.sprintf "%s: logged for another request: %S, not %S" path logged
        expected
  | Line_mismatch { path; line; logged; recorded } ->
      Printf.sprintf "%s:%d: the run recorded %S where the log holds %S" path
        line recorded logged

type session = {
  path : string;
  header : string;
  logged : string array;  (* the complete record lines found at open *)
  mutable verified : int;
  mutable length : int;  (* bytes of complete lines, header included *)
  mutable fd : Unix.file_descr option;  (* opened by the first write *)
  buf : Buffer.t;
}

let open_session path ~header =
  let text =
    if Sys.file_exists path then
      In_channel.with_open_bin path In_channel.input_all
    else ""
  in
  let fresh =
    {
      path;
      header;
      logged = [||];
      verified = 0;
      length = 0;
      fd = None;
      buf = Buffer.create 4096;
    }
  in
  match complete_lines text with
  | [] -> Ok fresh
  | first :: rest when String.equal first header ->
      Ok
        {
          fresh with
          logged = Array.of_list rest;
          length = String.rindex text '\n' + 1;
        }
  | first :: _ ->
      Error (Header_mismatch { path; logged = first; expected = header })

let logged s = Array.length s.logged
let verified s = s.verified

(* One write for the whole batch.  The first one drops whatever follows
   the last complete line. *)
let write s =
  try
    let fd =
      match s.fd with
      | Some fd -> fd
      | None ->
          let fd =
            Unix.openfile s.path
              [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ]
              0o644
          in
          s.fd <- Some fd;
          Unix.ftruncate fd s.length;
          ignore (Unix.lseek fd s.length Unix.SEEK_SET);
          fd
    in
    let n = Buffer.length s.buf in
    ignore (Unix.write_substring fd (Buffer.contents s.buf) 0 n);
    s.length <- s.length + n
  with Unix.Unix_error (e, _, _) ->
    raise (Sys_error (s.path ^ ": " ^ Unix.error_message e))

let append s records =
  Buffer.clear s.buf;
  if s.length = 0 then begin
    Buffer.add_string s.buf s.header;
    Buffer.add_char s.buf '\n'
  end;
  let rec go = function
    | [] -> Ok ()
    | r :: rest when s.verified < Array.length s.logged ->
        let line = entry_to_string (of_record r) in
        let logged = s.logged.(s.verified) in
        if String.equal line logged then begin
          s.verified <- s.verified + 1;
          go rest
        end
        else
          let line_no = s.verified + 2 in
          Error
            (Line_mismatch
               { path = s.path; line = line_no; logged; recorded = line })
    | r :: rest ->
        add_entry s.buf (of_record r);
        Buffer.add_char s.buf '\n';
        go rest
  in
  let result = go records in
  if Result.is_ok result && Buffer.length s.buf > 0 then write s;
  result

let close_session s =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) s.fd;
  s.fd <- None
