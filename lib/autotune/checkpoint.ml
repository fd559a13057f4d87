(* Durable on-disk form of a search checkpoint.  A file is a header
   line carrying the format version and the slot capacity, followed by
   two fixed-capacity slots, each [seq][len][md5 of payload][payload]
   with the marshalled Search.checkpoint as payload:

     imtp-checkpoint-v3 <capacity>\n
     slot 0: seq (int64 LE) | len (int64 LE) | md5 (16 B) | capacity B
     slot 1: same

   A save overwrites, in place, the slot that does not hold the newest
   valid checkpoint, so a write torn by a kill can only hit a slot
   [load] would not have returned anyway; [load] returns the newest
   slot whose length and digest check.  In-place writes need no rename
   and no truncate: on ext4 a rename onto an existing file forces a
   data flush that cost more than the rest of the save.  The first
   save, and a payload past the capacity, write a fresh file through a
   temp file plus rename instead, so the file only ever appears
   holding a complete checkpoint. *)

(* v3: two in-place slots.  The magic versions this container; the
   payload is versioned by Search.checkpoint_format, its first field,
   which Search.run checks before it reads any other.  Marshal is not
   layout-tagged, so an old payload must never be read past that
   field. *)
let magic = "imtp-checkpoint-v3"
let slot_header = 32

(* One slot image (header + payload) and one read-back buffer, reused
   across saves so a save allocates no payload-sized string; [lock]
   serializes the daemon's concurrent sessions over them. *)
let lock = Mutex.create ()
let image = ref (Bytes.create 16384)
let readback = ref (Bytes.create 16384)
let hdr = Bytes.create 64

let rec marshal_into_image ck =
  let b = !image in
  match Marshal.to_buffer b slot_header (Bytes.length b - slot_header) ck [] with
  | len -> len
  | exception Failure _ ->
      image := Bytes.create (2 * Bytes.length b);
      marshal_into_image ck

let header_line capacity = Printf.sprintf "%s %d\n" magic capacity

(* The capacity of a v3 header line at the start of [s], with the
   line's length.  The bound keeps slot offsets from overflowing. *)
let parse_header s =
  match String.index_opt s '\n' with
  | None -> None
  | Some nl -> (
      match String.split_on_char ' ' (String.sub s 0 nl) with
      | [ m; cap ] when m = magic -> (
          match int_of_string_opt cap with
          | Some cap when cap > 0 && cap <= Sys.max_string_length ->
              Some (nl + 1, cap)
          | _ -> None)
      | _ -> None)

let slot_offset ~hlen ~capacity i = hlen + (i * (slot_header + capacity))

(* Reads up to [n] bytes at file offset [off] into [b] at [pos];
   returns how many. *)
let read_at fd off b ?(pos = 0) n =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let rec go got =
    if got = n then got
    else
      match Unix.read fd b (pos + got) (n - got) with
      | 0 -> got
      | k -> go (got + k)
  in
  go 0

let write_at fd off b n =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 n)

(* Fills the image's slot header for a payload of [len] bytes. *)
let seal ~seq len =
  let b = !image in
  Bytes.set_int64_le b 0 (Int64.of_int seq);
  Bytes.set_int64_le b 8 (Int64.of_int len);
  Bytes.blit_string (Digest.subbytes b slot_header len) 0 b 16 16

let with_fd fd f = Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

(* A whole new file holding the image in slot 0: temp file in the
   target directory, then a rename. *)
let save_fresh path len =
  let capacity = 2 * len in
  seal ~seq:1 len;
  let tmp = Filename.temp_file ~temp_dir:(Filename.dirname path) ".ckpt" ".tmp" in
  (try
     with_fd (Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0o644)
       (fun fd ->
         let h = Bytes.of_string (header_line capacity) in
         write_at fd 0 h (Bytes.length h);
         write_at fd (Bytes.length h) !image (slot_header + len))
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

(* The in-place save into an existing v3 file with room for [len]
   bytes; false when [path] is no such file. *)
let save_in_place path len =
  match Unix.openfile path [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false
  | fd ->
      with_fd fd @@ fun fd ->
      let got = read_at fd 0 hdr (Bytes.length hdr) in
      match parse_header (Bytes.sub_string hdr 0 got) with
      | Some (hlen, capacity) when len <= capacity ->
          let off = slot_offset ~hlen ~capacity in
          (* Slot [i]'s header lands at [hdr.(32 i)]; a slot past the
             end of the file reads as empty (seq 0, length 0). *)
          let seq i =
            let h = i * slot_header in
            if read_at fd (off i) hdr ~pos:h slot_header < slot_header then
              Bytes.fill hdr h slot_header '\000';
            Int64.to_int (Bytes.get_int64_le hdr h)
          in
          let s0 = seq 0 and s1 = seq 1 in
          let newest = if s1 > s0 then 1 else 0 in
          let newest_valid =
            let h = newest * slot_header in
            let n = Int64.to_int (Bytes.get_int64_le hdr (h + 8)) in
            n > 0 && n <= capacity
            &&
            (if Bytes.length !readback < n then readback := Bytes.create n;
             read_at fd (off newest + slot_header) !readback n = n)
            && Digest.subbytes !readback 0 n = Bytes.sub_string hdr (h + 16) 16
          in
          let target = if newest_valid then 1 - newest else newest in
          seal ~seq:(max s0 s1 + 1) len;
          write_at fd (off target) !image (slot_header + len);
          true
      | _ -> false

let save path (ck : Search.checkpoint) =
  Mutex.protect lock (fun () ->
      let len = marshal_into_image ck in
      try if not (save_in_place path len) then save_fresh path len
      with Unix.Unix_error (e, _, _) ->
        raise (Sys_error (path ^ ": " ^ Unix.error_message e)))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path : (Search.checkpoint, string) result =
  match read_file path with
  | exception Sys_error m -> Error m
  | s -> (
      match parse_header s with
      | None ->
          Error
            (Printf.sprintf "%s: not an imtp checkpoint (expected magic %S)"
               path magic)
      | Some (hlen, capacity) -> (
          (* Offset and seq of every slot whose length and digest check. *)
          let valid i =
            let off = slot_offset ~hlen ~capacity i in
            if off + slot_header > String.length s then None
            else
              let len = Int64.to_int (String.get_int64_le s (off + 8)) in
              if
                len > 0 && len <= capacity
                && off + slot_header + len <= String.length s
                && Digest.substring s (off + slot_header) len
                   = String.sub s (off + 16) 16
              then Some (Int64.to_int (String.get_int64_le s off), off)
              else None
          in
          let newest =
            match (valid 0, valid 1) with
            | Some (a, o), Some (b, _) when a >= b -> Some o
            | _, Some (_, o) | Some (_, o), None -> Some o
            | None, None -> None
          in
          match newest with
          | None -> Error (path ^ ": truncated checkpoint (no complete slot)")
          | Some off -> (
              match (Marshal.from_string s (off + slot_header) : Search.checkpoint) with
              | ck ->
                  (* Forces the format/op sanity checks that Search.run
                     would perform to fail here, with a path in the
                     message, rather than deep inside a resumed
                     search. *)
                  ignore (Search.checkpoint_trial ck);
                  Ok ck
              | exception Failure m ->
                  Error (Printf.sprintf "%s: corrupt checkpoint (%s)" path m))))
