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
   slot whose length and digest check.  A session saves through its
   own writer, which reads the slots back once and afterwards knows
   which slot it wrote last, so a later save is one positioned write.
   In-place writes need no rename and no truncate: on ext4 a rename
   onto an existing file forces a data flush that cost more than the
   rest of the save.  The first
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

(* The file as this writer last wrote or validated it: its header
   length and slot capacity, the slot holding the newest valid
   checkpoint and that checkpoint's sequence number. *)
type slots = { hlen : int; capacity : int; newest : int; seq : int }

(* One session's writer.  Its buffers are reused across saves, so a
   save allocates no payload-sized string, and a session's saves never
   wait for another session's.  [slots] is [None] until a save has
   validated the file, and again after a failed write.  [readback] is
   only grown when a validation reads a payload back. *)
type writer = {
  path : string;
  mutable image : Bytes.t;  (* slot header + marshalled payload *)
  mutable readback : Bytes.t;
  hdr : Bytes.t;
  mutable fd : Unix.file_descr option;
  mutable slots : slots option;
}

(* Images of closed writers, taken by the next ones: a daemon opens a
   writer per session, and a fresh payload-sized image each time would
   be major-heap garbage at every request. *)
let spare_images : Bytes.t list Atomic.t = Atomic.make []

let rec take_image () =
  match Atomic.get spare_images with
  | [] -> Bytes.create 16384
  | b :: rest as l ->
      if Atomic.compare_and_set spare_images l rest then b else take_image ()

let rec give_image b =
  let l = Atomic.get spare_images in
  if not (Atomic.compare_and_set spare_images l (b :: l)) then give_image b

let writer path =
  {
    path;
    image = take_image ();
    readback = Bytes.empty;
    hdr = Bytes.create 64;
    fd = None;
    slots = None;
  }

let close_fd w =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) w.fd;
  w.fd <- None;
  w.slots <- None

(* Closed, the writer hands its image on; a later [write] takes one
   again. *)
let close w =
  close_fd w;
  if w.image != Bytes.empty then begin
    give_image w.image;
    w.image <- Bytes.empty;
    w.readback <- Bytes.empty
  end

let rec marshal_into_image w ck =
  let b = w.image in
  match Marshal.to_buffer b slot_header (Bytes.length b - slot_header) ck [] with
  | len -> len
  | exception Failure _ ->
      w.image <- Bytes.create (2 * Bytes.length b);
      marshal_into_image w ck

(* Fills the image's slot header for a payload of [len] bytes. *)
let seal w ~seq len =
  let b = w.image in
  Bytes.set_int64_le b 0 (Int64.of_int seq);
  Bytes.set_int64_le b 8 (Int64.of_int len);
  Bytes.blit_string (Digest.subbytes b slot_header len) 0 b 16 16

let open_rw path = Unix.openfile path [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0o644

(* A whole new file holding the image in slot 0: temp file in the
   target directory, then a rename.  The writer keeps the temp file's
   descriptor, which the rename leaves naming [path]. *)
let save_fresh w len =
  let capacity = 2 * len in
  seal w ~seq:1 len;
  let tmp =
    Filename.temp_file ~temp_dir:(Filename.dirname w.path) ".ckpt" ".tmp"
  in
  match
    let fd = open_rw tmp in
    w.fd <- Some fd;
    let h = Bytes.of_string (header_line capacity) in
    write_at fd 0 h (Bytes.length h);
    write_at fd (Bytes.length h) w.image (slot_header + len);
    Sys.rename tmp w.path;
    { hlen = Bytes.length h; capacity; newest = 0; seq = 1 }
  with
  | slots -> w.slots <- Some slots
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

(* The newest valid slot of an open v3 file with room for [len] bytes,
   read back exactly as {!load} would judge it; [None] when the file
   is no such file.  A slot past the end of the file reads as empty
   (seq 0, length 0). *)
let validate w fd len =
  let hdr = w.hdr in
  let got = read_at fd 0 hdr (Bytes.length hdr) in
  match parse_header (Bytes.sub_string hdr 0 got) with
  | Some (hlen, capacity) when len <= capacity ->
      let off = slot_offset ~hlen ~capacity in
      (* Slot [i]'s header lands at [hdr.(32 i)]. *)
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
        (if Bytes.length w.readback < n then w.readback <- Bytes.create n;
         read_at fd (off newest + slot_header) w.readback n = n)
        && Digest.subbytes w.readback 0 n = Bytes.sub_string hdr (h + 16) 16
      in
      (* A torn newest slot is the one to overwrite: pretend the other
         slot is the newest valid one. *)
      Some
        {
          hlen;
          capacity;
          newest = (if newest_valid then newest else 1 - newest);
          seq = max s0 s1;
        }
  | _ -> None

(* The slot state a save of [len] bytes may write in place: the one
   this writer keeps, else a validation of the file at [path]. *)
let in_place w len =
  match (w.fd, w.slots) with
  | Some fd, Some s when len <= s.capacity -> Some (fd, s)
  | _ -> (
      let fd =
        match w.fd with
        | Some fd -> Some fd
        | None -> (
            match open_rw w.path with
            | fd ->
                w.fd <- Some fd;
                Some fd
            | exception Unix.Unix_error (Unix.ENOENT, _, _) -> None)
      in
      match fd with
      | None -> None
      | Some fd -> Option.map (fun s -> (fd, s)) (validate w fd len))

let write w (ck : Search.checkpoint) =
  if w.image == Bytes.empty then w.image <- take_image ();
  let len = marshal_into_image w ck in
  try
    match in_place w len with
    | Some (fd, s) ->
        let target = 1 - s.newest in
        seal w ~seq:(s.seq + 1) len;
        write_at fd (slot_offset ~hlen:s.hlen ~capacity:s.capacity target)
          w.image (slot_header + len);
        w.slots <- Some { s with newest = target; seq = s.seq + 1 }
    | None ->
        close_fd w;
        save_fresh w len
  with e -> (
    (* The next save validates the file again. *)
    close_fd w;
    match e with
    | Unix.Unix_error (e, _, _) ->
        raise (Sys_error (w.path ^ ": " ^ Unix.error_message e))
    | e -> raise e)

let save path ck =
  let w = writer path in
  Fun.protect ~finally:(fun () -> close w) (fun () -> write w ck)

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
