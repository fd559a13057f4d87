(** Durable search checkpoints: the on-disk form of
    {!Search.checkpoint}.

    A checkpoint file is a header line [imtp-checkpoint-v3 <capacity>]
    followed by two slots of [capacity] payload bytes each.  A slot is
    [[seq][len][md5 of payload][payload]]: a 64-bit little-endian
    sequence number, a 64-bit little-endian payload length, the
    16-byte MD5 digest of the payload, then the marshalled snapshot.

    {b Kill-safety.}  A save overwrites, in place, the slot that does
    {e not} hold the newest valid checkpoint.  A process killed
    mid-write (the serving daemon's whole threat model) can therefore
    only tear a slot {!load} would not have returned, and {!load}
    returns the newest slot whose length and digest check — the
    previous checkpoint or the new one, never a torn one.  The first
    save, and a payload that outgrows the capacity, write a fresh file
    with twice the needed capacity through a temp file in the
    destination directory plus a rename, so the file only ever appears
    holding a complete checkpoint.  In-place writes need no rename and
    no truncate, which matters because on ext4 a rename onto an
    existing file forces a data flush.

    {b Writers.}  Saves go through a {!writer}, one per session: it
    owns its buffers, the open file descriptor and the slot state it
    has itself written.  Its first save validates the file as {!load}
    would — it takes the slot whose header carries the higher [seq],
    writes the other slot if that one's digest checks, and overwrites
    it if it is torn.  After that a save is marshal, MD5 and one
    positioned write into the slot that does not hold the writer's
    last checkpoint; a failed write makes the next save validate
    again.  There is no process-wide lock: writers for different
    files never wait for each other.  A closed writer hands its image
    buffer to the next writer opened, so opening one per session
    allocates no payload-sized buffer.  One writer must not be used
    from two threads at once.

    Checkpoints use [Marshal] and are therefore {e host-local}: they
    are not portable across OCaml versions or architectures, and they
    must only be loaded from trusted directories (the daemon's
    [--checkpoint-dir]).  {!load} validates the header line and the
    slot digests and rejects files without a complete slot with
    [Error]; files of the earlier rename-only format
    ([imtp-checkpoint-v2]) are refused the same way.  {!Search.run}
    additionally rejects snapshots whose embedded
    {!Search.checkpoint_format} or operator hash do not match. *)

type writer
(** A session's checkpoint writer for one path. *)

val writer : string -> writer
(** [writer path] saves to [path].  Opens nothing until the first
    {!write}. *)

val write : writer -> Search.checkpoint -> unit
(** Save [ck]: in place into the free slot of an existing checkpoint
    file with room for it, else as a fresh file (temp file + rename in
    the directory of the writer's path).  Marshals into a buffer the
    writer reuses.
    @raise Sys_error when the directory is missing or unwritable. *)

val close : writer -> unit
(** Close the writer's descriptor; a later {!write} validates the
    file again.  Never raises. *)

val save : string -> Search.checkpoint -> unit
(** [save path ck] opens a writer on [path], writes [ck] once and
    closes it.
    @raise Sys_error when the directory is missing or unwritable. *)

val load : string -> (Search.checkpoint, string) result
(** Read the newest complete checkpoint written by {!save}.  Missing
    files, wrong magic, files without a complete slot and corrupt
    payloads are all [Error] with a path-prefixed message; this
    function never raises. *)
