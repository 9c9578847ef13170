(** Write-ahead persistence for one replica process.

    Exactly what the Raft paper puts on stable storage — current term,
    vote, and the log — with each [Data] entry's command bytes stored
    inline beside it, in one append-only file, [durable.wal], of framed
    records:

    {v
      [u32 length][u32 CRC-32][body]    little-endian; the CRC-32 covers
                                        the 4 length bytes and the body
    v}

    Bodies are one-line JSON objects. The first record is a header
    naming {!schema}. After it come three kinds of record, replayed in
    order: {e hard state} [{"term", "voted_for"}], {e entry}
    [{"entry", "payload"}] (the entry in {!Raft_sim.Raft_codec} form,
    with its command bytes when it is a [Data] entry) and
    {e truncate-from} [{"truncate_from"}] (drop the log from an index
    on).

    {b Group commit.} A {!writer} stages only what changed since its
    last {!persist}: a hard-state record when the term or vote moved,
    a truncate-from record when the log diverged, and the new entries.
    The staged records go out as one [write] and one [fsync]; a persist
    with nothing to stage does no I/O at all. The {!Node} pump persists
    once per cycle {e before} flushing replies and outbound messages, so
    a success reply never leaves the process ahead of the log bytes it
    acknowledges. On restart the recovered snapshot is loaded into
    {!Raft_sim.Raft_node.restore} and committed entries are re-applied
    idempotently.

    {b Recovery.} A short or CRC-failing {e final} record is a torn
    tail from a crash mid-append: {!open_writer} truncates the file to
    the end of the last good record and boots from that prefix ({!load}
    reads the same prefix without writing). A bad header, a CRC-valid
    record that does not decode, or a bad record with a valid record
    anywhere after it is an [Error]: a replica never silently boots
    over damaged state. So is a state directory holding a version-1
    [durable.json] and no [durable.wal]; there is no migration.

    {b Compaction.} Truncated entries and superseded hard-state records
    are dead bytes. When a persist leaves more dead bytes than live
    ones, the writer rewrites the live state into [durable.wal.tmp],
    fsyncs it, renames it into place and fsyncs the directory — the
    same steps that create the file — so the file stays O(live log)
    and the rewrite costs amortized O(1) per appended byte.

    Instruments: [replica/persist_seconds] (write + fsync of one
    persist), [replica/persist_bytes] and [replica/fsyncs] (file and
    directory). *)

val schema : string
(** ["probcons-replica-durable/2"]. *)

type snapshot = {
  term : int;
  voted_for : int option;
  log : Raft_sim.Raft_types.entry list;
  payloads : (int * string) list;
      (** Sequence number to canonical command bytes, for the [Data]
          entries of [log] that carry them, in log order. *)
}

val path : dir:string -> string
(** The log file inside a replica's state directory. *)

type writer
(** An open log file and the state it holds. Not thread-safe: one
    thread (the {!Node} pump) owns it. *)

val open_writer : dir:string -> (writer * snapshot option, string) result
(** Open [dir]'s log, recovering its state, or create it (and fsync
    [dir]) when there is none — then the snapshot is [None]. Errors as
    {!load}. Raises [Unix.Unix_error] on I/O failure. *)

val persist :
  writer ->
  term:int ->
  voted_for:int option ->
  last_index:int ->
  term_at:(int -> int) ->
  entry:(int -> Raft_sim.Raft_types.entry * string option) ->
  unit
(** Bring the file to the given state — hard state, and a log of
    [last_index] entries where [term_at i] is entry [i]'s term and
    [entry i] the entry with its command bytes — appending only the
    difference, with one write and one fsync. Entries up to the last
    index whose term matches the file's are taken as already on disk
    (Log Matching), so [entry] is called only for new ones. Raises
    [Invalid_argument] if [entry i] is not at index [i], and
    [Unix.Unix_error] on I/O failure. *)

val close : writer -> unit

val save : dir:string -> snapshot -> unit
(** {!persist} for a whole snapshot: appends the difference between
    [snapshot] and what [dir]'s log already holds, through a writer
    kept per directory. Raises [Failure] if the existing log is
    damaged, [Unix.Unix_error] on I/O failure. *)

val load : dir:string -> (snapshot option, string) result
(** Read-only recovery: [Ok None] when no log exists; the state up to
    any torn tail; [Error] on damage (see above). *)
