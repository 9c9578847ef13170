module Raft_types = Raft_sim.Raft_types
module Vec = Dessim.Vec

let schema = "probcons-replica-durable/2"
let file = "durable.wal"
let v1_file = "durable.json"

type snapshot = {
  term : int;
  voted_for : int option;
  log : Raft_types.entry list;
  payloads : (int * string) list;
}

let path ~dir = Filename.concat dir file

let m_seconds = Obs.Metrics.histogram ~family:"replica" "persist_seconds"
let m_bytes = Obs.Metrics.counter ~family:"replica" "persist_bytes"
let m_fsyncs = Obs.Metrics.counter ~family:"replica" "fsyncs"

let fsync fd =
  Unix.fsync fd;
  Obs.Metrics.incr m_fsyncs

(* ---- CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) --------- *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* [crc] is the running register: start from 0xFFFFFFFF and xor the
   final value with 0xFFFFFFFF. *)
let crc_update crc s ~off ~len =
  let c = ref crc in
  for i = off to off + len - 1 do
    c :=
      crc_table.((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c

(* The CRC of one frame: its 4 length bytes, then its body. *)
let frame_crc s ~off ~len =
  let c = crc_update 0xFFFFFFFF s ~off ~len:4 in
  crc_update c s ~off:(off + 8) ~len lxor 0xFFFFFFFF

(* ---- records ------------------------------------------------------- *)

type record =
  | Header of string
  | Hard_state of int * int option
  | Entry of Raft_types.entry * string option
  | Truncate_from of int

let record_to_json r =
  let open Obs.Json in
  let opt f = function None -> Null | Some x -> f x in
  match r with
  | Header s -> Obj [ ("schema", String s) ]
  | Hard_state (term, voted_for) ->
      Obj [ ("term", Int term); ("voted_for", opt (fun v -> Int v) voted_for) ]
  | Entry (e, payload) ->
      Obj
        [
          ("entry", Raft_sim.Raft_codec.entry_to_json e);
          ("payload", opt (fun b -> String b) payload);
        ]
  | Truncate_from index -> Obj [ ("truncate_from", Int index) ]

let record_of_json j =
  let open Obs.Json in
  match j with
  | Obj [ ("schema", String s) ] -> Ok (Header s)
  | Obj [ ("term", Int term); ("voted_for", Null) ] -> Ok (Hard_state (term, None))
  | Obj [ ("term", Int term); ("voted_for", Int v) ] ->
      Ok (Hard_state (term, Some v))
  | Obj [ ("entry", e); ("payload", p) ] -> (
      match (Raft_sim.Raft_codec.entry_of_json e, p) with
      | Ok e, Null -> Ok (Entry (e, None))
      | Ok e, String b -> Ok (Entry (e, Some b))
      | Error msg, _ -> Error msg
      | Ok _, _ -> Error "bad payload")
  | Obj [ ("truncate_from", Int index) ] -> Ok (Truncate_from index)
  | _ -> Error "unknown record kind"

(* Append [r]'s frame to [b]; returns the frame's size. *)
let add_record b r =
  let body = Obs.Json.to_string (record_to_json r) in
  let len = String.length body in
  let frame = Bytes.create (8 + len) in
  Bytes.set_int32_le frame 0 (Int32.of_int len);
  Bytes.blit_string body 0 frame 8 len;
  let crc = frame_crc (Bytes.unsafe_to_string frame) ~off:0 ~len in
  Bytes.set_int32_le frame 4 (Int32.of_int crc);
  Buffer.add_bytes b frame;
  8 + len

let u32 s off = Int32.to_int (String.get_int32_le s off) land 0xFFFF_FFFF

(* Body length of a complete, CRC-valid frame at [off], if there is one. *)
let frame_at s off =
  let n = String.length s in
  if off + 8 > n then None
  else
    let len = u32 s off in
    if len > n - off - 8 || frame_crc s ~off ~len <> u32 s (off + 4) then None
    else Some len

exception Bad of string

let decode s ~off ~len =
  match Result.bind (Obs.Json.of_string (String.sub s off len)) record_of_json with
  | Ok r -> r
  | Error msg -> raise (Bad (Printf.sprintf "record at byte %d: %s" (off - 8) msg))

(* ---- the live state and its replay --------------------------------- *)

(* One live log entry and the size of its frame in the file. *)
type slot = { entry : Raft_types.entry; payload : string option; bytes : int }

(* What a replay of the file yields, and what a rewrite would hold. *)
type state = {
  mutable term : int;
  mutable voted_for : int option;
  log : slot Vec.t;
  mutable hs_bytes : int;  (* frame bytes of the latest hard state *)
  mutable log_bytes : int;  (* frame bytes of the live entries *)
}

let header_bytes = add_record (Buffer.create 64) (Header schema)
let live_bytes st = header_bytes + st.hs_bytes + st.log_bytes

let push_slot st entry payload bytes =
  if entry.Raft_types.index <> Vec.length st.log + 1 then
    raise (Bad (Printf.sprintf "entry %d out of sequence" entry.index));
  Vec.push st.log { entry; payload; bytes };
  st.log_bytes <- st.log_bytes + bytes

let truncate_log st index =
  if index < 1 || index > Vec.length st.log + 1 then
    raise (Bad (Printf.sprintf "truncate-from %d outside the log" index));
  for i = index to Vec.length st.log do
    st.log_bytes <- st.log_bytes - (Vec.get st.log (i - 1)).bytes
  done;
  Vec.truncate st.log (index - 1)

let empty_state () =
  { term = 0; voted_for = None; log = Vec.create (); hs_bytes = 0; log_bytes = 0 }

(* Replay a file's bytes; returns the state and the end of the last good
   record. A bad record is a torn tail only when no valid frame starts
   anywhere after it: a crash tears the end of the last append, while a
   flipped byte in an earlier record leaves the records after it intact. *)
let replay s =
  let n = String.length s in
  let st = empty_state () in
  let rec valid_after q =
    q + 8 <= n && (frame_at s q <> None || valid_after (q + 1))
  in
  let rec go off =
    if off = n then off
    else
      match frame_at s off with
      | None ->
          if valid_after (off + 1) then
            raise (Bad (Printf.sprintf "corrupt record at byte %d" off))
          else off
      | Some len ->
          (match decode s ~off:(off + 8) ~len with
          | Header _ -> raise (Bad "second header")
          | Hard_state (term, voted_for) ->
              st.term <- term;
              st.voted_for <- voted_for;
              st.hs_bytes <- len + 8
          | Entry (e, payload) -> push_slot st e payload (len + 8)
          | Truncate_from index -> truncate_log st index);
          go (off + 8 + len)
  in
  match frame_at s 0 with
  | Some len when decode s ~off:8 ~len = Header schema -> (st, go (8 + len))
  | _ -> raise (Bad ("bad header, not a " ^ schema ^ " file"))

let snapshot_of st =
  let slots = Vec.to_list st.log in
  {
    term = st.term;
    voted_for = st.voted_for;
    log = List.map (fun s -> s.entry) slots;
    payloads =
      List.filter_map
        (fun s ->
          match (s.entry.command, s.payload) with
          | Raft_types.Data seq, Some bytes -> Some (seq, bytes)
          | _ -> None)
        slots;
  }

(* Read and replay [dir]'s log: the state, the end of its last good
   record and the file size, or [None] when there is no log. *)
let recover ~dir =
  let p = path ~dir in
  let v1 = Filename.concat dir v1_file in
  if Sys.file_exists p then
    let s = In_channel.with_open_bin p In_channel.input_all in
    match replay s with
    | st, good -> Ok (Some (st, good, String.length s))
    | exception Bad msg -> Error (Printf.sprintf "storage: %s: %s" p msg)
  else if Sys.file_exists v1 then
    Error
      (Printf.sprintf
         "storage: %s is a probcons-replica-durable/1 state file; this \
          version reads only %s and has no migration"
         v1 file)
  else Ok None

let load ~dir =
  Result.map (Option.map (fun (st, _, _) -> snapshot_of st)) (recover ~dir)

(* ---- writing ------------------------------------------------------- *)

type writer = {
  dir : string;
  st : state;  (* what the file holds once [buf] is written *)
  buf : Buffer.t;  (* records staged by the current persist *)
  mutable fd : Unix.file_descr;
  mutable id : int * int;  (* st_dev, st_ino of the open file *)
  mutable size : int;  (* bytes on disk *)
}

let write_all fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd s !written (n - !written)
  done

let fsync_dir dir =
  let fd = Unix.openfile dir [ O_RDONLY; O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> fsync fd)

let attach ~dir st =
  let fd = Unix.openfile (path ~dir) [ O_WRONLY; O_APPEND; O_CLOEXEC ] 0o644 in
  let s = Unix.fstat fd in
  let id = (s.st_dev, s.st_ino) in
  { dir; st; buf = Buffer.create 4096; fd; id; size = s.st_size }

(* Replace [dir]'s file with [st]: written and fsynced under a temporary
   name, renamed into place, directory fsynced. This creates the file
   (empty state) and compacts it. *)
let rewrite ~dir st =
  let b = Buffer.create (live_bytes st) in
  ignore (add_record b (Header schema));
  if st.hs_bytes > 0 then
    ignore (add_record b (Hard_state (st.term, st.voted_for)));
  Vec.iteri (fun _ s -> ignore (add_record b (Entry (s.entry, s.payload)))) st.log;
  let final = path ~dir in
  let tmp = final ^ ".tmp" in
  let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd (Buffer.contents b);
      fsync fd);
  Unix.rename tmp final;
  fsync_dir dir;
  attach ~dir st

let open_writer ~dir =
  match recover ~dir with
  | Error _ as e -> e
  | Ok None -> Ok (rewrite ~dir (empty_state ()), None)
  | Ok (Some (st, good, size)) ->
      let w = attach ~dir st in
      if good < size then (
        (* Torn tail: drop it before anything is appended behind it. *)
        Unix.ftruncate w.fd good;
        fsync w.fd;
        w.size <- good);
      Ok (w, Some (snapshot_of st))

let close w = try Unix.close w.fd with Unix.Unix_error _ -> ()

let compact w =
  close w;
  let fresh = rewrite ~dir:w.dir w.st in
  w.fd <- fresh.fd;
  w.id <- fresh.id;
  w.size <- fresh.size

let persist w ~term ~voted_for ~last_index ~term_at ~entry =
  let st = w.st in
  if term <> st.term || voted_for <> st.voted_for then (
    st.term <- term;
    st.voted_for <- voted_for;
    st.hs_bytes <- add_record w.buf (Hard_state (term, voted_for)));
  (* Log Matching: equal terms at an index mean equal prefixes, so the
     walk back stops at once unless the log diverged. *)
  let rec common i =
    if i = 0 || (Vec.get st.log (i - 1)).entry.term = term_at i then i
    else common (i - 1)
  in
  let keep = common (min (Vec.length st.log) last_index) in
  if keep < Vec.length st.log then (
    truncate_log st (keep + 1);
    ignore (add_record w.buf (Truncate_from (keep + 1))));
  for i = keep + 1 to last_index do
    let e, payload = entry i in
    if e.Raft_types.index <> i then
      invalid_arg "Storage.persist: log indices must run densely from 1";
    push_slot st e payload (add_record w.buf (Entry (e, payload)))
  done;
  (* Group commit: everything staged goes out in one write, one fsync. *)
  let n = Buffer.length w.buf in
  if n > 0 then (
    let t0 = if Obs.Metrics.live m_seconds then Unix.gettimeofday () else 0. in
    write_all w.fd (Buffer.contents w.buf);
    Buffer.clear w.buf;
    fsync w.fd;
    w.size <- w.size + n;
    Obs.Metrics.add m_bytes n;
    if t0 > 0. then Obs.Metrics.observe m_seconds (Unix.gettimeofday () -. t0);
    if w.size - live_bytes st > live_bytes st then compact w)

(* [save] keeps one writer per directory and appends the difference
   between the snapshot and what that writer last persisted; a writer
   whose file changed underneath it (another writer, a test truncating
   it) is replaced by a fresh replay. *)
let writers : (string, writer) Hashtbl.t = Hashtbl.create 4

let current w =
  match Unix.stat (path ~dir:w.dir) with
  | s -> (s.st_dev, s.st_ino) = w.id && s.st_size = w.size
  | exception Unix.Unix_error _ -> false

let save ~dir (s : snapshot) =
  let w =
    match Hashtbl.find_opt writers dir with
    | Some w when current w -> w
    | stale -> (
        Option.iter close stale;
        match open_writer ~dir with
        | Ok (w, _) ->
            Hashtbl.replace writers dir w;
            w
        | Error msg -> failwith msg)
  in
  let log = Array.of_list s.log in
  persist w ~term:s.term ~voted_for:s.voted_for ~last_index:(Array.length log)
    ~term_at:(fun i -> log.(i - 1).term)
    ~entry:(fun i ->
      let e = log.(i - 1) in
      ( e,
        match e.command with
        | Raft_types.Data seq -> List.assoc_opt seq s.payloads
        | Raft_types.Config _ -> None ))
