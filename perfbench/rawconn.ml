(* A non-blocking wire/3 connection for the open-loop generator: one
   thread drives several of these with [select], so sends never wait
   for replies and a stalled server shows up as latency, not as a
   stalled generator. *)

type t = {
  fd : Unix.file_descr;
  dec : Service.Frame.decoder;
  buf : Bytes.t;
  out : Buffer.t;  (** Encoded frames not yet accepted by the kernel. *)
  mutable closed : bool;
}

let connect port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd TCP_NODELAY true;
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  {
    fd;
    dec = Service.Frame.create ();
    buf = Bytes.create 65536;
    out = Buffer.create 65536;
    closed = false;
  }

let enqueue t body = Buffer.add_string t.out (Service.Frame.encode body)
let pending t = Buffer.length t.out > 0

(* Write as much of the backlog as the kernel takes. *)
let flush t =
  let len = Buffer.length t.out in
  if len > 0 && not t.closed then begin
    let s = Buffer.contents t.out in
    let written =
      match Unix.write_substring t.fd s 0 len with
      | n -> n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> 0
    in
    Buffer.clear t.out;
    if written < len then Buffer.add_substring t.out s written (len - written)
  end

(* Read what is available; call [on_reply] for each complete payload.
   Returns [false] once the peer closed or the framing broke. *)
let drain t ~on_reply =
  let rec read () =
    match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
    | 0 -> t.closed <- true
    | n ->
        Service.Frame.feed t.dec t.buf n;
        if n = Bytes.length t.buf then read ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  read ();
  let rec pop () =
    match Service.Frame.next t.dec with
    | Ok (Some payload) -> on_reply payload; pop ()
    | Ok None -> ()
    | Error _ -> t.closed <- true
  in
  pop ();
  not t.closed

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* The request id a reply body echoes, from its envelope prefix
   [{"v": 3, "id": N, ...]. *)
let reply_id body =
  match Util.find_after body "\"id\": " with
  | None -> None
  | Some start ->
      let j = ref start in
      while !j < String.length body && body.[!j] >= '0' && body.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub body start (!j - start))
