module Raft_node = Raft_sim.Raft_node
module Raft_types = Raft_sim.Raft_types
module Wire = Service.Wire
module Server = Service.Server

type config = {
  id : int;
  n : int;
  base_port : int;
  service_port : int;
  seed : int;
  state_dir : string option;
  wire_max : int;
  workers : int;
  chaos : Service.Chaos.plan option;
  tick_seconds : float;
  staleness_budget_seconds : float;
  commit_timeout_seconds : float;
}

let default_config ~id ~n ~base_port ~service_port =
  {
    id;
    n;
    base_port;
    service_port;
    seed = 42;
    state_dir = None;
    wire_max = Wire.protocol_version;
    workers = 2;
    chaos = None;
    tick_seconds = 0.004;
    staleness_budget_seconds = 1.0;
    commit_timeout_seconds = 4.0;
  }

let raft_port cfg peer = cfg.base_port + peer

(* Link proxies live in a flat region above the raft listeners: the
   proxy replica [i] runs in front of its link to peer [j] listens on
   [base + n + i*n + j]. The proxy is owned by the source process, so
   killing a replica also kills its outbound links. *)
let link_port cfg ~src ~dst = cfg.base_port + cfg.n + (src * cfg.n) + dst

let link_plan plan ~src ~dst =
  { plan with Service.Chaos.seed = plan.Service.Chaos.seed + (src * 97) + dst }

type waiter = {
  w_mu : Mutex.t;
  mutable w_result : (Obs.Json.t, Server.reply_error) result option;
}

type status = {
  s_role : string;
  s_term : int;
  s_leader : int option;
  s_commit : int;
  s_last_contact : float;
}

type outboxed = { ob_dst : int; ob_line : string }

type t = {
  cfg : config;
  engine : Dessim.Engine.t;
  net : Raft_types.msg Dessim.Network.t;
  raft : Raft_node.t;
  state : State.t;
  payloads : (int, string) Hashtbl.t; (* pump thread only *)
  waiters : (int, waiter) Hashtbl.t; (* pump thread only *)
  mutable replies : (waiter * (Obs.Json.t, Server.reply_error) result) list;
      (* pump thread only: answers held until this cycle's persist *)
  submit_mu : Mutex.t;
  mutable submit_q : (Command.op * waiter option) list; (* newest first *)
  inbound_mu : Mutex.t;
  mutable inbound_q : (int * Raft_types.msg * (int * string) list) list;
  outbox : outboxed list ref; (* pump thread only, filled during Engine.run *)
  senders : Transport.Sender.t option array;
  mutable listener : Transport.Listener.t option;
  mutable proxies : Service.Chaos.t array;
  mutable proxy_ids : int array; (* proxies.(i) fronts the link to proxy_ids.(i) *)
  status_mu : Mutex.t;
  mutable status : status;
  mutable server : Server.t option;
  stop_flag : bool Atomic.t;
  mutable pump_thread : Thread.t option;
  start_wall : float;
  mutable next_seq : int;
  mutable leader_epoch : bool * int;
  mutable wal : Storage.writer option; (* pump thread only after start *)
}

let resolve waiter result =
  Mutex.lock waiter.w_mu;
  if waiter.w_result = None then waiter.w_result <- Some result;
  Mutex.unlock waiter.w_mu

(* A success reply is released only after the pump cycle's persist:
   with n = 1 an entry commits and applies inside [Raft_node.submit],
   before its log bytes are on disk. *)
let defer t waiter result = t.replies <- (waiter, result) :: t.replies

let release_replies t =
  List.iter (fun (w, r) -> resolve w r) (List.rev t.replies);
  t.replies <- []

let read_status t =
  Mutex.lock t.status_mu;
  let s = t.status in
  Mutex.unlock t.status_mu;
  s

let not_leader_error t =
  let s = read_status t in
  let hint =
    match s.s_leader with Some l when l <> t.cfg.id -> Some l | _ -> None
  in
  Error
    {
      Server.code = Wire.Not_leader;
      msg = "not the leader";
      hint;
    }

(* ---- pump-thread internals ---------------------------------------- *)

let max_data_seq log =
  List.fold_left
    (fun acc (e : Raft_types.entry) ->
      match e.command with Data s -> max acc s | Config _ -> acc)
    0 log

let refresh_next_seq t =
  let epoch = (Raft_node.is_leader t.raft, Raft_node.current_term t.raft) in
  if epoch <> t.leader_epoch then (
    t.leader_epoch <- epoch;
    (* A fresh leader continues the dense sequence after everything in
       its log; the election restriction guarantees no committed
       sequence number can collide with the new assignments. *)
    if fst epoch then
      t.next_seq <-
        max t.next_seq (1 + max_data_seq (Raft_node.log_entries t.raft)))

let put_reply ~name ~seq ~duplicate =
  Ok
    (Obs.Json.Obj
       (("stored", Obs.Json.Bool true)
       :: ("name", Obs.Json.String name)
       :: ("command_seq", Obs.Json.Int seq)
       :: (if duplicate then [ ("duplicate", Obs.Json.Bool true) ] else [])))

let reply_for_op op ~seq ~duplicate =
  match op with
  | Command.Put_scenario { name; _ } -> put_reply ~name ~seq ~duplicate
  | Command.Warm _ ->
      Ok (Obs.Json.Obj [ ("warmed", Obs.Json.Bool true) ])
  | Command.Barrier ->
      Ok (Obs.Json.Obj [ ("barrier", Obs.Json.Bool true) ])

let on_apply t (entry : Raft_types.entry) =
  match entry.command with
  | Config _ -> ()
  | Data seq -> (
      t.next_seq <- max t.next_seq (seq + 1);
      match Hashtbl.find_opt t.payloads seq with
      | None -> State.note_missing_payload t.state
      | Some bytes -> (
          (match Command.of_string bytes with
          | Error _ -> State.note_missing_payload t.state
          | Ok op ->
              let outcome = State.apply t.state ~seq op ~id:bytes in
              let duplicate = outcome = `Duplicate in
              (match Hashtbl.find_opt t.waiters seq with
              | None -> ()
              | Some w -> defer t w (reply_for_op op ~seq ~duplicate)));
          Hashtbl.remove t.waiters seq))

let handle_submit t (op, waiter) =
  if not (Raft_node.is_leader t.raft) then
    Option.iter (fun w -> resolve w (not_leader_error t)) waiter
  else (
    refresh_next_seq t;
    let bytes = Command.id op in
    match op with
    | (Command.Put_scenario _ | Command.Warm _) when State.seen t.state bytes
      ->
        (* Already applied: answer from the state machine, no log
           traffic — the idempotency fast path for client retries. *)
        let seq =
          match op with
          | Command.Put_scenario { name; _ } -> (
              match State.get t.state name with
              | Some e -> e.State.seq
              | None -> 0)
          | _ -> 0
        in
        Option.iter
          (fun w -> defer t w (reply_for_op op ~seq ~duplicate:true))
          waiter
    | _ ->
        let seq = t.next_seq in
        Hashtbl.replace t.payloads seq bytes;
        (* The waiter goes in first: a single-replica log applies the
           entry inside [submit], and [on_apply] must find it. *)
        Option.iter (fun w -> Hashtbl.replace t.waiters seq w) waiter;
        if Raft_node.submit t.raft seq then t.next_seq <- seq + 1
        else (
          Hashtbl.remove t.payloads seq;
          Hashtbl.remove t.waiters seq;
          Option.iter (fun w -> resolve w (not_leader_error t)) waiter))

let fail_waiters_if_deposed t =
  if not (Raft_node.is_leader t.raft) && Hashtbl.length t.waiters > 0 then (
    let err = not_leader_error t in
    Hashtbl.iter (fun _ w -> resolve w err) t.waiters;
    Hashtbl.reset t.waiters)

let maybe_persist t =
  Option.iter
    (fun wal ->
      let r = t.raft in
      Storage.persist wal ~term:(Raft_node.current_term r)
        ~voted_for:(Raft_node.voted_for r)
        ~last_index:(Raft_node.last_log_index r) ~term_at:(Raft_node.entry_term r)
        ~entry:(fun i ->
          let e = Raft_node.entry r i in
          ( e,
            match e.command with
            | Data seq -> Hashtbl.find_opt t.payloads seq
            | Config _ -> None )))
    t.wal

let update_status t ~now ~had_inbound =
  let is_leader = Raft_node.is_leader t.raft in
  let hint = Raft_node.leader_hint t.raft in
  Mutex.lock t.status_mu;
  let last_contact =
    if is_leader || (had_inbound && hint <> None) then now
    else t.status.s_last_contact
  in
  t.status <-
    {
      s_role = (if is_leader then "leader" else "follower");
      s_term = Raft_node.current_term t.raft;
      s_leader = hint;
      s_commit = Raft_node.commit_index t.raft;
      s_last_contact = last_contact;
    };
  Mutex.unlock t.status_mu

let pump t =
  while not (Atomic.get t.stop_flag) do
    (* 1. Inject inbound raft traffic: payloads land in the table
       before the message that references them is processed. *)
    Mutex.lock t.inbound_mu;
    let inbound = List.rev t.inbound_q in
    t.inbound_q <- [];
    Mutex.unlock t.inbound_mu;
    List.iter
      (fun (src, msg, payloads) ->
        List.iter
          (fun (seq, bytes) -> Hashtbl.replace t.payloads seq bytes)
          payloads;
        if src >= 0 && src < t.cfg.n && src <> t.cfg.id then
          Dessim.Network.send t.net ~src ~dst:t.cfg.id msg)
      inbound;
    (* 2. Drain client submissions onto the log. *)
    Mutex.lock t.submit_mu;
    let submits = List.rev t.submit_q in
    t.submit_q <- [];
    Mutex.unlock t.submit_mu;
    List.iter (handle_submit t) submits;
    (* 3. Advance the virtual clock to wall-clock elapsed ms. *)
    let now = Unix.gettimeofday () in
    let until = (now -. t.start_wall) *. 1000. in
    if until > Dessim.Engine.now t.engine then
      Dessim.Engine.run ~until t.engine;
    fail_waiters_if_deposed t;
    (* 4. Persist dirty raft state BEFORE flushing outbound messages:
       a reply acknowledging an append never leaves the process ahead
       of the log bytes it promises. *)
    maybe_persist t;
    release_replies t;
    (* 5. Flush the outbox to the per-peer senders. *)
    let out = List.rev !(t.outbox) in
    t.outbox := [];
    List.iter
      (fun { ob_dst; ob_line } ->
        match t.senders.(ob_dst) with
        | Some sender -> Transport.Sender.send sender ob_line
        | None -> ())
      out;
    update_status t ~now ~had_inbound:(inbound <> []);
    Thread.delay t.cfg.tick_seconds
  done

(* ---- worker-lane handler ------------------------------------------ *)

let enqueue t op waiter =
  Mutex.lock t.submit_mu;
  t.submit_q <- (op, waiter) :: t.submit_q;
  Mutex.unlock t.submit_mu

let submit_and_wait t op =
  let w = { w_mu = Mutex.create (); w_result = None } in
  enqueue t op (Some w);
  let deadline = Unix.gettimeofday () +. t.cfg.commit_timeout_seconds in
  let rec wait () =
    Mutex.lock w.w_mu;
    let r = w.w_result in
    Mutex.unlock w.w_mu;
    match r with
    | Some r -> r
    | None ->
        if Unix.gettimeofday () > deadline then
          Error
            {
              Server.code = Wire.Deadline_exceeded;
              msg = "commit timed out";
              hint = None;
            }
        else (
          Thread.delay 0.002;
          wait ())
  in
  wait ()

let staleness_ms s =
  Float.max 0. ((Unix.gettimeofday () -. s.s_last_contact) *. 1000.)

let read_reply t name ~staleness =
  match State.get t.state name with
  | Some e ->
      let scenario_json =
        match Obs.Json.of_string e.State.scenario with
        | Ok j -> j
        | Error _ -> Obs.Json.Null
      in
      Ok
        (Obs.Json.Obj
           [
             ("found", Obs.Json.Bool true);
             ("name", Obs.Json.String name);
             ("scenario", scenario_json);
             ("nonce", Obs.Json.Int e.State.nonce);
             ("command_seq", Obs.Json.Int e.State.seq);
             ("staleness_ms", Obs.Json.number staleness);
           ])
  | None ->
      Ok
        (Obs.Json.Obj
           [
             ("found", Obs.Json.Bool false);
             ("name", Obs.Json.String name);
             ("staleness_ms", Obs.Json.number staleness);
           ])

let status_json t =
  let s = read_status t in
  let c = State.counts t.state in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "probcons-replica-status/1");
      ("id", Obs.Json.Int t.cfg.id);
      ("n", Obs.Json.Int t.cfg.n);
      ("role", Obs.Json.String s.s_role);
      ("term", Obs.Json.Int s.s_term);
      ( "leader_hint",
        match s.s_leader with
        | None -> Obs.Json.Null
        | Some l -> Obs.Json.Int l );
      ("commit_index", Obs.Json.Int s.s_commit);
      ("applied", Obs.Json.Int c.State.applied);
      ("store_size", Obs.Json.Int c.State.store_size);
      ("warm_size", Obs.Json.Int c.State.warm_size);
      ("dedup_skips", Obs.Json.Int c.State.dedup_skips);
      ("missing_payloads", Obs.Json.Int c.State.missing_payloads);
      ("digest", Obs.Json.Int c.State.digest);
      ("staleness_ms", Obs.Json.number (staleness_ms s));
    ]

let plain_get t name =
  let s = read_status t in
  let staleness = staleness_ms s in
  if
    s.s_role <> "leader"
    && staleness > t.cfg.staleness_budget_seconds *. 1000.
  then
    (* Too stale for the read contract: refuse and point at the
       leader rather than serve an unbounded-lag answer. *)
    match not_leader_error t with
    | Error e -> Error { e with Server.msg = "replica too stale for reads" }
    | Ok _ -> assert false
  else read_reply t name ~staleness

let handler t (query : Wire.query) :
    (Obs.Json.t, Server.reply_error) result =
  match query with
  | Wire.Replica_status -> Ok (status_json t)
  | Wire.Scenario_put { name; scenario; nonce } ->
      submit_and_wait t (Command.Put_scenario { name; scenario; nonce })
  | Wire.Scenario_get { name; linearizable = false } -> plain_get t name
  | Wire.Scenario_get { name; linearizable = true } -> (
      match submit_and_wait t Command.Barrier with
      | Error e -> Error e
      | Ok _ -> read_reply t name ~staleness:0.)
  | (Wire.Analyze _ | Wire.Fleet_ingest _) as q -> (
      let key = Wire.canonical_key q in
      match State.warm_lookup t.state key with
      | Some payload -> (
          match Obs.Json.of_string payload with
          | Ok j -> Ok j
          | Error _ -> Server.router_handler q)
      | None ->
          let r = Server.router_handler q in
          (match r with
          | Ok json when (read_status t).s_role = "leader" ->
              (* Fire-and-forget: warming is an optimization, not a
                 durability promise, so the reply does not wait for
                 the commit. *)
              enqueue t
                (Command.Warm { key; payload = Obs.Json.to_string json })
                None
          | _ -> ());
          r)
  | q -> Server.router_handler q

(* ---- lifecycle ---------------------------------------------------- *)

let start (cfg : config) =
  if cfg.n < 1 || cfg.id < 0 || cfg.id >= cfg.n then
    invalid_arg "Replica.Node.start: id out of range";
  Option.iter
    (fun dir -> if not (Sys.file_exists dir) then Unix.mkdir dir 0o755)
    cfg.state_dir;
  let engine = Dessim.Engine.create ~seed:(cfg.seed + cfg.id) () in
  let net =
    Dessim.Network.create ~engine ~n:cfg.n ~latency:(Dessim.Network.Fixed 1.)
      ()
  in
  let trace = Dessim.Trace.create () in
  let raft =
    Raft_node.create
      (Raft_node.default_config ~id:cfg.id ~n:cfg.n)
      ~engine ~net ~trace
  in
  let t =
    {
      cfg;
      engine;
      net;
      raft;
      state = State.create ();
      payloads = Hashtbl.create 256;
      waiters = Hashtbl.create 16;
      replies = [];
      submit_mu = Mutex.create ();
      submit_q = [];
      inbound_mu = Mutex.create ();
      inbound_q = [];
      outbox = ref [];
      senders = Array.make cfg.n None;
      listener = None;
      proxies = [||];
      proxy_ids = [||];
      status_mu = Mutex.create ();
      status =
        {
          s_role = "follower";
          s_term = 0;
          s_leader = None;
          s_commit = 0;
          s_last_contact = Unix.gettimeofday ();
        };
      server = None;
      stop_flag = Atomic.make false;
      pump_thread = None;
      start_wall = Unix.gettimeofday ();
      next_seq = 1;
      leader_epoch = (false, 0);
      wal = None;
    }
  in
  (* Crash recovery: replay the durable log before any message or timer
     has run; committed entries re-apply through the hook. *)
  (match cfg.state_dir with
  | None -> ()
  | Some dir -> (
      match Storage.open_writer ~dir with
      | Error msg -> failwith ("replica " ^ string_of_int cfg.id ^ ": " ^ msg)
      | Ok (wal, snap) ->
          t.wal <- Some wal;
          Option.iter
            (fun (snap : Storage.snapshot) ->
              Raft_node.restore raft ~term:snap.term ~voted_for:snap.voted_for
                ~log:snap.log;
              List.iter
                (fun (seq, bytes) -> Hashtbl.replace t.payloads seq bytes)
                snap.payloads;
              t.next_seq <- 1 + max_data_seq snap.log)
            snap));
  Raft_node.set_apply_hook raft (on_apply t);
  (* Outbound raft messages: collect into the pump-local outbox with
     command payloads piggybacked for any Data entries. *)
  for peer = 0 to cfg.n - 1 do
    if peer <> cfg.id then
      Dessim.Network.set_handler net peer (fun ~src:_ msg ->
          let payloads =
            match msg with
            | Raft_types.Append_entries { entries; _ } ->
                List.filter_map
                  (fun (e : Raft_types.entry) ->
                    match e.command with
                    | Data seq ->
                        Option.map
                          (fun bytes -> (seq, bytes))
                          (Hashtbl.find_opt t.payloads seq)
                    | Config _ -> None)
                  entries
            | _ -> []
          in
          t.outbox :=
            {
              ob_dst = peer;
              ob_line =
                Transport.envelope_to_line ~src:cfg.id ~dst:peer msg ~payloads;
            }
            :: !(t.outbox))
  done;
  (* Chaos proxies sit on this replica's outbound links only, so each
     ordered pair (src, dst) has exactly one fault-injecting hop owned
     by the source process. *)
  (match cfg.chaos with
  | None -> ()
  | Some plan ->
      let ids = ref [] and proxies = ref [] in
      for peer = 0 to cfg.n - 1 do
        if peer <> cfg.id then (
          let proxy =
            Service.Chaos.start
              ~plan:(link_plan plan ~src:cfg.id ~dst:peer)
              ~listen:(Service.Client.Tcp (link_port cfg ~src:cfg.id ~dst:peer))
              ~upstream:(Service.Client.Tcp (raft_port cfg peer))
          in
          ids := peer :: !ids;
          proxies := proxy :: !proxies)
      done;
      t.proxy_ids <- Array.of_list (List.rev !ids);
      t.proxies <- Array.of_list (List.rev !proxies));
  for peer = 0 to cfg.n - 1 do
    if peer <> cfg.id then
      let port =
        if cfg.chaos = None then raft_port cfg peer
        else link_port cfg ~src:cfg.id ~dst:peer
      in
      t.senders.(peer) <- Some (Transport.Sender.start ~port)
  done;
  t.listener <-
    Some
      (Transport.Listener.start ~port:(raft_port cfg cfg.id)
         ~deliver:(fun ~src ~dst msg ~payloads ->
           if dst = cfg.id then (
             Mutex.lock t.inbound_mu;
             t.inbound_q <- (src, msg, payloads) :: t.inbound_q;
             Mutex.unlock t.inbound_mu)));
  t.pump_thread <- Some (Thread.create pump t);
  t.server <-
    Some
      (Server.start
         {
           Server.default_config with
           tcp_port = Some cfg.service_port;
           workers = cfg.workers;
           max_wire = cfg.wire_max;
           handler = handler t;
         });
  t

let stop t =
  (match t.server with
  | Some server ->
      t.server <- None;
      Server.stop server
  | None -> ());
  Atomic.set t.stop_flag true;
  Option.iter Thread.join t.pump_thread;
  t.pump_thread <- None;
  Option.iter Transport.Listener.stop t.listener;
  t.listener <- None;
  Array.iteri
    (fun i sender ->
      Option.iter Transport.Sender.stop sender;
      t.senders.(i) <- None)
    t.senders;
  Array.iter Service.Chaos.stop t.proxies;
  t.proxies <- [||];
  Option.iter Storage.close t.wal;
  t.wal <- None

let set_chaos_plan t plan =
  Array.iter (fun proxy -> Service.Chaos.set_plan proxy plan) t.proxies

let set_chaos_plan_to t ~peer plan =
  Array.iteri
    (fun i p ->
      if t.proxy_ids.(i) = peer then Service.Chaos.set_plan p plan)
    t.proxies

let id t = t.cfg.id
let service_port t = t.cfg.service_port
let is_leader t = (read_status t).s_role = "leader"
let term t = (read_status t).s_term
let leader_hint t = (read_status t).s_leader
let state_counts t = State.counts t.state
let waiting t = Hashtbl.length t.waiters
