(* The replicated deployment: command codec, durable storage, and
   in-process multi-replica clusters exercising leader redirects,
   failover, crash-restart catch-up, chaos-proxied links and the
   measurement harness helpers. *)

module Node = Replica.Node
module Command = Replica.Command
module State = Replica.State
module Storage = Replica.Storage
module Driver = Replica.Driver
module Wire = Service.Wire
module Client = Service.Client
module Raft_codec = Raft_sim.Raft_codec
module Raft_types = Raft_sim.Raft_types

let port_counter = ref 0

(* Each cluster takes a block of 30 ports below the kernel's ephemeral
   range (32768 and up on Linux), so no outbound connection of an earlier
   cluster can hold one, and the block is probed free before use. *)
let port_free port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  match Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> true
  | exception Unix.Unix_error _ -> false

let rec fresh_base () =
  incr port_counter;
  let base = 12000 + ((Unix.getpid () mod 50 * 400) + (!port_counter * 30)) mod 20000 in
  if List.for_all port_free (List.init 30 (( + ) base)) then base else fresh_base ()

let tmp_dir prefix =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !port_counter)
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  dir

let scenario_a = Probcons.Scenario.uniform ~protocol:"raft" ~n:3 ~p:0.01 ()
let scenario_b = Probcons.Scenario.uniform ~protocol:"pbft" ~n:4 ~p:0.02 ()

let poll ?(timeout = 15.) ?(every = 0.05) f =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if f () then true
    else if Unix.gettimeofday () > deadline then false
    else (
      Thread.delay every;
      go ())
  in
  go ()

(* ---- codecs and state machine ------------------------------------- *)

let test_command_codec () =
  let op = Command.Put_scenario { name = "alpha"; scenario = scenario_a; nonce = 0 } in
  let id1 = Command.id op in
  let id2 =
    Command.id
      (Command.Put_scenario { name = "alpha"; scenario = scenario_a; nonce = 0 })
  in
  Alcotest.(check string) "equal ops have equal ids" id1 id2;
  (match Command.of_string id1 with
  | Ok (Command.Put_scenario { name; nonce; _ }) ->
      Alcotest.(check string) "name round-trips" "alpha" name;
      Alcotest.(check int) "nonce defaults to 0" 0 nonce
  | _ -> Alcotest.fail "put did not round-trip");
  let nonced =
    Command.Put_scenario { name = "alpha"; scenario = scenario_a; nonce = 7 }
  in
  Alcotest.(check bool)
    "nonce distinguishes ids" false
    (Command.id nonced = id1);
  (match Command.of_string (Command.to_string Command.Barrier) with
  | Ok Command.Barrier -> ()
  | _ -> Alcotest.fail "barrier did not round-trip");
  (match Command.of_string {|{"op":"put","name":"bad name!","scenario":{}}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid store name accepted")

let test_raft_codec () =
  let entries =
    [
      { Raft_types.term = 2; index = 5; command = Raft_types.Data 17 };
      { Raft_types.term = 3; index = 6; command = Raft_types.Config [ 0; 1; 2 ] };
    ]
  in
  let msgs =
    [
      Raft_types.Request_vote
        { term = 4; candidate_id = 1; last_log_index = 6; last_log_term = 3 };
      Raft_types.Request_vote_reply { term = 4; voter_id = 2; granted = true };
      Raft_types.Append_entries
        {
          term = 4;
          leader_id = 1;
          prev_log_index = 4;
          prev_log_term = 2;
          entries;
          leader_commit = 5;
        };
      Raft_types.Append_entries_reply
        { term = 4; follower_id = 0; success = false; match_index = 3 };
      Raft_types.Timeout_now { term = 4 };
    ]
  in
  List.iter
    (fun msg ->
      match Raft_codec.msg_of_json (Raft_codec.msg_to_json msg) with
      | Ok decoded ->
          Alcotest.(check bool) "msg round-trips" true (decoded = msg)
      | Error e -> Alcotest.fail ("codec: " ^ e))
    msgs;
  (match Raft_codec.msg_of_json (Obs.Json.Obj [ ("type", Obs.Json.String "nope") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown msg type accepted")

let test_transport_envelope () =
  let msg =
    Raft_types.Append_entries
      {
        term = 1;
        leader_id = 0;
        prev_log_index = 0;
        prev_log_term = 0;
        entries = [ { Raft_types.term = 1; index = 1; command = Data 1 } ];
        leader_commit = 0;
      }
  in
  let line =
    Replica.Transport.envelope_to_line ~src:0 ~dst:2 msg
      ~payloads:[ (1, {|{"op":"barrier"}|}) ]
  in
  match Replica.Transport.envelope_of_line line with
  | Ok (0, 2, decoded, [ (1, bytes) ]) ->
      Alcotest.(check bool) "msg survives" true (decoded = msg);
      Alcotest.(check string) "payload survives" {|{"op":"barrier"}|} bytes
  | Ok _ -> Alcotest.fail "wrong envelope fields"
  | Error e -> Alcotest.fail e

let test_state_dedup () =
  let st = State.create () in
  let op = Command.Put_scenario { name = "x"; scenario = scenario_a; nonce = 0 } in
  let id = Command.id op in
  Alcotest.(check bool) "first apply" true (State.apply st ~seq:1 op ~id = `Applied);
  Alcotest.(check bool)
    "second apply is a duplicate" true
    (State.apply st ~seq:2 op ~id = `Duplicate);
  let c = State.counts st in
  Alcotest.(check int) "one dedup skip" 1 c.State.dedup_skips;
  Alcotest.(check int) "store holds one entry" 1 c.State.store_size;
  (match State.get st "x" with
  | Some e -> Alcotest.(check int) "first seq wins" 1 e.State.seq
  | None -> Alcotest.fail "entry missing");
  (* Barriers are never duplicates and mutate nothing. *)
  Alcotest.(check bool)
    "barrier applies" true
    (State.apply st ~seq:3 Command.Barrier ~id:(Command.id Command.Barrier)
    = `Applied);
  Alcotest.(check bool)
    "barrier applies again" true
    (State.apply st ~seq:4 Command.Barrier ~id:(Command.id Command.Barrier)
    = `Applied)

let test_storage_roundtrip () =
  let dir = tmp_dir "probcons-replica-storage" in
  let snap =
    {
      Storage.term = 3;
      voted_for = Some 1;
      log =
        [
          { Raft_types.term = 1; index = 1; command = Raft_types.Data 1 };
          { Raft_types.term = 3; index = 2; command = Raft_types.Data 2 };
        ];
      payloads = [ (1, {|{"op":"barrier"}|}); (2, {|{"op":"barrier"}|}) ];
    }
  in
  Storage.save ~dir snap;
  (match Storage.load ~dir with
  | Ok (Some loaded) ->
      Alcotest.(check bool) "snapshot round-trips" true (loaded = snap)
  | Ok None -> Alcotest.fail "snapshot missing"
  | Error e -> Alcotest.fail e);
  (* Corrupt file must be an error, not an empty boot. *)
  let oc = open_out (Storage.path ~dir) in
  output_string oc "{\"schema\":\"nope\"}";
  close_out oc;
  (match Storage.load ~dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt snapshot accepted");
  Alcotest.(check bool)
    "absent dir loads None" true
    (Storage.load ~dir:(tmp_dir "probcons-replica-empty") = Ok None)

(* ---- the append-only log ------------------------------------------ *)

(* [n] data entries of one term, each with its command bytes. *)
let wal_snapshot ?(term = 1) ?(from_term = fun _ -> 1) n =
  {
    Storage.term;
    voted_for = Some 0;
    log =
      List.init n (fun i ->
          let index = i + 1 in
          { Raft_types.term = from_term index; index; command = Raft_types.Data index });
    payloads =
      List.init n (fun i -> (i + 1, Printf.sprintf {|{"op":"barrier","n":%d}|} (i + 1)));
  }

let contains s needle =
  let n = String.length needle in
  let rec at i = i + n <= String.length s && (String.sub s i n = needle || at (i + 1)) in
  at 0

let file_size p = (Unix.stat p).Unix.st_size
let read_file p = In_channel.with_open_bin p In_channel.input_all
let write_file p s = Out_channel.with_open_bin p (fun oc -> output_string oc s)

let check_loads what ~dir expected =
  match Storage.load ~dir with
  | Ok (Some loaded) -> Alcotest.(check bool) what true (loaded = expected)
  | Ok None -> Alcotest.fail (what ^ ": no log")
  | Error e -> Alcotest.fail (what ^ ": " ^ e)

(* Save [n - 1] then [n] entries into [dir]: the file's bytes and the
   offset where its last record (entry [n]) starts. *)
let log_with_last_record ~dir n =
  Storage.save ~dir (wal_snapshot (n - 1));
  let last_start = file_size (Storage.path ~dir) in
  Storage.save ~dir (wal_snapshot n);
  (read_file (Storage.path ~dir), last_start)

(* A crash can tear the last append anywhere: every cut inside the last
   record, and a corrupted last record, recover exactly the synced
   prefix — and a booting writer cuts the tail off the file. *)
let test_wal_torn_tail () =
  let dir = tmp_dir "probcons-replica-torn" in
  let p = Storage.path ~dir in
  let full, last_start = log_with_last_record ~dir 6 in
  for cut = last_start to String.length full - 1 do
    write_file p (String.sub full 0 cut);
    check_loads (Printf.sprintf "cut at byte %d" cut) ~dir (wal_snapshot 5)
  done;
  let flipped = Bytes.of_string full in
  let k = String.length full - 1 in
  Bytes.set flipped k (Char.chr (Char.code full.[k] lxor 0xff));
  write_file p (Bytes.to_string flipped);
  check_loads "CRC-failing last record" ~dir (wal_snapshot 5);
  write_file p (String.sub full 0 (last_start + 3));
  match Storage.open_writer ~dir with
  | Ok (w, Some loaded) ->
      Storage.close w;
      Alcotest.(check bool) "writer recovers the prefix" true (loaded = wal_snapshot 5);
      Alcotest.(check int) "torn tail truncated on disk" last_start (file_size p)
  | Ok (_, None) -> Alcotest.fail "writer found no log"
  | Error e -> Alcotest.fail e

(* A flipped byte anywhere before the last record — header, lengths,
   CRCs, bodies — is damage, never a torn tail to boot past. *)
let test_wal_corruption () =
  let dir = tmp_dir "probcons-replica-corrupt" in
  let p = Storage.path ~dir in
  let full, last_start = log_with_last_record ~dir 5 in
  for k = 0 to last_start - 1 do
    let b = Bytes.of_string full in
    Bytes.set b k (Char.chr (Char.code full.[k] lxor 0xff));
    write_file p (Bytes.to_string b);
    match Storage.load ~dir with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "flipped byte %d accepted" k)
  done

(* A log that diverges at index k appends a truncate-from record and the
   new entries behind the untouched old bytes. *)
let test_wal_divergence () =
  let dir = tmp_dir "probcons-replica-diverge" in
  let p = Storage.path ~dir in
  Storage.save ~dir (wal_snapshot 10);
  let before = read_file p in
  let diverged = wal_snapshot ~term:2 ~from_term:(fun i -> if i < 7 then 1 else 2) 12 in
  Storage.save ~dir diverged;
  let after = read_file p in
  Alcotest.(check bool)
    "old records untouched (append-only)" true
    (String.length after > String.length before
    && String.sub after 0 (String.length before) = before);
  Alcotest.(check bool)
    "a truncate-from record for index 7" true
    (contains after {|{"truncate_from": 7}|});
  check_loads "reloads as the new log" ~dir diverged;
  (* The same through a writer: recovery sees the new log. *)
  match Storage.open_writer ~dir with
  | Ok (w, Some loaded) ->
      Storage.close w;
      Alcotest.(check bool) "writer recovers the new log" true (loaded = diverged)
  | _ -> Alcotest.fail "writer did not recover the log"

(* Persist cost is O(new entries): one more entry appends about the same
   bytes at log length 10 and 2000, and no change appends nothing. *)
let test_wal_append_cost () =
  let appended n =
    let dir = tmp_dir (Printf.sprintf "probcons-replica-append-%d" n) in
    Storage.save ~dir (wal_snapshot n);
    let s0 = file_size (Storage.path ~dir) in
    Storage.save ~dir (wal_snapshot (n + 1));
    let s1 = file_size (Storage.path ~dir) in
    Storage.save ~dir (wal_snapshot (n + 1));
    Alcotest.(check int)
      "an unchanged save writes nothing" s1 (file_size (Storage.path ~dir));
    s1 - s0
  in
  let small = appended 10 and large = appended 2000 in
  Alcotest.(check bool)
    (Printf.sprintf "one-entry append: %d B at 10 entries, %d B at 2000" small large)
    true
    (small > 0 && large > 0 && large <= 2 * small && small <= 2 * large)

let test_wal_idle_cycle () =
  let dir = tmp_dir "probcons-replica-idle" in
  match Storage.open_writer ~dir with
  | Error e -> Alcotest.fail e
  | Ok (w, _) ->
      Fun.protect ~finally:(fun () -> Storage.close w) @@ fun () ->
      let s = wal_snapshot 3 in
      let log = Array.of_list s.Storage.log in
      let cycle () =
        Storage.persist w ~term:s.Storage.term ~voted_for:s.Storage.voted_for
          ~last_index:(Array.length log)
          ~term_at:(fun i -> log.(i - 1).Raft_types.term)
          ~entry:(fun i -> (log.(i - 1), List.assoc_opt i s.Storage.payloads))
      in
      cycle ();
      let size = file_size (Storage.path ~dir) in
      cycle ();
      cycle ();
      Alcotest.(check int) "idle cycles leave the file alone" size
        (file_size (Storage.path ~dir));
      check_loads "state intact" ~dir s

(* Dead bytes (truncated entries, superseded hard states) beyond the live
   ones trigger a rewrite: the file shrinks and reloads the same state. *)
let test_wal_compaction () =
  let dir = tmp_dir "probcons-replica-compact" in
  let p = Storage.path ~dir in
  Storage.save ~dir (wal_snapshot 20);
  let long = file_size p in
  let short = wal_snapshot ~term:2 ~from_term:(fun i -> if i < 3 then 1 else 2) 3 in
  Storage.save ~dir short;
  Alcotest.(check bool) "truncation compacts the file" true (file_size p < long);
  check_loads "same state after the truncation rewrite" ~dir short;
  Alcotest.(check bool) "no temporary file left" false (Sys.file_exists (p ^ ".tmp"));
  (* Term churn alone: superseded hard states eventually outweigh the
     live state, and the file shrinks without losing the latest. *)
  let shrank = ref false and prev = ref (file_size p) in
  for term = 3 to 32 do
    Storage.save ~dir { short with Storage.term };
    let size = file_size p in
    if size < !prev then shrank := true;
    prev := size
  done;
  Alcotest.(check bool) "hard-state churn compacts the file" true !shrank;
  check_loads "latest hard state survives compaction" ~dir
    { short with Storage.term = 32 }

(* A version-1 state directory must not boot empty. *)
let test_wal_refuses_v1 () =
  let dir = tmp_dir "probcons-replica-v1" in
  write_file (Filename.concat dir "durable.json")
    {|{"schema":"probcons-replica-durable/1"}|};
  let names_file = function Error e -> contains e "durable.json" | Ok _ -> false in
  Alcotest.(check bool)
    "load refuses, naming the file" true (names_file (Storage.load ~dir));
  Alcotest.(check bool)
    "writer refuses, naming the file" true
    (names_file (Result.map fst (Storage.open_writer ~dir)));
  Alcotest.(check bool) "no log created" false (Sys.file_exists (Storage.path ~dir))

let test_wire_replica_kinds () =
  let roundtrip q =
    let body = Wire.encode_request { Wire.id = 9; query = q } in
    match Wire.parse_request body with
    | Ok { Wire.id = 9; query } ->
        Alcotest.(check bool) "query round-trips" true (query = q)
    | Ok _ -> Alcotest.fail "wrong id"
    | Error (_, code, msg) ->
        Alcotest.fail (Printf.sprintf "%s: %s" (Wire.code_string code) msg)
  in
  roundtrip (Wire.Scenario_put { name = "a.b-c_1"; scenario = scenario_a; nonce = 0 });
  roundtrip (Wire.Scenario_put { name = "z"; scenario = scenario_b; nonce = 12 });
  roundtrip (Wire.Scenario_get { name = "a"; linearizable = false });
  roundtrip (Wire.Scenario_get { name = "a"; linearizable = true });
  roundtrip Wire.Replica_status;
  List.iter
    (fun q ->
      Alcotest.(check bool) "replica-plane queries are not cacheable" false
        (Wire.cacheable q))
    [
      Wire.Scenario_put { name = "a"; scenario = scenario_a; nonce = 0 };
      Wire.Scenario_get { name = "a"; linearizable = false };
      Wire.Replica_status;
    ];
  (* A not_leader error carries its redirect hint through the wire. *)
  let line = Wire.encode_error ~hint:2 ~id:(Some 4) Wire.Not_leader "try 2" in
  match Wire.parse_response line with
  | Ok { Wire.rid = Some 4; body = Error (Wire.Not_leader, _); rhint = Some 2 } ->
      ()
  | Ok _ -> Alcotest.fail "hint did not round-trip"
  | Error e -> Alcotest.fail e

(* ---- in-process clusters ------------------------------------------ *)

let cluster_config ?chaos ?state_dir ?(wire_max = Wire.protocol_version) ~base
    ~n i =
  {
    (Node.default_config ~id:i ~n ~base_port:base
       ~service_port:(Driver.service_port ~base_port:base ~replicas:n i))
    with
    Node.chaos;
    wire_max;
    state_dir =
      (match state_dir with None -> None | Some root -> Some (Filename.concat root (string_of_int i)));
    workers = 2;
  }

let with_cluster ?chaos ?state_dir ?wire_max_of ~n f =
  let base = fresh_base () in
  let nodes =
    Array.init n (fun i ->
        let wire_max =
          match wire_max_of with None -> Wire.protocol_version | Some g -> g i
        in
        ref
          (Some
             (Node.start (cluster_config ?chaos ?state_dir ~wire_max ~base ~n i))))
  in
  let stop_all () =
    Array.iter
      (fun slot ->
        match !slot with
        | Some node ->
            slot := None;
            Node.stop node
        | None -> ())
      nodes
  in
  Fun.protect ~finally:stop_all (fun () -> f ~base ~nodes)

let live_nodes nodes =
  Array.to_list nodes |> List.filter_map (fun slot -> !slot)

let wait_leader nodes =
  Alcotest.(check bool)
    "a leader emerges" true
    (poll (fun () -> List.exists Node.is_leader (live_nodes nodes)));
  List.find Node.is_leader (live_nodes nodes)

let multi_of ?wire ~base ~n () =
  Client.Multi.create ?wire ~timeout:8.
    (List.init n (fun i ->
         Client.Tcp (Driver.service_port ~base_port:base ~replicas:n i)))

let expect_ok what = function
  | Ok j -> j
  | Error (code, msg) ->
      Alcotest.fail
        (Printf.sprintf "%s failed: %s: %s" what (Wire.code_string code) msg)

let test_e2e_put_get () =
  with_cluster ~n:3 (fun ~base ~nodes ->
      let _leader = wait_leader nodes in
      let multi = multi_of ~base ~n:3 () in
      Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
      let put =
        expect_ok "put"
          (Client.Multi.call multi ~id:1
             (Wire.Scenario_put { name = "alpha"; scenario = scenario_a; nonce = 0 }))
      in
      Alcotest.(check bool)
        "put acknowledged" true
        (Obs.Json.member "stored" put = Some (Obs.Json.Bool true));
      let got =
        expect_ok "linearizable get"
          (Client.Multi.call multi ~id:2
             (Wire.Scenario_get { name = "alpha"; linearizable = true }))
      in
      Alcotest.(check bool)
        "linearizable get finds the put" true
        (Obs.Json.member "found" got = Some (Obs.Json.Bool true));
      (match Obs.Json.member "scenario" got with
      | Some sj ->
          Alcotest.(check bool)
            "stored scenario round-trips" true
            (Probcons.Scenario.of_json sj = Ok scenario_a)
      | None -> Alcotest.fail "reply carries no scenario");
      let missing =
        expect_ok "get of missing name"
          (Client.Multi.call multi ~id:3
             (Wire.Scenario_get { name = "ghost"; linearizable = true }))
      in
      Alcotest.(check bool)
        "missing name reads as absent" true
        (Obs.Json.member "found" missing = Some (Obs.Json.Bool false));
      (* A duplicate put (same canonical bytes) is acknowledged without
         a second application. *)
      let dup =
        expect_ok "duplicate put"
          (Client.Multi.call multi ~id:4
             (Wire.Scenario_put { name = "alpha"; scenario = scenario_a; nonce = 0 }))
      in
      Alcotest.(check bool)
        "duplicate flagged" true
        (Obs.Json.member "duplicate" dup = Some (Obs.Json.Bool true));
      let status =
        expect_ok "status"
          (Client.Multi.call multi ~id:5 Wire.Replica_status)
      in
      Alcotest.(check bool)
        "status carries the schema" true
        (Obs.Json.member "schema" status
        = Some (Obs.Json.String "probcons-replica-status/1"));
      (* Followers converge to the same applied state. *)
      Alcotest.(check bool)
        "all replicas converge" true
        (poll (fun () ->
             match live_nodes nodes with
             | first :: rest ->
                 let d node = (Node.state_counts node).State.digest in
                 let s node = (Node.state_counts node).State.store_size in
                 List.for_all
                   (fun node -> d node = d first && s node = s first)
                   rest
                 && s first = 1
             | [] -> false)))

(* A single replica commits and applies inside the submit call itself;
   the put must still find its waiter and be answered at once, not
   after the commit timeout by a duplicate-flagged retry. *)
let test_single_replica_put () =
  with_cluster ~n:1 (fun ~base ~nodes ->
      let leader = wait_leader nodes in
      let multi = multi_of ~base ~n:1 () in
      Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
      let started = Unix.gettimeofday () in
      let put =
        expect_ok "put"
          (Client.Multi.call multi ~id:1
             (Wire.Scenario_put { name = "solo"; scenario = scenario_a; nonce = 0 }))
      in
      let elapsed = Unix.gettimeofday () -. started in
      Alcotest.(check bool)
        (Printf.sprintf "acknowledged within 1 s (took %.2f s)" elapsed)
        true (elapsed < 1.);
      Alcotest.(check bool)
        "first put is not a duplicate" true
        (Obs.Json.member "duplicate" put = None);
      Alcotest.(check int) "no waiter left behind" 0 (Node.waiting leader))

let test_failover_and_restart () =
  let root = tmp_dir "probcons-replica-failover" in
  with_cluster ~state_dir:root ~n:3 (fun ~base ~nodes ->
      let leader = wait_leader nodes in
      let leader_id = Node.id leader in
      let multi = multi_of ~base ~n:3 () in
      Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
      ignore
        (expect_ok "put a"
           (Client.Multi.call multi ~id:1
              (Wire.Scenario_put { name = "a"; scenario = scenario_a; nonce = 0 })));
      (* Kill the leader: the client must fail over to the new leader
         elected by the surviving majority. *)
      (match !(nodes.(leader_id)) with
      | Some node ->
          nodes.(leader_id) := None;
          Node.stop node
      | None -> Alcotest.fail "leader slot empty");
      ignore
        (expect_ok "put b after failover"
           (Client.Multi.call ~timeout:12. multi ~id:2
              (Wire.Scenario_put { name = "b"; scenario = scenario_b; nonce = 0 })));
      let survivor = wait_leader nodes in
      Alcotest.(check bool)
        "a different replica leads" true
        (Node.id survivor <> leader_id);
      (* Restart the killed replica from its durable state: it must
         catch up to both writes. *)
      nodes.(leader_id) :=
        Some
          (Node.start
             (cluster_config ~state_dir:root ~wire_max:Wire.protocol_version
                ~base ~n:3 leader_id));
      Alcotest.(check bool)
        "restarted replica catches up" true
        (poll ~timeout:20. (fun () ->
             match !(nodes.(leader_id)) with
             | Some node ->
                 let c = Node.state_counts node in
                 c.State.store_size = 2 && c.State.missing_payloads = 0
             | None -> false));
      (* No acknowledged write was lost anywhere. *)
      let got =
        expect_ok "read back a"
          (Client.Multi.call multi ~id:3
             (Wire.Scenario_get { name = "a"; linearizable = true }))
      in
      Alcotest.(check bool)
        "write a survived the failover" true
        (Obs.Json.member "found" got = Some (Obs.Json.Bool true)))

(* One acknowledged put on a 3-replica cluster with state directories
   shows up in the persist instruments every replica process exports. *)
let test_persist_metrics () =
  let root = tmp_dir "probcons-replica-metrics" in
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was_enabled) @@ fun () ->
  with_cluster ~state_dir:root ~n:3 (fun ~base ~nodes ->
      ignore (wait_leader nodes);
      let counter name =
        match Obs.Metrics.find (Obs.Metrics.snapshot ()) ~family:"replica" ~name with
        | Some (Obs.Metrics.Counter n) -> n
        | _ -> Alcotest.fail ("replica/" ^ name ^ " is not a registered counter")
      in
      Alcotest.(check bool)
        "persist_seconds is a registered histogram" true
        (match
           Obs.Metrics.find (Obs.Metrics.snapshot ()) ~family:"replica"
             ~name:"persist_seconds"
         with
        | Some (Obs.Metrics.Histogram _) -> true
        | _ -> false);
      let fsyncs = counter "fsyncs" and bytes = counter "persist_bytes" in
      let multi = multi_of ~base ~n:3 () in
      Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
      ignore
        (expect_ok "put"
           (Client.Multi.call multi ~id:1
              (Wire.Scenario_put { name = "metered"; scenario = scenario_a; nonce = 0 })));
      Alcotest.(check bool) "fsyncs counted" true (counter "fsyncs" > fsyncs);
      Alcotest.(check bool) "persist bytes counted" true (counter "persist_bytes" > bytes))

(* Starting and stopping a replica with a state directory must give back
   every descriptor it opened: its log, sockets and listeners. *)
let test_restart_fd_leak () =
  if Sys.file_exists "/proc/self/fd" then (
    let root = tmp_dir "probcons-replica-fds" in
    let base = fresh_base () in
    let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
    let before = open_fds () in
    for _ = 1 to 50 do
      Node.stop (Node.start (cluster_config ~state_dir:root ~base ~n:1 0))
    done;
    Alcotest.(check int) "descriptors after 50 restarts" before (open_fds ());
    Alcotest.(check bool)
      "the log was written" true
      (Sys.file_exists (Storage.path ~dir:(Filename.concat root "0"))))

(* Satellite: a seeded chaos plan black-holing every outbound link of
   the leader mid-append must cost leadership, not consistency — a new
   leader emerges, the retried write lands exactly once, and after the
   link heals all replicas converge to identical state. *)
let test_chaos_blackhole_leader () =
  let passthrough = Service.Chaos.passthrough_plan ~seed:7 () in
  with_cluster ~chaos:passthrough ~n:3 (fun ~base ~nodes ->
      let leader = wait_leader nodes in
      let leader_id = Node.id leader in
      let multi = multi_of ~base ~n:3 () in
      Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
      ignore
        (expect_ok "put before the partition"
           (Client.Multi.call multi ~id:1
              (Wire.Scenario_put { name = "pre"; scenario = scenario_a; nonce = 0 })));
      (* Black-hole the leader's outbound links. *)
      Node.set_chaos_plan leader
        { passthrough with Service.Chaos.blackhole_p = 1.0 };
      ignore
        (expect_ok "put during the partition"
           (Client.Multi.call ~timeout:15. multi ~id:2
              (Wire.Scenario_put { name = "mid"; scenario = scenario_b; nonce = 0 })));
      let new_leader = wait_leader nodes in
      Alcotest.(check bool)
        "leadership moved off the black-holed replica" true
        (Node.id new_leader <> leader_id);
      (* Heal and require full convergence with no duplicate apply. *)
      Node.set_chaos_plan leader passthrough;
      Alcotest.(check bool)
        "replicas converge after healing" true
        (poll ~timeout:20. (fun () ->
             let counts = List.map Node.state_counts (live_nodes nodes) in
             match counts with
             | first :: rest ->
                 List.for_all
                   (fun (c : State.counts) ->
                     c.State.digest = first.State.digest
                     && c.State.store_size = first.State.store_size)
                   rest
                 && first.State.store_size = 2
                 && List.for_all
                      (fun (c : State.counts) -> c.State.missing_payloads = 0)
                      counts
             | [] -> false)))

(* Satellite: failing over onto a replica that only speaks newline
   framing must renegotiate that endpoint instead of assuming the
   previous endpoint's binary framing. *)
let test_multi_mixed_wire () =
  with_cluster
    ~wire_max_of:(fun i -> if i = 0 then 2 else Wire.protocol_version)
    ~n:3
    (fun ~base ~nodes ->
      ignore (wait_leader nodes);
      let multi = multi_of ~wire:3 ~base ~n:3 () in
      Fun.protect ~finally:(fun () -> Client.Multi.close multi) @@ fun () ->
      (* The first call lands on endpoint 0 (a --wire 2 replica): the
         binary-frame goodbye must downgrade that endpoint and retry it,
         not poison the call. *)
      let status =
        expect_ok "status through a wire-2 replica"
          (Client.Multi.call multi ~id:1 Wire.Replica_status)
      in
      Alcotest.(check bool)
        "status answered" true
        (Obs.Json.member "id" status <> None);
      Alcotest.(check int)
        "endpoint 0 renegotiated down to wire 2" 2
        (Client.Multi.negotiated_wire multi 0);
      (* Writes still reach the leader wherever it is. *)
      ignore
        (expect_ok "put through the mixed deployment"
           (Client.Multi.call ~timeout:12. multi ~id:2
              (Wire.Scenario_put { name = "mixed"; scenario = scenario_a; nonce = 0 }))))

(* ---- measurement harness helpers ---------------------------------- *)

let markov =
  match Faultmodel.Failure_process.markov ~fail_rate:1.0 ~recover_rate:2.0 with
  | Ok p -> p
  | Error e -> failwith e

let test_driver_schedule () =
  let mk seed =
    Driver.kill_schedule ~seed ~replicas:5 ~process:markov
      ~hours_per_second:0.125 ~duration_seconds:60.
  in
  let a = mk 42 and b = mk 42 and c = mk 43 in
  Alcotest.(check bool) "schedule is seed-deterministic" true (a = b);
  Alcotest.(check bool) "different seeds differ" true (a <> c);
  Alcotest.(check bool) "schedule is non-trivial" true (List.length a > 0);
  let sorted =
    List.for_all2
      (fun (x : Driver.event) (y : Driver.event) ->
        x.Driver.at_seconds <= y.Driver.at_seconds)
      (List.filteri (fun i _ -> i < List.length a - 1) a)
      (List.tl a)
  in
  Alcotest.(check bool) "events sorted by time" true sorted;
  List.iter
    (fun (e : Driver.event) ->
      Alcotest.(check bool)
        "events lie within the run" true
        (e.Driver.at_seconds >= 0. && e.Driver.at_seconds <= 60. /. 0.125 *. 8.))
    a

let test_driver_prediction_and_artifact () =
  let midpoints = [ 2.5; 7.5; 12.5; 17.5 ] in
  match
    Driver.predicted_windows ~replicas:3 ~process:markov ~hours_per_second:0.125
      ~midpoints_seconds:midpoints
  with
  | Error e -> Alcotest.fail e
  | Ok predictions ->
      Alcotest.(check int) "one prediction per window" 4 (List.length predictions);
      List.iter
        (fun p ->
          Alcotest.(check bool) "prediction is a probability" true
            (p >= 0. && p <= 1.))
        predictions;
      let windows =
        List.mapi
          (fun i p ->
            {
              Driver.index = i;
              t_mid_seconds = List.nth midpoints i;
              ok = 5;
              total = 6;
              predicted = p;
            })
          predictions
      in
      let cfg =
        {
          Driver.replicas = 3;
          base_port = 47100;
          seed = 42;
          process = markov;
          hours_per_second = 0.125;
          duration_seconds = 20.;
          window_seconds = 5.;
          probes_per_window = 6;
          tolerance = 0.25;
          chaos = None;
          wire = Wire.protocol_version;
          state_root = "/tmp/unused";
          child_argv = (fun ~id:_ -> [||]);
          log = ignore;
        }
      in
      let j =
        Driver.artifact cfg ~windows ~writes_acked:10 ~writes_lost:0 ~kills:3
          ~restarts:2
      in
      Alcotest.(check bool)
        "artifact carries the schema" true
        (Obs.Json.member "schema" j = Some (Obs.Json.String Driver.schema));
      List.iter
        (fun field ->
          Alcotest.(check bool)
            (field ^ " present") true
            (Obs.Json.member field j <> None))
        [
          "replicas"; "process"; "windows"; "measured_mean"; "predicted_mean";
          "abs_error"; "tolerance"; "writes_acked"; "writes_lost"; "kills";
          "restarts";
        ]

let suite =
  [
    Alcotest.test_case "command codec" `Quick test_command_codec;
    Alcotest.test_case "raft message codec" `Quick test_raft_codec;
    Alcotest.test_case "transport envelope" `Quick test_transport_envelope;
    Alcotest.test_case "state machine dedup" `Quick test_state_dedup;
    Alcotest.test_case "durable storage round-trip" `Quick test_storage_roundtrip;
    Alcotest.test_case "log torn at every byte of the last record" `Quick test_wal_torn_tail;
    Alcotest.test_case "log corrupted before the last record" `Quick test_wal_corruption;
    Alcotest.test_case "log divergence appends truncate-from" `Quick test_wal_divergence;
    Alcotest.test_case "log append cost flat in log length" `Quick test_wal_append_cost;
    Alcotest.test_case "log idle cycle does no I/O" `Quick test_wal_idle_cycle;
    Alcotest.test_case "log compaction" `Quick test_wal_compaction;
    Alcotest.test_case "log refuses a version-1 state directory" `Quick test_wal_refuses_v1;
    Alcotest.test_case "wire replica query kinds" `Quick test_wire_replica_kinds;
    Alcotest.test_case "cluster put/get/linearizable" `Slow test_e2e_put_get;
    Alcotest.test_case "single-replica put acknowledged at once" `Slow
      test_single_replica_put;
    Alcotest.test_case "leader failover and crash restart" `Slow
      test_failover_and_restart;
    Alcotest.test_case "persist instruments count a put" `Slow test_persist_metrics;
    Alcotest.test_case "no descriptor leak across restarts" `Slow test_restart_fd_leak;
    Alcotest.test_case "chaos blackhole costs leadership not consistency" `Slow
      test_chaos_blackhole_leader;
    Alcotest.test_case "multi-endpoint mixed wire renegotiation" `Slow
      test_multi_mixed_wire;
    Alcotest.test_case "kill schedule determinism" `Quick test_driver_schedule;
    Alcotest.test_case "prediction and artifact shape" `Quick
      test_driver_prediction_and_artifact;
  ]
