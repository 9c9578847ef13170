(* Child processes, ports and scratch directories of one benchmark run.

   Everything spawned or created is registered here, and [cleanup]
   reaps and removes all of it — on success, on failure and on
   SIGINT/SIGTERM — so no child, listening port or state directory
   outlives a run. [leftovers] is the check that proves it. *)

let children : (int, string) Hashtbl.t = Hashtbl.create 8
let dirs : string list ref = ref []
let ports : int list ref = ref []

(* Scratch space lives inside the working directory (the checkout). *)
let scratch_root = ".perfbench_run"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

(* A fresh directory under [scratch_root], removed by [cleanup]. *)
let fresh_dir tag =
  let rec pick k =
    let d =
      Filename.concat scratch_root
        (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) k)
    in
    if Sys.file_exists d then pick (k + 1) else d
  in
  let d = pick 0 in
  mkdir_p d;
  dirs := d :: !dirs;
  d

let spawn ~name ~log argv =
  let fd = Unix.openfile log [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd; Unix.close null)
      (fun () -> Unix.create_process argv.(0) argv null fd fd)
  in
  Hashtbl.replace children pid name;
  pid

(* Wait up to [grace] seconds for [pid] to exit, then SIGKILL it. *)
let reap ?(grace = 5.) pid =
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  Hashtbl.remove children pid

let stop ?(signal = Sys.sigterm) pid =
  (try Unix.kill pid signal with Unix.Unix_error _ -> ());
  reap pid

(* --- Ports ----------------------------------------------------------- *)

let listening port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port)) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

let bindable port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, port)) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

(* [k] consecutive free loopback ports. The base is drawn from the
   process's own entropy (never the workload seed, which only shapes
   inputs) and every port is test-bound, so back-to-back or concurrent
   runs do not collide. *)
let port_rng = lazy (Random.State.make_self_init ())

let free_ports k =
  let rec attempt tries =
    if tries = 0 then failwith "no free port range found";
    let base = 20000 + Random.State.int (Lazy.force port_rng) (40000 - k) in
    let range = List.init k (fun i -> base + i) in
    if List.for_all (fun p -> (not (List.mem p !ports)) && bindable p) range
    then begin
      ports := range @ !ports;
      base
    end
    else attempt (tries - 1)
  in
  attempt 200

(* --- Hygiene --------------------------------------------------------- *)

let cleaned = ref false

let cleanup () =
  if not !cleaned then begin
    cleaned := true;
    let pids = Hashtbl.fold (fun pid _ acc -> pid :: acc) children [] in
    List.iter
      (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
      pids;
    List.iter (fun pid -> reap ~grace:3. pid) pids;
    List.iter (fun d -> try rm_rf d with Unix.Unix_error _ | Sys_error _ -> ()) !dirs;
    dirs := [];
    (try Unix.rmdir scratch_root with Unix.Unix_error _ -> ())
  end

(* What survived [cleanup]: children not reaped and registered ports
   something still listens on. Empty on a clean run. *)
let leftovers () =
  let kids =
    Hashtbl.fold (fun pid name acc -> Printf.sprintf "%s (pid %d)" name pid :: acc)
      children []
  in
  let open_ports =
    List.filter_map
      (fun p -> if listening p then Some (Printf.sprintf "port %d" p) else None)
      !ports
  in
  kids @ open_ports

let install_signal_handlers () =
  let handler signo =
    cleanup ();
    exit (if signo = Sys.sigint then 130 else 143)
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore
