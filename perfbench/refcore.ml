(* The reference core: how fast the host's CPU runs right now.

   On a small VM that shares its machine, the same code takes up to
   1.5x the CPU time from one minute to the next, so a raw CPU time per
   operation moves with the host, not with the program. A sampler
   process runs a fixed kernel, owned by the benchmark and sharing no
   code with probcons, every [period_s] during a run and records its
   CPU time; a served process's CPU time is then rescaled by
   [nominal_s] / (the kernel's median time), i.e. to a core on which
   the kernel takes exactly [nominal_s]. A change to probcons moves the
   rescaled figure; a change in the host's speed moves both sides. *)

let iterations = 200_000
let nominal_s = 0.5e-3
let period_s = 0.1

(* Integer hashing and scattered float stores over a 32 KiB array:
   the mix of ALU work and cache traffic the analysis engine does. *)
let buf = Array.make 4096 0.

let kernel () =
  let x = ref 1 in
  for i = 0 to iterations - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land 4095 in
    Array.unsafe_set buf j ((Array.unsafe_get buf j *. 0.5) +. float_of_int i)
  done

(* CPU seconds of one kernel run: the least of three back-to-back runs,
   timed in process CPU time, so a preemption is not counted. *)
let sample () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let c0 = Sys.time () in
    kernel ();
    best := Float.min !best (Sys.time () -. c0)
  done;
  !best

(* The sampler process: one "TIME SECONDS" line per period, flushed,
   until it is signalled. *)
let sampler_main path =
  let oc = open_out path in
  while true do
    Unix.sleepf period_s;
    Printf.fprintf oc "%.6f %.9f\n%!" (Unix.gettimeofday ()) (sample ())
  done

type t = { pid : int; path : string }

(* Start a sampler (pinned to [cpu] when given: the CPU a pinned served
   process runs on). *)
let start ?cpu ~dir () =
  let path = Filename.concat dir "refcore.txt" in
  let argv =
    (match cpu with Some c -> [ "taskset"; "-c"; string_of_int c ] | None -> [])
    @ [ Sys.executable_name; "--reference-sampler"; path ]
  in
  let pid = Proc.spawn ~name:"refcore" ~log:(Filename.concat dir "refcore.log") (Array.of_list argv) in
  { pid; path }

(* Stop the sampler and return the median kernel time over the run,
   with its sample count. *)
let stop t =
  Proc.stop t.pid;
  let samples =
    match In_channel.with_open_bin t.path In_channel.input_all with
    | text ->
        List.filter_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ _; s ] -> float_of_string_opt s
            | _ -> None)
          (String.split_on_char '\n' text)
    | exception Sys_error _ -> []
  in
  if samples = [] then failwith "the reference-core sampler recorded nothing";
  (Util.median (Array.of_list samples), List.length samples)

(* [cpu_s] of a served process, rescaled to the reference core, per
   operation, in microseconds. *)
let cpu_metric ~kernel:(kernel_s, _) ~cpu_s ~ops =
  Util.metric ~samples:ops "ref_cpu_us_per_op" "us"
    (1e6 *. cpu_s *. (nominal_s /. kernel_s) /. float_of_int (max 1 ops))

let kernel_metric (kernel_s, n) = Util.metric ~samples:n "ref_kernel_us" "us" (1e6 *. kernel_s)
