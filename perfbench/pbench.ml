(* The repository benchmark: one workload per invocation.

     pbench --workload NAME --seed N --seconds S --trace 0|1 --bin PROBCONS

   runs the real [probcons] binaries as child processes, checks every
   output, prints each metric by name, unit and sample count, and ends
   with one JSON line {correct, attempted, failed, metrics}: the
   end-to-end metrics of BENCHMARK.json untraced, its per-layer metrics
   traced. Normally started through run.py, which builds the tree
   first. *)

open Util

let workloads =
  [
    ("analyze-miss", Wl_query.analyze_miss);
    ("serve-zipf", Wl_query.serve_zipf);
    ("replicated-rw", Wl_rw.replicated_rw);
  ]

(* (name, unit) of a BENCHMARK.json metric list. *)
let spec_metrics spec key =
  match Obs.Json.member key spec with
  | Some (Obs.Json.List l) ->
      List.filter_map
        (fun m ->
          match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
          | Some (Obs.Json.String n), Some (Obs.Json.String u) -> Some (n, u)
          | _ -> None)
        l
  | _ -> failwith ("BENCHMARK.json has no " ^ key)

let json_string s = Obs.Json.to_string (Obs.Json.String s)

let print_metric kind (m : metric) =
  Printf.printf "%-6s %-32s %14.6g %-6s n=%d\n" kind m.name m.value m.unit_ m.samples

let () =
  (* The reference-core sampler is this executable run as a child. *)
  (match Sys.argv with
  | [| _; "--reference-sampler"; path |] -> Refcore.sampler_main path
  | _ -> ());
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let cpus = ref "" in
  let bin = ref "" and fs_type = ref "unknown" and commit = ref "unknown" and nproc = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME analyze-miss | serve-zipf | replicated-rw");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--bin", Arg.Set_string bin, "PATH probcons executable");
      ("--fs-type", Arg.Set_string fs_type, "T filesystem of the state directories");
      ("--commit", Arg.Set_string commit, "C source revision");
      ("--nproc", Arg.Set_int nproc, "N usable cores");
      ("--cpus", Arg.Set_string cpus, "LIST usable CPU numbers, comma-separated");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pbench --workload NAME --seed N --seconds S --trace 0|1 --bin PROBCONS";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline ("pbench: unknown workload " ^ !workload);
        exit 2
  in
  if !bin = "" || not (Sys.file_exists !bin) then begin
    prerr_endline "pbench: --bin must name the probcons executable";
    exit 2
  end;
  let spec =
    match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
    | text -> (
        match Obs.Json.of_string text with
        | Ok j -> j
        | Error e -> prerr_endline ("pbench: BENCHMARK.json: " ^ e); exit 2)
    | exception Sys_error e -> prerr_endline ("pbench: " ^ e); exit 2
  in
  let e2e_spec = spec_metrics spec "end_to_end" and layer_spec = spec_metrics spec "per_layer" in
  Proc.install_signal_handlers ();
  let ctx =
    {
      bin = !bin;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      cpus = List.filter_map int_of_string_opt (String.split_on_char ',' !cpus);
    }
  in
  let outcome =
    match Fun.protect ~finally:Proc.cleanup (fun () -> run ctx) with
    | o -> o
    | exception e ->
        {
          e2e = [];
          extra = [];
          layers = [];
          attempted = 1;
          failed = 1;
          errors = [ "run aborted: " ^ Printexc.to_string e ];
          config = [];
          spans = None;
        }
  in
  let leftovers = Proc.leftovers () in
  let provenance =
    [
      ("workload", !workload);
      ("seed", string_of_int !seed);
      ("seconds", Printf.sprintf "%g" !seconds);
      ("trace", string_of_int !trace);
      ("nproc", string_of_int !nproc);
      ("ocaml", Sys.ocaml_version);
      ("commit", !commit);
      ("state_fs", !fs_type);
    ]
    @ outcome.config
  in
  Printf.printf "provenance {%s}\n"
    (String.concat ", "
       (List.map (fun (k, v) -> json_string k ^ ": " ^ json_string v) provenance));
  List.iter (print_metric "e2e") outcome.e2e;
  List.iter (print_metric "e2e") outcome.extra;
  Printf.printf "%-6s %-32s %14.6g %-6s n=%d\n" "e2e" "failed_frac"
    (float_of_int outcome.failed /. float_of_int (max 1 outcome.attempted))
    "frac" outcome.attempted;
  List.iter (print_metric "layer") outcome.layers;
  (match outcome.spans with
  | Some sp ->
      let rows = List.of_seq (Hashtbl.to_seq (Spans.layer_totals sp)) in
      List.iter
        (fun (layer, (self, count)) ->
          Printf.printf "self   %-32s %12.6f s  share %.4f  spans=%d\n" layer self
            (Replay.layer_share sp layer) count)
        (List.sort (fun (_, (a, _)) (_, (b, _)) -> compare b a) rows);
      Proc.mkdir_p ".perfbench_out";
      let path = Printf.sprintf ".perfbench_out/spans-%s-%d.jsonl" !workload !seed in
      Spans.write sp ~path ~limit:50_000;
      Printf.printf "spans  %d recorded, first %d written to %s\n" (Spans.count sp)
        (min (Spans.count sp) 50_000) path
  | None -> ());
  let errors =
    outcome.errors
    @ List.map (fun l -> "outlived the run: " ^ l) leftovers
  in
  let find ms name = List.find_opt (fun (m : metric) -> m.name = name) ms in
  let missing = ref [] in
  let reported =
    if ctx.trace then
      List.map
        (fun (name, unit_) ->
          match find outcome.layers name with
          | Some m -> (name, unit_, m.value)
          | None -> (name, unit_, 0.))
        layer_spec
    else
      List.filter_map
        (fun (name, unit_) ->
          match find outcome.e2e name with
          | Some m -> Some (name, unit_, m.value)
          | None ->
              missing := name :: !missing;
              None)
        e2e_spec
  in
  let errors = errors @ List.map (fun n -> "metric not measured: " ^ n) !missing in
  List.iter (fun e -> Printf.printf "error  %s\n" e) errors;
  let correct = errors = [] in
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
             (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
             (json_string unit_))
         reported)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 outcome.attempted)
    (if correct then outcome.failed else max 1 outcome.failed)
    metrics;
  exit (if correct then 0 else 1)
