(* The bench artifact's gate table, end to end: tools/validate_bench.exe
   accepts a well-formed probcons-bench/2 artifact and the committed
   BENCH.json, and exits non-zero on an artifact that breaks any one
   gate. The validator is declared as a dune dependency, so these run
   against the freshly built executable. *)

let validator = "../tools/validate_bench.exe"

type row = {
  kernel : string;
  n : int;
  ns : float;
  extra : (string * Obs.Json.t) list;
}

let row ?(extra = []) kernel n ns = { kernel; n; ns; extra }

let loadgen ?(errors = 0) ?(mismatches = 0) ?(window = 2.) wire ns =
  row
    ~extra:
      [
        ("errors", Obs.Json.Int errors);
        ("mismatches", Obs.Json.Int mismatches);
        ("elapsed_seconds", Obs.Json.number window);
      ]
    (Printf.sprintf "service/loadgen-wire%d" wire)
    8 ns

let horizon_inc ?(max_diff = 0.) n ns =
  row ~extra:[ ("max_diff", Obs.Json.number max_diff) ] "horizon/incremental" n ns

(* Every gate satisfied with margin, shaped like a --quick run. *)
let good =
  [
    row "fleet/incremental-update" 1_000 2e4;
    row "fleet/full-recompute" 1_000 1e6;
    row "fleet/incremental-update" 10_000 4e5;
    row "fleet/full-recompute" 10_000 5e7;
    row "horizon/exact" 100 2e6;
    horizon_inc 100 1e5;
    row "horizon/exact" 400 1e8;
    horizon_inc 400 5e6;
    loadgen 2 15_000.;
    loadgen 3 2_500.;
  ]

(* [rows] with the row of [kernel] at [n] replaced by [f row], or
   dropped when [f] returns [None]. *)
let edit kernel n f rows =
  List.filter_map
    (fun r -> if r.kernel = kernel && r.n = n then f r else Some r)
    rows

let metrics_json () =
  let registry = Obs.Metrics.create ~enabled:true () in
  Obs.Metrics.incr (Obs.Metrics.counter ~registry ~family:"bench" "rows");
  Obs.Metrics.to_json (Obs.Metrics.snapshot ~registry ())

let artifact rows =
  let row_json r =
    Obs.Json.Obj
      ([
         ("kernel", Obs.Json.String r.kernel);
         ("n", Obs.Json.Int r.n);
         ("engine", Obs.Json.String "fixture");
         ("domains", Obs.Json.Int 1);
         ("ns_per_run", Obs.Json.number r.ns);
       ]
      @ r.extra)
  in
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("schema", Obs.Json.String "probcons-bench/2");
         ("rows", Obs.Json.List (List.map row_json rows));
         ("metrics", metrics_json ());
       ])

let validate_file path =
  let status =
    Sys.command
      (Printf.sprintf "%s %s > validate_output.txt 2>&1" validator path)
  in
  let ic = open_in_bin "validate_output.txt" in
  let output = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (status, output)

let validate rows =
  Test_cli.write_file "gate_fixture.json" (artifact rows);
  validate_file "gate_fixture.json"

let passes what rows =
  let status, output = validate rows in
  if status <> 0 then Alcotest.failf "%s: rejected:\n%s" what output

let rejects what ~because rows =
  let status, output = validate rows in
  Alcotest.(check bool) (what ^ ": non-zero exit") true (status <> 0);
  Alcotest.(check bool)
    (Printf.sprintf "%s: failure names %S (got %S)" what because output)
    true (Test_cli.contains output because)

let test_well_formed () = passes "good fixture" good

let test_committed () =
  let status, output = validate_file "../BENCH.json" in
  if status <> 0 then Alcotest.failf "BENCH.json rejected:\n%s" output

let test_fleet_floor () =
  (* Below n = 10^4 the ratio is reported, not gated. *)
  passes "2x at n=1000"
    (edit "fleet/full-recompute" 1_000 (fun r -> Some { r with ns = 4e4 }) good);
  rejects "9x at n=10^4" ~because:"the floor is 10x"
    (edit "fleet/full-recompute" 10_000 (fun r -> Some { r with ns = 3.6e6 }) good)

let test_horizon_floor () =
  rejects "4x at n=100" ~because:"the floor is 5x"
    (edit "horizon/exact" 100 (fun r -> Some { r with ns = 4e5 }) good)

let test_max_diff () =
  rejects "drifted trajectory" ~because:"max_diff"
    (edit "horizon/incremental" 400
       (fun _ -> Some (horizon_inc ~max_diff:2e-9 400 5e6))
       good);
  rejects "no max_diff" ~because:"missing numeric max_diff"
    (edit "horizon/incremental" 100 (fun r -> Some { r with extra = [] }) good)

let test_wire_order () =
  rejects "wire/3 ties wire/2" ~because:"the floor is above 1x"
    (edit "service/loadgen-wire3" 8 (fun _ -> Some (loadgen 3 15_000.)) good)

let test_dirty_loadgen () =
  rejects "errors" ~because:"errors = 1"
    (edit "service/loadgen-wire3" 8 (fun _ -> Some (loadgen ~errors:1 3 2_500.)) good);
  rejects "mismatches" ~because:"mismatches = 2"
    (edit "service/loadgen-wire2" 8
       (fun _ -> Some (loadgen ~mismatches:2 2 15_000.))
       good)

let test_short_window () =
  rejects "0.9 s window" ~because:"elapsed_seconds = 0.9"
    (edit "service/loadgen-wire2" 8 (fun _ -> Some (loadgen ~window:0.9 2 15_000.)) good)

let test_missing_partner () =
  rejects "no recompute at n=10^4" ~because:"missing its fleet/full-recompute row"
    (edit "fleet/full-recompute" 10_000 (fun _ -> None) good);
  (* A partner is required below the gated size too. *)
  rejects "no exact row at n=100"
    ~because:"missing its horizon/exact row"
    (edit "horizon/exact" 100 (fun _ -> None) good)

let test_missing_section () =
  let no_fleet =
    List.filter (fun r -> not (String.starts_with ~prefix:"fleet/" r.kernel)) good
  in
  rejects "no fleet rows" ~because:"no fleet/incremental-update/fleet/full-recompute pair"
    no_fleet;
  rejects "no wire/2 row" ~because:"missing its service/loadgen-wire2 row"
    (edit "service/loadgen-wire2" 8 (fun _ -> None) good)

let suite =
  [
    Alcotest.test_case "well-formed artifact passes" `Quick test_well_formed;
    Alcotest.test_case "committed BENCH.json passes" `Quick test_committed;
    Alcotest.test_case "fleet speedup floor" `Quick test_fleet_floor;
    Alcotest.test_case "horizon speedup floor" `Quick test_horizon_floor;
    Alcotest.test_case "horizon max_diff bound" `Quick test_max_diff;
    Alcotest.test_case "wire/3 strictly beats wire/2" `Quick test_wire_order;
    Alcotest.test_case "dirty loadgen row" `Quick test_dirty_loadgen;
    Alcotest.test_case "short measured window" `Quick test_short_window;
    Alcotest.test_case "missing partner row" `Quick test_missing_partner;
    Alcotest.test_case "missing gated section" `Quick test_missing_section;
  ]
