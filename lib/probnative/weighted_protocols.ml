module Registry = Probcons.Registry
module Scenario = Probcons.Scenario
module FP = Faultmodel.Failure_process

let ( let* ) = Result.bind
let errf fmt = Printf.ksprintf (fun msg -> Error msg) fmt

(* How much we distrust node [id]'s reliability estimate: the spread of
   its failure process's marginal across the scenario's mission window
   ([at], falling back to [horizon]). A static estimate — or a scenario
   with no window — has zero spread, so the weighted selectors reduce
   exactly to their unweighted forms. *)
let uncertainty_samples = 8

let uncertainty_of s =
  let procs = Array.of_list (Scenario.effective_processes s) in
  let window =
    match Scenario.at s with
    | Some at -> at
    | None -> Option.value (Scenario.horizon s) ~default:0.
  in
  fun id ->
    let p = procs.(id) in
    if FP.is_static p || window <= 0. then 0.
    else begin
      let lo = ref infinity and hi = ref neg_infinity in
      for k = 1 to uncertainty_samples do
        let v =
          FP.marginal p (window *. float_of_int k /. float_of_int uncertainty_samples)
        in
        if v < !lo then lo := v;
        if v > !hi then hi := v
      done;
      !hi -. !lo
    end

let target_of s =
  let nines = Registry.quorum_or s "target_nines" 3 in
  if nines < 1 || nines > 12 then
    errf "target_nines must be in [1, 12] (got %d)" nines
  else Ok (Prob.Nines.to_prob (float_of_int nines))

let fleet_of s = Scenario.fleet ~byz_fraction:0.0 s

(* Both entries pick their structure from the fleet at the scenario's
   [at] (mission start when absent): the choice is part of the model,
   so a horizon trajectory shows how one chosen configuration ages,
   not a per-round re-selection. *)

let raft_weighted : Registry.entry =
  (module struct
    let name = "raft-weighted"
    let doc = "Flexible Raft sized by uncertainty-weighted liveness target"
    let default_byz_fraction = 0.0
    let max_nodes = Scenario.max_fleet_nodes
    let quorum_keys = [ "target_nines" ]

    let select s =
      let* () =
        Registry.check_common ~name ~max_nodes ~quorum_keys s
      in
      let* target_live = target_of s in
      match
        Dynamic_quorum.best_raft_weighted ?at:(Scenario.at s)
          ~uncertainty:(uncertainty_of s) ~target_live (fleet_of s)
      with
      | Some choice -> Ok choice
      | None ->
          errf
            "no structurally safe Raft sizing of this %d-node fleet meets \
             %d-nines liveness under uncertainty weighting"
            (Scenario.size s)
            (Registry.quorum_or s "target_nines" 3)

    let protocol_of s =
      let* choice = select s in
      Ok (Probcons.Raft_model.protocol choice.Dynamic_quorum.params)

    let validate s = Result.map ignore (select s)

    let analyze ?domains ?strategy s =
      let* proto = protocol_of s in
      Registry.analyze_predicate ~default_byz:default_byz_fraction ?domains
        ?strategy s proto

    let analyze_horizon ?domains ?strategy s =
      let* proto = protocol_of s in
      Registry.analyze_predicate_horizon ~default_byz:default_byz_fraction
        ?domains ?strategy s proto
  end)

(* The committee predicate is identity-dependent (only member votes
   count), so there is no count fast path and analysis runs on the
   enumeration engine — capped like the stake model. *)
let committee_max_nodes = 22

let committee_protocol ~n (c : Committee.committee) =
  let module S = Quorum.Subset in
  let members = S.of_list c.Committee.members in
  let quorum = (List.length c.Committee.members / 2) + 1 in
  let live ~crashed ~byz =
    S.cardinal (S.inter (S.complement n (S.union crashed byz)) members) >= quorum
  in
  {
    Probcons.Protocol.name =
      Printf.sprintf "committee(%d of %d)" (List.length c.Committee.members) n;
    n;
    safe = Probcons.Protocol.always ~n;
    live = Probcons.Protocol.mask_predicate live;
  }

let committee_weighted : Registry.entry =
  (module struct
    let name = "committee-weighted"
    let doc = "Smallest committee meeting the target, uncertainty-discounted"
    let default_byz_fraction = 0.0
    let max_nodes = committee_max_nodes
    let quorum_keys = [ "target_nines" ]

    let select s =
      let* () =
        Registry.check_common ~name ~max_nodes ~quorum_keys s
      in
      let* target = target_of s in
      match
        Committee.reliability_weighted ?at:(Scenario.at s)
          ~uncertainty:(uncertainty_of s) ~target (fleet_of s)
      with
      | Some c -> Ok c
      | None ->
          errf
            "no committee of this %d-node fleet meets %d-nines reliability \
             under uncertainty weighting"
            (Scenario.size s)
            (Registry.quorum_or s "target_nines" 3)

    let protocol_of s =
      let* c = select s in
      Ok (committee_protocol ~n:(Scenario.size s) c)

    let validate s = Result.map ignore (select s)

    let analyze ?domains ?strategy s =
      let* proto = protocol_of s in
      Registry.analyze_predicate ~default_byz:default_byz_fraction ?domains
        ?strategy s proto

    let analyze_horizon ?domains ?strategy s =
      let* proto = protocol_of s in
      Registry.analyze_predicate_horizon ~default_byz:default_byz_fraction
        ?domains ?strategy s proto
  end)

(* Link-time registration: any executable linking probnative (the CLI,
   the service, the tests) sees these protocols in the registry. *)
let () = List.iter Registry.register [ raft_weighted; committee_weighted ]
