type params = {
  stakes : float array;
  byz_stake_bound : float;
  live_stake_bound : float;
}

let make ?(byz_stake_bound = 1. /. 3.) ?(live_stake_bound = 2. /. 3.) stakes =
  if Array.length stakes = 0 then invalid_arg "Stake_model.make: empty stakes";
  Array.iter
    (fun s -> if s <= 0. then invalid_arg "Stake_model.make: stakes must be positive")
    stakes;
  if byz_stake_bound <= 0. || byz_stake_bound > 1. then
    invalid_arg "Stake_model.make: byz bound out of range";
  if live_stake_bound <= 0. || live_stake_bound > 1. then
    invalid_arg "Stake_model.make: live bound out of range";
  { stakes; byz_stake_bound; live_stake_bound }

let total params = Prob.Math_utils.kahan_sum params.stakes

let protocol params =
  let module S = Quorum.Subset in
  let n = Array.length params.stakes in
  let bits = min n S.table_bits in
  let low = S.full bits in
  (* Stakes are summed in ascending node order from 0., as a node-by-node
     walk would: the table folds the low [bits] nodes (adding +0. for an
     absent node leaves a non-negative sum unchanged), the loop adds the
     rest. *)
  let table =
    S.prefix_table `Sum ~inside:params.stakes ~outside:(Array.make n 0.) ~bits
  in
  let total = total params in
  (* Whether the stake fraction of [s] is below [bound]; returning the
     comparison rather than the float keeps the call allocation-free. *)
  let fraction_below s bound =
    let stake = ref table.(s land low) in
    for u = bits to n - 1 do
      if s land (1 lsl u) <> 0 then stake := !stake +. params.stakes.(u)
    done;
    !stake /. total < bound
  in
  let safe =
    Protocol.mask_predicate (fun ~crashed:_ ~byz ->
        fraction_below byz params.byz_stake_bound)
  in
  let live =
    Protocol.mask_predicate (fun ~crashed ~byz ->
        not (fraction_below (S.complement n (S.union crashed byz)) params.live_stake_bound))
  in
  { Protocol.name = Printf.sprintf "stake(n=%d)" n; n; safe; live }

let nakamoto_coefficient params =
  let sorted = Array.copy params.stakes in
  Array.sort (fun a b -> Float.compare b a) sorted;
  let threshold = params.byz_stake_bound *. total params in
  let rec go i acc =
    if i >= Array.length sorted then Array.length sorted
    else begin
      let acc = acc +. sorted.(i) in
      if acc >= threshold then i + 1 else go (i + 1) acc
    end
  in
  go 0 0.
