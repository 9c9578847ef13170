type predicate = {
  mask : crashed:Quorum.Subset.t -> byz:Quorum.Subset.t -> bool;
  full : Config.t -> bool;
  by_count : (byz:int -> crashed:int -> bool) option;
}

type t = { name : string; n : int; safe : predicate; live : predicate }

let make mask by_count =
  {
    mask;
    full =
      (fun config ->
        mask ~crashed:(Config.crashed_set config) ~byz:(Config.byzantine_set config));
    by_count;
  }

let mask_predicate mask = make mask None

let count_predicate ~n f =
  ignore n;
  make
    (fun ~crashed ~byz ->
      f ~byz:(Quorum.Subset.cardinal byz) ~crashed:(Quorum.Subset.cardinal crashed))
    (Some (fun ~byz ~crashed -> f ~byz ~crashed))

let lift2 op a b =
  make
    (fun ~crashed ~byz -> op (a.mask ~crashed ~byz) (b.mask ~crashed ~byz))
    (match (a.by_count, b.by_count) with
    | Some fa, Some fb ->
        Some (fun ~byz ~crashed -> op (fa ~byz ~crashed) (fb ~byz ~crashed))
    | _, _ -> None)

let pred_and a b = lift2 ( && ) a b
let pred_or a b = lift2 ( || ) a b

let pred_not a =
  make
    (fun ~crashed ~byz -> not (a.mask ~crashed ~byz))
    (match a.by_count with
    | Some f -> Some (fun ~byz ~crashed -> not (f ~byz ~crashed))
    | None -> None)

let always ~n = count_predicate ~n (fun ~byz:_ ~crashed:_ -> true)
let never ~n = count_predicate ~n (fun ~byz:_ ~crashed:_ -> false)
