(** Pre-applied functor instances.

    OCaml functors are applicative, so these aliases are compatible
    with any other application of the same functors to the same cost
    modules — use them instead of re-applying. *)

module Nl_log = Nl.Make (Log_cost)
(** [QO_N] in the log domain — the workhorse for reduction instances. *)

module Nl_rat = Nl.Make (Rat_cost)
(** [QO_N] over exact rationals — cross-validation (experiment E10). *)

module Opt_log = Opt.Make (Log_cost)
module Opt_rat = Opt.Make (Rat_cost)
module Ik_log = Ik.Make (Log_cost)
module Ik_rat = Ik.Make (Rat_cost)

module Ccp_log = Ccp.Make (Log_cost)
(** Connected-subgraph DP ([dp_connected]) in the log domain — the
    sparse-graph exact optimizer; plans are [Opt_log.plan] values. *)

module Ccp_rat = Ccp.Make (Rat_cost)
(** Connected-subgraph DP over exact rationals. *)

module Conv_log = Conv.Make (Log_cost)
(** The [conv] size dispatcher ([solve]: lattice DP, then connected
    DP) in the log domain; plans are [Opt_log.plan] values. *)

module Conv_rat = Conv.Make (Rat_cost)
(** The [conv] size dispatcher over exact rationals. *)

module Simpli_log = Simpli.Make (Log_cost)
(** Simpli-Squared cardinality-free structural ordering, log domain. *)

module Simpli_rat = Simpli.Make (Rat_cost)
(** Simpli-Squared cardinality-free structural ordering, rationals. *)

(** Convert an exact-rational instance to the log domain (for
    cross-validation: costs must agree up to float tolerance). *)
let log_of_rat (inst : Nl_rat.t) : Nl_log.t =
  let conv x = Logreal.of_log2 (Rat_cost.to_log2 x) in
  let conv_m = Array.map (Array.map conv) in
  {
    Nl_log.n = inst.Nl_rat.n;
    graph = inst.Nl_rat.graph;
    sel = conv_m inst.Nl_rat.sel;
    sizes = Array.map conv inst.Nl_rat.sizes;
    w = conv_m inst.Nl_rat.w;
  }
