(** The [conv] registry entrant: exact optimum over
    cartesian-product-free join sequences, dispatched by size.

    - [n <= dense_max_n]: {!Opt.Make.dp_no_cartesian}, the full
      [2^n] subset lattice (counted under [opt.dp.*]);
    - [dense_max_n < n <= max_conv_n]: {!Ccp.Make.dp_connected}, the
      connected-subset sublattice (counted under [ccp.dp.*]; chains and
      trees scale to [n] in the hundreds).

    DPconv (arXiv 2409.08013) gets its speedup from fast subset
    convolution on [C_max]; the paper's [QO_N] cost is a sum, so the
    lattice DP is the convolution here and [conv] shares its code
    rather than copying it. Bit-identical (cost and sequence) to both
    kernels wherever they admit the instance. *)

module Make (C : Cost.S) = struct
  module I = Nl.Make (C)
  module O = Opt.Make (C)
  module P = Ccp.Make (C)

  (** Largest [n] served by the full lattice ([= Opt.max_dp_n]). *)
  let dense_max_n = O.max_dp_n

  (** Hard cap ([= Ccp.max_ccp_n]). *)
  let max_conv_n = P.max_ccp_n

  (** Cost [C.infinity] (empty sequence) when the query graph is
      disconnected. With [?pool] the chosen kernel runs in parallel;
      results are bit-identical at every job count.
      @raise Invalid_argument when [n = 0] or [n > max_conv_n]. *)
  let solve ?pool (inst : I.t) : O.plan =
    let n = I.n inst in
    if n > max_conv_n then
      invalid_arg (Printf.sprintf "Conv.solve: n=%d too large (max %d)" n max_conv_n);
    if n = 0 then invalid_arg "Conv.solve: empty instance";
    if n <= dense_max_n then O.dp_no_cartesian ?pool inst else P.dp_connected ?pool inst
end
