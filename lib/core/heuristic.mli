(** Scalable heuristic synthesis — the paper's stated future work
    ("developing scalable heuristic methods for larger functions,
    leveraging exact solutions as much as possible").

    The flow Shannon-decomposes each output until every block depends on at
    most [block_arity] variables, synthesizes each distinct block {e exactly}
    with the SAT engine (projected onto its support, results cached by truth
    table; the QMC→NOR baseline is the fallback when a block times out), and
    recombines cofactors with the 3-NOR multiplexer
    [NOR(NOR(f0, x), NOR(f1, ¬x))]. Sub-circuits are merged onto one line
    array by windowing their V-op phases ({!Compose.merge_parallel}). *)

module Spec = Mm_boolfun.Spec

type stats = {
  blocks : int;  (** leaf blocks synthesized (after caching) *)
  cache_hits : int;
  exact_blocks : int;  (** leaves solved optimally by SAT *)
  fallback_blocks : int;  (** leaves that fell back to the NOR baseline *)
  mux_nors : int;  (** NORs spent recombining cofactors *)
}

(** [synthesize spec] returns a verified circuit and flow statistics.
    @param taps where the leaf blocks may tap their legs (default
      [Any_vop]); merging keeps a block's final taps final, so under
      [Final_only] the whole circuit taps final steps only
    @param block_arity maximum support of a leaf block (default 4)
    @param timeout_per_block SAT budget per distinct leaf (default 20 s) *)
val synthesize :
  ?taps:Encode.taps ->
  ?block_arity:int ->
  ?timeout_per_block:float ->
  Spec.t ->
  Circuit.t * stats
