(** Exporters for synthesized circuits. *)

(** Human-readable multi-line description (same as {!Circuit.pp}). *)
val to_text : Circuit.t -> string

(** Graphviz dot: literals as plain nodes, legs as chains of V-op boxes,
    R-ops as NOR gates, outputs as double circles. *)
val to_dot : Circuit.t -> string

(** JSON object with arity, legs (TE/BE literal names), R-ops and outputs —
    stable enough to diff in tests and consume from scripts. *)
val json : Circuit.t -> Mm_report.Json.t

(** {!json}, printed compactly. *)
val to_json : Circuit.t -> string
