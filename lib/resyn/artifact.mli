(** Round-trip between circuits/specs and the [map --json] artifact.

    [mmsynth map --json] embeds the stitched circuit IR ([circuit_ir], the
    {!Mm_core.Emit.json} shape) and the specification's truth tables
    ([spec_tables]) in its artifact so a later [mmsynth resyn] invocation
    can re-optimize the committed implementation without re-running the
    mapper. This module is the parsing side (plus the small helpers the CLI
    uses to embed them): strict on structure — a malformed artifact is an
    [Error] with the offending field, never a silently-dropped circuit —
    and every parsed circuit is structurally validated by
    {!Mm_core.Circuit.make} before being returned. *)

module Circuit = Mm_core.Circuit
module Spec = Mm_boolfun.Spec
module Json = Mm_report.Json

(** The circuit as {!Mm_core.Emit.json} builds it. *)
val circuit_to_json : Circuit.t -> Json.t

(** Inverse of {!circuit_to_json} (accepts the [circuit_ir] field of a map
    artifact). Sources are [{"kind":"literal","name":...}], [{"kind":"leg",
    "index":...}], [{"kind":"vop","leg":...,"step":...}] or [{"kind":"rop",
    "index":...}]; literal names are [const-0], [const-1], [x3], [~x3]. *)
val circuit_of_json : Json.t -> (Circuit.t, string) result

(** [{"name": ..., "arity": n, "tables": ["0101...", ...]}] — one
    [2^n]-character row string per output. *)
val spec_to_json : Spec.t -> Json.t

val spec_of_json : Json.t -> (Spec.t, string) result
