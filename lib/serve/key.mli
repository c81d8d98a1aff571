(** Content-addressed cache keys for the compile service.

    Every stage boundary of the pipeline is memoized under a key derived
    from (a) a digest of the {e canonical} program text — the
    pretty-printed AST, so textual noise (whitespace, comments, redundant
    parentheses) in the submitted source cannot split cache entries — and
    (b) a canonical fingerprint of the options that affect the stage
    ({!Dpopt.Pipeline.fingerprint}), so semantically-equal option records
    cannot split entries either. Keys embed a stage tag, so stages can
    never alias each other even when their content digests coincide. *)

(** [profile p] — digest of a canonical rendering of a workload profile
    (child sizes, rounds, parent block). *)
val profile : Costmodel.Profile.t -> string

(** [stage ~tag parts] — the final cache key: [tag] plus the
    ["/"]-joined parts. Tags keep stage key spaces disjoint. *)
val stage : tag:string -> string list -> string
