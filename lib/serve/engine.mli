(** The compile engine behind [dpoptd]: the {!Dpopt.Pipeline} replayed as
    content-addressed stages over a shared {!Lru}.

    A request runs its stages in the order parse → dpcheck → passes →
    predict; the key parts it needs more than once (the source digest,
    the stage list with its fingerprints) are built once per request.
    Stage boundaries and their keys (all via {!Key.stage}):

    - {b parse} — keyed on [digest (file NUL source)]. Value: the
      typechecked AST, its canonical text ({!Minicu.Pretty.program}) and
      that text's digest. The file label is part of the key because the
      AST's locations (and hence every loc-bearing diagnostic downstream)
      embed it.
    - {b pass:<name>} — one entry per enabled pass, keyed on the
      {e canonical} digest of the stage's input program plus the stage's
      {!Dpopt.Pipeline.stage} fingerprint. Textual noise in the submitted
      source cannot split these entries, and a shared T-stage output is
      reused across all option records that agree on the T knobs.
    - {b dpcheck} — static {!Analysis.Static.check_program} diagnostics of
      the input, rendered; keyed like parse (diagnostics carry locations).
    - {b predict} — {!Costmodel} prediction, keyed on the canonical input
      digest, {!Dpopt.Pipeline.fingerprint} of the options, and the
      profile digest. On a miss it reads the eligibility reports of the
      pass stages just run (folded with {!Dpopt.Pipeline.absorb}) instead
      of running the pipeline again.

    Every cached value is a pure function of its key, so cold and warm
    compiles are byte-identical — pinned by the cached-vs-uncached tests
    in [test/test_serve.ml]. *)

type request = {
  rq_file : string;
      (** Label for diagnostics ("job-17", a file name); becomes the
          location file of every parse/type/dpcheck message. *)
  rq_src : string;  (** MiniCU source text. *)
  rq_opts : Dpopt.Pipeline.options;
  rq_profile : Costmodel.Profile.t option;
      (** When present, the response carries a cost-model prediction. *)
}

type response = {
  rs_label : string;  (** {!Dpopt.Pipeline.label} of the options. *)
  rs_optimized : string;  (** Transformed program, pretty-printed. *)
  rs_diags : string list;
      (** Rendered static dpcheck diagnostics of the {e input}. *)
  rs_predicted : float option;
      (** Predicted cycles; [None] without a profile, or when the program
          has no kernel with a device launch site to model. *)
}

type t

(** [create ()] — an engine with a 64 MiB LRU budget split over
    {!Lru.create}'s default shards. *)
val create : unit -> t

(** [compile t rq] — one job. [Error diag] carries the same one-line
    rendering {!Errors.render} gives the [dpoptc] CLI; internal errors
    re-raise. Thread-safe. *)
val compile : t -> request -> (response, string) result

(** [compile_batch ?pool t rqs] — the batch, results in request order
    (deterministic under {!Harness.Pool.run}); sequential without a
    pool. *)
val compile_batch :
  ?pool:Harness.Pool.t -> t -> request list -> (response, string) result list

val metrics : t -> Metrics.snapshot
val cache_stats : t -> Lru.stats
