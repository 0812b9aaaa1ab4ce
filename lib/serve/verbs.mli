(** Shared bodies of the compute verbs (plan, measure, faultsim,
    montecarlo, schedule): each verb's computation and rendering is
    implemented once here and reused by both the msoc CLI subcommands
    and the daemon executor, so the two front ends answer
    byte-identically and a new verb is registered in one dispatch table,
    not two.

    Every body runs its computation under a [serve.execute] span and its
    rendering under [serve.serialize], so request traces attribute time
    the same way in both front ends.  Parallel verbs (faultsim, schedule)
    fan out over the supplied pool; results are bit-identical at every
    pool size.

    Each body is a pure function of the request's
    {!Protocol.cache_key}, which is what lets the daemon answer
    duplicate requests from one execution (its single-flight result
    cache) with bytes identical to a private run here. *)

val run : pool:Msoc_util.Pool.t -> Protocol.request -> string
(** Execute the request's verb and return the rendered body text.

    @raise Failure on bad request parameters (unknown topology, strategy
    or SOC name; a faultsim field out of range, named in the message).
    @raise Invalid_argument when the verb is not a compute verb
    (Metrics/Ping/Sleep read daemon state and live in the server). *)

val find :
  Protocol.verb -> (pool:Msoc_util.Pool.t -> Protocol.request -> string) option
(** The dispatch table entry for a verb, or [None] for the daemon-state
    verbs. *)

val montecarlo_canonical_seed : int
(** The study seed that request seed 0 stands for (seed 0 is "the
    canonical run" across verbs, like the nominal part in [measure]). *)
