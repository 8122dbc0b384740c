(** NDJSON batch driver: request lines in, response lines out, fanned
    over the worker pool.

    Deterministic by construction: parsing, preparation and
    fingerprinting run on the pool but write nothing to the cache and
    are stored by input position, identical requests are then deduped
    onto one scheduler run in input order, trace ids are positional
    ([b-000001], …) and responses come back in input order — so the
    output is byte-identical for any [jobs], given the same entry cache
    state. Blank lines are skipped without output. *)

type stats = {
  requests : int;
  hits : int;  (** responses answered from cache (or a batch leader) *)
  degraded : int;
  errors : int;
  wall_s : float;
}

val run_lines :
  ?pool:Pool.t -> Service.t -> jobs:int -> string list -> string list * stats
(** [pool] lends an existing worker pool for both the prepare pass and
    the cold fan-out (it is not shut down afterwards); by default a
    private [jobs]-wide pool is created when first needed and drained
    per call. At [jobs = 1] the prepare pass runs on the calling
    thread. The
    response bytes are identical either way. An exception escaping
    prepare is re-raised from the earliest line that raised it.
    @raise Invalid_argument on non-positive [jobs]. *)

val run_channels : Service.t -> jobs:int -> in_channel -> out_channel -> stats
(** Read all request lines from [ic], write response lines to [oc]
    (flushed once at the end). *)

val summary : stats -> string
(** One human line, e.g.
    ["batch: 8 requests, 8 cache hits (100%), 0 degraded, 0 errors, …"]. *)
