(** Sampled point-in-time values (queue depth, in-flight requests,
    cache occupancy): one mutable float that goes up and down, where
    {!Counters} only go up. Writers needing coordination bring their
    own lock. *)

type t

val create : ?initial:float -> unit -> t
val set : t -> float -> unit
val set_int : t -> int -> unit
val get : t -> float
val add : t -> float -> unit
