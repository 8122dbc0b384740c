(* A gauge is one mutable float: a point-in-time level (queue depth,
   in-flight requests, cache occupancy) that goes up and down, as
   opposed to the monotone Counters. A single word store/load per
   operation — writers that need coordination bring their own lock. *)

type t = { mutable value : float }

let create ?(initial = 0.0) () = { value = initial }
let set g v = g.value <- v
let set_int g v = g.value <- float_of_int v
let get g = g.value
let add g d = g.value <- g.value +. d
