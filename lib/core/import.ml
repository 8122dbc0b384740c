module Graph = Dfg.Graph
module Op = Dfg.Op
module Paths = Dfg.Paths
module Topo = Dfg.Topo
module Reach = Dfg.Reach
module Delay = Dfg.Delay
module Mutate = Dfg.Mutate
module Generate = Dfg.Generate
module Resources = Hard.Resources
module Schedule = Hard.Schedule
module List_sched = Hard.List_sched

(* The one clock every engine reads its deadline on: an absolute instant
   on the [Unix.gettimeofday] scale, read through [Telemetry.now_ns]. *)
let now_s () = float_of_int (Telemetry.now_ns ()) /. 1e9

let expired = function None -> false | Some d -> now_s () > d
