(** Applies the fault actions of a {!Massbft_scenario.Scenario.t} to a
    running deployment.

    Crash/recover events go through the engine (whose watchdogs own
    leader migration); link faults interpose on {!Topology.send}
    through the topology's fault hook; bandwidth/CPU degradations
    reconfigure the fabric and heal back to nominal when their window
    closes. All injections are ordinary simulator events armed up
    front, so a run replays bit-identically from the same seed and
    scenario — and without faults nothing at all is scheduled or
    installed. *)

type t

val create :
  ?trace:Massbft_trace.Trace.t ->
  ?registry:Massbft_obs.Registry.t ->
  spec:Massbft_sim.Topology.spec ->
  scenario:Massbft_scenario.Scenario.t ->
  Massbft.Engine.t ->
  Massbft_sim.Sim.t ->
  Massbft_sim.Topology.t ->
  t
(** Reads the scenario's faults; the other actions belong to the
    adversary and the reconfiguration controller. The scenario must
    pass {!Massbft_scenario.Scenario.validate} ({!Deployment.create}
    checks it). [trace] receives
    ["fault"]-category events: an instant per crash/recover, an open
    span over each windowed fault's apply→heal interval. [registry]
    receives the [massbft_faults_injected_total] counter family,
    labeled by fault kind. *)

val arm : t -> unit
(** Schedules every fault (installing the link-fault
    hook only if some link fault exists). Call after [Engine.start]
    and before running the simulation; raises on a second call. *)

val injected_total : t -> int
(** Fault events applied so far. *)
