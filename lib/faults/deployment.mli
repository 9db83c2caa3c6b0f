(** One deployment armed with one scenario: the validate → provision →
    build → arm path shared by {!Massbft_harness.Runner.run} and
    {!Chaos.run_schedule}.

    The scenario is validated against the cluster [spec] (membership
    commands in time order, faults and attacks against the provisioned
    slots), the topology is expanded by
    {!Massbft_scenario.Scenario.provision}, and the simulator, fabric
    and engine are built from the expanded spec with one scheduler
    shard per physical group. An empty scenario provisions, installs
    and schedules nothing: the run is byte-identical to one without the
    fault, adversary and reconfiguration layers. *)

type t = {
  sim : Massbft_sim.Sim.t;
  topo : Massbft_sim.Topology.t;
  engine : Massbft.Engine.t;
  spec : Massbft_sim.Topology.spec;  (** the provisioned spec *)
  domains : int;  (** {!effective_domains} *)
  injector : Injector.t;
  adversary : Massbft_adversary.Adversary.t option;
      (** [None] without attacks *)
  reconfig : Massbft_reconfig.Reconfig.t;
}

val effective_domains : domains:int -> Massbft_sim.Topology.spec -> int
(** The domain count {!create} runs [spec] with: [domains] clamped to
    the cluster's group count (one scheduler shard per group). A run is
    parallel when this exceeds 1. *)

val create :
  ?trace:Massbft_trace.Trace.t ->
  ?registry:Massbft_obs.Registry.t ->
  ?domains:int ->
  spec:Massbft_sim.Topology.spec ->
  cfg:Massbft.Config.t ->
  Massbft_scenario.Scenario.t ->
  t
(** Validates and provisions the scenario, builds the deployment
    ([trace] attached to the engine), arms the reconfiguration
    controller — its dark slots must be crashed before [Engine.start] —
    and creates the injector and adversary over [trace] and [registry].
    [domains] (default 1) > 1 forces [independent_stores] and rejects
    [trace], [registry], attacks and membership commands: single-writer
    structures the parallel driver cannot serialize. Raises
    [Invalid_argument] on an invalid scenario or a rejected
    combination. *)

val arm : t -> unit
(** Arms the injector and the adversary. Call after [Engine.start] and
    before the clock moves. *)
