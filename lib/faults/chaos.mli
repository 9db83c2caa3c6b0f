(** Seeded chaos fuzzer: random scenario generation, campaign driving,
    and delta-debugging shrink of failing scenarios.

    Everything is deterministic in the seed: the same seed against the
    same config and cluster spec generates a byte-identical scenario and
    a result-identical run, so a campaign failure is reproducible as
    [massbft drill --seed S --system SYS] (see {!repro_line}).

    The generator is system-aware: group crashes, WAN drops and
    partitions are only drawn for systems whose global phase retransmits
    (per-group Raft); it crashes at most f nodes per group and heals
    every fault it injects, so a generated scenario is always within the
    system's claimed fault tolerance and any invariant violation is a
    real bug. *)

val gen_schedule :
  Massbft_util.Rng.t ->
  cfg:Massbft.Config.t ->
  spec:Massbft_sim.Topology.spec ->
  duration:float ->
  Massbft_scenario.Scenario.t
(** Draw 2–6 faults landing in [0.5, 0.4*duration], all healed within a
    few seconds after. Times are millisecond-quantized so the text form
    round-trips exactly. *)

val gen_adversary :
  Massbft_util.Rng.t ->
  cfg:Massbft.Config.t ->
  spec:Massbft_sim.Topology.spec ->
  duration:float ->
  strategy:string ->
  Massbft_scenario.Scenario.t
(** Draw a concrete timed attack for one named strategy (a member of
    {!Massbft_scenario.Scenario.attack_names}), plus any trigger faults
    the strategy needs to bite (split-votes rides on a leader
    crash+recover). Attacks compromise exactly one node per target
    group — within every group's tolerance — so a safety violation
    under a generated attack is a real bug. Raises [Invalid_argument]
    on an unknown strategy name. *)

val reconfig_kinds : string list
(** The reconfiguration campaign axis: ["node-join"], ["node-leave"],
    ["leader-move"], ["group-add"], ["group-remove"]. *)

val gen_reconfig :
  Massbft_util.Rng.t ->
  cfg:Massbft.Config.t ->
  spec:Massbft_sim.Topology.spec ->
  duration:float ->
  kind:string ->
  Massbft_scenario.Scenario.t
(** Draw one membership change of the named kind plus its paired
    chaos: joins get a 50% chance of a mid-transfer crash of the joining
    hardware (exercising the fetch lane's stall watchdog, donor rotation
    and backoff), other kinds get light degradations. Fault
    addresses may refer to slots of the *provisioned* topology, which
    {!Massbft_scenario.Scenario.validate} accepts. Raises
    [Invalid_argument] on an unknown kind, or when the cluster cannot
    host the scenario (node-leave needs a group of 5, group-remove
    needs 3 groups). *)

type outcome = {
  scenario : Massbft_scenario.Scenario.t;
  violations : Invariants.violation list;
  unaccountable : Invariants.violation list;
      (** violations not backed by a verified conflicting-signed pair
          (without an adversary: all of them) *)
  evidence : Massbft_adversary.Evidence.pair list;
      (** every conflict the accountability log caught, violations or
          not *)
  executed : int;  (** entries executed across all groups *)
  injected : int;  (** fault events applied *)
  adv_injected : int;  (** messages the adversary interfered with *)
  epochs : int;  (** reconfiguration boundaries executed *)
  transfer_retries : int;  (** state-transfer stall recoveries *)
  ran_until : float;  (** simulated seconds *)
}

val run_schedule :
  ?duration:float ->
  ?liveness_bound_s:float ->
  ?trace:Massbft_trace.Trace.t ->
  ?registry:Massbft_obs.Registry.t ->
  ?domains:int ->
  spec:Massbft_sim.Topology.spec ->
  cfg:Massbft.Config.t ->
  Massbft_scenario.Scenario.t ->
  outcome
(** Build a fresh deployment armed with the scenario
    ({!Deployment.create}) plus the invariant checkers, and run for
    [duration] (default 10.0) simulated seconds — extended past the
    scenario's {!Massbft_scenario.Scenario.heal_time} when needed so
    the liveness watchdog gets a verdict. [liveness_bound_s] defaults to
    [max 3.0 (4 * election_timeout_s)]: post-heal recovery from a group
    outage legitimately spans several election timeouts (takeover,
    catch-up, transfer-back).

    [domains] (default 1, clamped to the group count) selects how many
    OCaml domains pump the per-group scheduler shards. Parallel runs
    poll the invariant checkers at the lookahead-window barriers
    instead of via in-run events; see {!Deployment.create} for what
    they reject. The verdicts match a sequential run of the same
    scenario.

    The reconfiguration controller's epoch-aware end-of-run checks
    merge into [violations]. *)

val failed : outcome -> bool

val accountable : outcome -> bool
(** No unaccountable violations: the run either upheld every invariant
    or pinned each violation on a provably-equivocating node via a
    verified conflicting-signed-message pair. The CI pass criterion for
    adversary campaigns. *)

val shrink : fails:('a list -> bool) -> 'a list -> 'a list
(** ddmin: a 1-minimal-ish sub-list still satisfying [fails] (dropping
    any tried chunk makes it pass). Returns the input unchanged if it
    does not fail. *)

type drill_result = {
  seed : int64;
  system : Massbft.Config.system;
  strategy : string option;  (** adversary axis point, if any *)
  reconfig_kind : string option;  (** reconfiguration axis point, if any *)
  outcome : outcome;
  shrunk : Massbft_scenario.Scenario.t option;
      (** minimal failing scenario, when the original failed: attacks
          ddmin-shrunk first, then faults, membership commands kept *)
}

val drill :
  ?duration:float ->
  ?liveness_bound_s:float ->
  ?trace:Massbft_trace.Trace.t ->
  ?registry:Massbft_obs.Registry.t ->
  ?shrink_failures:bool ->
  ?adversary:string ->
  ?reconfig:string ->
  ?domains:int ->
  spec:Massbft_sim.Topology.spec ->
  cfg:Massbft.Config.t ->
  seed:int64 ->
  unit ->
  drill_result
(** One fuzzing round: generate from [seed], run, and (by default)
    shrink on failure. With [adversary] (a strategy name) the round
    runs that strategy's generated attack plus its trigger faults
    instead of random faults; on failure both the attacks and the
    faults are ddmin-shrunk. With [reconfig] (a member of
    {!reconfig_kinds}) the round runs that membership change plus its
    paired chaos; the membership commands are the scenario's identity
    and are never shrunk. Both together drill Byzantine behaviour
    during a membership change. *)

type campaign_result = {
  total : int;
  results : drill_result list;  (** in run order *)
  failures : drill_result list;
}

val campaign :
  ?duration:float ->
  ?liveness_bound_s:float ->
  ?shrink_failures:bool ->
  ?systems:Massbft.Config.system list ->
  ?adversaries:string list ->
  ?reconfigs:string list ->
  ?on_run:(drill_result -> unit) ->
  ?domains:int ->
  spec:Massbft_sim.Topology.spec ->
  cfg:Massbft.Config.t ->
  seeds:int64 list ->
  unit ->
  campaign_result
(** Every system (default: all seven) times every seed — times every
    [adversaries] strategy and every [reconfigs] kind when those axes
    are given, overriding [cfg]'s system per run. [shrink_failures]
    defaults to false here — campaigns report; {!drill} reproduces and
    shrinks. *)

val repro_line :
  ?adversary:string ->
  ?reconfig:string ->
  ?domains:int ->
  seed:int64 ->
  system:Massbft.Config.system ->
  unit ->
  string
(** The one-liner that reproduces a campaign failure, carrying every
    axis the failing run used ([--domains], [--reconfig],
    [--adversary]). *)

val pp_drill : Format.formatter -> drill_result -> unit
