(** Seeded chaos fuzzer: random scenario generation, campaign driving,
    and delta-debugging shrink of failing scenarios.

    Everything is deterministic in the seed: the same seed, recipe,
    system and cluster spec generate a byte-identical scenario and a
    result-identical run, so a campaign failure reproduces from its
    [massbft drill --seed S ...] line.

    A generated scenario crashes at most f nodes per group, compromises
    at most one node per attacked group, and heals every fault it
    injects: it is always within the system's claimed fault tolerance,
    so any invariant violation is a real bug. *)

(** {1 Generation} *)

type membership = Node_join | Node_leave | Leader_move | Group_add | Group_remove

val memberships : (string * membership) list
(** Campaign order and CLI names: ["node-join"], ["node-leave"],
    ["leader-move"], ["group-add"], ["group-remove"]. *)

val membership_name : membership -> string

type recipe = {
  attack : string option;
      (** a member of {!Massbft_scenario.Scenario.attack_names} *)
  membership : membership option;
}
(** What one generated scenario drills. A recipe naming neither draws
    the benign fault mix. *)

val benign : recipe
(** [{ attack = None; membership = None }]. *)

val generate :
  Massbft_util.Rng.t ->
  spec:Massbft_sim.Topology.spec ->
  duration:float ->
  system:Massbft.Config.system ->
  recipe ->
  Massbft_scenario.Scenario.t
(** Draw one time-sorted scenario. Times are millisecond-quantized so
    the text form round-trips exactly.

    - The benign fault mix is 2–6 faults landing between 0.5 s and
      0.4 × duration, all healed within a few seconds after.
      Group crashes, WAN drops and partitions are only drawn for
      systems whose global phase retransmits (per-group Raft).
    - A membership change lands between 1 s and 0.35 × duration, with
      its paired chaos: joins get a 50% chance of a mid-transfer crash of
      the joining hardware (exercising the fetch lane's stall watchdog,
      donor rotation and backoff), other kinds light degradations.
      Fault addresses may refer to slots of the {e provisioned}
      topology, which {!Massbft_scenario.Scenario.validate} accepts.
    - An attack compromises exactly one node of one group for one
      strategy window, plus any trigger faults the strategy needs to
      bite (split-votes rides on a leader crash+recover). It replaces
      the fault mix, so attack windows never compound with unrelated
      faults.

    Raises [Invalid_argument] on an unknown strategy, or when the
    cluster cannot host the membership change (node-leave needs a group
    of 5, group-remove needs 3 groups). *)

(** {1 Running} *)

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
    verified conflicting-signed-message pair. The drill's pass
    criterion; a run without an adversary has no evidence, so there it
    means not {!failed}. *)

val shrink : fails:('a list -> bool) -> 'a list -> 'a list
(** ddmin: a 1-minimal-ish sub-list still satisfying [fails] (dropping
    any tried chunk makes it pass). Returns the input unchanged if it
    does not fail. *)

type drill_result = {
  seed : int64;
  system : Massbft.Config.system;
  recipe : recipe;
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
  ?recipe:recipe ->
  ?domains:int ->
  spec:Massbft_sim.Topology.spec ->
  cfg:Massbft.Config.t ->
  seed:int64 ->
  unit ->
  drill_result
(** One fuzzing round: {!generate} from [seed] and [recipe] (default
    {!benign}), run, and (by default) shrink on failure: the attacks
    first, then the faults. The membership commands are the scenario's
    identity and are never shrunk. *)

type campaign_result = {
  total : int;
  results : drill_result list;  (** in run order *)
  failures : drill_result list;
}

val campaign :
  ?duration:float ->
  ?liveness_bound_s:float ->
  ?trace:Massbft_trace.Trace.t ->
  ?shrink_failures:bool ->
  ?systems:Massbft.Config.system list ->
  ?recipes:recipe list ->
  ?on_run:(drill_result -> unit) ->
  ?domains:int ->
  spec:Massbft_sim.Topology.spec ->
  cfg:Massbft.Config.t ->
  seeds:int64 list ->
  unit ->
  campaign_result
(** Every system (default: all seven) times every recipe (default:
    [[benign]]) times every seed, in that nesting order, overriding
    [cfg]'s system per run. [trace] records every run into one sink.
    [shrink_failures] defaults to false here — campaigns report;
    {!drill} reproduces and shrinks. *)

val pp_drill : Format.formatter -> drill_result -> unit
