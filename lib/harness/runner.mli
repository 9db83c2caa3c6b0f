(** One-experiment runner: builds a simulator + topology + engine from a
    config, runs warm-up and measurement windows, and extracts the
    numbers the figures report. *)

type result = {
  system : Massbft.Config.system;
  workload : Massbft_workload.Workload.kind;
  throughput_ktps : float;  (** committed transactions per second / 1000 *)
  mean_latency_ms : float;
  p99_latency_ms : float;
  commit_ratio : float;  (** Aria committed / (committed + conflicted) *)
  entries_executed : int;
  wan_mb : float;  (** during the measurement window *)
  lan_mb : float;
  wan_mb_per_entry : float;
  rate_series : (float * float) list;  (** (second, committed tps) *)
  latency_series : (float * float) list;  (** (second, mean latency s) *)
  phases_ms : (string * float) list;  (** Figure 11 breakdown *)
  per_group_ktps : float list;  (** throughput split by proposing group *)
  leader_wan_busy : float list;
      (** per-group leader WAN-uplink bulk busy fraction, averaged over
          the measurement window; [[]] when no sampler was passed *)
  leader_cpu_util : float list;
      (** per-group leader CPU utilization, same window; [[]] without a
          sampler *)
  binding_resource : string option;
      (** {!Massbft_obs.Saturation.binding}'s verdict (e.g.
          ["g0/n0 wan_up"]); [None] without a sampler *)
}

val run :
  ?duration:float ->
  ?warmup:float ->
  ?trace:Massbft_trace.Trace.t ->
  ?obs:Massbft_obs.Sampler.t ->
  ?prof:Massbft_prof.Prof.t ->
  ?on_engine:(Massbft.Engine.t -> Massbft_sim.Sim.t -> Massbft_sim.Topology.t -> unit) ->
  ?scenario:Massbft_scenario.Scenario.t ->
  ?on_reconfig:(Massbft_reconfig.Reconfig.t -> unit) ->
  ?domains:int ->
  spec:Massbft_sim.Topology.spec ->
  cfg:Massbft.Config.t ->
  unit ->
  result
(** Defaults: 4 s warm-up, 12 s measurement. [trace] is attached via
    {!Massbft.Engine.set_trace} before [Engine.start], so the sink
    observes the whole run including warm-up. [obs] must be a fresh,
    unattached sampler: the runner registers the fabric probes
    ({!Massbft_obs.Sampler.watch_topology}) and the engine's stage
    instruments ({!Massbft.Engine.set_obs}), attaches it, and resets
    its rows at the warm-up cutoff so saturation analysis covers only
    the measurement window; the utilization result fields are filled
    from it. Without [obs] nothing is scheduled and results are
    bit-identical to a build without observability. Tracing and
    metrics are independent — pass either, both, or neither.
    [on_engine] runs after [Engine.start] and before the clock moves —
    the hook for experiment-specific setup (bandwidth degradation,
    recovery schedules...). [scenario] is validated, provisioned and
    armed by {!Massbft_faults.Deployment}: faults through the injector,
    attacks through the adversary engine, membership commands through
    the reconfiguration controller, whose handle [on_reconfig] receives
    (for epoch-aware checks and join receipts). Times are absolute
    simulated seconds, so actions meant for the measurement window must
    land after [warmup]. Omitting it — or passing [[]] — provisions and
    arms nothing and the run is bit-identical to a fault-free one.
    Attacks and membership commands require [domains = 1].

    The scheduler always runs one shard per group behind the scenes;
    [domains] (default 1, clamped to the group count) selects how many
    OCaml domains pump them. [domains = 1] is the sequential merge
    driver — byte-identical to the historical single-heap runs.
    [domains > 1] drives the shards in WAN-lookahead windows
    ({!Massbft_sim.Sim.run_parallel}): committed transactions, ledgers
    and invariant verdicts match the sequential run, but event
    interleaving (hence traces, samplers and adversary interposers,
    which are rejected) and the exact traffic baseline cut may differ.
    Parallel runs force [independent_stores]. Requesting more domains
    than the host has cores prints a once-per-process warning: the
    parallel rows then time-share and measure overhead, not speedup.

    [prof] is a fresh, unattached {!Massbft_prof.Prof.t}: the runner
    attaches it before the clock moves and freezes its wall endpoint
    the moment the drive loop returns, so {!Massbft_prof.Prof.report}
    covers exactly the scheduler's own execution. Profiling hooks only
    window boundaries — no events are scheduled and no simulation
    state is read — so results (and golden fixtures) are byte-identical
    with or without it, in every run mode including [domains > 1]. *)

val run_latency_probe :
  ?duration:float ->
  ?warmup:float ->
  ?trace:Massbft_trace.Trace.t ->
  ?obs:Massbft_obs.Sampler.t ->
  ?prof:Massbft_prof.Prof.t ->
  ?on_engine:(Massbft.Engine.t -> Massbft_sim.Sim.t -> Massbft_sim.Topology.t -> unit) ->
  ?scenario:Massbft_scenario.Scenario.t ->
  ?on_reconfig:(Massbft_reconfig.Reconfig.t -> unit) ->
  ?domains:int ->
  spec:Massbft_sim.Topology.spec ->
  cfg:Massbft.Config.t ->
  unit ->
  result
(** Same cluster and system, but small batches (40 txns) and a shallow
    pipeline: the near-unloaded operating point whose mean latency
    corresponds to the latencies the paper reports next to peak
    throughput. *)

val pp_result : Format.formatter -> result -> unit
