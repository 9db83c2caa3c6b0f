module Sim = Massbft_sim.Sim
module Topology = Massbft_sim.Topology
module Engine = Massbft.Engine
module Config = Massbft.Config
module Metrics = Massbft.Metrics
module Stats = Massbft_util.Stats
module Sampler = Massbft_obs.Sampler
module Saturation = Massbft_obs.Saturation
module Deployment = Massbft_faults.Deployment
module Prof = Massbft_prof.Prof

type result = {
  system : Config.system;
  workload : Massbft_workload.Workload.kind;
  throughput_ktps : float;
  mean_latency_ms : float;
  p99_latency_ms : float;
  commit_ratio : float;
  entries_executed : int;
  wan_mb : float;
  lan_mb : float;
  wan_mb_per_entry : float;
  rate_series : (float * float) list;
  latency_series : (float * float) list;
  phases_ms : (string * float) list;
  per_group_ktps : float list;
  leader_wan_busy : float list;
  leader_cpu_util : float list;
  binding_resource : string option;
}

(* Once per process: a scaling table whose --domains exceeds the host's
   cores measures time-sharing overhead, not speedup — say so out loud
   instead of silently serializing (the BENCH host_domains field records
   the same fact in the committed artifact). *)
let warned_oversubscribed = ref false

let warn_if_oversubscribed requested =
  let host = Domain.recommended_domain_count () in
  if requested > host && not !warned_oversubscribed then begin
    warned_oversubscribed := true;
    Printf.eprintf
      "massbft: warning: %d domains requested but host reports %d core%s; \
       parallel rows will time-share, wall-clock numbers measure overhead \
       rather than speedup\n%!"
      requested host
      (if host = 1 then "" else "s")
  end

let run ?(duration = 12.0) ?(warmup = 4.0) ?trace ?obs ?prof ?on_engine
    ?(scenario = []) ?on_reconfig ?(domains = 1) ~spec ~cfg () =
  if domains > 1 then warn_if_oversubscribed domains;
  (* The sampler's registry, like the trace sink, is a single-writer
     structure: the deployment rejects it for parallel runs. *)
  let d =
    Deployment.create ?trace
      ?registry:(Option.map Sampler.registry obs)
      ~domains ~spec ~cfg scenario
  in
  let sim = d.Deployment.sim and topo = d.Deployment.topo in
  let engine = d.Deployment.engine in
  let parallel = d.Deployment.domains > 1 in
  (* The host profiler hooks the driver loops only (no events, no sim
     state), so it composes with every run mode, parallel included. *)
  (match prof with Some p -> Prof.attach p sim | None -> ());
  (match on_reconfig with Some f -> f d.Deployment.reconfig | None -> ());
  (* With no sampler, nothing below schedules a single event: the run
     is bit-identical to one without observability. *)
  (match obs with
  | Some s ->
      Sampler.watch_sim s sim;
      Sampler.watch_topology s topo;
      Engine.set_obs engine s;
      Sampler.attach s sim
  | None -> ());
  Engine.start engine;
  Engine.set_measure_from engine warmup;
  (match on_engine with Some f -> f engine sim topo | None -> ());
  (* Faults and attacks arm through the same path as the chaos fuzzer;
     an empty scenario arms nothing and the run stays bit-identical to
     a fault-free build. *)
  Deployment.arm d;
  if parallel then begin
    (* Two-phase drive: run to the warm-up cutoff, take the traffic
       baseline at the barrier (a single-threaded safe point), then run
       the measurement window. The sequential mode keeps its in-run
       event so existing byte-for-byte fixtures are untouched. *)
    let domains = d.Deployment.domains in
    Sim.run_parallel sim ~domains ~until:warmup ();
    Topology.reset_traffic_baseline topo;
    Sim.run_parallel sim ~domains ~until:(warmup +. duration) ()
  end
  else begin
    ignore
      (Sim.at sim warmup (fun () ->
           Topology.reset_traffic_baseline topo;
           (* Saturation shares cover only the measurement window. *)
           match obs with Some s -> Sampler.reset s | None -> ()));
    Sim.run sim ~until:(warmup +. duration)
  end;
  (* Freeze the profiler's wall endpoint at the moment the clock stops
     moving: metric extraction below is not scheduler time. *)
  (match prof with Some p -> Prof.finish p | None -> ());
  let m = Engine.metrics engine in
  let entries = Stats.Counter.get m.Metrics.entries_executed in
  let wan_mb = float_of_int (Engine.wan_bytes engine) /. 1e6 in
  let leader_wan_busy, leader_cpu_util, binding_resource =
    match obs with
    | None -> ([], [], None)
    | Some s ->
        let per_leader name extra =
          List.init (Topology.n_groups topo) (fun g ->
              let labels =
                [ ("group", string_of_int g); ("node", "0") ] @ extra
              in
              Option.value ~default:0.0 (Sampler.column_mean s ~name ~labels))
        in
        ( per_leader "massbft_nic_busy_fraction"
            [ ("link", "wan_up"); ("class", "bulk") ],
          per_leader "massbft_cpu_utilization" [],
          Option.map
            (fun (v : Saturation.verdict) -> v.Saturation.resource)
            (Saturation.binding s) )
  in
  {
    system = cfg.Config.system;
    workload = cfg.Config.workload;
    throughput_ktps = Metrics.throughput_tps m ~duration /. 1000.0;
    mean_latency_ms = Metrics.mean_latency_ms m;
    p99_latency_ms = Metrics.p99_latency_ms m;
    commit_ratio = Metrics.commit_ratio m;
    entries_executed = entries;
    wan_mb;
    lan_mb = float_of_int (Engine.lan_bytes engine) /. 1e6;
    wan_mb_per_entry = (if entries = 0 then 0.0 else wan_mb /. float_of_int entries);
    rate_series = Stats.Timeseries.rate_series m.Metrics.txn_rate;
    per_group_ktps =
      List.init (Topology.n_groups topo) (fun g ->
          float_of_int (Metrics.group_committed m g) /. duration /. 1000.0);
    latency_series = Stats.Timeseries.mean_series m.Metrics.latency_ts;
    phases_ms =
      [
        ("batching", 1000.0 *. Stats.Summary.mean m.Metrics.phase_batch_s);
        ("local_consensus", 1000.0 *. Stats.Summary.mean m.Metrics.phase_local_s);
        ("coding", 1000.0 *. Stats.Summary.mean m.Metrics.phase_coding_s);
        ("global_replication", 1000.0 *. Stats.Summary.mean m.Metrics.phase_global_s);
        ("ordering", 1000.0 *. Stats.Summary.mean m.Metrics.phase_order_s);
        ("execution", 1000.0 *. Stats.Summary.mean m.Metrics.phase_exec_s);
      ];
    leader_wan_busy;
    leader_cpu_util;
    binding_resource;
  }

(* A light-load run for latency reporting: small batches and a shallow
   pipeline, approximating the near-unloaded operating points at which
   the paper reports its latencies (e.g. GeoBFT's 68 ms is essentially
   the bare pipeline latency). Throughput numbers always come from a
   saturated [run]. *)
let run_latency_probe ?(duration = 6.0) ?(warmup = 2.0) ?trace ?obs ?prof
    ?on_engine ?scenario ?on_reconfig ?domains ~spec ~cfg () =
  let probe_cfg = { cfg with Config.max_batch = 40; pipeline = 2 } in
  run ~duration ~warmup ?trace ?obs ?prof ?on_engine ?scenario ?on_reconfig
    ?domains ~spec ~cfg:probe_cfg ()

let pp_result fmt r =
  Format.fprintf fmt
    "%-9s %-9s  %8.2f ktps  lat %7.1f ms (p99 %7.1f)  commit %.3f  wan %8.2f MB  entries %d"
    (Config.system_name r.system)
    (Massbft_workload.Workload.kind_name r.workload)
    r.throughput_ktps r.mean_latency_ms r.p99_latency_ms r.commit_ratio r.wan_mb
    r.entries_executed
