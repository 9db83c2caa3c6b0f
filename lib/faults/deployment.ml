(* The one arming path: validate → provision → build → arm. *)

module Sim = Massbft_sim.Sim
module Topology = Massbft_sim.Topology
module Engine = Massbft.Engine
module Config = Massbft.Config
module Scenario = Massbft_scenario.Scenario
module Adversary = Massbft_adversary.Adversary
module Reconfig = Massbft_reconfig.Reconfig

type t = {
  sim : Sim.t;
  topo : Topology.t;
  engine : Engine.t;
  spec : Topology.spec;
  domains : int;
  injector : Injector.t;
  adversary : Adversary.t option;
  reconfig : Reconfig.t;
}

let effective_domains ~domains (spec : Topology.spec) =
  min domains (Array.length spec.Topology.group_sizes)

let create ?trace ?registry ?(domains = 1) ~(spec : Topology.spec)
    ~(cfg : Config.t) scenario =
  (* Each run allocates a full cluster; compact between runs so long
     sweeps and campaigns stay within memory. *)
  Gc.compact ();
  let reject what = invalid_arg ("Deployment.create: " ^ what) in
  let domains = effective_domains ~domains spec in
  let parallel = domains > 1 in
  if parallel then begin
    if trace <> None then reject "tracing requires domains = 1";
    if registry <> None then reject "a registry requires domains = 1";
    if Scenario.attacks scenario <> [] then
      reject "attacks require domains = 1";
    if Scenario.members scenario <> [] then
      reject "membership commands require domains = 1"
  end;
  (match Scenario.validate ~group_sizes:spec.Topology.group_sizes scenario with
  | Ok () -> ()
  | Error e -> reject ("bad scenario: " ^ e));
  (* Every slot the scenario will ever activate exists from the start,
     dark; without membership commands the spec comes back unchanged. *)
  let provisioned = Scenario.provision ~spec scenario in
  let spec = provisioned.Scenario.p_spec in
  (* Domains share nothing through the store: the memoized-outcome
     shortcut is a cross-shard write, so parallel runs force the
     independent-stores execution mode (semantically equivalent; see
     Config). *)
  let cfg =
    if parallel && not cfg.Config.independent_stores then
      { cfg with Config.independent_stores = true }
    else cfg
  in
  (* One shard per physical group even when running sequentially:
     [domains] only selects how many OCaml domains pump them. *)
  let sim =
    Sim.create
      ~shards:(Array.length spec.Topology.group_sizes)
      ~lookahead:(Topology.min_wan_one_way spec) ()
  in
  let topo = Topology.create sim spec in
  let engine = Engine.create sim topo cfg in
  Option.iter (Engine.set_trace engine) trace;
  let reconfig = Reconfig.arm engine ~provisioned scenario in
  let injector =
    Injector.create ?trace ?registry ~spec ~scenario engine sim topo
  in
  let adversary =
    if Scenario.attacks scenario = [] then None
    else Some (Adversary.create ?trace ?registry ~spec ~scenario engine sim)
  in
  { sim; topo; engine; spec; domains; injector; adversary; reconfig }

let arm t =
  Injector.arm t.injector;
  Option.iter Adversary.arm t.adversary
