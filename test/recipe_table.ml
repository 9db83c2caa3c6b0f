(* The one table-driven determinism check of [Chaos.generate]: every
   recipe is the fault mix or one strategy, optionally combined with
   one membership kind. test_faults checks the recipes without a
   membership change, test_reconfig the ones with; together they cover
   the table once. 5-node groups and 3 groups host every kind
   (node-leave needs n >= 5, group-remove 3 groups). *)

module Topology = Massbft_sim.Topology
module Config = Massbft.Config
module Rng = Massbft_util.Rng
module Clusters = Massbft_harness.Clusters
module S = Massbft_scenario.Scenario
module Chaos = Massbft_faults.Chaos

let every_recipe =
  let attacks = None :: List.map Option.some S.attack_names in
  let kinds = None :: List.map (fun (_, m) -> Some m) Chaos.memberships in
  List.concat_map
    (fun membership ->
      List.map (fun attack -> { Chaos.attack; membership }) attacks)
    kinds

(* Same seed gives the same text, another seed another text, and the
   text validates. *)
let check_deterministic recipes =
  let spec = Clusters.nationwide ~nodes_per_group:5 ~groups:3 () in
  List.iter
    (fun (recipe : Chaos.recipe) ->
      let name =
        Printf.sprintf "%s/%s"
          (Option.value ~default:"faults" recipe.attack)
          (Option.fold ~none:"-" ~some:Chaos.membership_name recipe.membership)
      in
      let gen seed =
        S.to_string
          (Chaos.generate (Rng.create seed) ~spec ~duration:8.0
             ~system:Config.Massbft recipe)
      in
      let text = gen 42L in
      Alcotest.(check string) (name ^ ": same seed, same scenario") text (gen 42L);
      Alcotest.(check bool)
        (name ^ ": another seed, another scenario")
        true
        (not (String.equal text (gen 43L)));
      Alcotest.(check bool)
        (name ^ ": the scenario validates")
        true
        (S.validate ~group_sizes:spec.Topology.group_sizes (S.of_string text)
        = Ok ()))
    recipes
