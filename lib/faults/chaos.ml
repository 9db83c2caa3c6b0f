(* The seeded chaos fuzzer: generate a random-but-valid scenario from
   an explicit Rng and a recipe, run it against a deployment with the
   invariant checkers attached, and — when a scenario kills an
   invariant — shrink it by delta-debugging bisection to a minimal
   reproducer. A generated scenario never crashes more than f nodes of
   any group and never leaves a fault unhealed, so it is one the system
   under test claims to tolerate, and any invariant violation is a real
   bug. *)

module Sim = Massbft_sim.Sim
module Topology = Massbft_sim.Topology
module Engine = Massbft.Engine
module Config = Massbft.Config
module Trace = Massbft_trace.Trace
module Registry = Massbft_obs.Registry
module Rng = Massbft_util.Rng
module Intmath = Massbft_util.Intmath
module S = Massbft_scenario.Scenario
module Adversary = Massbft_adversary.Adversary
module Evidence = Massbft_adversary.Evidence
module Reconfig = Massbft_reconfig.Reconfig

(* ------------------------------------------------------------------ *)
(* Scenario generation                                                 *)
(* ------------------------------------------------------------------ *)

type membership = Node_join | Node_leave | Leader_move | Group_add | Group_remove

let memberships =
  [
    ("node-join", Node_join);
    ("node-leave", Node_leave);
    ("leader-move", Leader_move);
    ("group-add", Group_add);
    ("group-remove", Group_remove);
  ]

let membership_name m = fst (List.find (fun (_, m') -> m' = m) memberships)

type recipe = { attack : string option; membership : membership option }

let benign = { attack = None; membership = None }

(* What every vocabulary draws from: the seeded stream, the cluster
   shape and the run length. *)
type ctx = { rng : Rng.t; gs : int array; ng : int; duration : float }

(* Millisecond quantization keeps the text form round-trippable. *)
let q t = Float.round (t *. 1000.0) /. 1000.0

let within d lo hi = q (lo +. Rng.float d.rng (hi -. lo))

(* Faults and attacks land in [0.5, 0.4 * duration]; membership changes
   in [1.0, 0.35 * duration], once the cluster has settled. *)
let fault_time d = within d 0.5 (Float.max 1.0 (0.4 *. d.duration))
let member_time d = within d 1.0 (Float.max 1.5 (0.35 *. d.duration))
let pick_group d = Rng.int d.rng d.ng
let pick d l = List.nth l (Rng.int d.rng (List.length l))
let follower d g = { Topology.g; n = 1 + Rng.int d.rng (d.gs.(g) - 1) }
let fault at f = { S.at; action = S.Fault f }

(* The benign fault mix: 2-6 faults, each healed within a few seconds.
   Group crashes, WAN message drops and partitions are only drawn for
   systems whose global phase can repair arbitrary loss (per-group
   Raft: anti-entropy re-ships, takeover + transfer-back per §V-C).
   GeoBFT has no global retransmission by design (Table I: it cannot
   survive a group crash), and Steward's single log stalls with its
   proposer, so for those systems the mix sticks to recoverable faults:
   delays, duplication, degradations, gray CPUs, and follower
   crashes. *)
let draw_faults d ~system =
  let gs = d.gs and ng = d.ng and rng = d.rng in
  let heavy = Config.global_of system = Config.Per_group_raft && ng >= 3 in
  let pick_link () =
    let s = pick_group d in
    (s, (s + 1 + Rng.int rng (ng - 1)) mod ng)
  in
  let cls () =
    match Rng.int rng 3 with 0 -> S.Any | 1 -> S.Bulk | _ -> S.Control
  in
  (* Never more than f concurrently-faulty nodes per group; at most one
     heavy fault (leader crash / group crash / partition) per schedule
     so recoveries never compound. *)
  let crashed = Array.make ng [] in
  let heavy_used = ref false in
  let events = ref [] in
  let add at f = events := fault at f :: !events in
  let gen_slow_cpu () =
    let g = pick_group d in
    let n = Rng.int rng gs.(g) in
    add (fault_time d)
      (S.Slow_cpu
         {
           addr = { Topology.g; n };
           factor = float_of_int (2 + Rng.int rng 6);
           for_s = within d 1.0 3.0;
         })
  in
  let n_faults = 2 + Rng.int rng 4 in
  for _ = 1 to n_faults do
    match Rng.int rng (if heavy then 9 else 6) with
    | 0 -> gen_slow_cpu ()
    | 1 ->
        add (fault_time d)
          (S.Wan_degrade
             {
               g = pick_group d;
               factor = float_of_int (5 + Rng.int rng 10) /. 20.0;
               for_s = within d 1.0 3.0;
             })
    | 2 ->
        add (fault_time d)
          (S.Lan_degrade
             {
               g = pick_group d;
               factor = float_of_int (5 + Rng.int rng 10) /. 20.0;
               for_s = within d 1.0 2.0;
             })
    | 3 ->
        let src_g, dst_g = pick_link () in
        add (fault_time d)
          (S.Link_delay
             {
               src_g;
               dst_g;
               add_s = float_of_int (20 + Rng.int rng 80) /. 1000.0;
               cls = cls ();
               for_s = within d 1.0 2.0;
             })
    | 4 ->
        let src_g, dst_g = pick_link () in
        add (fault_time d)
          (S.Link_dup
             {
               src_g;
               dst_g;
               copies = 1 + Rng.int rng 2;
               every = 1 + Rng.int rng 3;
               cls = cls ();
               for_s = within d 1.0 2.0;
             })
    | 5 ->
        (* Follower crash + recover: allowed for every system. *)
        let g = pick_group d in
        let f = Intmath.pbft_f gs.(g) in
        let candidates =
          List.filter
            (fun n -> not (List.mem n crashed.(g)))
            (List.init (gs.(g) - 1) (fun i -> i + 1))
        in
        if List.length crashed.(g) < f && candidates <> [] then begin
          let n = pick d candidates in
          crashed.(g) <- n :: crashed.(g);
          let at = fault_time d in
          add at (S.Crash_node { Topology.g; n });
          add (q (at +. within d 1.0 2.0)) (S.Recover_node { Topology.g; n })
        end
        else gen_slow_cpu ()
    | 6 ->
        (* Acting-leader crash: exercises the PBFT view change and the
           engine's leader migration. *)
        let g = pick_group d in
        if
          (not !heavy_used)
          && crashed.(g) = []
          && Intmath.pbft_f gs.(g) >= 1
        then begin
          heavy_used := true;
          crashed.(g) <- [ 0 ];
          let at = fault_time d in
          add at (S.Crash_node { Topology.g; n = 0 });
          add
            (q (at +. within d 2.0 3.5))
            (S.Recover_node { Topology.g; n = 0 })
        end
        else gen_slow_cpu ()
    | 7 ->
        let g = pick_group d in
        if (not !heavy_used) && crashed.(g) = [] then begin
          heavy_used := true;
          crashed.(g) <- List.init gs.(g) (fun n -> n);
          let at = fault_time d in
          add at (S.Crash_group g);
          add (q (at +. within d 1.0 2.0)) (S.Recover_group g)
        end
        else gen_slow_cpu ()
    | _ ->
        if not !heavy_used then begin
          heavy_used := true;
          if Rng.bool rng then
            add (fault_time d)
              (S.Partition
                 { groups = [ pick_group d ]; for_s = within d 0.5 1.5 })
          else
            let src_g, dst_g = pick_link () in
            add (fault_time d)
              (S.Link_drop
                 {
                   src_g;
                   dst_g;
                   every = 1 + Rng.int rng 4;
                   cls = cls ();
                   for_s = within d 0.5 1.5;
                 })
        end
        else gen_slow_cpu ()
  done;
  List.rev !events

(* One named strategy drawn into a concrete timed attack, with any
   trigger faults the strategy needs to bite (split-votes only matters
   while a view change is in flight, so it rides on a leader
   crash+recover). Each attack compromises exactly one node per target
   group — within every group's f >= 1 tolerance.
   Liveness inside the attack window is not promised (a Byzantine
   leader may stall its group); windows always close, and the liveness
   watchdog only judges the post-heal run. *)
let draw_attack d strategy =
  let rng = d.rng in
  let g = pick_group d in
  let at = fault_time d in
  let for_s = within d 1.5 3.0 in
  let attack strategy = [ { S.at; action = S.Attack strategy } ] in
  match strategy with
  | "equivocate" -> attack (S.Equivocate { target = S.Leader g; for_s })
  | "equivocate-raft" ->
      attack (S.Equivocate_raft { target = S.Leader g; for_s })
  | "withhold" -> attack (S.Withhold { target = S.Leader g; for_s })
  | "split-votes" ->
      (* The compromised follower forks its view-change votes across
         the recovery the leader crash forces. *)
      let n = follower d g in
      attack (S.Split_votes { target = S.Node n; for_s })
      @ [
          fault at (S.Crash_node { Topology.g; n = 0 });
          fault
            (q (at +. within d 1.5 2.5))
            (S.Recover_node { Topology.g; n = 0 });
        ]
  | "replay" ->
      attack
        (S.Replay
           {
             target = S.Leader g;
             copies = 1 + Rng.int rng 2;
             gap_s = q (float_of_int (50 + Rng.int rng 200) /. 1000.0);
             for_s;
           })
  | "delay-valid" ->
      attack
        (S.Delay_valid
           {
             target = S.Node (follower d g);
             add_s = q (float_of_int (50 + Rng.int rng 250) /. 1000.0);
             for_s;
           })
  | "tamper" -> attack (S.Tamper { target = S.Node (follower d g); for_s })
  | s -> invalid_arg ("Chaos.generate: unknown strategy " ^ s)

(* One membership change drawn into a timed command, plus the chaos
   that makes it a drill rather than a demo: joins get a 50% chance of
   a mid-transfer crash of the joining hardware itself (exercising the
   fetch lane's stall watchdog, donor rotation and capped backoff), the
   other kinds get light degradations. The join-crash addresses refer
   to slots of the *provisioned* topology (the joining node is
   [gs.(g)], the joining group is [ng]), which is what
   [Scenario.validate] checks them against. *)
let draw_membership d kind =
  let gs = d.gs and ng = d.ng and rng = d.rng in
  let at = member_time d in
  let g = pick_group d in
  let mid_transfer_crash addr =
    if Rng.bool rng then
      [
        fault (q (at +. within d 0.2 0.7)) (S.Crash_node addr);
        fault (q (at +. within d 1.2 2.2)) (S.Recover_node addr);
      ]
    else []
  in
  let light_degrade target_g =
    if Rng.bool rng then
      [
        fault
          (q (at +. within d 0.0 0.5))
          (S.Wan_degrade
             {
               g = target_g;
               factor = float_of_int (8 + Rng.int rng 8) /. 20.0;
               for_s = within d 1.0 2.0;
             });
      ]
    else []
  in
  let member cmd = { S.at; action = S.Member cmd } in
  match kind with
  | Node_join ->
      member (S.Add_node g) :: mid_transfer_crash { Topology.g; n = gs.(g) }
  | Node_leave -> (
      (* The validation floor: a group must keep n >= 4 after the
         retirement. *)
      match List.filter (fun g -> gs.(g) >= 5) (List.init ng Fun.id) with
      | [] ->
          invalid_arg "Chaos.generate: node-leave needs a group of >= 5 nodes"
      | cs ->
          let g = pick d cs in
          member (S.Remove_node g) :: light_degrade g)
  | Leader_move ->
      let addr = follower d g in
      member (S.Move_leader addr) :: light_degrade g
  | Group_add ->
      let size = 4 + Rng.int rng 2 in
      member (S.Add_group { size })
      :: mid_transfer_crash { Topology.g = ng; n = 0 }
  | Group_remove ->
      if ng < 3 then
        invalid_arg "Chaos.generate: group-remove needs >= 3 groups"
      else
        let g = 1 + Rng.int rng (ng - 1) in
        member (S.Remove_group g) :: light_degrade g

(* A membership change is drawn first, with its own paired chaos. An
   attack then brings only its trigger faults, so the attack window
   never compounds with unrelated random faults into a scenario beyond
   the system's claimed tolerance; only a recipe naming neither draws
   the fault mix. Every fault heals and none exceeds a group's
   tolerance, so any invariant violation is a real bug. *)
let generate rng ~(spec : Topology.spec) ~duration ~system recipe =
  let gs = spec.Topology.group_sizes in
  let d = { rng; gs; ng = Array.length gs; duration } in
  let members =
    Option.fold ~none:[] ~some:(draw_membership d) recipe.membership
  in
  S.sorted
    (members
    @
    match recipe with
    | { attack = Some s; _ } -> draw_attack d s
    | { attack = None; membership = None } -> draw_faults d ~system
    | { attack = None; membership = Some _ } -> [])

(* ------------------------------------------------------------------ *)
(* Running one scenario                                                *)
(* ------------------------------------------------------------------ *)

type outcome = {
  scenario : S.t;
  violations : Invariants.violation list;
  unaccountable : Invariants.violation list;
      (* violations not backed by a verified conflicting-signed pair *)
  evidence : Evidence.pair list;
  executed : int;
  injected : int;
  adv_injected : int;
  epochs : int;  (* reconfiguration boundaries executed *)
  transfer_retries : int;  (* state-transfer stall recoveries *)
  ran_until : float;
}

let run_schedule ?(duration = 10.0) ?liveness_bound_s ?trace ?registry
    ?domains ~(spec : Topology.spec) ~(cfg : Config.t) scenario =
  (* Recovering from a healed group crash legitimately spans several
     election timeouts (takeover, catch-up, transfer-back), so the
     default stall bound scales with the configured timeout rather than
     asserting a fixed number. *)
  let liveness_bound_s =
    match liveness_bound_s with
    | Some b -> b
    | None -> Float.max 3.0 (4.0 *. cfg.Config.election_timeout_s)
  in
  let d = Deployment.create ?trace ?registry ?domains ~spec ~cfg scenario in
  let engine = d.Deployment.engine and sim = d.Deployment.sim in
  let adv = d.Deployment.adversary in
  let heal = S.heal_time scenario in
  let inv =
    match adv with
    | None -> Invariants.create ~liveness_bound_s ~heal_by:heal engine sim
    | Some a ->
        Invariants.create ~liveness_bound_s ~heal_by:heal
          ~compromised:(Adversary.is_compromised a)
          ~evidence:(Adversary.evidence a) engine sim
  in
  Engine.start engine;
  Deployment.arm d;
  (* Run past the heal point far enough for the liveness watchdog to
     have a verdict. *)
  let until =
    if Float.is_finite heal then
      Float.max duration (heal +. liveness_bound_s +. 1.5)
    else duration
  in
  if d.Deployment.domains > 1 then begin
    (* No periodic checker events inside the run: the checkers read
       cross-shard engine state, so they poll at the lookahead-window
       barriers instead — the driver's single-threaded safe points. *)
    let period = 0.25 in
    let last = ref neg_infinity in
    Sim.run_parallel sim ~domains:d.Deployment.domains ~until
      ~on_window:(fun w ->
        if w -. !last >= period then begin
          last := w;
          Invariants.check_now inv
        end)
      ()
  end
  else begin
    Invariants.attach inv;
    Sim.run sim ~until
  end;
  Invariants.finalize inv;
  (* The controller's epoch-aware end-of-run checks (boundary agreement
     across leaders, on-chain config records, join state-transfer
     equality) merge into the same violation stream the checkers
     feed. *)
  let controller = d.Deployment.reconfig in
  let reconfig_violations =
    List.map
      (fun (check, detail) ->
        { Invariants.at = Sim.now sim; check; detail; evidence = None })
      (Reconfig.final_violations controller)
  in
  let violations = Invariants.violations inv @ reconfig_violations in
  let unaccountable =
    (* A violation is accounted for when it carries a conflict pair
       that verifies against the run's evidence log — the adversary was
       caught red-handed, not the protocol silently broken. Without an
       adversary every violation is unaccountable. *)
    List.filter
      (fun (v : Invariants.violation) ->
        match (v.Invariants.evidence, adv) with
        | Some p, Some a -> not (Evidence.verify (Adversary.evidence a) p)
        | _ -> true)
      violations
  in
  {
    scenario;
    violations;
    unaccountable;
    evidence =
      (match adv with
      | Some a -> Evidence.conflicts (Adversary.evidence a)
      | None -> []);
    executed = Engine.entries_executed_total engine;
    injected = Injector.injected_total d.Deployment.injector;
    adv_injected =
      (match adv with Some a -> Adversary.injected_total a | None -> 0);
    epochs = Reconfig.epochs controller;
    transfer_retries = Reconfig.transfer_retries controller;
    ran_until = until;
  }

let failed outcome = outcome.violations <> []

(* The drill's pass criterion: every run either upholds all invariants
   or pins each violation on a provably-equivocating node. *)
let accountable outcome = outcome.unaccountable = []

(* ------------------------------------------------------------------ *)
(* Schedule shrinking (delta debugging)                                *)
(* ------------------------------------------------------------------ *)

(* Classic ddmin over the event list: try dropping ever-finer chunks,
   keeping any reduction that still fails. [fails] is the oracle —
   normally a full re-run, but tests may substitute any predicate. *)
let shrink ~fails schedule =
  let drop_chunk lst ~start ~len =
    List.filteri (fun i _ -> i < start || i >= start + len) lst
  in
  let rec go n sched =
    let len = List.length sched in
    if len <= 1 then sched
    else begin
      let n = min n len in
      let chunk = (len + n - 1) / n in
      let rec try_chunks start =
        if start >= len then None
        else
          let reduced = drop_chunk sched ~start ~len:chunk in
          if reduced <> [] && fails reduced then Some reduced
          else try_chunks (start + chunk)
      in
      match try_chunks 0 with
      | Some reduced -> go (max 2 (n - 1)) reduced
      | None -> if n >= len then sched else go (min len (2 * n)) sched
    end
  in
  if fails schedule then go 2 schedule else schedule

(* ------------------------------------------------------------------ *)
(* Drill and campaign                                                  *)
(* ------------------------------------------------------------------ *)

type drill_result = {
  seed : int64;
  system : Config.system;
  recipe : recipe;
  outcome : outcome;
  shrunk : S.t option;  (* minimal failing scenario, when the original failed *)
}

let drill ?duration ?liveness_bound_s ?trace ?registry ?(shrink_failures = true)
    ?(recipe = benign) ?domains ~spec ~cfg ~seed () =
  let scenario =
    generate (Rng.create seed) ~spec
      ~duration:(Option.value ~default:10.0 duration)
      ~system:cfg.Config.system recipe
  in
  let outcome =
    run_schedule ?duration ?liveness_bound_s ?trace ?registry ?domains ~spec
      ~cfg scenario
  in
  let fails s =
    failed (run_schedule ?duration ?liveness_bound_s ?domains ~spec ~cfg s)
  in
  let shrunk =
    if failed outcome && shrink_failures then begin
      (* ddmin each kind in turn: first the attacks against the full
         fault set, then the faults under the minimal attacks. The
         membership commands are the scenario's identity and are never
         shrunk. *)
      let only p = List.filter (fun e -> p e.S.action) scenario in
      let members = only (function S.Member _ -> true | _ -> false)
      and attacks = only (function S.Attack _ -> true | _ -> false)
      and faults = only (function S.Fault _ -> true | _ -> false) in
      let attacks =
        if attacks = [] then []
        else shrink ~fails:(fun a -> fails (members @ a @ faults)) attacks
      in
      let faults =
        if faults = [] then []
        else shrink ~fails:(fun f -> fails (members @ attacks @ f)) faults
      in
      Some (members @ attacks @ faults)
    end
    else None
  in
  { seed; system = cfg.Config.system; recipe; outcome; shrunk }

type campaign_result = {
  total : int;
  results : drill_result list;  (* in run order *)
  failures : drill_result list;
}

let campaign ?duration ?liveness_bound_s ?trace ?(shrink_failures = false)
    ?(systems = Config.all_systems) ?(recipes = [ benign ]) ?on_run ?domains
    ~spec ~cfg ~seeds () =
  let results =
    List.concat_map
      (fun system ->
        List.concat_map
          (fun recipe ->
            List.map
              (fun seed ->
                let r =
                  drill ?duration ?liveness_bound_s ?trace ~shrink_failures
                    ~recipe ?domains ~spec ~cfg:{ cfg with Config.system }
                    ~seed ()
                in
                Option.iter (fun f -> f r) on_run;
                r)
              seeds)
          recipes)
      systems
  in
  {
    total = List.length results;
    results;
    failures = List.filter (fun r -> failed r.outcome) results;
  }

let pp_drill fmt r =
  let status =
    if failed r.outcome then
      Printf.sprintf "FAIL (%d violations%s)"
        (List.length r.outcome.violations)
        (if r.outcome.unaccountable = [] then ", all evidenced" else "")
    else "ok"
  in
  Format.fprintf fmt "%-9s seed=%-6Ld %s=%-2d%s executed=%-5d %s"
    (Config.system_name r.system)
    r.seed
    (Option.value ~default:"faults" r.recipe.attack)
    (List.length
       (List.filter
          (fun e -> match e.S.action with S.Member _ -> false | _ -> true)
          r.outcome.scenario))
    (match r.recipe.membership with
    | None -> ""
    | Some m ->
        Printf.sprintf " %s epochs=%d" (membership_name m) r.outcome.epochs)
    r.outcome.executed status
