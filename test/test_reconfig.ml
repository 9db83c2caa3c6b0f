(* Tests for live membership reconfiguration and the scenario language
   as a whole: round-trip of mixed fault/attack/membership scenarios as
   a qcheck property, parse errors, every legacy per-subsystem text form
   still parsing to the same actions, the validation floors, seeded
   determinism of the scenario generator, the no-op guarantee (an empty
   scenario perturbs nothing, byte-identically, for every system), a
   join's state-transfer receipt, the mid-transfer-crash drill (a
   deliberately intolerable fault set is detected and ddmin-shrinks to
   its culprit while the membership change — the scenario's identity —
   stays fixed), the mixed-axis EBR join under equivocation (the PBFT
   quorum regression at n = 8), and the CLI: exit-2 one-line diagnostics for malformed
   scenario files, and replay of a mixed scenario that crashes and
   attacks a joining slot. *)

module Topology = Massbft_sim.Topology
module Config = Massbft.Config
module Rng = Massbft_util.Rng
module Clusters = Massbft_harness.Clusters
module Runner = Massbft_harness.Runner
module S = Massbft_scenario.Scenario
module Reconfig = Massbft_reconfig.Reconfig
module Chaos = Massbft_faults.Chaos

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let small_cfg ?(system = Config.Massbft) () =
  {
    (Config.default ~system ()) with
    Config.max_batch = 40;
    pipeline = 4;
    workload_scale = 0.001;
  }

let small_spec () = Clusters.nationwide ~nodes_per_group:4 ()
let member at c = { S.at; action = S.Member c }
let fault at f = { S.at; action = S.Fault f }
let attack at a = { S.at; action = S.Attack a }

(* substring check without Str *)
let has s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* DSL                                                                 *)
(* ------------------------------------------------------------------ *)

(* One event of every variant. *)
let kitchen_sink : S.t =
  [
    member 1.0 (S.Add_node 1);
    member 2.5 (S.Remove_node 2);
    member 3.125 (S.Move_leader { Topology.g = 0; n = 2 });
    member 4.0 (S.Add_group { size = 4 });
    member 5.75 (S.Remove_group 1);
  ]

let test_round_trip () =
  let text = S.to_string kitchen_sink in
  let back = S.of_string text in
  check_bool "of_string (to_string p) = p" true (back = kitchen_sink);
  check_string "second round-trip is byte-identical" text (S.to_string back)

(* The qcheck property behind the unit cases: any scenario mixing
   generated membership commands, faults and attacks survives a text
   round-trip exactly. Times and windows are millisecond-quantized below
   100 s and factors are small binary fractions, which the %g form
   prints losslessly. *)
let gen_scenario =
  let open QCheck.Gen in
  let g = int_range 0 5 and count = int_range 1 9 in
  let addr = map2 (fun g n -> { Topology.g; n }) g (int_range 0 8) in
  let secs = map (fun ms -> float_of_int ms /. 1000.0) (int_range 1 99_999) in
  let factor = map (fun k -> float_of_int k /. 8.0) (int_range 1 64) in
  let cls = oneofl [ S.Any; S.Bulk; S.Control ] in
  let target =
    oneof [ map (fun a -> S.Node a) addr; map (fun g -> S.Leader g) g ]
  in
  let command =
    oneof
      [
        map (fun g -> S.Add_node g) g;
        map (fun g -> S.Remove_node g) g;
        map (fun a -> S.Move_leader a) addr;
        map (fun size -> S.Add_group { size }) (int_range 4 9);
        map (fun g -> S.Remove_group g) g;
      ]
  in
  let link make =
    let* src_g = g and* dst_g = g and* cls = cls and* for_s = secs in
    make ~src_g ~dst_g ~cls ~for_s
  in
  let fault =
    oneof
      [
        map (fun a -> S.Crash_node a) addr;
        map (fun a -> S.Recover_node a) addr;
        map (fun g -> S.Crash_group g) g;
        map (fun g -> S.Recover_group g) g;
        map2
          (fun groups for_s -> S.Partition { groups; for_s })
          (list_size (int_range 1 3) g) secs;
        link (fun ~src_g ~dst_g ~cls ~for_s ->
            map
              (fun every -> S.Link_drop { src_g; dst_g; every; cls; for_s })
              count);
        link (fun ~src_g ~dst_g ~cls ~for_s ->
            map
              (fun add_s -> S.Link_delay { src_g; dst_g; add_s; cls; for_s })
              secs);
        link (fun ~src_g ~dst_g ~cls ~for_s ->
            map2
              (fun copies every ->
                S.Link_dup { src_g; dst_g; copies; every; cls; for_s })
              count count);
        map3 (fun g factor for_s -> S.Wan_degrade { g; factor; for_s }) g factor secs;
        map3 (fun g factor for_s -> S.Lan_degrade { g; factor; for_s }) g factor secs;
        map3
          (fun addr factor for_s -> S.Slow_cpu { addr; factor; for_s })
          addr factor secs;
      ]
  in
  let windowed make = map2 make target secs in
  let strategy =
    oneof
      [
        windowed (fun target for_s -> S.Equivocate { target; for_s });
        windowed (fun target for_s -> S.Equivocate_raft { target; for_s });
        windowed (fun target for_s -> S.Withhold { target; for_s });
        windowed (fun target for_s -> S.Split_votes { target; for_s });
        windowed (fun target for_s -> S.Tamper { target; for_s });
        (let* target = target and* copies = count and* gap_s = secs
         and* for_s = secs in
         return (S.Replay { target; copies; gap_s; for_s }));
        map3
          (fun target add_s for_s -> S.Delay_valid { target; add_s; for_s })
          target secs secs;
      ]
  in
  let action =
    oneof
      [
        map (fun c -> S.Member c) command;
        map (fun f -> S.Fault f) fault;
        map (fun a -> S.Attack a) strategy;
      ]
  in
  let at = map (fun ms -> float_of_int ms /. 1000.0) (int_range 0 99_999) in
  list_size (int_range 0 12) (map2 (fun at action -> { S.at; action }) at action)

let prop_round_trip =
  QCheck.Test.make ~name:"reconfig DSL round-trips any generated plan"
    ~count:500
    (QCheck.make ~print:S.to_string gen_scenario)
    (fun scenario ->
      let text = S.to_string scenario in
      S.of_string text = scenario && S.to_string (S.of_string text) = text)

let test_parse_comments_and_errors () =
  let plan =
    S.of_string
      "# a comment\n\n@1 add-node g1\n   \n# another\n@2.5 move-leader g0/n2\n"
  in
  check_int "comments and blanks skipped" 2 (List.length plan);
  let raises text =
    match S.of_string text with
    | _ -> false
    | exception S.Parse_error _ -> true
  in
  check_bool "unknown command rejected" true (raises "@1 frobnicate g0");
  check_bool "missing @time rejected" true (raises "add-node g0");
  check_bool "bad group rejected" true (raises "@1 add-node n0");
  check_bool "bad address rejected" true (raises "@1 move-leader n0/g0");
  check_bool "missing keyword rejected" true (raises "@1 add-group g0");
  check_bool "hex size rejected" true (raises "@1 add-group size 0x4");
  check_bool "trailing token rejected" true (raises "@1 add-node g1 g2");
  (* The controller's gid pin is wire-only, never user input. *)
  check_bool "gid key rejected in a scenario" true
    (raises "@1 add-group size 4 gid 9");
  check_bool "the wire form keeps its gid pin" true
    (S.member_of_wire "add-group size 4 gid 3" = (S.Add_group { size = 4 }, Some 3));
  check_bool "the diagnostic names the line and the first bad token" true
    (match S.of_string "@1 add-node g1\n@2 frobnicate g0" with
    | _ -> false
    | exception S.Parse_error { line; token; _ } -> line = 2 && token = "frobnicate")

(* Every per-subsystem text form the fault, adversary and
   reconfiguration layers used to write — drill artifacts with their
   comment headers, and the fault-drill example's plans — is a valid
   scenario and parses to the same actions. *)
let test_legacy_text_forms () =
  let a = { Topology.g = 0; n = 7 } in
  let parses what text expected =
    check_bool (what ^ " parses to the same actions") true (S.of_string text = expected)
  in
  parses ".faults artifact"
    "# massbft drill --seed 3 --system ebr --domains 1 --reconfig node-join\n\
     # liveness@9.1: no entry executed for 6.2s after all faults healed\n\
     @2.1 crash-node g0/n7\n\
     @3.25 recover-node g0/n7\n\
     @4 link-drop g1->g2 every 2 class control for 1.5\n\
     @4.5 partition g0,g2 for 0.75\n\
     # shrunk to 1 event(s):\n\
     #   @2.1 crash-node g0/n7\n"
    [
      fault 2.1 (S.Crash_node a);
      fault 3.25 (S.Recover_node a);
      fault 4.0 (S.Link_drop { src_g = 1; dst_g = 2; every = 2; cls = S.Control; for_s = 1.5 });
      fault 4.5 (S.Partition { groups = [ 0; 2 ]; for_s = 0.75 });
    ];
  parses ".adversary artifact"
    "@2.5 equivocate leader:g2 for 2.25\n\
     @1 replay node:g1/n2 copies 2 gap 0.125 for 2\n\
     # shrunk to 1 event(s):\n\
     #   @2.5 equivocate leader:g2 for 2.25\n"
    [
      attack 2.5 (S.Equivocate { target = S.Leader 2; for_s = 2.25 });
      attack 1.0
        (S.Replay
           { target = S.Node { Topology.g = 1; n = 2 }; copies = 2; gap_s = 0.125; for_s = 2.0 });
    ];
  parses ".reconfig artifact" "@2 add-node g2\n@5 add-group size 5\n"
    [ member 2.0 (S.Add_node 2); member 5.0 (S.Add_group { size = 5 }) ];
  parses "fault-drill fault plan"
    "# data center 0 loses power, later comes back\n@12 crash-group g0\n@20 recover-group g0\n"
    [ fault 12.0 (S.Crash_group 0); fault 20.0 (S.Recover_group 0) ];
  parses "fault-drill adversary plan"
    "# two tampering colluders per data center\n@6 tamper node:g0/n5 for 39\n\
     @6 tamper node:g2/n6 for 39\n"
    [
      attack 6.0 (S.Tamper { target = S.Node { Topology.g = 0; n = 5 }; for_s = 39.0 });
      attack 6.0 (S.Tamper { target = S.Node { Topology.g = 2; n = 6 }; for_s = 39.0 });
    ]

let test_validate () =
  let gs = [| 4; 4; 4 |] in
  let ok p = S.validate ~group_sizes:gs p = Ok () in
  check_bool "a staged add/remove sequence validates" true
    (ok
       [
         member 1.0 (S.Add_node 1);
         member 3.0 (S.Remove_node 1);
         member 5.0 (S.Add_group { size = 4 });
         member 7.0 (S.Remove_group 1);
       ]);
  let bad cmd = not (ok [ member 1.0 cmd ]) in
  check_bool "remove below 4 nodes rejected" true (bad (S.Remove_node 1));
  check_bool "group out of range rejected" true (bad (S.Add_node 7));
  check_bool "coordinator group irremovable" true (bad (S.Remove_group 0));
  check_bool "undersized group rejected" true (bad (S.Add_group { size = 3 }));
  check_bool "leader move to a dark slot rejected" true
    (bad (S.Move_leader { Topology.g = 0; n = 9 }));
  check_bool "negative time rejected" true
    (S.validate ~group_sizes:gs [ member (-1.0) (S.Add_node 0) ] <> Ok ());
  check_bool "validation walks in time order" true
    (* the remove at 2.0 is legal only because the add at 1.0 executed *)
    (ok [ member 2.0 (S.Remove_node 1); member 1.0 (S.Add_node 1) ]);
  (* Faults and attacks are checked against the provisioned topology:
     a joining slot exists (dark) from the start. *)
  let joiner = { Topology.g = 1; n = 4 } in
  check_bool "a crash of the joining slot validates" true
    (ok
       [
         member 1.0 (S.Add_node 1);
         fault 1.5 (S.Crash_node joiner);
         fault 2.5 (S.Recover_node joiner);
       ]);
  check_bool "an attack on the joining slot validates" true
    (ok
       [
         member 1.0 (S.Add_node 1);
         attack 1.5 (S.Tamper { target = S.Node joiner; for_s = 1.0 });
       ]);
  check_bool "a fault on the joining group validates" true
    (ok
       [
         member 1.0 (S.Add_group { size = 4 });
         fault 1.5 (S.Crash_group 3);
         attack 1.5 (S.Withhold { target = S.Leader 3; for_s = 1.0 });
       ]);
  check_bool "a slot beyond the provisioned ones is rejected" true
    (not
       (ok [ member 1.0 (S.Add_node 1); fault 1.5 (S.Crash_node { Topology.g = 1; n = 5 }) ]));
  check_bool "without the join the slot is out of range" true
    (not (ok [ fault 1.5 (S.Crash_node joiner) ]))

(* ------------------------------------------------------------------ *)
(* Seeded determinism of the scenario generator                        *)
(* ------------------------------------------------------------------ *)

(* The recipes with a membership change: every kind, alone and under
   each strategy. test_faults checks the rest of the table. *)
let test_gen_reconfig_deterministic () =
  Recipe_table.check_deterministic
    (List.filter
       (fun r -> r.Chaos.membership <> None)
       Recipe_table.every_recipe)

(* ------------------------------------------------------------------ *)
(* The no-op guarantee                                                 *)
(* ------------------------------------------------------------------ *)

let test_empty_plan_is_byte_identical () =
  (* An empty scenario must provision nothing, arm nothing and perturb
     nothing: the full result record (throughput, latency series,
     phase breakdown...) is equal for all seven systems. *)
  let spec = small_spec () in
  List.iter
    (fun system ->
      let cfg = small_cfg ~system () in
      let go scenario =
        Runner.run ~duration:2.0 ~warmup:1.0 ?scenario ~spec ~cfg ()
      in
      check_bool
        (Config.system_name system ^ ": empty plan perturbs nothing")
        true
        (go None = go (Some [])))
    Config.all_systems

(* ------------------------------------------------------------------ *)
(* Join state transfer                                                 *)
(* ------------------------------------------------------------------ *)

let test_join_receipt () =
  (* A node join must activate with the donor's exact store fingerprint
     and committed prefix, and every epoch-aware end-of-run check must
     come back clean. *)
  let cfg = small_cfg () in
  let spec = small_spec () in
  let plan = [ member 2.0 (S.Add_node 1) ] in
  let ctl = ref None in
  let _ =
    Runner.run ~duration:8.0 ~warmup:2.0 ~scenario:plan
      ~on_reconfig:(fun c -> ctl := Some c)
      ~spec ~cfg ()
  in
  let c = match !ctl with Some c -> c | None -> Alcotest.fail "no controller" in
  List.iter
    (fun (check, detail) -> Alcotest.fail (check ^ ": " ^ detail))
    (Reconfig.final_violations c);
  check_int "one epoch boundary executed" 1 (Reconfig.epochs c);
  match Reconfig.joins c with
  | [ j ] ->
      check_int "joined g1" 1 j.Reconfig.j_gid;
      check_bool "transfer moved bytes" true (j.Reconfig.j_bytes > 0);
      check_string "store fingerprint matches the donor's"
        j.Reconfig.j_src_fingerprint j.Reconfig.j_fingerprint;
      check_int "ledger height matches the donor's" j.Reconfig.j_src_height
        j.Reconfig.j_height;
      check_string "head hash matches the donor's" j.Reconfig.j_src_head
        j.Reconfig.j_head;
      check_bool "activated after the transfer started" true
        (j.Reconfig.j_activated > j.Reconfig.j_started)
  | js -> Alcotest.fail (Printf.sprintf "expected 1 join, got %d" (List.length js))

(* ------------------------------------------------------------------ *)
(* Mid-transfer-crash drill: detect and shrink                         *)
(* ------------------------------------------------------------------ *)

(* GeoBFT has no global retransmission, so a whole-group outage landing
   while a join's state transfer is in flight loses that group's one-way
   copies for good: the liveness watchdog must flag the stall. The
   reconfiguration plan is the scenario's identity — every shrink rerun
   carries it unchanged — and ddmin must isolate the crash/recover pair
   from the benign noise around it. *)
let geobft_join_fails schedule =
  let cfg = small_cfg ~system:Config.Geobft () in
  let spec = small_spec () in
  let plan = [ member 2.0 (S.Add_node 1) ] in
  let o = Chaos.run_schedule ~duration:8.0 ~spec ~cfg (plan @ schedule) in
  Chaos.failed o

let test_mid_transfer_crash_shrinks () =
  let noise =
    [
      fault 1.0 (S.Link_delay { src_g = 0; dst_g = 1; add_s = 0.02; cls = S.Any; for_s = 0.5 });
      fault 1.5 (S.Wan_degrade { g = 2; factor = 0.5; for_s = 0.5 });
      fault 2.1 (S.Slow_cpu { addr = { Topology.g = 0; n = 1 }; factor = 3.0; for_s = 0.5 });
    ]
  in
  let culprit =
    [
      fault 2.3 (S.Crash_group 2);
      fault 3.3 (S.Recover_group 2);
    ]
  in
  let schedule = S.sorted (culprit @ noise) in
  check_bool "the mid-transfer outage is detected" true
    (geobft_join_fails schedule);
  check_bool "the benign noise alone passes" false (geobft_join_fails noise);
  let shrunk = Chaos.shrink ~fails:geobft_join_fails schedule in
  check_string "shrinks to the bare crash/recover pair"
    (S.to_string culprit)
    (S.to_string shrunk)

(* `massbft drill --seed 1 --system ebr --quick --reconfig node-join
   --adversary equivocate`. After the join g2 has n = 8 and f = 2; with
   a 2f + 1 = 5 quorum the equivocating leader plus the four
   odd-numbered replicas decided a forged digest whose content exists
   nowhere, and EBR stopped executing entries. ⌈(n + f + 1)/2⌉ = 6
   needs an honest node to vouch for the digest. *)
let test_ebr_join_under_equivocation () =
  let cfg =
    { (Config.default ~system:Config.Ebr ()) with Config.workload_scale = 0.01 }
  in
  let spec = Clusters.nationwide ~nodes_per_group:7 ~groups:3 () in
  let r =
    Chaos.drill ~duration:8.0 ~shrink_failures:false
      ~recipe:
        { Chaos.attack = Some "equivocate"; membership = Some Chaos.Node_join }
      ~spec ~cfg ~seed:1L ()
  in
  let o = r.Chaos.outcome in
  check_string "the drilled scenario"
    "@2.265 add-node g2\n@2.382 equivocate leader:g2 for 1.715\n"
    (S.to_string o.Chaos.scenario);
  check_bool "the leader equivocated" true (o.Chaos.adv_injected > 0);
  check_int "the join's epoch executed" 1 o.Chaos.epochs;
  List.iter
    (fun v -> Alcotest.fail (Massbft_faults.Invariants.violation_to_string v))
    o.Chaos.violations

(* `massbft drill --seed 2 --system steward --quick --reconfig node-join
   --adversary split-votes`. The recovered g0 leader re-proposed its
   in-flight entries, some of which had already committed, and
   Steward's single log executed them a second time: every leader's
   ledger repeated g0 seq 10..17, and the join's boundary e(0,15)
   flipped the membership twice, at positions 33 and 47. *)
let test_steward_join_under_split_votes () =
  let cfg =
    {
      (Config.default ~system:Config.Steward ()) with
      Config.workload_scale = 0.01;
    }
  in
  let spec = Clusters.nationwide ~nodes_per_group:7 ~groups:3 () in
  let r =
    Chaos.drill ~duration:8.0 ~shrink_failures:false
      ~recipe:
        { Chaos.attack = Some "split-votes"; membership = Some Chaos.Node_join }
      ~spec ~cfg ~seed:2L ()
  in
  let o = r.Chaos.outcome in
  check_string "the drilled scenario"
    "@1.184 add-node g2\n@1.727 crash-node g2/n7\n\
     @2.247 split-votes node:g0/n6 for 1.829\n@2.247 crash-node g0/n0\n\
     @3.132 recover-node g2/n7\n@4.496 recover-node g0/n0\n"
    (S.to_string o.Chaos.scenario);
  check_int "the join's epoch executed" 1 o.Chaos.epochs;
  List.iter
    (fun v -> Alcotest.fail (Massbft_faults.Invariants.violation_to_string v))
    o.Chaos.violations

(* ------------------------------------------------------------------ *)
(* CLI diagnostics                                                     *)
(* ------------------------------------------------------------------ *)

(* Malformed plan files and unknown system names must die with ONE line
   on stderr naming the file and the first bad token, and exit 2 —
   distinct from a run failure's exit 1 and cmdliner's 124. Runs from
   _build/default/test, next to the built CLI. *)
let cli = Filename.concat (Filename.concat ".." "bin") "massbft_cli.exe"

(* The exit code and the lines of stderr — or of stdout, with
   [~stdout:true]; the other stream is dropped. *)
let run_cli ?(stdout = false) args =
  let file = Filename.temp_file "massbft_cli" ".out" in
  let code =
    Sys.command
      (if stdout then Printf.sprintf "%s %s >%s 2>/dev/null" cli args file
       else Printf.sprintf "%s %s >/dev/null 2>%s" cli args file)
  in
  let lines = In_channel.with_open_bin file In_channel.input_lines in
  Sys.remove file;
  (code, lines)

let write_temp ext text =
  let f = Filename.temp_file "massbft_scenario" ext in
  let oc = open_out f in
  output_string oc text;
  close_out oc;
  f

let check_die what args ~mentions =
  let code, lines = run_cli args in
  check_int (what ^ ": exit 2") 2 code;
  check_int (what ^ ": one-line diagnostic") 1 (List.length lines);
  let line = List.hd lines in
  List.iter
    (fun tok ->
      check_bool
        (Printf.sprintf "%s: diagnostic %S names %S" what line tok)
        true (has line tok))
    mentions

let test_cli_exit2_diagnostics () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else begin
    let files = ref [] in
    let die_on what text ~mentions =
      let f = write_temp ".scenario" text in
      files := f :: !files;
      check_die what ("run --scenario " ^ f) ~mentions:(f :: mentions)
    in
    (* One unknown keyword from each vocabulary's neighbourhood. *)
    die_on "unknown membership command" "@1 frobnicate g0\n"
      ~mentions:[ ":1: bad scenario"; "frobnicate" ];
    die_on "unknown fault" "@1 explode g0\n" ~mentions:[ "explode" ];
    die_on "unknown attack" "@1 gaslight g0/n0\n" ~mentions:[ "gaslight" ];
    die_on "line number"
      "# header\n@1 add-node g0\n\n@2 crash-node g0/n0 for 3\n"
      ~mentions:[ ":4: bad scenario"; "\"for\"" ];
    die_on "repeated and unknown keys"
      "@1 link-drop g0->g1 every 3 class bulk for 0.5 for 9 jitter 7\n"
      ~mentions:[ ":1:"; "repeated key"; "\"for\"" ];
    die_on "non-decimal numerals"
      "@0x1p1 slow-cpu g0x1/n0b1 factor 1_0 for 1\n"
      ~mentions:[ ":1:"; "0x1p1" ];
    die_on "gid in a user file" "@1 add-group size 4 gid 9\n"
      ~mentions:[ "unknown key"; "gid" ];
    (* An invalid scenario (vs unparsable) names the offending event. *)
    die_on "invalid membership command" "@1 remove-group g0\n"
      ~mentions:[ "@1 remove-group g0"; "coordinator" ];
    die_on "slot beyond the provisioned ones"
      "@2 add-node g0\n@2.5 crash-node g0/n8\n"
      ~mentions:[ "@2.5 crash-node g0/n8"; "out of range" ];
    check_die "unreadable file" "run --scenario /nonexistent/x.scenario"
      ~mentions:[ "/nonexistent/x.scenario" ];
    check_die "unknown system" "run -s frobnix" ~mentions:[ "frobnix" ];
    List.iter Sys.remove !files
  end

(* A failed reconfiguration drill's artifact crashes the joining slot;
   it must replay through `run --scenario`, attacks on that slot
   included. The checked-in example mixes all three kinds of line. *)
let test_cli_replays_joining_slot () =
  let example = Filename.concat (Filename.concat ".." "examples") "join_crash.scenario" in
  if not (Sys.file_exists cli && Sys.file_exists example) then Alcotest.skip ()
  else begin
    let kinds =
      List.sort_uniq compare
        (List.map
           (fun e ->
             match e.S.action with S.Fault _ -> 0 | S.Attack _ -> 1 | S.Member _ -> 2)
           (S.of_string (In_channel.with_open_bin example In_channel.input_all)))
    in
    check_bool "the example uses all three kinds of line" true (kinds = [ 0; 1; 2 ]);
    let code, lines =
      run_cli ("run -n 7 --scale 0.01 --warmup 1 -d 4 --scenario " ^ example)
    in
    check_int
      (Printf.sprintf "exit 0 (stderr: %s)" (String.concat " | " lines))
      0 code
  end

(* A failing drill prints a repro line; running that line must
   regenerate the same scenario. The run uses non-default --quick,
   --nodes, --groups and --scale, all of which shape the scenario or
   the run. *)
let test_cli_repro_regenerates_scenario () =
  if not (Sys.file_exists cli) then Alcotest.skip ()
  else begin
    let drill args =
      let _, lines = run_cli ~stdout:true (args ^ " --no-shrink") in
      let rec events = function
        | l :: rest when String.starts_with ~prefix:"    " l -> l :: events rest
        | _ -> []
      in
      let rec scenario = function
        | "  scenario:" :: rest -> events rest
        | _ :: rest -> scenario rest
        | [] -> []
      in
      let repro =
        List.find_map
          (fun l ->
            let prefix = "  repro: massbft " in
            if String.starts_with ~prefix l then
              Some
                (String.sub l (String.length prefix)
                   (String.length l - String.length prefix))
            else None)
          lines
      in
      (scenario lines, repro)
    in
    let scenario, repro =
      drill
        "drill --seed 1 --quick --nodes 4 --groups 4 --scale 0.02 \
         --adversary equivocate-raft"
    in
    check_bool "the out-of-model drill fails and prints its scenario" true
      (scenario <> []);
    match repro with
    | None -> Alcotest.fail "no repro line"
    | Some repro ->
        let again, _ = drill repro in
        check_string ("`massbft " ^ repro ^ "` regenerates the scenario")
          (String.concat "\n" scenario)
          (String.concat "\n" again)
  end

let () =
  Alcotest.run "reconfig"
    [
      ( "dsl",
        [
          Alcotest.test_case "round-trip" `Quick test_round_trip;
          QCheck_alcotest.to_alcotest prop_round_trip;
          Alcotest.test_case "comments and parse errors" `Quick
            test_parse_comments_and_errors;
          Alcotest.test_case "legacy text forms" `Quick test_legacy_text_forms;
          Alcotest.test_case "validate" `Quick test_validate;
        ] );
      ( "generator",
        [
          Alcotest.test_case "seeded determinism over every kind" `Quick
            test_gen_reconfig_deterministic;
        ] );
      ( "no-op",
        [
          Alcotest.test_case "empty plan is byte-identical (7 systems)" `Slow
            test_empty_plan_is_byte_identical;
        ] );
      ( "join",
        [
          Alcotest.test_case "state-transfer receipt" `Slow test_join_receipt;
        ] );
      ( "drill",
        [
          Alcotest.test_case "mid-transfer crash: detect and shrink" `Slow
            test_mid_transfer_crash_shrinks;
          Alcotest.test_case "mixed-axis EBR join under equivocation" `Slow
            test_ebr_join_under_equivocation;
          Alcotest.test_case "mixed-axis Steward join under split-votes" `Slow
            test_steward_join_under_split_votes;
        ] );
      ( "cli",
        [
          Alcotest.test_case "exit-2 one-line diagnostics" `Quick
            test_cli_exit2_diagnostics;
          Alcotest.test_case "replay crashing a joining slot" `Slow
            test_cli_replays_joining_slot;
          Alcotest.test_case "repro line regenerates the scenario" `Slow
            test_cli_repro_regenerates_scenario;
        ] );
    ]
