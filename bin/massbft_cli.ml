(* The massbft command-line tool: run single experiments, regenerate
   the paper's figures, and inspect transfer plans. *)

open Cmdliner
module Config = Massbft.Config
module W = Massbft_workload.Workload
module Runner = Massbft_harness.Runner
module Clusters = Massbft_harness.Clusters
module Figures = Massbft_harness.Figures
module Trace = Massbft_trace.Trace
module Trace_export = Massbft_trace.Trace_export
module Obs_registry = Massbft_obs.Registry
module Sampler = Massbft_obs.Sampler
module Exposition = Massbft_obs.Exposition
module Saturation = Massbft_obs.Saturation
module Scenario = Massbft_scenario.Scenario
module Chaos = Massbft_faults.Chaos
module Deployment = Massbft_faults.Deployment
module Evidence = Massbft_adversary.Evidence
module Topology = Massbft_sim.Topology
module Prof = Massbft_prof.Prof
module Prof_export = Massbft_prof.Prof_export
module Bench_check = Massbft_harness.Bench_check
module Bench_report = Massbft_harness.Bench_report

(* Scenario files come from users and CI artifacts: every way they can
   be wrong must end in a one-line diagnostic naming the file, the line
   and the first bad token — not a backtrace — and exit 2 (distinct
   from a run failure's exit 1). *)
let die msg =
  prerr_endline ("massbft: " ^ msg);
  exit 2

let load_scenario_or_die ~(spec : Topology.spec) file =
  let text =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error e ->
      die (Printf.sprintf "cannot read scenario %s: %s" file e)
  in
  match Scenario.of_string text with
  | exception Scenario.Parse_error { line; token; msg } ->
      die (Printf.sprintf "%s:%d: bad scenario: %s %S" file line msg token)
  | scenario -> (
      match
        Scenario.validate ~group_sizes:spec.Topology.group_sizes scenario
      with
      | Ok () -> scenario
      | Error msg -> die (Printf.sprintf "%s: bad scenario: %s" file msg))

let system_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "massbft" -> Ok Config.Massbft
    | "baseline" -> Ok Config.Baseline
    | "geobft" -> Ok Config.Geobft
    | "steward" -> Ok Config.Steward
    | "iss" -> Ok Config.Iss
    | "br" -> Ok Config.Br
    | "ebr" -> Ok Config.Ebr
    | other ->
        (* One line, exit 2 — same contract as a malformed scenario file,
           and terser than cmdliner's usage dump for the common typo. *)
        die
          (Printf.sprintf
             "unknown system %S (known: massbft, baseline, geobft, steward, \
              iss, br, ebr)"
             other)
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Config.system_name s))

let workload_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "ycsb-a" | "ycsba" -> Ok W.Ycsb_a
    | "ycsb-b" | "ycsbb" -> Ok W.Ycsb_b
    | "smallbank" -> Ok W.Smallbank
    | "tpcc" | "tpc-c" -> Ok W.Tpcc
    | other -> Error (`Msg (Printf.sprintf "unknown workload %S" other))
  in
  Arg.conv (parse, fun fmt w -> Format.pp_print_string fmt (W.kind_name w))

(* ---- shared experiment options ---- *)

let system_arg =
  Arg.(value & opt system_conv Config.Massbft & info [ "system"; "s" ]
         ~doc:"System under test: massbft|baseline|geobft|steward|iss|br|ebr.")

let workload_arg =
  Arg.(value & opt workload_conv W.Ycsb_a & info [ "workload"; "w" ]
         ~doc:"Workload: ycsb-a|ycsb-b|smallbank|tpcc.")

let nodes_arg =
  Arg.(value & opt int 7 & info [ "nodes"; "n" ] ~doc:"Nodes per group.")

let groups_arg =
  Arg.(value & opt int 3 & info [ "groups"; "g" ]
         ~doc:"Number of groups (data centers).")

let worldwide_arg =
  Arg.(value & flag & info [ "worldwide" ]
         ~doc:"Use the worldwide RTT matrix (HK/London/SV) instead of nationwide.")

let warmup_arg =
  Arg.(value & opt float 4.0 & info [ "warmup" ] ~doc:"Warm-up, simulated seconds.")

let scale_arg =
  Arg.(value & opt float 0.1 & info [ "scale" ]
         ~doc:"Workload keyspace scale in (0,1]; 1.0 is the paper's full size.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.")

let domains_arg =
  Arg.(value & opt int 1 & info [ "domains" ]
         ~doc:"OCaml domains pumping the per-group scheduler shards \
               (clamped to the group count). 1 is the sequential merge \
               driver; more run the WAN-lookahead parallel driver, which \
               preserves committed results and invariant verdicts but \
               not event interleaving (so --trace/--metrics need 1).")

let experiment_setup ~system ~workload ~nodes ~groups ~worldwide ~scale ~seed =
  let cfg =
    {
      (Config.default ~system ~workload ()) with
      Config.workload_scale = scale;
      seed = Int64.of_int seed;
    }
  in
  let spec =
    if worldwide then Clusters.worldwide ~nodes_per_group:nodes ()
    else Clusters.nationwide ~nodes_per_group:nodes ~groups ()
  in
  (cfg, spec)

(* ---- run ---- *)

let run_cmd =
  let duration =
    Arg.(value & opt float 12.0 & info [ "duration"; "d" ]
           ~doc:"Measurement window, simulated seconds.")
  in
  let latency_probe =
    Arg.(value & flag & info [ "latency-probe" ]
           ~doc:"Light-load run (small batches) for latency measurement.")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Also record a structured trace, write it to $(docv) as \
                 Chrome trace_event JSON (open in Perfetto) and print the \
                 per-entry critical-path report. Needs --domains 1, except \
                 with --prof: a parallel run then exports the host timeline \
                 alone.")
  in
  let metrics_file =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Also sample resource metrics, print each leader's WAN and \
                 CPU utilization and the saturation report naming the \
                 binding resource, and write the samples to $(docv): \
                 Prometheus text exposition by default, the JSON export \
                 for a .json destination, the per-tick CSV for .csv.")
  in
  let scenario_file =
    Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"FILE"
           ~doc:"Run the scenario in $(docv): one \"@TIME ACTION\" per line \
                 mixing faults, Byzantine attacks and membership commands \
                 (see DESIGN.md \"Scenario language\"). Times are absolute \
                 simulated seconds, so the warm-up window precedes time \
                 warmup. Joining slots and groups are provisioned before the \
                 cluster starts; attacks and membership commands require \
                 --domains 1.")
  in
  let prof_file =
    Arg.(value & opt (some string) None & info [ "prof" ] ~docv:"FILE"
           ~doc:"Also self-profile the simulator's host-side execution \
                 (execute / barrier-stall / mailbox-merge / coordinator \
                 wall-time phases plus GC deltas per window), print the \
                 parallel-efficiency report and write the profiler's JSON \
                 report to $(docv). Works in every run mode including \
                 --domains > 1; with --trace, the exported trace \
                 additionally carries the host timeline.")
  in
  let action system workload nodes groups worldwide duration warmup scale seed
      domains latency_probe trace_file metrics_file scenario_file prof_file =
    let cfg, spec =
      experiment_setup ~system ~workload ~nodes ~groups ~worldwide ~scale ~seed
    in
    let scenario = Option.map (load_scenario_or_die ~spec) scenario_file in
    (* The sim-timeline sink only composes with the sequential driver; a
       parallel profiled run exports the host timeline alone. *)
    let parallel = Deployment.effective_domains ~domains spec > 1 in
    if parallel && trace_file <> None && prof_file = None then
      die "--trace needs --domains 1 (or --prof, for the host timeline alone)";
    (* Fail on an unwritable trace destination now, not after the run. *)
    Option.iter
      (fun file ->
        match open_out file with
        | oc -> close_out oc
        | exception Sys_error e ->
            prerr_endline ("massbft: cannot write trace: " ^ e);
            exit 1)
      trace_file;
    let sink =
      match trace_file with
      | Some _ when not parallel -> Some (Trace.create ())
      | _ -> None
    in
    let prof = Option.map (fun _ -> Prof.create ()) prof_file in
    let obs =
      Option.map (fun _ -> Sampler.create (Obs_registry.create ())) metrics_file
    in
    let r =
      if latency_probe then
        Runner.run_latency_probe ~duration ~warmup ?trace:sink ?obs ?prof
          ?scenario ~domains ~spec ~cfg ()
      else
        Runner.run ~duration ~warmup ?trace:sink ?obs ?prof ?scenario ~domains
          ~spec ~cfg ()
    in
    Format.printf "%a@." Runner.pp_result r;
    List.iter
      (fun (p, ms) -> Format.printf "  %-20s %8.2f ms@." p ms)
      r.Runner.phases_ms;
    List.iteri
      (fun g t -> Format.printf "  group %d: %.2f ktps@." g t)
      r.Runner.per_group_ktps;
    (match (metrics_file, obs) with
    | Some file, Some s ->
        let text =
          if Filename.check_suffix file ".json" then
            Exposition.json (Sampler.registry s)
          else if Filename.check_suffix file ".csv" then Sampler.csv s
          else Exposition.prometheus (Sampler.registry s)
        in
        let oc = open_out file in
        output_string oc text;
        close_out oc;
        List.iteri
          (fun g b ->
            Format.printf "  leader g%d: wan_up busy %.2f  cpu %.2f@." g b
              (List.nth r.Runner.leader_cpu_util g))
          r.Runner.leader_wan_busy;
        print_string (Saturation.report s);
        Format.printf "metrics: wrote %s (%d series, %d ticks)@." file
          (List.length (Obs_registry.collect (Sampler.registry s)))
          (Sampler.tick_count s)
    | _ -> ());
    (match (prof_file, prof) with
    | Some file, Some p ->
        Prof_export.write_json ~windows:true p file;
        Format.printf "prof: wrote %s@." file;
        print_string (Prof_export.text (Prof.report p))
    | _ -> ());
    match trace_file with
    | None -> ()
    | Some file -> (
        let host = Option.map Prof_export.to_trace prof in
        match sink with
        | Some tr ->
            Trace_export.write_chrome_json ?host tr file;
            Format.printf
              "trace: wrote %s (%d events retained, %d emitted, %d dropped%s)@."
              file (Trace.length tr) (Trace.emitted tr) (Trace.dropped tr)
              (if host = None then "" else ", host timeline attached");
            print_string (Trace_export.critical_path_report tr)
        | None ->
            (* A parallel run: only the host timeline exists. *)
            Trace_export.write_chrome_json ?host (Trace.create ~capacity:1 ())
              file;
            Format.printf "trace: wrote %s (host timeline only)@." file)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one experiment on the simulated geo-cluster.")
    Term.(
      const action $ system_arg $ workload_arg $ nodes_arg $ groups_arg
      $ worldwide_arg $ duration $ warmup_arg $ scale_arg $ seed_arg
      $ domains_arg $ latency_probe $ trace_file $ metrics_file
      $ scenario_file $ prof_file)

(* ---- drill ---- *)

let drill_cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ]
           ~doc:"Chaos seed: deterministically generates the scenario \
                 (same seed, system and cluster shape => byte-identical \
                 scenario and run).")
  in
  let seed_range_conv =
    let parse s =
      let err () =
        Error
          (`Msg (Printf.sprintf "bad seed range %S (expected N or A..B)" s))
      in
      match String.index_opt s '.' with
      | None -> (
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok (1, n)
          | _ -> err ())
      | Some i when i + 1 < String.length s && s.[i + 1] = '.' -> (
          let a = String.sub s 0 i in
          let b = String.sub s (i + 2) (String.length s - i - 2) in
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b when a <= b -> Ok (a, b)
          | _ -> err ())
      | Some _ -> err ()
    in
    Arg.conv (parse, fun fmt (a, b) -> Format.fprintf fmt "%d..%d" a b)
  in
  let seeds =
    Arg.(value & opt (some seed_range_conv) None & info [ "seeds" ]
           ~docv:"RANGE"
           ~doc:"Campaign mode: run a seed range instead of --seed; $(docv) \
                 is either N (meaning 1..N) or A..B inclusive.")
  in
  (* A comma-separated list of generator names drawn from [known]. *)
  let names_conv ~what known =
    let parse s =
      match
        String.split_on_char ',' s |> List.map String.trim
        |> List.filter (fun x -> x <> "")
      with
      | [] -> Error (`Msg ("empty " ^ what ^ " list"))
      | names -> (
          match List.find_opt (fun n -> not (List.mem n known)) names with
          | Some bad ->
              Error
                (`Msg
                   (Printf.sprintf "unknown %s %S (known: %s)" what bad
                      (String.concat ", " known)))
          | None -> Ok names)
    in
    Arg.conv
      (parse, fun fmt l -> Format.pp_print_string fmt (String.concat "," l))
  in
  let adversaries =
    let strategies = names_conv ~what:"strategy" Scenario.attack_names in
    Arg.(value & opt (some strategies) None & info [ "adversary" ]
           ~docv:"STRAT[,STRAT...]"
           ~doc:"Drill Byzantine adversary strategies instead of random \
                 benign faults: each strategy becomes a campaign axis point \
                 whose generated attack (plus any trigger faults) runs per \
                 system and seed. A run passes when it upholds every \
                 invariant, or when each safety violation is pinned on a \
                 provably-equivocating node by a verified \
                 conflicting-signed-message evidence pair.")
  in
  let reconfigs =
    let kinds =
      names_conv ~what:"reconfiguration kind" (List.map fst Chaos.memberships)
    in
    Arg.(value & opt (some kinds) None & info [ "reconfig" ]
           ~docv:"KIND[,KIND...]"
           ~doc:"Drill live membership reconfiguration: each kind becomes a \
                 campaign axis point whose generated membership-change \
                 scenario (plus paired chaos — joins race a mid-transfer \
                 crash of the joining hardware) runs per system and seed. \
                 Composes with --adversary to drill Byzantine behaviour \
                 during a membership change. The membership change is the \
                 scenario's identity and is never shrunk.")
  in
  let all_systems =
    Arg.(value & flag & info [ "all-systems" ]
           ~doc:"Drill every system, not just --system.")
  in
  let duration =
    Arg.(value & opt float 10.0 & info [ "duration"; "d" ]
           ~doc:"Simulated seconds per run (extended automatically past the \
                 scenario's heal time for the liveness verdict).")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"Short runs (8 simulated seconds) for CI smoke campaigns.")
  in
  let scale =
    Arg.(value & opt float 0.01 & info [ "scale" ]
           ~doc:"Workload keyspace scale in (0,1] (small by default: drills \
                 test fault handling, not peak throughput).")
  in
  let no_shrink =
    Arg.(value & flag & info [ "no-shrink" ]
           ~doc:"Skip delta-debugging shrink of failing scenarios.")
  in
  let artifacts =
    Arg.(value & opt (some string) None & info [ "artifacts" ] ~docv:"DIR"
           ~doc:"Write each failing scenario (with its repro line, \
                 violations and shrunk form as comments) to \
                 $(docv)/fail-SYSTEM-seedS.scenario for CI upload; \
                 `massbft run --scenario` replays it.")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a structured trace of the drilled runs and write \
                 Chrome trace_event JSON to $(docv); fault injections \
                 appear as 'fault'-category spans.")
  in
  let action system all_systems nodes groups worldwide scale seed seeds
      adversaries reconfigs duration_arg quick no_shrink artifacts trace_file
      domains =
    let duration = if quick then 8.0 else duration_arg in
    let cfg =
      { (Config.default ~system ()) with Config.workload_scale = scale }
    in
    let spec =
      if worldwide then Clusters.worldwide ~nodes_per_group:nodes ()
      else Clusters.nationwide ~nodes_per_group:nodes ~groups ()
    in
    (* The campaign axes: one recipe per strategy x membership kind. *)
    let axis = function None -> [ None ] | Some l -> List.map Option.some l in
    let recipes =
      List.concat_map
        (fun attack ->
          List.map
            (fun kind ->
              {
                Chaos.attack;
                membership =
                  Option.map (fun k -> List.assoc k Chaos.memberships) kind;
              })
            (axis reconfigs))
        (axis adversaries)
    in
    let name (r : Chaos.drill_result) =
      String.lowercase_ascii (Config.system_name r.Chaos.system)
    and attack (r : Chaos.drill_result) = r.Chaos.recipe.Chaos.attack
    and kind (r : Chaos.drill_result) =
      Option.map Chaos.membership_name r.Chaos.recipe.Chaos.membership
    in
    let artifact_stem r =
      let dash = Option.fold ~none:"" ~some:(( ^ ) "-") in
      Printf.sprintf "fail-%s%s%s-seed%Ld" (name r) (dash (attack r))
        (dash (kind r)) r.Chaos.seed
    in
    (* Every argument that shapes the scenario or the run, so the line
       regenerates the same scenario and replays the same run. *)
    let repro r =
      (* The shortest decimal that parses back to the same float. *)
      let float_arg f =
        let rec go digits =
          let s = Printf.sprintf "%.*g" digits f in
          if digits >= 17 || float_of_string s = f then s else go (digits + 1)
        in
        go 1
      in
      let opt flag = Option.fold ~none:"" ~some:(Printf.sprintf " %s %s" flag) in
      Printf.sprintf
        "massbft drill --seed %Ld --system %s --domains %d --nodes %d%s \
         --scale %s%s%s%s"
        r.Chaos.seed (name r) domains nodes
        (if worldwide then " --worldwide"
         else Printf.sprintf " --groups %d" groups)
        (float_arg scale)
        (if quick then " --quick" else " --duration " ^ float_arg duration_arg)
        (opt "--reconfig" (kind r))
        (opt "--adversary" (attack r))
    in
    (* The scenario replays through `run --scenario`; the repro line,
       the violations and the shrunk events ride along as comments. *)
    let save_artifact (r : Chaos.drill_result) =
      match artifacts with
      | None -> ()
      | Some dir ->
          (try Unix.mkdir dir 0o755
           with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          let file = Filename.concat dir (artifact_stem r ^ ".scenario") in
          let oc = open_out file in
          Printf.fprintf oc "# %s\n# %s\n%s" (repro r)
            (String.concat "; "
               (List.map Massbft_faults.Invariants.violation_to_string
                  r.Chaos.outcome.Chaos.violations))
            (Scenario.to_string r.Chaos.outcome.Chaos.scenario);
          Option.iter
            (fun s ->
              Printf.fprintf oc "# shrunk to %d event(s):\n%s"
                (List.length s)
                (String.concat ""
                   (List.map
                      (fun e -> "#   " ^ Scenario.event_to_string e ^ "\n")
                      s)))
            r.Chaos.shrunk;
          close_out oc;
          Format.printf "artifact: wrote %s@." file;
          match r.Chaos.outcome.Chaos.evidence with
          | [] -> ()
          | pairs ->
              let efile = Filename.concat dir (artifact_stem r ^ ".evidence") in
              let oc = open_out efile in
              List.iter
                (fun p -> output_string oc (Evidence.pair_to_string p))
                pairs;
              close_out oc;
              Format.printf "artifact: wrote %s (%d conflict pairs)@." efile
                (List.length pairs)
    in
    let report (r : Chaos.drill_result) =
      Format.printf "%a@." Chaos.pp_drill r;
      if Chaos.failed r.Chaos.outcome then begin
        List.iter
          (fun v ->
            Format.printf "  violation: %s@."
              (Massbft_faults.Invariants.violation_to_string v))
          r.Chaos.outcome.Chaos.violations;
        (match r.Chaos.outcome.Chaos.evidence with
        | [] -> ()
        | pairs ->
            Format.printf "  evidence: %d verified conflict pair(s)%s@."
              (List.length pairs)
              (if Chaos.accountable r.Chaos.outcome then
                 " — every violation accounted for"
               else ""));
        let events title s =
          Format.printf "  %s@." title;
          List.iter
            (fun e -> Format.printf "    %s@." (Scenario.event_to_string e))
            s
        in
        events "scenario:" r.Chaos.outcome.Chaos.scenario;
        Option.iter
          (fun s ->
            events (Printf.sprintf "shrunk to %d event(s):" (List.length s)) s)
          r.Chaos.shrunk;
        Format.printf "  repro: %s@." (repro r);
        save_artifact r
      end
    in
    let seed_list =
      match seeds with
      | Some (lo, hi) -> List.init (hi - lo + 1) (fun i -> Int64.of_int (lo + i))
      | None -> [ Int64.of_int seed ]
    in
    let sink = Option.map (fun _ -> Trace.create ()) trace_file in
    let c =
      Chaos.campaign ~duration ?trace:sink ~shrink_failures:(not no_shrink)
        ~systems:(if all_systems then Config.all_systems else [ system ])
        ~recipes ~on_run:report ~domains ~spec ~cfg ~seeds:seed_list ()
    in
    (* A run is bad only when a violation lacks a verified evidence
       pair: a caught-and-provable equivocation is the accountability
       machinery succeeding, a silent or unprovable one is a real bug.
       Without an adversary every violation is unaccountable. *)
    let hard =
      List.filter
        (fun (r : Chaos.drill_result) -> not (Chaos.accountable r.Chaos.outcome))
        c.Chaos.results
    in
    if seeds <> None then
      Format.printf "campaign: %d runs, %d failed%s@." c.Chaos.total
        (List.length hard)
        (let accounted = List.length c.Chaos.failures - List.length hard in
         if accounted > 0 then
           Printf.sprintf " (+%d accountable, evidence on file)" accounted
         else "");
    (match (trace_file, sink) with
    | Some file, Some tr ->
        Trace_export.write_chrome_json tr file;
        Format.printf "trace: wrote %s (%d events retained, %d dropped)@." file
          (Trace.length tr) (Trace.dropped tr)
    | _ -> ());
    if hard <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "drill"
       ~doc:
         "Chaos drill: generate a seeded random scenario of faults (or, \
          with --adversary, a Byzantine attack; with --reconfig, a live \
          membership change under chaos), run it, and check safety and \
          liveness invariants; failing scenarios are shrunk to minimal \
          reproducers. Exits nonzero on any violation a verified evidence \
          pair cannot account for.")
    Term.(
      const action $ system_arg $ all_systems $ nodes_arg $ groups_arg
      $ worldwide_arg $ scale $ seed $ seeds $ adversaries $ reconfigs
      $ duration $ quick $ no_shrink $ artifacts $ trace_file $ domains_arg)

(* ---- bench ---- *)

let bench_cmd =
  let full =
    Arg.(value & flag & info [ "full" ]
           ~doc:"Run the full bechamel quota instead of the quick smoke \
                 pass. The gate compares against committed baselines that \
                 were measured in full mode; quick mode stays within the \
                 default tolerance for every current benchmark and is what \
                 CI uses.")
  in
  let check_file =
    Arg.(value & opt (some string) None & info [ "check" ] ~docv:"FILE"
           ~doc:"Compare this run's micro results against the baseline \
                 report $(docv) (a committed BENCH_<date>.json) and exit \
                 non-zero when any benchmark regressed past the tolerance \
                 or disappeared from the suite.")
  in
  let tolerance =
    Arg.(value & opt float 25.0 & info [ "tolerance" ] ~docv:"PCT"
           ~doc:"Per-benchmark tolerance for --check, in percent.")
  in
  let json_file =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write this run's micro results to $(docv) in the \
                 Bench_report schema (micro rows only; the bench executable \
                 writes full baselines).")
  in
  let action full check_file tolerance json_file =
    if tolerance <= 0.0 then begin
      prerr_endline "massbft: option '--tolerance': must be positive";
      exit 124
    end;
    let micros = Massbft_bench.Micros.run_micro ~quick:(not full) () in
    (match json_file with
    | None -> ()
    | Some file ->
        let tm = Unix.localtime (Unix.time ()) in
        let date =
          Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
            (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
        in
        let doc =
          Bench_report.to_json ~date
            ~mode:(if full then "full" else "quick")
            ~micros ~macros:[] ()
        in
        let oc = open_out file in
        output_string oc doc;
        close_out oc;
        Format.printf "wrote %s@." file);
    match check_file with
    | None -> ()
    | Some file ->
        let baseline =
          try Bench_check.load_baseline file
          with Failure msg ->
            prerr_endline ("massbft: bad baseline: " ^ msg);
            exit 1
        in
        let current =
          List.map
            (fun (m : Bench_report.micro) -> (m.m_name, m.ns_per_run))
            micros
        in
        let result =
          Bench_check.compare_micros ~tolerance:(tolerance /. 100.0) ~baseline
            ~current ()
        in
        print_string (Bench_check.render ~baseline result);
        if not (Bench_check.passed result) then exit 1
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the micro-benchmark suite; with --check, gate against a \
          committed baseline report and exit non-zero on regressions.")
    Term.(const action $ full $ check_file $ tolerance $ json_file)

(* ---- figures ---- *)

let figures_cmd =
  let ids =
    Arg.(value & pos_all string [] & info []
           ~doc:"Figure ids to run (default: all). See 'massbft list'.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"Short windows and reduced sweeps (for smoke runs).")
  in
  let action ids quick =
    let selected =
      match ids with
      | [] -> Figures.all
      | ids ->
          List.filter (fun (id, _, _) -> List.mem id ids) Figures.all
    in
    if selected = [] then prerr_endline "no matching figures (see 'massbft list')"
    else
      List.iter
        (fun (_, _, (f : ?quick:bool -> unit -> Figures.figure)) ->
          Format.printf "%a@." Figures.pp_figure (f ~quick ()))
        selected
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's tables and figures.")
    Term.(const action $ ids $ quick)

let list_cmd =
  let action () =
    List.iter
      (fun (id, doc, _) -> Format.printf "%-8s %s@." id doc)
      Figures.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the reproducible figures.")
    Term.(const action $ const ())

(* ---- plan ---- *)

let plan_cmd =
  let n1 = Arg.(required & opt (some int) None & info [ "n1" ] ~doc:"Sender group size.") in
  let n2 = Arg.(required & opt (some int) None & info [ "n2" ] ~doc:"Receiver group size.") in
  let action n1 n2 =
    let p = Massbft.Transfer_plan.generate ~n1 ~n2 in
    Format.printf
      "transfer plan %d -> %d: n_total=%d n_data=%d n_parity=%d per-sender=%d \
       per-receiver=%d redundancy=%.3f entry copies@."
      n1 n2 p.Massbft.Transfer_plan.n_total p.Massbft.Transfer_plan.n_data
      p.Massbft.Transfer_plan.n_parity p.Massbft.Transfer_plan.nc_send
      p.Massbft.Transfer_plan.nc_recv
      (Massbft.Transfer_plan.redundancy p);
    for s = 0 to n1 - 1 do
      Format.printf "  sender %2d ships:" s;
      List.iter
        (fun (c, r) -> Format.printf " chunk %d->node %d" c r)
        (Massbft.Transfer_plan.sends_of p ~sender:s);
      Format.printf "@."
    done
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Print the Algorithm 1 transfer plan for a group pair.")
    Term.(const action $ n1 $ n2)

let main =
  Cmd.group
    (Cmd.info "massbft" ~version:"1.0.0"
       ~doc:
         "MassBFT: fast and scalable geo-distributed BFT consensus \
          (reproduction of the ICDE 2025 paper).")
    [ run_cmd; bench_cmd; drill_cmd; figures_cmd; list_cmd; plan_cmd ]

let () = exit (Cmd.eval main)
