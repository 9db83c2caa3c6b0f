(* The benchmark suite:

   1. Named bechamel micro-benchmarks for every substrate hot path
      (see micros.ml; shared with the [massbft bench] subcommand).
   2. Macro benchmarks: one full engine run per system on YCSB-A over
      the nationwide cluster, reporting both the simulated-side results
      and the wall-clock cost of producing them.
   3. The sharded-scheduler scaling table.

   The regression gate is `massbft bench --check FILE`; the figure
   harness is `massbft figures`.

   Flags:
     --quick          fast smoke pass (reduced bechamel quota, short
                      macro windows at 1% scale); MASSBFT_BENCH_QUICK=1
                      does the same
     --json [FILE]    write the micro+macro baseline to FILE (default
                      BENCH_<date>.json) in the Bench_report schema
     --prof FILE      self-profile the MassBFT macro row and write the
                      profiler's JSON report to FILE; the row's
                      host_phases breakdown lands in --json output too *)

module Config = Massbft.Config
module Bench_report = Massbft_harness.Bench_report
module Prof = Massbft_prof.Prof
module Prof_export = Massbft_prof.Prof_export

(* ------------------------------------------------------------------ *)
(* Macro benchmarks                                                    *)
(* ------------------------------------------------------------------ *)

let run_macros ~quick ~prof_file () =
  Printf.printf "=== macro benchmarks (YCSB-A, nationwide, %s mode) ===\n"
    (if quick then "quick" else "full");
  let macros =
    List.map
      (fun system ->
        (* Only the MassBFT row is profiled (and only when asked): the
           profiler is free of per-event cost but the unprofiled rows
           keep the baseline comparison maximally conservative. *)
        let prof =
          if prof_file <> None && system = Config.Massbft then
            Some (Prof.create ())
          else None
        in
        let m = Bench_report.run_macro ~quick ?prof ~system () in
        Printf.printf
          "  %-9s %8.2f ktps  %6.2fs wall  %5.2f sim-s/wall-s  %8.0f txns/wall-s\n%!"
          m.Bench_report.system m.Bench_report.throughput_ktps
          m.Bench_report.wall_s m.Bench_report.sim_s_per_wall_s
          m.Bench_report.committed_txns_per_wall_s;
        (match (prof, prof_file) with
        | Some p, Some file ->
            Prof_export.write_json ~windows:true p file;
            Printf.printf "  wrote host profile to %s\n%!" file;
            print_string (Prof_export.text (Prof.report p))
        | _ -> ());
        m)
      Config.all_systems
  in
  print_newline ();
  macros

(* ------------------------------------------------------------------ *)
(* Sharded-scheduler scaling table                                     *)
(* ------------------------------------------------------------------ *)

let run_scaling ~quick () =
  Printf.printf
    "=== scheduler scaling (MassBFT YCSB-A, groups x domains, %s mode) ===\n"
    (if quick then "quick" else "full");
  Printf.printf "  host domains available: %d\n"
    (Domain.recommended_domain_count ());
  Printf.printf "  %-7s %-8s %9s %16s %15s\n" "groups" "domains" "wall_s"
    "sim_s/wall_s" "committed_txns";
  let groups_list, domains_list =
    if quick then ([ 3 ], [ 1; 2 ]) else ([ 3; 5 ], [ 1; 2; 4 ])
  in
  let rows =
    Bench_report.run_scaling ~quick ~groups_list ~domains_list
      ~on_row:(fun (s : Bench_report.scaling) ->
        Printf.printf "  %-7d %-8d %9.2f %16.3f %15d\n%!" s.sc_groups
          s.sc_domains s.sc_wall_s s.sc_sim_s_per_wall_s s.sc_committed_txns)
      ()
  in
  print_newline ();
  rows

let () =
  let argv = Array.to_list Sys.argv in
  let quick =
    List.mem "--quick" argv
    ||
    match Sys.getenv_opt "MASSBFT_BENCH_QUICK" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false
  in
  let flag_value name =
    let rec find = function
      | flag :: next :: _
        when flag = name && String.length next > 0 && next.[0] <> '-' ->
          Some next
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let json_file =
    if not (List.mem "--json" argv) then None
    else
      match flag_value "--json" with
      | Some f -> Some f
      | None ->
          let tm = Unix.localtime (Unix.time ()) in
          Some
            (Printf.sprintf "BENCH_%04d-%02d-%02d.json" (tm.Unix.tm_year + 1900)
               (tm.Unix.tm_mon + 1) tm.Unix.tm_mday)
  in
  let prof_file = flag_value "--prof" in
  (* The scaling table runs first: its rows compare drivers against
     each other, and measuring them from the pristine process keeps
     them free of the heap growth the micro and macro sections leave
     behind (a per-row compaction recovers most but not all of it). *)
  let scaling = run_scaling ~quick () in
  let micros = Massbft_bench.Micros.run_micro ~quick () in
  let macros = run_macros ~quick ~prof_file () in
  match json_file with
  | None -> ()
  | Some file ->
      let tm = Unix.localtime (Unix.time ()) in
      let date =
        Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
          (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
      in
      let doc =
        Bench_report.to_json ~date
          ~mode:(if quick then "quick" else "full")
          ~scaling ~micros ~macros ()
      in
      let oc = open_out file in
      output_string oc doc;
      close_out oc;
      Printf.printf "wrote %s\n" file
