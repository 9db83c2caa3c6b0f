(* The repository benchmark's measuring process.

   One process measures one workload once:

     bench.exe setup --workload W --seed N
       builds the cluster, starts the engine, prints "ready" and exits
       (run.py times process start -> "ready" as one set-up sample);

     bench.exe run --workload W --seed N --seconds S --trace 0|1 [--tamper]
       builds and starts the same cluster (printing "ready"), warms it
       up, drives the measured window in slices, checks the result and
       prints every metric as one JSON object on its last line.

   With --trace 0 the metrics are the end-to-end set. With --trace 1 the
   same untraced drive runs with the host profiler attached, then a
   second, traced copy of the run (Trace sink + Obs sampler) and the
   layer replays supply the per-layer set. --tamper corrupts one
   leader's ledger before the correctness check (the check must then
   fail); it exists for the benchmark's own tests.

   Spans around every call into a layer are recorded here, in the
   benchmark's own code, kept in memory and printed at the end. *)

module Config = Massbft.Config
module Engine = Massbft.Engine
module Metrics = Massbft.Metrics
module Node_ctx = Massbft.Node_ctx
module Types = Massbft.Types
module Sim = Massbft_sim.Sim
module Topology = Massbft_sim.Topology
module Clusters = Massbft_harness.Clusters
module Trace = Massbft_trace.Trace
module Sampler = Massbft_obs.Sampler
module Registry = Massbft_obs.Registry
module Prof = Massbft_prof.Prof
module W = Massbft_workload.Workload
module Aria = Massbft_exec.Aria
module Kvstore = Massbft_exec.Kvstore
module Ledger = Massbft_exec.Ledger
module Sha256 = Massbft_crypto.Sha256
module Stats = Massbft_util.Stats

let clock = Prof.monotonic

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  kind : W.kind;
  groups : int;
  max_batch : int;
  pipeline : int;
  domains : int;
  warmup_s : float;  (** simulated seconds driven before the window *)
  settle_s : float;
      (** tail of the warm-up whose entries already count: latency
          samples start here so the window opens in steady state *)
  ref_rate : float;
      (** simulated seconds per wall second the window is sized for
          (this workload's rate on a 2-core host when it was defined) *)
  min_window_s : float;
}

(* The measured window is cut into [slices] equal slices; the traced
   copy repeats the first [traced_slices] of them. *)
let slices = 40
let traced_slices = 10

let workloads =
  [
    {
      name = "ycsba-peak";
      kind = W.Ycsb_a;
      groups = 3;
      max_batch = 500;
      pipeline = 8;
      domains = 1;
      warmup_s = 2.0;
      settle_s = 1.0;
      ref_rate = 2.3;
      min_window_s = 4.0;
    };
    {
      name = "tpcc-peak";
      kind = W.Tpcc;
      groups = 3;
      max_batch = 500;
      pipeline = 8;
      domains = 1;
      warmup_s = 1.0;
      settle_s = 0.5;
      ref_rate = 0.2;
      min_window_s = 2.5;
    };
    {
      name = "ycsba-5g-par";
      kind = W.Ycsb_a;
      groups = 5;
      max_batch = 500;
      pipeline = 8;
      domains = 2;
      warmup_s = 2.0;
      settle_s = 1.0;
      ref_rate = 1.7;
      min_window_s = 4.0;
    };
  ]

(* The window is [slices] slices of a whole number of 5 ms each, and one
   (workload, seconds) pair always simulates exactly the same span: the
   simulated metrics then depend on the seed alone. *)
let window_s wl ~seconds =
  let raw = Float.max wl.min_window_s (float_of_int seconds *. wl.ref_rate) in
  let step = 0.005 *. float_of_int slices in
  Float.ceil (raw /. step -. 1e-9) *. step

(* ------------------------------------------------------------------ *)
(* Spans from the benchmark's own code                                 *)
(* ------------------------------------------------------------------ *)

type span = { s_name : string; s_parent : string; s_b : float; s_e : float }

let spans = ref []
let t_process = clock ()

let with_span ?(parent = "process") name f =
  let b = clock () in
  let r = f () in
  spans := { s_name = name; s_parent = parent; s_b = b; s_e = clock () } :: !spans;
  r

let print_spans () =
  print_endline "spans (benchmark-side, host wall):";
  List.iter
    (fun s ->
      Printf.printf "  span %-28s parent=%-16s start=%9.3f ms  dur=%10.3f ms\n"
        s.s_name s.s_parent
        (1000.0 *. (s.s_b -. t_process))
        (1000.0 *. (s.s_e -. s.s_b)))
    (List.rev !spans)

(* ------------------------------------------------------------------ *)
(* Cluster construction (the wiring of Runner.run, driven in slices)   *)
(* ------------------------------------------------------------------ *)

type run = {
  sim : Sim.t;
  topo : Topology.t;
  engine : Engine.t;
}

let build wl ~seed ?trace ?sampler ?prof () =
  let spec = Clusters.nationwide ~groups:wl.groups () in
  let cfg =
    {
      (Config.default ~system:Config.Massbft ~workload:wl.kind ()) with
      Config.workload_scale = 1.0;
      max_batch = wl.max_batch;
      pipeline = wl.pipeline;
      seed = Int64.of_int seed;
      (* the parallel driver requires per-group stores (as in Runner) *)
      independent_stores = wl.domains > 1;
    }
  in
  let sim =
    Sim.create ~shards:wl.groups ~lookahead:(Topology.min_wan_one_way spec) ()
  in
  let topo = Topology.create sim spec in
  let engine = Engine.create sim topo cfg in
  (match trace with Some tr -> Engine.set_trace engine tr | None -> ());
  (match prof with Some p -> Prof.attach p sim | None -> ());
  (match sampler with
  | Some s ->
      Sampler.watch_sim s sim;
      Sampler.watch_topology s topo;
      Engine.set_obs engine s;
      Sampler.attach s sim
  | None -> ());
  Engine.start engine;
  Engine.set_measure_from engine (wl.warmup_s -. wl.settle_s);
  { sim; topo; engine }

let warm_up r wl ~domains =
  let until = wl.warmup_s in
  if domains > 1 then Sim.run_parallel r.sim ~domains ~until ()
  else Sim.run r.sim ~until;
  Topology.reset_traffic_baseline r.topo

(* ------------------------------------------------------------------ *)
(* The measured drive                                                  *)
(* ------------------------------------------------------------------ *)

type snap = {
  wall : float;
  committed : int;
  conflicted : int;
  logic : int;
  measured_entries : int;
  entries : int;  (** distinct entries executed (group 0's leader) *)
  events : int;
}

let snap r =
  let m = Engine.metrics r.engine in
  {
    wall = clock ();
    committed = Stats.Counter.get m.Metrics.committed_txns;
    conflicted = Stats.Counter.get m.Metrics.conflicted_txns;
    logic = Stats.Counter.get m.Metrics.logic_aborted_txns;
    measured_entries = Stats.Counter.get m.Metrics.entries_executed;
    entries = Engine.executed_count r.engine ~gid:0;
    events = Sim.dispatched_total r.sim;
  }

type window = {
  w_sim_s : float;
  w_slices : (float * snap * snap) list;  (** (sim span, before, after) *)
  w_first : snap;
  w_last : snap;
  w_gc0 : Gc.stat;
  w_gc1 : Gc.stat;
  w_driver_minor : float;  (** this domain's own minor words *)
}

(* Drives [n] slices of [len] simulated seconds each, from [from]. The
   wall-clock rates are taken per slice and reported as medians, so one
   host hiccup moves a single slice, not the run. The parallel driver
   runs the whole window in one call (re-spawning its domains per slice
   would change the heap it is measured on) and the slices are cut at
   the first window barrier past each boundary, where every worker is
   parked. [on_slice] runs between slices, outside both slices' walls. *)
let measure r ~domains ~from ~len ~n ?(on_slice = fun () -> ()) () =
  let gc0 = Gc.quick_stat () in
  let dm0 = Gc.minor_words () in
  let first = snap r in
  let slices = ref [] and prev = ref (from, first) and k = ref 1 in
  let boundary i = from +. (len *. float_of_int i) in
  let cut t_end =
    let s = snap r in
    on_slice ();
    let t_prev, s_prev = !prev in
    slices := (t_end -. t_prev, s_prev, s) :: !slices;
    prev := (t_end, { s with wall = clock () });
    incr k
  in
  let until = boundary n in
  if domains > 1 then begin
    Sim.run_parallel r.sim ~domains ~until
      ~on_window:(fun t -> if !k < n && t >= boundary !k then cut t)
      ();
    cut until
  end
  else
    while !k <= n do
      let t = boundary !k in
      Sim.run r.sim ~until:t;
      cut t
    done;
  let dm1 = Gc.minor_words () in
  let gc1 = Gc.quick_stat () in
  let last = match !slices with (_, _, s) :: _ -> s | [] -> first in
  {
    w_sim_s = until -. from;
    w_slices = List.rev !slices;
    w_first = first;
    w_last = last;
    w_gc0 = gc0;
    w_gc1 = gc1;
    w_driver_minor = dm1 -. dm0;
  }

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let committed_w w = w.w_last.committed - w.w_first.committed

let attempts_w w =
  committed_w w
  + (w.w_last.conflicted - w.w_first.conflicted)
  + (w.w_last.logic - w.w_first.logic)

let entries_w w = w.w_last.entries - w.w_first.entries
let wall_w w = w.w_last.wall -. w.w_first.wall
let per_txn w x = x /. float_of_int (max 1 (committed_w w))

(* ------------------------------------------------------------------ *)
(* Correctness check (independent of the seed)                          *)
(* ------------------------------------------------------------------ *)

let rec common_prefix_ok a b =
  match (a, b) with
  | x :: a', y :: b' -> Types.entry_id_equal x y && common_prefix_ok a' b'
  | [], _ | _, [] -> true

(* A copy of [l] whose middle block carries a different payload digest:
   a well-formed chain that disagrees with every honest leader. *)
let tampered l =
  let copy = Ledger.create () in
  let bad = Ledger.height l / 2 in
  List.iter
    (fun (b : Ledger.block) ->
      ignore
        (Ledger.append copy ~gid:b.Ledger.gid ~seq:b.Ledger.seq
           ~txn_count:b.Ledger.txn_count
           ~payload_digest:
             (if b.Ledger.height = bad then Sha256.digest "tampered"
              else b.Ledger.payload_digest)))
    (Ledger.blocks l);
  copy

let check r ~tamper ~committed =
  let ng = Engine.n_groups r.engine in
  let ids = Array.init ng (fun gid -> Engine.executed_ids r.engine ~gid) in
  let ledgers =
    Array.init ng (fun gid ->
        let l = Engine.ledger_of r.engine ~gid in
        if tamper && gid = ng - 1 then tampered l else l)
  in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if committed <= 0 then fail "no transaction committed in the window";
  Array.iteri
    (fun g l ->
      if not (Ledger.verify l) then fail "group %d ledger fails verification" g;
      if Ledger.height l <> List.length ids.(g) then
        fail "group %d ledger height %d <> %d executed entries" g
          (Ledger.height l) (List.length ids.(g));
      if Ledger.height l = 0 then fail "group %d executed nothing" g)
    ledgers;
  for a = 0 to ng - 1 do
    for b = a + 1 to ng - 1 do
      let common = min (Ledger.height ledgers.(a)) (Ledger.height ledgers.(b)) in
      if Ledger.equal_prefix ledgers.(a) ledgers.(b) < common then
        fail "ledgers of groups %d and %d diverge within their common prefix"
          a b;
      if not (common_prefix_ok ids.(a) ids.(b)) then
        fail "execution orders of groups %d and %d diverge" a b
    done
  done;
  List.rev !errors

(* ------------------------------------------------------------------ *)
(* Layer replays, timed from outside                                   *)
(* ------------------------------------------------------------------ *)

type replay = {
  gen_ns : float;
  aria_ns : float;
  apply_ns : float;
  sha_ns : float;
  replay_txns : int;
  replay_entries : int;
  store_keys_replay : int;
  replica_agrees : bool;  (** the replica matches on every written key *)
}

(* Group 0's own seeded stream at the run's batch size: batches formed
   as the batcher forms them (conflict-aborted transactions re-enter
   through the fallback lane), executed with Aria on one store and
   replayed by write-set shipping onto a second. *)
let replay wl ~seed ~txns =
  let gen = W.create ~scale:1.0 wl.kind ~seed:(Int64.of_int seed) in
  let preload = W.preload ~scale:1.0 wl.kind in
  let store = Kvstore.create ~init:preload () in
  let replica = Kvstore.create ~init:preload () in
  let t_gen = ref 0.0 and t_aria = ref 0.0 and t_apply = ref 0.0 in
  let n_txn = ref 0 and n_fresh = ref 0 and n_entries = ref 0 in
  let retry = ref [] in
  let written = Hashtbl.create 4096 in
  while !n_txn < txns do
    let retried = !retry in
    let t0 = clock () in
    let fresh =
      List.init (wl.max_batch - List.length retried) (fun _ -> W.next gen)
    in
    let t1 = clock () in
    let o = Aria.execute_batch ~reorder:true ~fallback:retried store fresh in
    let t2 = clock () in
    Aria.apply_effects replica o;
    let t3 = clock () in
    t_gen := !t_gen +. (t1 -. t0);
    t_aria := !t_aria +. (t2 -. t1);
    t_apply := !t_apply +. (t3 -. t2);
    retry := o.Aria.conflicted;
    List.iter (fun (k, _) -> Hashtbl.replace written k ()) o.Aria.effects;
    n_fresh := !n_fresh + List.length fresh;
    n_txn := !n_txn + wl.max_batch;
    incr n_entries
  done;
  (* The batcher's per-entry digest, over the same number of entries. *)
  let ids =
    Array.init !n_entries (fun i ->
        "entry:" ^ Types.entry_id_to_string { Types.gid = i mod wl.groups; seq = i })
  in
  let t0 = clock () in
  Array.iter (fun s -> ignore (Sys.opaque_identity (Sha256.digest s))) ids;
  let t_sha = clock () -. t0 in
  let ns t n = 1e9 *. t /. float_of_int (max 1 n) in
  {
    gen_ns = ns !t_gen !n_fresh;
    aria_ns = ns !t_aria !n_txn;
    apply_ns = ns !t_apply !n_txn;
    sha_ns = ns t_sha !n_entries;
    replay_txns = !n_txn;
    replay_entries = !n_entries;
    store_keys_replay = Kvstore.size store;
    (* reads fault preloaded defaults into [store] only, so compare
       the written keys rather than whole-store fingerprints *)
    replica_agrees =
      Hashtbl.fold
        (fun k () ok -> ok && Kvstore.get store k = Kvstore.get replica k)
        written true;
  }

(* ------------------------------------------------------------------ *)
(* Metrics output                                                      *)
(* ------------------------------------------------------------------ *)

let metrics = ref []
let metric name unit v = metrics := (name, unit, v) :: !metrics

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_json ~correct ~attempted ~failed =
  let ms =
    List.rev_map
      (fun (n, u, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
      !metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6

let phase_ms r f = 1000.0 *. Stats.Summary.mean (f (Engine.metrics r.engine))

let end_to_end r wl w ~emit =
  let metric n u v = if emit then metric n u v in
  let rates f = median (List.map f w.w_slices) in
  let m = Engine.metrics r.engine in
  let lat = m.Metrics.latency_s in
  let committed = committed_w w in
  let sim_rate = rates (fun (len, a, b) -> len /. (b.wall -. a.wall)) in
  metric "sim_s_per_wall_s" "sim-s/wall-s" sim_rate;
  (* committed per simulated second (exact) at the median slice speed:
     a slice holds too few entries for its own commit count to be
     smooth *)
  metric "committed_txns_per_wall_s" "txn/wall-s"
    (float_of_int committed /. w.w_sim_s *. sim_rate);
  metric "peak_heap_mb" "MB" (mb_of_words (Gc.quick_stat ()).Gc.top_heap_words);
  metric "alloc_words_per_txn" "words/txn"
    (per_txn w (w.w_gc1.Gc.minor_words -. w.w_gc0.Gc.minor_words));
  metric "sim_ktps" "ktxn/sim-s" (float_of_int committed /. w.w_sim_s /. 1000.0);
  metric "sim_latency_p50_ms" "sim-ms" (1000.0 *. Stats.Summary.percentile lat 50.0);
  metric "sim_latency_p95_ms" "sim-ms" (1000.0 *. Stats.Summary.percentile lat 95.0);
  metric "txn_abort_share" "ratio"
    (float_of_int (w.w_last.conflicted - w.w_first.conflicted)
    /. float_of_int (max 1 (attempts_w w)));
  Printf.printf
    "latency samples: %d entries (p50 and p95 over all of them)\n\
     window: %.1f simulated s in %d slices, %.3f wall s, %d committed txns, \
     %d entries\n"
    (Stats.Summary.count lat) w.w_sim_s
    (List.length w.w_slices) (wall_w w) committed
    (entries_w w);
  List.iteri
    (fun i (len, a, b) ->
      Printf.printf
        "  slice %2d: %.2f sim-s in %.3f wall-s, %d txns committed, %d events\n"
        (i + 1) len (b.wall -. a.wall) (b.committed - a.committed)
        (b.events - a.events))
    w.w_slices;
  (* OCaml 5's Gc.quick_stat sums every domain (joined workers' counts
     are folded in at join); Gc.minor_words is this domain's alone. *)
  let all = w.w_gc1.Gc.minor_words -. w.w_gc0.Gc.minor_words in
  Printf.printf
    "alloc scope: all domains (Gc.quick_stat) = %.0f words; driver domain \
     alone = %.0f words\n"
    all w.w_driver_minor;
  if wl.domains > 1 && not (all > w.w_driver_minor) then
    Some "alloc_words_per_txn misses the worker domains' allocation"
  else None

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let trace_capacity = 1 lsl 21

type traced = {
  t_wall : float;  (** drive wall of the traced slices *)
  t_entries : int;
  t_committed : int;
  t_counts : (string, int) Hashtbl.t;  (** "cat/name" -> events *)
  t_emitted : int;
  t_dropped : int;
  t_wan_busy : float;
  t_cpu_util : float;
}

(* A fresh copy of the run with a Trace sink and an Obs sampler, on the
   sequential driver (both are single-writer structures). The ring is
   drained after every slice, so [t_dropped] is 0 unless one slice
   overflows it, and per-category counts cover every event. *)
let traced_run wl ~seed ~len ~n =
  let tr = Trace.create ~capacity:trace_capacity () in
  let sampler = Sampler.create (Registry.create ()) in
  let r =
    with_span ~parent:"traced" "traced.setup" (fun () ->
        build wl ~seed ~trace:tr ~sampler ())
  in
  with_span ~parent:"traced" "traced.warmup" (fun () ->
      warm_up r wl ~domains:1;
      Sampler.reset sampler);
  let counts = Hashtbl.create 64 in
  let dropped = ref 0 in
  let drain () =
    dropped := !dropped + Trace.dropped tr;
    List.iter
      (fun (e : Trace.event) ->
        match e.Trace.kind with
        | Trace.Span_end -> ()
        | _ ->
            let k = e.Trace.cat ^ "/" ^ e.Trace.name in
            Hashtbl.replace counts k
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
      (Trace.events tr);
    Trace.clear tr
  in
  Trace.clear tr;
  let emitted0 = Trace.emitted tr in
  let w =
    with_span ~parent:"traced" "traced.drive" (fun () ->
        measure r ~domains:1 ~from:wl.warmup_s ~len ~n ~on_slice:drain ())
  in
  let mean_over name extra =
    let vs =
      List.init wl.groups (fun g ->
          Option.value ~default:0.0
            (Sampler.column_mean sampler ~name
               ~labels:([ ("group", string_of_int g); ("node", "0") ] @ extra)))
    in
    List.fold_left ( +. ) 0.0 vs /. float_of_int wl.groups
  in
  {
    t_wall =
      List.fold_left (fun acc (_, a, b) -> acc +. (b.wall -. a.wall)) 0.0 w.w_slices;
    t_entries = entries_w w;
    t_committed = committed_w w;
    t_counts = counts;
    t_emitted = Trace.emitted tr - emitted0;
    t_dropped = !dropped;
    t_wan_busy =
      mean_over "massbft_nic_busy_fraction" [ ("link", "wan_up"); ("class", "bulk") ];
    t_cpu_util = mean_over "massbft_cpu_utilization" [];
  }

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

let per_layer r wl ~seed w ~(p0 : Prof.report) ~(p1 : Prof.report) =
  let entries = max 1 (entries_w w) in
  let drive_wall = wall_w w in
  let d f = f p1 -. f p0 in
  (* sim core *)
  metric "sim.events_per_txn" "events/txn"
    (per_txn w (float_of_int (w.w_last.events - w.w_first.events)));
  metric "sim.events_per_wall_s" "events/wall-s"
    (median
       (List.map
          (fun (_, a, b) -> float_of_int (b.events - a.events) /. (b.wall -. a.wall))
          w.w_slices));
  (* driver phases over the measured window only: report deltas *)
  let domains = max 1 p1.Prof.rp_domains in
  metric "sim.execute_s" "s" (d (fun p -> p.Prof.rp_execute_span_s));
  metric "sim.barrier_stall_share" "share"
    (d (fun p -> p.Prof.rp_stall_s) /. (drive_wall *. float_of_int domains));
  metric "sim.mailbox_merge_share" "share" (d (fun p -> p.Prof.rp_merge_s) /. drive_wall);
  metric "sim.coordinator_share" "share" (d (fun p -> p.Prof.rp_coord_s) /. drive_wall);
  let busy =
    List.map
      (fun (ds : Prof.domain_stat) ->
        let before =
          List.find_opt
            (fun (x : Prof.domain_stat) -> x.Prof.ds_id = ds.Prof.ds_id)
            p0.Prof.rp_per_domain
        in
        let e0, s0 =
          match before with
          | Some x -> (x.Prof.ds_execute_s, x.Prof.ds_stall_s)
          | None -> (0.0, 0.0)
        in
        let e = ds.Prof.ds_execute_s -. e0 and s = ds.Prof.ds_stall_s -. s0 in
        if e +. s > 0.0 then e /. (e +. s) else 0.0)
      p1.Prof.rp_per_domain
  in
  metric "sim.domain_busy_min_share" "share"
    (List.fold_left Float.min 1.0 busy);
  (* net: bytes since the traffic baseline taken at the window's start *)
  metric "net.wan_bytes_per_entry" "bytes/entry"
    (float_of_int (Engine.wan_bytes r.engine) /. float_of_int entries);
  metric "net.lan_bytes_per_entry" "bytes/entry"
    (float_of_int (Engine.lan_bytes r.engine) /. float_of_int entries);
  (* the traced copy: categories, NIC and CPU busy *)
  let len = w.w_sim_s /. float_of_int (List.length w.w_slices) in
  let tr =
    with_span "traced" (fun () -> traced_run wl ~seed ~len ~n:traced_slices)
  in
  let count k = Option.value ~default:0 (Hashtbl.find_opt tr.t_counts k) in
  metric "net.propagations_per_entry" "msgs/entry"
    (float_of_int (count "net/propagate") /. float_of_int (max 1 tr.t_entries));
  metric "net.leader_wan_up_busy" "share" tr.t_wan_busy;
  metric "cpu.leader_util" "share" tr.t_cpu_util;
  (* stage phases (simulated, per measured entry) *)
  metric "batcher.txns_per_entry" "txn/entry"
    (float_of_int (attempts_w w)
    /. float_of_int (max 1 (w.w_last.measured_entries - w.w_first.measured_entries)));
  metric "local_consensus.phase_ms" "sim-ms" (phase_ms r (fun m -> m.Metrics.phase_local_s));
  metric "replication.coding_ms" "sim-ms" (phase_ms r (fun m -> m.Metrics.phase_coding_s));
  metric "replication.global_ms" "sim-ms" (phase_ms r (fun m -> m.Metrics.phase_global_s));
  metric "ordering.phase_ms" "sim-ms" (phase_ms r (fun m -> m.Metrics.phase_order_s));
  metric "execution.phase_ms" "sim-ms" (phase_ms r (fun m -> m.Metrics.phase_exec_s));
  (* layer replays on the workload's own stream, as many transactions
     as the traced window committed *)
  let rp =
    with_span "replay" (fun () ->
        replay wl ~seed ~txns:(max wl.max_batch tr.t_committed))
  in
  metric "exec.aria_ns_per_txn" "ns/txn" rp.aria_ns;
  metric "exec.apply_effects_ns_per_txn" "ns/txn" rp.apply_ns;
  let ctx = Engine.ctx r.engine in
  metric "exec.store_keys" "keys"
    (float_of_int (Kvstore.size ctx.Node_ctx.leaders.(0).Node_ctx.l_store));
  metric "workload.gen_ns_per_txn" "ns/txn" rp.gen_ns;
  metric "crypto.sha256_ns_per_entry" "ns/entry" rp.sha_ns;
  (* runtime *)
  metric "gc.promoted_words_per_txn" "words/txn"
    (per_txn w (w.w_gc1.Gc.promoted_words -. w.w_gc0.Gc.promoted_words));
  metric "gc.minor_collections" "count"
    (float_of_int (w.w_gc1.Gc.minor_collections - w.w_gc0.Gc.minor_collections));
  metric "gc.major_collections" "count"
    (float_of_int (w.w_gc1.Gc.major_collections - w.w_gc0.Gc.major_collections));
  (* attribution: replayed per-unit costs times the window's counts *)
  let attempts = float_of_int (attempts_w w) in
  let fresh = attempts -. float_of_int (w.w_last.conflicted - w.w_first.conflicted) in
  let replicas = if wl.domains > 1 then float_of_int (wl.groups - 1) else 0.0 in
  let attributed =
    1e-9
    *. ((rp.gen_ns *. fresh) +. (rp.aria_ns *. attempts)
       +. (rp.apply_ns *. attempts *. replicas)
       +. (rp.sha_ns *. float_of_int entries))
  in
  metric "attrib.unattributed_share" "share" (1.0 -. (attributed /. drive_wall));
  (* tracing overhead against the same slices on the sequential driver *)
  let untraced =
    if wl.domains = 1 then
      List.fold_left
        (fun acc (_, a, b) -> acc +. (b.wall -. a.wall))
        0.0
        (List.filteri (fun i _ -> i < traced_slices) w.w_slices)
    else
      with_span "untraced_sequential" (fun () ->
          let r' = build wl ~seed () in
          warm_up r' wl ~domains:1;
          let w' =
            measure r' ~domains:1 ~from:wl.warmup_s ~len ~n:traced_slices ()
          in
          wall_w w')
  in
  metric "trace.overhead_share" "share" ((tr.t_wall /. untraced) -. 1.0);
  metric "trace.dropped_events" "count" (float_of_int tr.t_dropped);
  Printf.printf
    "traced copy: %d simulated slices of %.2f s, %d events emitted (%d \
     dropped), wall %.3f s traced vs %.3f s untraced\n"
    traced_slices len tr.t_emitted tr.t_dropped tr.t_wall untraced;
  print_endline "trace events per category/name in the traced window:";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tr.t_counts []
  |> List.sort compare
  |> List.iter (fun (k, v) -> Printf.printf "  %-32s %d\n" k v);
  Printf.printf
    "replay: %d txns in %d entries of %d; attributed %.3f s of %.3f s drive wall\n"
    rp.replay_txns rp.replay_entries wl.max_batch attributed drive_wall;
  if rp.replica_agrees then None
  else Some "replayed effects do not reproduce the executed store"

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench.exe (setup|run) --workload NAME --seed N [--seconds S] \
     [--trace 0|1] [--tamper]";
  exit 2

let () =
  let argv = Array.to_list Sys.argv in
  let mode, rest = match argv with _ :: m :: rest -> (m, rest) | _ -> usage () in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: tl -> opt name tl
    | [] -> None
  in
  let int_opt name default =
    match opt name rest with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let wl =
    match opt "--workload" rest with
    | None -> usage ()
    | Some n -> (
        match List.find_opt (fun w -> w.name = n) workloads with
        | Some w -> w
        | None ->
            Printf.eprintf "bench: unknown workload %s\n" n;
            exit 2)
  in
  let seed = int_opt "--seed" 1 in
  let seconds = int_opt "--seconds" 10 in
  let traced = int_opt "--trace" 0 = 1 in
  let tamper = List.mem "--tamper" rest in
  match mode with
  | "setup" ->
      ignore (build wl ~seed ());
      print_endline "ready"
  | "run" ->
      let prof = if traced then Some (Prof.create ()) else None in
      let r = with_span "setup" (fun () -> build wl ~seed ?prof ()) in
      print_endline "ready";
      flush stdout;
      with_span "warmup_drive" (fun () -> warm_up r wl ~domains:wl.domains);
      let p0 = Option.map Prof.report prof in
      let total = window_s wl ~seconds in
      let len = total /. float_of_int slices in
      (* The traced mode drives the first half of the window untraced:
         with the traced copy and the replays it then costs about what
         an untraced run does. *)
      let n = if traced then slices / 2 else slices in
      let w =
        with_span "measured_drive" (fun () ->
            measure r ~domains:wl.domains ~from:wl.warmup_s ~len ~n ())
      in
      Option.iter Prof.finish prof;
      let p1 = Option.map Prof.report prof in
      let alloc_err =
        with_span "extract" (fun () -> end_to_end r wl w ~emit:(not traced))
      in
      let layer_err =
        match (p0, p1) with
        | Some p0, Some p1 -> per_layer r wl ~seed w ~p0 ~p1
        | _ -> None
      in
      let errors =
        with_span "check" (fun () -> check r ~tamper ~committed:(committed_w w))
        @ List.filter_map Fun.id [ alloc_err; layer_err ]
      in
      List.iter (Printf.printf "CHECK FAILED: %s\n") errors;
      if errors = [] then print_endline "check: ok (leaders agree on their common prefix; committed > 0)";
      print_spans ();
      let attempted = max 1 (attempts_w w) in
      let correct = errors = [] in
      print_endline
        (result_json ~correct ~attempted ~failed:(if correct then 0 else attempted))
  | _ -> usage ()
