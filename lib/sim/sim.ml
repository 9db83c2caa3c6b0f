module Heap = Massbft_util.Heap
module Trace = Massbft_trace.Trace

(* The simulator is time-sharded: every shard owns an event heap, a
   clock, and dispatch/trace accounting, and a thin coordinator advances
   the shards either sequentially (popping the globally minimal
   (time, seq) event across heaps — bit-identical to the historical
   single-heap scheduler, whose order was exactly that total order) or
   in parallel lockstep windows bounded by the lookahead (the minimum
   cross-shard propagation latency). Cross-shard communication goes
   through per-shard mailboxes stamped (time, src shard, per-source
   seq); the stamp is a total order independent of how domain execution
   interleaves, so parallel runs are deterministic. *)

(* The timer handle carries a back-reference to its shard so [cancel]
   can maintain the live/garbage accounting without widening the public
   [cancel : timer -> unit] signature. *)
type timer = { mutable cancelled : bool; mutable fired : bool; owner : t }

and event = { time : float; seq : int; handle : timer; fn : unit -> unit }

(* A cross-shard message awaiting the next window barrier. [p_seq] is
   incremented only by the posting shard's own domain, in its (already
   deterministic) event execution order, so sorting a drained inbox by
   (p_time, p_src, p_seq) reconstructs the same arrival order on every
   run regardless of scheduling interleave. *)
and post = { p_time : float; p_src : int; p_seq : int; p_fn : unit -> unit }

and t = {
  sid : int;
  coord : coord;
  mutable clock : float;  (* shard-local clock; authoritative in parallel mode *)
  queue : event Heap.t;
  mutable local_seq : int;  (* seq source while the parallel driver runs *)
  mutable live : int;  (* scheduled, neither cancelled nor fired *)
  mutable garbage : int;  (* cancelled events still sitting in the heap *)
  mutable dispatched : int;
  mutable last_trace_at : float;
  inbox_mu : Mutex.t;
  mutable inbox : post list;  (* newest first; drained at barriers *)
  mutable post_seq : int;
}

and coord = {
  mutable shards : t array;
  lookahead : float;
  mutable next_seq : int;  (* global seq source in sequential mode *)
  mutable gclock : float;  (* global clock, authoritative in sequential mode *)
  mutable parallel : bool;
  mutable window_end : float;  (* current parallel window's exclusive end *)
  mutable trace : Trace.t;
  mutable prof : host_prof option;
}

(* Host-side self-profiling sink. The simulator never reads the host
   clock or accounts wall time itself — it calls these hooks at phase
   boundaries (a handful of calls per window, never per event) and a
   profiler aggregates. [None] (the default) keeps every driver loop
   exactly as fast and as allocation-free as an uninstrumented build.

   Threading contract: [hp_execute] and [hp_stall] run on worker
   domains (each [sid] / [worker] slot is touched by exactly one
   domain per window); [hp_coord], [hp_merge], [hp_window] and
   [hp_seq] run on the driving thread between barriers, when all
   workers are parked — the same safe point as [run_parallel]'s
   [on_window]. *)
and host_prof = {
  hp_clock : unit -> float;
      (* host time in seconds; must be monotonic *)
  hp_execute : sid:int -> dt:float -> events:int -> unit;
      (* one shard's event execution within one parallel window *)
  hp_stall : worker:int -> dt:float -> unit;
      (* one worker's barrier wait before being released into a window *)
  hp_coord : dt:float -> unit;
      (* coordinator: next-window scan + setup + worker release *)
  hp_merge : dt:float -> unit;
      (* coordinator: mailbox drain + clock advance + on_window *)
  hp_window : w_end:float -> span:float -> wall:float -> unit;
      (* one parallel window completed: [span] is the coordinator-side
         wait-for-workers segment (the parallel execute region), [wall]
         the window's total coordinator wall time *)
  hp_seq : until:float -> dt:float -> events:int -> unit;
      (* one profiled slice of the sequential merge driver *)
}

(* Hand-specialized (time, seq) order: this comparison runs on every
   sift of every heap operation, and the polymorphic [compare] would
   take the generic structural-comparison path for both fields. *)
let compare_event a b =
  if a.time < b.time then -1
  else if a.time > b.time then 1
  else Stdlib.Int.compare a.seq b.seq

let create ?(shards = 1) ?(lookahead = 0.0) () =
  if shards < 1 then invalid_arg "Sim.create: shards must be >= 1";
  if lookahead < 0.0 then invalid_arg "Sim.create: negative lookahead";
  let coord =
    {
      shards = [||];
      lookahead;
      next_seq = 0;
      gclock = 0.0;
      parallel = false;
      window_end = 0.0;
      trace = Trace.null;
      prof = None;
    }
  in
  coord.shards <-
    Array.init shards (fun sid ->
        {
          sid;
          coord;
          clock = 0.0;
          queue = Heap.create ~cmp:compare_event;
          local_seq = 0;
          live = 0;
          garbage = 0;
          dispatched = 0;
          last_trace_at = neg_infinity;
          inbox_mu = Mutex.create ();
          inbox = [];
          post_seq = 0;
        });
  coord.shards.(0)

let shard t i =
  let shards = t.coord.shards in
  if i < 0 || i >= Array.length shards then
    invalid_arg (Printf.sprintf "Sim.shard: no shard %d" i);
  shards.(i)

let n_shards t = Array.length t.coord.shards
let shard_id t = t.sid
let lookahead t = t.coord.lookahead

(* Which shard the current domain is executing events for. Workers set
   it around each window; on the coordinator thread (and in sequential
   mode, where no worker ever runs) it stays [None]. *)
let current_shard : t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let executing_shard coord =
  if not coord.parallel then None
  else
    match Domain.DLS.get current_shard with
    | Some s when s.coord == coord -> Some s
    | _ -> None

let now t =
  let coord = t.coord in
  if coord.parallel then
    match executing_shard coord with
    | Some s -> s.clock
    | None -> t.clock (* barrier callbacks: clocks are synced to the edge *)
  else coord.gclock

let set_trace t tr = t.coord.trace <- tr

let set_prof t p =
  if t.coord.parallel then
    invalid_arg "Sim.set_prof: parallel driver active";
  t.coord.prof <- p

let dispatched t = t.dispatched

let sum_shards t f =
  Array.fold_left (fun acc s -> acc + f s) 0 t.coord.shards

let dispatched_total t = sum_shards t (fun s -> s.dispatched)

(* Sampling period for the dispatch-rate counter: often enough to see
   load swings in a trace viewer, rare enough not to crowd the ring
   buffer. Emitting a counter never schedules anything, so tracing
   cannot perturb the event order. *)
let trace_counter_period = 0.1

let push_local s time fn =
  let handle = { cancelled = false; fired = false; owner = s } in
  let seq =
    (* Sequential mode allocates from the coordinator so the merged
       dispatch order is the single-heap order; parallel mode allocates
       per shard (each counter touched only by its owning domain),
       seeded above every sequential seq so FIFO-at-equal-time ordering
       against pre-existing events is preserved. *)
    if s.coord.parallel then begin
      let q = s.local_seq in
      s.local_seq <- q + 1;
      q
    end
    else begin
      let q = s.coord.next_seq in
      s.coord.next_seq <- q + 1;
      q
    end
  in
  Heap.push s.queue { time; seq; handle; fn };
  s.live <- s.live + 1;
  handle

let at t time fn =
  (* Inside a parallel worker, events belong to the shard whose event
     set them — a timer armed while executing shard [s] runs on [s]
     regardless of which shard handle the caller kept around. Targeted
     cross-shard delivery goes through [post]. *)
  let s =
    match executing_shard t.coord with Some s -> s | None -> t
  in
  let base = now t in
  if time < base then
    invalid_arg
      (Printf.sprintf "Sim.at: scheduling in the past (%.9f < %.9f)" time
         base);
  push_local s time fn

let after t delay fn =
  if delay < 0.0 then invalid_arg "Sim.after: negative delay";
  at t (now t +. delay) fn

let post t time fn =
  match executing_shard t.coord with
  | Some s when s != t ->
      (* Cross-shard: enqueue into the destination mailbox. The
         conservative window invariant guarantees the arrival lies at
         or beyond the current window's end, i.e. in a future window. *)
      let coord = t.coord in
      if time < coord.window_end then
        invalid_arg
          (Printf.sprintf
             "Sim.post: lookahead violation (%.9f < window end %.9f)" time
             coord.window_end);
      let p_seq = s.post_seq in
      s.post_seq <- p_seq + 1;
      let p = { p_time = time; p_src = s.sid; p_seq; p_fn = fn } in
      Mutex.lock t.inbox_mu;
      t.inbox <- p :: t.inbox;
      Mutex.unlock t.inbox_mu
  | _ ->
      if time < now t then
        invalid_arg
          (Printf.sprintf "Sim.post: scheduling in the past (%.9f < %.9f)"
             time (now t));
      ignore (push_local t time fn)

(* Below this size an occasional linear pop-through of garbage is
   cheaper than rebuilding; above it, compaction keeps pop cost and
   memory proportional to live events. *)
let compaction_min_size = 64

let cancel handle =
  if not handle.cancelled && not handle.fired then begin
    handle.cancelled <- true;
    let t = handle.owner in
    t.live <- t.live - 1;
    t.garbage <- t.garbage + 1;
    (* Lazy deletion with bounded slack: once cancelled entries are the
       majority of the heap, evict them all in one O(n) rebuild. Each
       rebuild is paid for by the >= n/2 cancellations since the last
       one, so cancel stays amortized O(1) (plus the O(log n) saved on
       every later pop). Pop order of survivors is untouched — the
       (time, seq) comparator is a total order — so a compacted run
       dispatches bit-identically to an uncompacted one. *)
    if t.garbage > t.live && Heap.length t.queue >= compaction_min_size then begin
      Heap.filter_in_place t.queue (fun e -> not e.handle.cancelled);
      t.garbage <- 0
    end
  end

let pending t = t.live
let pending_total t = sum_shards t (fun s -> s.live)
let heap_size t = Heap.length t.queue
let heap_size_total t = sum_shards t (fun s -> Heap.length s.queue)

let fire s e =
  s.clock <- e.time;
  let coord = s.coord in
  if not coord.parallel then coord.gclock <- e.time;
  if e.handle.cancelled then s.garbage <- s.garbage - 1
  else begin
    e.handle.fired <- true;
    s.live <- s.live - 1;
    s.dispatched <- s.dispatched + 1;
    let tr = coord.trace in
    if Trace.enabled tr && e.time -. s.last_trace_at >= trace_counter_period
    then begin
      (* One throttle per shard, and on multi-shard sims one counter
         track per shard (gid = shard id): each track is emitted from
         its own monotonically advancing clock, so the merged Perfetto
         export never steps a track's timestamps backwards. *)
      s.last_trace_at <- e.time;
      let gid = if Array.length coord.shards = 1 then None else Some s.sid in
      Trace.counter tr ~ts:e.time ~cat:"sim" ?gid "dispatched"
        (float_of_int s.dispatched);
      Trace.counter tr ~ts:e.time ~cat:"sim" ?gid "pending"
        (float_of_int s.live)
    end;
    e.fn ()
  end

(* Pop and fire the globally minimal (time, seq) event across shards —
   exactly the order the historical single-heap scheduler dispatched,
   since sequential-mode seqs come from one coordinator counter. This
   runs once per dispatched event, so the scan keeps an index rather
   than allocating an option per shard. *)
let seq_step coord ~until =
  let shards = coord.shards in
  let best = ref (-1) and best_time = ref infinity and best_seq = ref 0 in
  for i = 0 to Array.length shards - 1 do
    let q = shards.(i).queue in
    if not (Heap.is_empty q) then begin
      let e = Heap.peek_exn q in
      (* [compare_event e best < 0], on the cached key *)
      if
        !best < 0
        || e.time < !best_time
        || (e.time = !best_time && e.seq < !best_seq)
      then begin
        best := i;
        best_time := e.time;
        best_seq := e.seq
      end
    end
  done;
  if !best < 0 || !best_time > until then false
  else begin
    let s = shards.(!best) in
    fire s (Heap.pop_exn s.queue);
    true
  end

let advance_clocks coord until =
  if coord.gclock < until then coord.gclock <- until;
  Array.iter
    (fun s -> if s.clock < until then s.clock <- until)
    coord.shards

let run_plain coord ~until =
  if Array.length coord.shards = 1 then begin
    let s = coord.shards.(0) in
    while
      (not (Heap.is_empty s.queue)) && (Heap.peek_exn s.queue).time <= until
    do
      fire s (Heap.pop_exn s.queue)
    done
  end
  else while seq_step coord ~until do () done;
  advance_clocks coord until

let run t ~until =
  let coord = t.coord in
  if coord.parallel then invalid_arg "Sim.run: parallel driver active";
  match coord.prof with
  | None -> run_plain coord ~until
  | Some p when not (Float.is_finite until) ->
      (* Unbounded runs cannot be sliced into windows; account the
         whole drain as one slice. *)
      let t0 = p.hp_clock () in
      let d0 = sum_shards t (fun s -> s.dispatched) in
      run_plain coord ~until;
      p.hp_seq ~until ~dt:(p.hp_clock () -. t0)
        ~events:(sum_shards t (fun s -> s.dispatched) - d0)
  | Some p ->
      (* Profiled sequential driver: advance in lookahead-width slices
         (whole-range when the sim has no lookahead) so per-window wall
         time and GC deltas are visible without touching the host clock
         per event. Slicing changes nothing observable — events fire in
         the same total order and clocks only ever advance — so golden
         fixtures stay byte-identical under profiling. *)
      let stride =
        if coord.lookahead > 0.0 then coord.lookahead
        else Float.max (until -. coord.gclock) 1e-9
      in
      let continue = ref true in
      while !continue do
        let w_end = Float.min (coord.gclock +. stride) until in
        let t0 = p.hp_clock () in
        let d0 = sum_shards t (fun s -> s.dispatched) in
        run_plain coord ~until:w_end;
        p.hp_seq ~until:w_end ~dt:(p.hp_clock () -. t0)
          ~events:(sum_shards t (fun s -> s.dispatched) - d0);
        if w_end >= until then continue := false
      done

let step t =
  let coord = t.coord in
  if coord.parallel then invalid_arg "Sim.step: parallel driver active";
  if Array.length coord.shards = 1 then
    let s = coord.shards.(0) in
    match Heap.pop s.queue with
    | None -> false
    | Some e ->
        fire s e;
        true
  else seq_step coord ~until:infinity

let run_until_idle t ?(limit = 100_000_000) () =
  let count = ref 0 in
  while step t do
    incr count;
    if !count > limit then
      failwith "Sim.run_until_idle: event limit exceeded (runaway simulation?)"
  done

(* ------------------------------------------------------------------ *)
(* The parallel windowed driver                                        *)
(* ------------------------------------------------------------------ *)

let min_next_time coord =
  Array.fold_left
    (fun acc s ->
      match Heap.peek s.queue with
      | None -> acc
      | Some e -> (
          match acc with
          | None -> Some e.time
          | Some m -> Some (Float.min m e.time)))
    None coord.shards

(* Runs on the coordinator thread between windows: move every mailbox
   post into its destination heap in (p_time, p_src, p_seq) order. *)
let drain_inboxes coord =
  Array.iter
    (fun s ->
      Mutex.lock s.inbox_mu;
      let posts = s.inbox in
      s.inbox <- [];
      Mutex.unlock s.inbox_mu;
      let posts =
        List.sort
          (fun a b ->
            let c = compare a.p_time b.p_time in
            if c <> 0 then c
            else
              let c = compare a.p_src b.p_src in
              if c <> 0 then c else compare a.p_seq b.p_seq)
          posts
      in
      List.iter (fun p -> ignore (push_local s p.p_time p.p_fn)) posts)
    coord.shards

let run_shard_window s ~w_end =
  Domain.DLS.set current_shard (Some s);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set current_shard None)
    (fun () ->
      while
        (not (Heap.is_empty s.queue)) && (Heap.peek_exn s.queue).time < w_end
      do
        fire s (Heap.pop_exn s.queue)
      done)

let run_parallel t ~domains ~until ?on_window () =
  let coord = t.coord in
  if coord.parallel then
    invalid_arg "Sim.run_parallel: parallel driver already active";
  if domains < 1 then invalid_arg "Sim.run_parallel: domains must be >= 1";
  if (not (Float.is_finite coord.lookahead)) || coord.lookahead <= 0.0 then
    invalid_arg "Sim.run_parallel: requires a positive finite lookahead";
  if Trace.enabled coord.trace then
    invalid_arg "Sim.run_parallel: tracing is not supported in parallel";
  let n = Array.length coord.shards in
  let nd = min domains n in
  coord.parallel <- true;
  (* Parallel-mode seqs continue above every sequential seq so newly
     scheduled events never FIFO-jump ahead of pre-existing events at
     an equal timestamp. *)
  Array.iter (fun s -> s.local_seq <- coord.next_seq) coord.shards;
  let mu = Mutex.create () in
  let cv_start = Condition.create () in
  let cv_done = Condition.create () in
  let round = ref 0 in
  let finished = ref 0 in
  let stop = ref false in
  let w_end_r = ref 0.0 in
  let errors = ref [] in
  (* Worker [i] owns shards i, i+nd, i+2nd, ... for the whole run; the
     barrier mutex orders its heap mutations against the coordinator's
     inter-window drains. A worker that raises (e.g. a lookahead
     violation) records the exception and keeps honoring barriers so
     the coordinator can shut the fleet down cleanly. *)
  (* Freshly spawned domains start with the runtime's default minor
     heap, not the spawning domain's: a bench harness that enlarged the
     minor heap to curb stop-the-world rendezvous would silently lose
     that tuning exactly where it matters most (every worker's minor
     collection stops all domains). Re-apply the coordinator's GC
     parameters inside each worker. *)
  let gc_params = Gc.get () in
  let prof = coord.prof in
  let worker i () =
    Gc.set gc_params;
    let my_round = ref 0 in
    let running = ref true in
    while !running do
      (* Barrier-stall accounting starts when the worker goes back to
         the barrier (or, on the first round, right after spawn) and
         ends when it is released into a window; the final park before
         [stop] is shutdown, not stall, and is not recorded. *)
      let t_park = match prof with Some p -> p.hp_clock () | None -> 0.0 in
      Mutex.lock mu;
      while !round = !my_round && not !stop do
        Condition.wait cv_start mu
      done;
      if !stop then begin
        running := false;
        Mutex.unlock mu
      end
      else begin
        my_round := !round;
        let w_end = !w_end_r in
        Mutex.unlock mu;
        (match prof with
        | Some p -> p.hp_stall ~worker:i ~dt:(p.hp_clock () -. t_park)
        | None -> ());
        let err =
          try
            let k = ref i in
            while !k < n do
              let s = coord.shards.(!k) in
              (match prof with
              | Some p ->
                  let t0 = p.hp_clock () in
                  let d0 = s.dispatched in
                  run_shard_window s ~w_end;
                  p.hp_execute ~sid:s.sid
                    ~dt:(p.hp_clock () -. t0)
                    ~events:(s.dispatched - d0)
              | None -> run_shard_window s ~w_end);
              k := !k + nd
            done;
            None
          with e -> Some e
        in
        Mutex.lock mu;
        (match err with Some e -> errors := e :: !errors | None -> ());
        incr finished;
        if !finished = nd then Condition.signal cv_done;
        Mutex.unlock mu
      end
    done
  in
  let doms = Array.init nd (fun i -> Domain.spawn (worker i)) in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock mu;
      stop := true;
      Condition.broadcast cv_start;
      Mutex.unlock mu;
      Array.iter Domain.join doms;
      coord.parallel <- false;
      Array.iter
        (fun s ->
          if s.local_seq > coord.next_seq then coord.next_seq <- s.local_seq)
        coord.shards)
    (fun () ->
      let continue = ref true in
      while !continue do
        (* Coordinator phase boundaries: [tA, tB) is window setup (the
           cross-heap minimum scan, release), [tB, tC) the span spent
           waiting for workers — the parallel execute region — and
           [tC, tD) the single-threaded mailbox merge + clock advance +
           on_window callback. Four clock reads per window. *)
        let tA = match prof with Some p -> p.hp_clock () | None -> 0.0 in
        match min_next_time coord with
        | Some t0 when t0 < until ->
            let w_end = Float.min (t0 +. coord.lookahead) until in
            coord.window_end <- w_end;
            Mutex.lock mu;
            w_end_r := w_end;
            incr round;
            finished := 0;
            Condition.broadcast cv_start;
            let tB = match prof with Some p -> p.hp_clock () | None -> 0.0 in
            while !finished < nd do
              Condition.wait cv_done mu
            done;
            Mutex.unlock mu;
            (match !errors with
            | e :: _ -> raise e
            | [] ->
                let tC =
                  match prof with Some p -> p.hp_clock () | None -> 0.0
                in
                drain_inboxes coord;
                advance_clocks coord w_end;
                (match on_window with Some f -> f w_end | None -> ());
                (match prof with
                | Some p ->
                    let tD = p.hp_clock () in
                    p.hp_coord ~dt:(tB -. tA);
                    p.hp_merge ~dt:(tD -. tC);
                    p.hp_window ~w_end ~span:(tC -. tB) ~wall:(tD -. tA)
                | None -> ()))
        | _ -> continue := false
      done);
  (* Events exactly at [until] (and the final clock advance) run through
     the sequential merge driver — windows are half-open on the right. *)
  run t ~until
