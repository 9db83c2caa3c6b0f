(* The scenario language: one timed-action list for benign faults,
   Byzantine attacks and membership commands, with one lexer, one
   printer and one validator. The three vocabularies share no keyword,
   so a line's first token alone says which subsystem owns it. *)

module Topology = Massbft_sim.Topology

type service_class = Any | Bulk | Control

type fault =
  | Crash_node of Topology.addr
  | Recover_node of Topology.addr
  | Crash_group of int
  | Recover_group of int
  | Partition of { groups : int list; for_s : float }
  | Link_drop of {
      src_g : int;
      dst_g : int;
      every : int;
      cls : service_class;
      for_s : float;
    }
  | Link_delay of {
      src_g : int;
      dst_g : int;
      add_s : float;
      cls : service_class;
      for_s : float;
    }
  | Link_dup of {
      src_g : int;
      dst_g : int;
      copies : int;
      every : int;
      cls : service_class;
      for_s : float;
    }
  | Wan_degrade of { g : int; factor : float; for_s : float }
  | Lan_degrade of { g : int; factor : float; for_s : float }
  | Slow_cpu of { addr : Topology.addr; factor : float; for_s : float }

type target = Node of Topology.addr | Leader of int

type strategy =
  | Equivocate of { target : target; for_s : float }
  | Equivocate_raft of { target : target; for_s : float }
  | Withhold of { target : target; for_s : float }
  | Split_votes of { target : target; for_s : float }
  | Replay of { target : target; copies : int; gap_s : float; for_s : float }
  | Delay_valid of { target : target; add_s : float; for_s : float }
  | Tamper of { target : target; for_s : float }

type command =
  | Add_node of int
  | Remove_node of int
  | Move_leader of Topology.addr
  | Add_group of { size : int }
  | Remove_group of int

type action = Fault of fault | Attack of strategy | Member of command
type event = { at : float; action : action }
type t = event list

let target_of = function
  | Equivocate { target; _ }
  | Equivocate_raft { target; _ }
  | Withhold { target; _ }
  | Split_votes { target; _ }
  | Replay { target; _ }
  | Delay_valid { target; _ }
  | Tamper { target; _ } ->
      target

let window_of = function
  | Equivocate { for_s; _ }
  | Equivocate_raft { for_s; _ }
  | Withhold { for_s; _ }
  | Split_votes { for_s; _ }
  | Replay { for_s; _ }
  | Delay_valid { for_s; _ }
  | Tamper { for_s; _ } ->
      for_s

let fault_window = function
  | Partition { for_s; _ }
  | Link_drop { for_s; _ }
  | Link_delay { for_s; _ }
  | Link_dup { for_s; _ }
  | Wan_degrade { for_s; _ }
  | Lan_degrade { for_s; _ }
  | Slow_cpu { for_s; _ } ->
      Some for_s
  | Crash_node _ | Recover_node _ | Crash_group _ | Recover_group _ -> None

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let keyword = function
  | Fault f -> (
      match f with
      | Crash_node _ -> "crash-node"
      | Recover_node _ -> "recover-node"
      | Crash_group _ -> "crash-group"
      | Recover_group _ -> "recover-group"
      | Partition _ -> "partition"
      | Link_drop _ -> "link-drop"
      | Link_delay _ -> "link-delay"
      | Link_dup _ -> "link-dup"
      | Wan_degrade _ -> "wan-degrade"
      | Lan_degrade _ -> "lan-degrade"
      | Slow_cpu _ -> "slow-cpu")
  | Attack s -> (
      match s with
      | Equivocate _ -> "equivocate"
      | Equivocate_raft _ -> "equivocate-raft"
      | Withhold _ -> "withhold"
      | Split_votes _ -> "split-votes"
      | Replay _ -> "replay"
      | Delay_valid _ -> "delay-valid"
      | Tamper _ -> "tamper")
  | Member c -> (
      match c with
      | Add_node _ -> "add-node"
      | Remove_node _ -> "remove-node"
      | Move_leader _ -> "move-leader"
      | Add_group _ -> "add-group"
      | Remove_group _ -> "remove-group")

let kind_name a = String.map (function '-' -> '_' | c -> c) (keyword a)

let attack_names =
  [
    "equivocate";
    "equivocate-raft";
    "withhold";
    "split-votes";
    "replay";
    "delay-valid";
    "tamper";
  ]

(* %g keeps the text form compact and round-trips every value the
   generators emit (times quantized to 1 ms, small factors). *)
let fl = Printf.sprintf "%g"
let gid = Printf.sprintf "g%d"
let addr_str = Topology.addr_to_string

let class_name = function Any -> "any" | Bulk -> "bulk" | Control -> "control"

let action_to_string a =
  let link s d cls rest =
    (gid s ^ "->" ^ gid d) :: (rest @ [ "class"; class_name cls ])
  in
  let args =
    match a with
    | Fault (Crash_node x | Recover_node x) | Member (Move_leader x) ->
        [ addr_str x ]
    | Fault (Crash_group g | Recover_group g)
    | Member (Add_node g | Remove_node g | Remove_group g) ->
        [ gid g ]
    | Fault (Partition { groups; _ }) ->
        [ String.concat "," (List.map gid groups) ]
    | Fault (Link_drop { src_g; dst_g; every; cls; _ }) ->
        link src_g dst_g cls [ "every"; string_of_int every ]
    | Fault (Link_delay { src_g; dst_g; add_s; cls; _ }) ->
        link src_g dst_g cls [ "add"; fl add_s ]
    | Fault (Link_dup { src_g; dst_g; copies; every; cls; _ }) ->
        link src_g dst_g cls
          [ "copies"; string_of_int copies; "every"; string_of_int every ]
    | Fault (Wan_degrade { g; factor; _ } | Lan_degrade { g; factor; _ }) ->
        [ gid g; "factor"; fl factor ]
    | Fault (Slow_cpu { addr; factor; _ }) ->
        [ addr_str addr; "factor"; fl factor ]
    | Attack s -> (
        (match target_of s with
        | Node a -> "node:" ^ addr_str a
        | Leader g -> "leader:" ^ gid g)
        ::
        (match s with
        | Replay { copies; gap_s; _ } ->
            [ "copies"; string_of_int copies; "gap"; fl gap_s ]
        | Delay_valid { add_s; _ } -> [ "add"; fl add_s ]
        | _ -> []))
    | Member (Add_group { size }) -> [ "size"; string_of_int size ]
  in
  let window =
    match a with
    | Fault f -> Option.to_list (fault_window f)
    | Attack s -> [ window_of s ]
    | Member _ -> []
  in
  String.concat " "
    ((keyword a :: args) @ List.concat_map (fun w -> [ "for"; fl w ]) window)

let event_to_string { at; action } =
  Printf.sprintf "@%s %s" (fl at) (action_to_string action)

let to_string t =
  String.concat "" (List.map (fun e -> event_to_string e ^ "\n") t)

(* ------------------------------------------------------------------ *)
(* Lexing and parsing                                                  *)
(* ------------------------------------------------------------------ *)

exception Parse_error of { line : int; token : string; msg : string }

(* Raised below the line level; [of_string] attaches the line number. *)
exception Bad of string * string

let bad msg tok = raise (Bad (msg, tok))
let is_digit c = c >= '0' && c <= '9'
let drop n s = String.sub s n (String.length s - n)

let has_prefix p s =
  String.length s > String.length p && String.sub s 0 (String.length p) = p

(* Decimal numerals only: [int_of_string] and [float_of_string] would
   also take hex, octal, binary, underscores, "nan" and "inf". [s] is a
   piece of [tok], the token a diagnostic names. *)
let nat_in tok what s =
  match int_of_string_opt s with
  | Some i when s <> "" && String.for_all is_digit s -> i
  | _ -> bad ("bad " ^ what) tok

let num_in tok what s =
  let n = String.length s in
  let opt p i k = if i < n && p s.[i] then k (i + 1) else i in
  let digits i =
    let j = ref i in
    while !j < n && is_digit s.[!j] do incr j done;
    if !j = i then bad ("bad " ^ what) tok else !j
  in
  let i = digits (opt (( = ) '-') 0 Fun.id) in
  let i = opt (( = ) '.') i digits in
  let i =
    opt
      (fun c -> c = 'e' || c = 'E')
      i
      (fun i -> digits (opt (fun c -> c = '+' || c = '-') i Fun.id))
  in
  if i = n then float_of_string s else bad ("bad " ^ what) tok

let gid_in tok s =
  if has_prefix "g" s then nat_in tok "group (expected gN)" (drop 1 s)
  else bad "bad group (expected gN)" tok

let gid_tok tok = gid_in tok tok
let groups tok = List.map (gid_in tok) (String.split_on_char ',' tok)

let addr_in tok s =
  match String.split_on_char '/' s with
  | [ g; n ] when has_prefix "n" n ->
      { Topology.g = gid_in tok g; n = nat_in tok "node" (drop 1 n) }
  | _ -> bad "bad address (expected gG/nN)" tok

let addr tok = addr_in tok tok

let link tok =
  match String.index_opt tok '>' with
  | Some i when i >= 1 && tok.[i - 1] = '-' ->
      (gid_in tok (String.sub tok 0 (i - 1)), gid_in tok (drop (i + 1) tok))
  | _ -> bad "bad link (expected gA->gB)" tok

let service_class = function
  | "any" -> Any
  | "bulk" -> Bulk
  | "control" -> Control
  | tok -> bad "bad service class" tok

let target tok =
  if has_prefix "leader:" tok then Leader (gid_in tok (drop 7 tok))
  else if has_prefix "node:" tok then Node (addr_in tok (drop 5 tok))
  else bad "bad target (expected leader:gN or node:gG/nN)" tok

(* Every action is a keyword, at most one positional argument, then
   KEY VALUE pairs. A shape gives the positional argument's lexer (if
   the action takes one) and the keys the action requires. Lexing runs
   left to right before [build] reads the typed action, so a diagnostic
   always names the first bad token of the line. *)
let shape kw =
  let lex f = Some (fun tok -> ignore (f tok)) in
  match kw with
  | "crash-node" | "recover-node" | "move-leader" -> (lex addr, [])
  | "crash-group" | "recover-group" | "add-node" | "remove-node"
  | "remove-group" ->
      (lex gid_tok, [])
  | "partition" -> (lex groups, [ "for" ])
  | "equivocate" | "equivocate-raft" | "withhold" | "split-votes" | "tamper"
    ->
      (lex target, [ "for" ])
  | "link-drop" -> (lex link, [ "every"; "class"; "for" ])
  | "link-delay" -> (lex link, [ "add"; "class"; "for" ])
  | "link-dup" -> (lex link, [ "copies"; "every"; "class"; "for" ])
  | "wan-degrade" | "lan-degrade" -> (lex gid_tok, [ "factor"; "for" ])
  | "slow-cpu" -> (lex addr, [ "factor"; "for" ])
  | "replay" -> (lex target, [ "copies"; "gap"; "for" ])
  | "delay-valid" -> (lex target, [ "add"; "for" ])
  | "add-group" -> (None, [ "size" ])
  | kw -> bad "unknown action" kw

(* Counts are naturals, classes names, everything else a number. *)
let int_key = [ "every"; "copies"; "size"; "gid" ]

let lex_value k v =
  if k = "class" then ignore (service_class v)
  else if List.mem k int_key then ignore (nat_in v k v)
  else ignore (num_in v k v)

let build kw arg key =
  let int k = nat_in (key k) k (key k) in
  let num k = num_in (key k) k (key k) in
  let link_args () =
    let src_g, dst_g = link arg in
    (src_g, dst_g, service_class (key "class"), num "for")
  in
  let strategy make = Attack (make (target arg) (num "for")) in
  match kw with
  | "crash-node" -> Fault (Crash_node (addr arg))
  | "recover-node" -> Fault (Recover_node (addr arg))
  | "crash-group" -> Fault (Crash_group (gid_tok arg))
  | "recover-group" -> Fault (Recover_group (gid_tok arg))
  | "partition" -> Fault (Partition { groups = groups arg; for_s = num "for" })
  | "link-drop" ->
      let src_g, dst_g, cls, for_s = link_args () in
      Fault (Link_drop { src_g; dst_g; every = int "every"; cls; for_s })
  | "link-delay" ->
      let src_g, dst_g, cls, for_s = link_args () in
      Fault (Link_delay { src_g; dst_g; add_s = num "add"; cls; for_s })
  | "link-dup" ->
      let src_g, dst_g, cls, for_s = link_args () in
      let copies = int "copies" and every = int "every" in
      Fault (Link_dup { src_g; dst_g; copies; every; cls; for_s })
  | "wan-degrade" ->
      let g = gid_tok arg and factor = num "factor" and for_s = num "for" in
      Fault (Wan_degrade { g; factor; for_s })
  | "lan-degrade" ->
      let g = gid_tok arg and factor = num "factor" and for_s = num "for" in
      Fault (Lan_degrade { g; factor; for_s })
  | "slow-cpu" ->
      Fault
        (Slow_cpu { addr = addr arg; factor = num "factor"; for_s = num "for" })
  | "equivocate" -> strategy (fun target for_s -> Equivocate { target; for_s })
  | "equivocate-raft" ->
      strategy (fun target for_s -> Equivocate_raft { target; for_s })
  | "withhold" -> strategy (fun target for_s -> Withhold { target; for_s })
  | "split-votes" ->
      strategy (fun target for_s -> Split_votes { target; for_s })
  | "tamper" -> strategy (fun target for_s -> Tamper { target; for_s })
  | "replay" ->
      strategy (fun target for_s ->
          Replay { target; copies = int "copies"; gap_s = num "gap"; for_s })
  | "delay-valid" ->
      strategy (fun target for_s ->
          Delay_valid { target; add_s = num "add"; for_s })
  | "add-node" -> Member (Add_node (gid_tok arg))
  | "remove-node" -> Member (Remove_node (gid_tok arg))
  | "move-leader" -> Member (Move_leader (addr arg))
  | "add-group" -> Member (Add_group { size = int "size" })
  | "remove-group" -> Member (Remove_group (gid_tok arg))
  | kw -> bad "unknown action" kw

(* [optional] keys are accepted on top of the shape's required ones;
   the raw pairs come back so the wire parser can read them. *)
let action_of_tokens ?(optional = []) = function
  | [] -> bad "missing action" ""
  | kw :: rest ->
      let positional, keys = shape kw in
      let arg, rest =
        match (positional, rest) with
        | None, _ -> ("", rest)
        | Some lex, arg :: rest ->
            lex arg;
            (arg, rest)
        | Some _, [] -> bad "missing argument to" kw
      in
      let rec pairs acc = function
        | [] -> acc
        | k :: rest -> (
            if not (List.mem k keys || List.mem k optional) then
              bad "unknown key" k
            else if List.mem_assoc k acc then bad "repeated key" k
            else
              match rest with
              | v :: rest ->
                  lex_value k v;
                  pairs ((k, v) :: acc) rest
              | [] -> bad "missing value for key" k)
      in
      let kvs = pairs [] rest in
      let key k =
        match List.assoc_opt k kvs with
        | Some v -> v
        | None -> bad (Printf.sprintf "missing key %S for" k) kw
      in
      (build kw arg key, kvs)

let tokens s =
  String.split_on_char ' ' (String.map (function '\t' | '\r' -> ' ' | c -> c) s)
  |> List.filter (( <> ) "")

let of_string text =
  List.concat
    (List.mapi
       (fun i line ->
         let line =
           match String.index_opt line '#' with
           | Some j -> String.sub line 0 j
           | None -> line
         in
         try
           match tokens line with
           | [] -> []
           | tok :: rest when has_prefix "@" tok ->
               let at = num_in tok "time" (drop 1 tok) in
               if rest = [] then bad "missing action after" tok;
               [ { at; action = fst (action_of_tokens rest) } ]
           | tok :: _ -> bad "expected @TIME, got" tok
         with Bad (msg, token) ->
           raise (Parse_error { line = i + 1; token; msg }))
       (String.split_on_char '\n' text))

let member_of_wire wire =
  match action_of_tokens ~optional:[ "gid" ] (tokens wire) with
  | Member (Add_group _ as cmd), kvs ->
      (cmd, Option.map (fun g -> nat_in g "gid" g) (List.assoc_opt "gid" kvs))
  | Member cmd, [] -> (cmd, None)
  | _ -> invalid_arg ("Scenario.member_of_wire: " ^ wire)
  | exception Bad _ -> invalid_arg ("Scenario.member_of_wire: " ^ wire)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let sorted t = List.stable_sort (fun a b -> Float.compare a.at b.at) t

let select f t =
  List.filter_map
    (fun e -> Option.map (fun x -> (e.at, x)) (f e.action))
    (sorted t)

let faults = select (function Fault f -> Some f | _ -> None)
let attacks = select (function Attack s -> Some s | _ -> None)
let members = select (function Member c -> Some c | _ -> None)

(* Crashes heal at their matching recover event (infinity if never
   recovered, which disables the liveness watchdog); windowed faults
   and attacks when their window closes. A membership change is only
   settled once its epoch executes, and a join only once its state
   transfer lands first, so the last command gets a settling allowance
   before the liveness watchdog starts judging. *)
let heal_time t =
  let recovered pred from =
    List.fold_left
      (fun acc e ->
        match e.action with
        | Fault f when e.at >= from && pred f -> Float.min acc e.at
        | _ -> acc)
      infinity t
  in
  let settle =
    if
      List.exists
        (function _, (Add_node _ | Add_group _) -> true | _ -> false)
        (members t)
    then 6.0
    else 1.5
  in
  List.fold_left
    (fun acc { at; action } ->
      Float.max acc
        (match action with
        | Fault (Crash_node a) ->
            recovered
              (function Recover_node b -> Topology.addr_equal a b | _ -> false)
              at
        | Fault (Crash_group g) ->
            recovered (function Recover_group g' -> g = g' | _ -> false) at
        | Fault f -> at +. Option.value ~default:0.0 (fault_window f)
        | Attack s -> at +. window_of s
        | Member _ -> at +. settle))
    0.0 t

(* ------------------------------------------------------------------ *)
(* Validation and provisioning                                         *)
(* ------------------------------------------------------------------ *)

exception Invalid of event * string

let invalid e fmt = Printf.ksprintf (fun m -> raise (Invalid (e, m))) fmt

(* Walk the membership commands in time order, tracking the evolving
   membership; returns the physical group sizes — base groups grown to
   their peak active count, appended groups at their size. Node removes
   must keep the group PBFT-viable (n >= 4, so f >= 1), and the
   coordinator group 0 (which anchors the global layer) never leaves. *)
let physical_sizes ~group_sizes t =
  let base = Array.length group_sizes in
  let adds =
    List.length
      (List.filter
         (function { action = Member (Add_group _); _ } -> true | _ -> false)
         t)
  in
  let act = Array.append group_sizes (Array.make adds 0) in
  let phys = Array.copy act in
  let member = Array.init (base + adds) (fun g -> g < base) in
  let ng = ref base in
  List.iter
    (fun e ->
      let check_member g =
        if g < 0 || g >= !ng then invalid e "group %d out of range" g
        else if not member.(g) then invalid e "group %d is not a member" g
      in
      match e.action with
      | Fault _ | Attack _ -> ()
      | Member (Add_node g) ->
          check_member g;
          act.(g) <- act.(g) + 1;
          phys.(g) <- max phys.(g) act.(g)
      | Member (Remove_node g) ->
          check_member g;
          if act.(g) <= 4 then
            invalid e "group %d would shrink below 4 nodes (f = 0)" g;
          act.(g) <- act.(g) - 1
      | Member (Move_leader a) ->
          check_member a.Topology.g;
          if a.Topology.n < 0 || a.Topology.n >= act.(a.Topology.g) then
            invalid e "node %s is not an active slot" (addr_str a)
      | Member (Add_group { size }) ->
          if size < 4 then invalid e "size must be >= 4 (f >= 1)";
          act.(!ng) <- size;
          phys.(!ng) <- size;
          member.(!ng) <- true;
          incr ng
      | Member (Remove_group g) ->
          check_member g;
          if g = 0 then invalid e "group 0 is the global coordinator";
          if Array.fold_left (fun n m -> if m then n + 1 else n) 0 member <= 2
          then invalid e "need at least 2 member groups";
          member.(g) <- false;
          act.(g) <- 0)
    (sorted t);
  phys

let check_event phys e =
  let ng = Array.length phys in
  let group g = if g < 0 || g >= ng then invalid e "group %d out of range" g in
  let node (a : Topology.addr) =
    group a.g;
    if a.n < 0 || a.n >= phys.(a.g) then
      invalid e "node %s out of range" (addr_str a)
  in
  let positive what v =
    if not (v > 0.0 && Float.is_finite v) then
      invalid e "%s must be positive" what
  in
  let wan src dst =
    group src;
    group dst;
    if src = dst then invalid e "WAN links only"
  in
  let at_least_1 what v = if v < 1 then invalid e "%s must be >= 1" what in
  if not (e.at >= 0.0 && Float.is_finite e.at) then invalid e "negative time";
  match e.action with
  | Member _ -> ()
  | Fault f -> (
      Option.iter (positive "duration") (fault_window f);
      match f with
      | Crash_node a | Recover_node a -> node a
      | Crash_group g | Recover_group g -> group g
      | Partition { groups; _ } ->
          if groups = [] then invalid e "empty group list";
          List.iter group groups
      | Link_drop { src_g; dst_g; every; _ } ->
          wan src_g dst_g;
          at_least_1 "every" every
      | Link_delay { src_g; dst_g; add_s; _ } ->
          wan src_g dst_g;
          positive "add" add_s
      | Link_dup { src_g; dst_g; copies; every; _ } ->
          wan src_g dst_g;
          at_least_1 "copies" copies;
          at_least_1 "every" every
      | Wan_degrade { g; factor; _ } | Lan_degrade { g; factor; _ } ->
          group g;
          if not (factor > 0.0 && factor <= 1.0) then
            invalid e "factor must be in (0, 1]"
      | Slow_cpu { addr; factor; _ } ->
          node addr;
          if not (factor >= 1.0 && Float.is_finite factor) then
            invalid e "factor must be >= 1")
  | Attack s -> (
      (match target_of s with Leader g -> group g | Node a -> node a);
      positive "duration" (window_of s);
      match s with
      | Replay { copies; gap_s; _ } ->
          at_least_1 "copies" copies;
          positive "gap" gap_s
      | Delay_valid { add_s; _ } -> positive "add" add_s
      | Equivocate _ | Equivocate_raft _ | Withhold _ | Split_votes _
      | Tamper _ ->
          ())

let validate ~group_sizes t =
  match
    let phys = physical_sizes ~group_sizes t in
    List.iter (check_event phys) (sorted t)
  with
  | () -> Ok ()
  | exception Invalid (e, msg) -> Error (event_to_string e ^ ": " ^ msg)

type provisioned = {
  p_spec : Topology.spec;
  p_active : int array;
  p_member : bool array;
}

let provision ~(spec : Topology.spec) t =
  let sizes = spec.Topology.group_sizes in
  let base = Array.length sizes in
  let phys =
    match physical_sizes ~group_sizes:sizes t with
    | p -> p
    | exception Invalid (e, msg) ->
        invalid_arg ("Scenario.provision: " ^ event_to_string e ^ ": " ^ msg)
  in
  let ng = Array.length phys in
  if phys = sizes then
    {
      p_spec = spec;
      p_active = Array.copy sizes;
      p_member = Array.make base true;
    }
  else begin
    (* Appended groups need WAN RTTs: use the cluster's own matrix when
       it extends that far (e.g. nationwide has 7 sites), otherwise map
       the new gid onto an existing site, flooring same-site pairs at
       the cluster's minimum inter-group RTT so the parallel-scheduler
       lookahead stays positive. *)
    let base_rtt = spec.Topology.rtt in
    let floor_rtt =
      let m = ref infinity in
      for g = 0 to base - 1 do
        for h = 0 to base - 1 do
          if g <> h then m := Float.min !m (base_rtt g h)
        done
      done;
      if Float.is_finite !m then !m else 0.05
    in
    let rtt g h =
      if g = h then 0.0
      else
        match base_rtt g h with
        | r -> r
        | exception Invalid_argument _ ->
            let a = g mod base and b = h mod base in
            if a = b then floor_rtt else base_rtt a b
    in
    {
      p_spec = { spec with Topology.group_sizes = phys; rtt };
      p_active = Array.init ng (fun g -> if g < base then sizes.(g) else 0);
      p_member = Array.init ng (fun g -> g < base);
    }
  end
