(** The scenario language (DESIGN.md "Scenario language").

    A scenario is a list of timed actions of three kinds: benign
    {e faults} applied by the injector, Byzantine {e attacks} compiled
    by the adversary engine, and {e membership} commands executed by
    the reconfiguration controller. Every action has a stable one-line
    text form, so a scenario travels as readable lines — a CI artifact,
    a [massbft run --scenario FILE] input, a shrunk reproducer — and
    parses back into exactly the same run. The three vocabularies share
    no keyword, so one file may mix all three kinds of line:

    {v
    @2 add-node g0                              # membership
    @2.5 crash-node g0/n7                       # fault on the joining slot
    @3.5 recover-node g0/n7
    @2 link-drop g0->g1 every 3 class bulk for 2.5
    @4 equivocate leader:g1 for 2               # attack
    @1 replay node:g2/n1 copies 2 gap 0.25 for 2
    v} *)

module Topology = Massbft_sim.Topology

(** NIC service class selector for link faults: entry payloads travel
    [Bulk], consensus votes and acks [Control]. *)
type service_class = Any | Bulk | Control

type fault =
  | Crash_node of Topology.addr
  | Recover_node of Topology.addr
  | Crash_group of int
  | Recover_group of int
  | Partition of { groups : int list; for_s : float }
      (** cut all WAN traffic between [groups] and the remaining groups
          (both directions) for [for_s] seconds *)
  | Link_drop of {
      src_g : int;
      dst_g : int;
      every : int;  (** drop every [every]-th matching message (1 = all) *)
      cls : service_class;
      for_s : float;
    }
  | Link_delay of {
      src_g : int;
      dst_g : int;
      add_s : float;  (** added to the propagation leg *)
      cls : service_class;
      for_s : float;
    }
  | Link_dup of {
      src_g : int;
      dst_g : int;
      copies : int;  (** extra deliveries per duplicated message *)
      every : int;  (** duplicate every [every]-th matching message *)
      cls : service_class;
      for_s : float;
    }
  | Wan_degrade of { g : int; factor : float; for_s : float }
      (** scale every node-of-[g]'s WAN bandwidth by [factor] in (0,1] *)
  | Lan_degrade of { g : int; factor : float; for_s : float }
  | Slow_cpu of { addr : Topology.addr; factor : float; for_s : float }
      (** gray failure: the node computes [factor >= 1] times slower *)

(** Who misbehaves. [Leader gid] is adaptive: resolved at every send to
    whichever node currently holds the group's acting-leader role, so
    the attack follows view changes and leader migrations. *)
type target = Node of Topology.addr | Leader of int

type strategy =
  | Equivocate of { target : target; for_s : float }
      (** send conflicting PBFT pre-prepares (and matching forged
          prepare/commit votes) to different halves of the group *)
  | Equivocate_raft of { target : target; for_s : float }
      (** send conflicting global Raft append payloads to different
          receiver groups (exceeds Raft's crash-only fault model) *)
  | Withhold of { target : target; for_s : float }
      (** serve each pre-prepare to a quorum-minus-one subset only, so
          no slot proposed in the window can gather a commit quorum *)
  | Split_votes of { target : target; for_s : float }
      (** fork outgoing view-change votes across two target views *)
  | Replay of { target : target; copies : int; gap_s : float; for_s : float }
      (** re-emit valid control messages [copies] extra times, spaced
          [gap_s] apart — tests vote-set and delivery idempotence *)
  | Delay_valid of { target : target; add_s : float; for_s : float }
      (** delay valid control messages by [add_s] before emitting *)
  | Tamper of { target : target; for_s : float }
      (** corrupt outgoing replication chunks (the paper's §VI-E
          colluding-encoder attack) *)

type command =
  | Add_node of int
      (** the group gains one node: a provisioned spare slot, brought
          up, caught up by state transfer, activated in the next epoch *)
  | Remove_node of int  (** the group retires its highest active slot *)
  | Move_leader of Topology.addr
  | Add_group of { size : int }
      (** a whole new group joins (gid = next unused), with ledger state
          transfer and key-range resharding of the workload *)
  | Remove_group of int
      (** the group leaves the membership; its key range is reabsorbed *)

type action = Fault of fault | Attack of strategy | Member of command
type event = { at : float; action : action }
type t = event list

(** {1 Text form} *)

val kind_name : action -> string
(** Stable snake_case kind labels ("crash_node", "split_votes",
    "add_group", ...) used by metrics and trace spans. *)

val attack_names : string list
(** The dashed attack keywords — the vocabulary accepted by
    [massbft drill --adversary]. *)

val action_to_string : action -> string
val event_to_string : event -> string

val to_string : t -> string
(** One event per line, each terminated by a newline. *)

exception Parse_error of { line : int; token : string; msg : string }
(** [line] is 1-based; [token] is the offending token. *)

val of_string : string -> t
(** Parses the {!to_string} form. Blank lines and [#] comments (whole
    lines or trailing) are skipped. Numbers are decimal numerals only;
    every key an action names is required, and unknown or repeated keys
    are rejected. Raises {!Parse_error} on malformed input.
    [of_string (to_string s)] reproduces [s] for every scenario the
    chaos generators emit (times quantized to 1 ms). *)

val member_of_wire : string -> command * int option
(** Parses the wire form of a membership command — what rides inside an
    epoch-boundary entry: a command with no [@TIME] prefix, where
    [add-group] may carry the controller's [gid N] pin (returned as the
    option). [gid] is not part of the user-facing language. Raises
    [Invalid_argument] on anything else. *)

(** {1 Queries} *)

val sorted : t -> t
(** Stable sort by time. *)

val faults : t -> (float * fault) list
val attacks : t -> (float * strategy) list
val members : t -> (float * command) list
(** Each subsystem's own actions, stably sorted by time. *)

val target_of : strategy -> target
val window_of : strategy -> float

val fault_window : fault -> float option
(** A windowed fault's duration; [None] for crashes and recoveries. *)

val heal_time : t -> float
(** Time by which the whole scenario has healed: window faults and
    attacks when their window closes, crashes at their matching recover
    — infinity if one is never recovered (callers then disable liveness
    expectations) — and membership changes a settling allowance after
    the last command (longer when a join's state transfer is in
    flight). 0 for the empty scenario. *)

val validate : group_sizes:int array -> t -> (unit, string) result
(** Walks the membership commands in time order against the evolving
    membership — groups stay PBFT-viable (n >= 4 after a remove), group
    0 never leaves, at least two member groups remain, added groups are
    >= 4 nodes, leaders move to active slots only — then checks every
    fault and attack against the {e provisioned} topology ({!provision}),
    so a crash or attack aimed at a joining slot is legal. Also: times
    non-negative, windows positive, degradation factors in (0,1],
    slow-CPU factors >= 1, link faults on WAN links only, replay copies
    >= 1 with a positive gap. The error names the offending event in
    text form. *)

type provisioned = {
  p_spec : Topology.spec;  (** expanded physical topology *)
  p_active : int array;  (** initial active node count per physical group *)
  p_member : bool array;  (** initial membership (false = provisioned ahead) *)
}

val provision : spec:Topology.spec -> t -> provisioned
(** The simulated cluster is fixed at creation, so every slot the
    scenario's membership commands will ever activate is provisioned up
    front (dark until its epoch). A scenario without membership commands
    returns [spec] unchanged, physically. Raises [Invalid_argument] if
    the membership commands fail {!validate}. *)
