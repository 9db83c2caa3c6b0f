(** A mutable binary min-heap. The simulator's event queue sits on this,
    so operations are allocation-light and amortized O(log n). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (smallest first). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** The minimum element, without removing it. *)

val peek_exn : 'a t -> 'a
(** Like {!peek} but raises [Invalid_argument] on an empty heap; does
    not allocate. *)

val pop : 'a t -> 'a option
(** Removes and returns the minimum element. *)

val pop_exn : 'a t -> 'a
(** Like {!pop} but raises [Invalid_argument] on an empty heap; does
    not allocate. *)

val clear : 'a t -> unit

val filter_in_place : 'a t -> ('a -> bool) -> unit
(** [filter_in_place t keep] drops every element for which [keep] is
    false and re-establishes the heap invariant, in O(n) time and
    without allocating. The relative pop order of surviving elements is
    unchanged (the comparator alone determines it). The simulator's
    event queue uses this to evict lazily-deleted (cancelled) timers. *)

val to_sorted_list : 'a t -> 'a list
(** Non-destructively lists the contents in ascending order; O(n log n),
    intended for tests and debugging. *)
