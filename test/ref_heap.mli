(** The reference model of {!Hostpq.Heap}: a binary min-heap of [int]
    keys whose sifts move each payload along with its key. *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int
val min_key : 'a t -> int
val push : 'a t -> int -> 'a -> unit
val pop : 'a t -> (int * 'a) option
