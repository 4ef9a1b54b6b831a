(** Latency statistics collected during a simulation run.

    Processors record samples under string keys (e.g. ["insert"],
    ["delete_min"], ["access"]); after the run the caller extracts means
    and distribution summaries per key. *)

type t

type summary = {
  key : string;
  count : int;
  mean : float;
  min : int;
  max : int;
  p50 : int;
  p95 : int;
  p99 : int;
}

val create : unit -> t
val record : t -> string -> int -> unit
val count : t -> string -> int
(** [count t key] is 0 when no sample was recorded under [key]. *)

val sum : t -> string -> int
(** [sum t key] is the total of all samples; 0 on the empty key. *)

val mean : t -> string -> float
(** [mean t key] is 0.0 when no sample was recorded under [key]. *)

val summary : t -> string -> summary option
(** [None] when no sample was recorded under [key].  Percentiles use the
    nearest-rank-below convention: the sorted sample at (0-based) index
    [floor (p * (n-1))], so a 1-sample key reports that sample for every
    percentile, and tied samples report the tied value. *)

val percentile : t -> string -> float -> int
(** [percentile t key p] for [p] in [0,1]; 0 when no sample was recorded
    under [key].  Raises [Invalid_argument] on [p] outside [0,1]. *)

val histogram : t -> string -> (int * int) list
(** Power-of-two latency buckets, ascending: [(bound, count)] means
    [count] samples fell in the bucket whose inclusive upper bound is
    [bound] (bounds are 0, 1, 3, 7, 15, ...; bucket [2^(i-1) .. 2^i-1]).
    Empty buckets are omitted; the empty key yields []. *)

val keys : t -> string list
(** sorted *)

val merge_mean : t -> string list -> float
(** [merge_mean t keys] is the mean over the union of samples of [keys];
    0.0 when none of [keys] has a sample. *)
