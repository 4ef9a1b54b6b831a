(** Blocks padded to a cache-line pair of their own, for the words that
    domains write on every operation.

    Two words written by different domains that share a cache line make
    the line move between the domains' caches on every write, though no
    datum is shared ("false sharing").  OCaml 5.1 has no
    [Atomic.make_contended], so a hot atomic or record is allocated as
    usual and then copied into a block of at least {!words} words, with
    the original's fields first and immediates after, as
    multicore-magic's [copy_as_padded] does.  Sixteen words are 128
    bytes: two 64-byte lines, since x86's adjacent-line prefetcher pulls
    lines in pairs.

    The copy is a new block: only the copy is padded, and the caller
    must drop the original.  Record field access and every [Atomic]
    operation read fields by position, so they work on the copy
    unchanged; structural comparison and hashing would see the padding,
    and are not used on these blocks. *)

val words : int
(** the size, in words, of a padded block: 16 *)

val copy : 'a -> 'a
(** [copy o] is a block with [o]'s tag and fields, at least {!words}
    words long ([o] itself when it already is).  [o] must be a record,
    a variant with arguments, or an [Atomic.t]; raises
    [Invalid_argument] on an immediate, a float, a string or any other
    unscanned or special block. *)
