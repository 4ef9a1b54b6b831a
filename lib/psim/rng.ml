(* splitmix64.  The state lives in an 8-byte buffer rather than a boxed
   [int64] field, so advancing it stores an unboxed value and a draw
   allocates nothing. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let make seed = of_state (mix (Int64.of_int seed))

let[@inline] advance t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix s

let next64 t = advance t

let split t i =
  let s = advance t in
  of_state (Int64.add s (mix (Int64.of_int (i + 0x1234567))))

let next t = Int64.to_int (Int64.shift_right_logical (advance t) 2)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  next t mod n

let bool t = Int64.logand (advance t) 1L = 1L
