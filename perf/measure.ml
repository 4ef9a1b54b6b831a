(* Clock, sample statistics, the failure tally and the span recorder
   shared by the simulator and host workloads. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9

(* a quotient that reads 0 instead of nan when nothing was counted *)
let ratio a b = if b = 0. then 0. else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

(* Python's [statistics.quantiles data ~n:4] (the default "exclusive"
   method), so quartiles here match the ones the spread rule is stated
   in; the middle one is the median *)
let quartiles samples =
  let a = Array.of_list (List.sort Float.compare samples) in
  let ld = Array.length a in
  if ld = 0 then (0., 0., 0.)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let median samples =
  let _, m, _ = quartiles samples in
  m

let geomean = function
  | [] -> 0.
  | xs when List.exists (fun x -> x <= 0.) xs -> 0.
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

(* A growable int buffer: probe recordings and latency samples. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }
  let clear b = b.n <- 0

  let push b v =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    Array.unsafe_set b.a b.n v;
    b.n <- b.n + 1

  (* nearest-rank percentile of the buffered samples *)
  let percentile b p =
    if b.n = 0 then 0
    else begin
      let a = Array.sub b.a 0 b.n in
      Array.sort Int.compare a;
      let rank = int_of_float (Float.ceil (p *. float_of_int b.n)) in
      a.(max 0 (min (b.n - 1) (rank - 1)))
    end
end

(* Operations attempted and failed in one run.  A failed run or rep
   counts every operation it attempted. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let tally () = { attempted = 0; failed = 0; problems = [] }

let fail t ~ops msg =
  t.failed <- t.failed + ops;
  if List.length t.problems < 16 then t.problems <- msg :: t.problems

(* What a workload run measured: each metric's reported value and the
   per-round (or per-rep) samples behind it. *)
type outcome = {
  tally : tally;
  values : (string * (float * float list)) list;
  series : (string * float list) list;
      (** each queue's rate in every round or rep of an untraced run *)
  settings : (string * Pqtrace.Json.t) list;  (** fixed by the workload *)
  counts : (string * Pqtrace.Json.t) list;  (** rounds and reps done *)
}

(* Host-time spans of a traced run, kept in memory and written as a
   Chrome trace when the run ends.  A span's self time is its duration
   minus its direct children's. *)
module Spans = struct
  type span = { name : string; start : int; dur : int; self : int; depth : int }

  let enabled = ref false
  let recorded : span list ref = ref []
  let open_children : int ref list ref = ref []

  let span name f =
    if not !enabled then f ()
    else begin
      let children = ref 0 in
      let depth = List.length !open_children in
      open_children := children :: !open_children;
      let start = now_ns () in
      Fun.protect f ~finally:(fun () ->
          let dur = now_ns () - start in
          open_children := List.tl !open_children;
          (match !open_children with p :: _ -> p := !p + dur | [] -> ());
          recorded :=
            { name; start; dur; self = dur - !children; depth } :: !recorded)
    end

  let to_json () =
    let open Pqtrace.Json in
    let us ns = Float (float_of_int ns /. 1e3) in
    Obj
      [
        ( "traceEvents",
          List
            (List.rev_map
               (fun s ->
                 Obj
                   [
                     ("name", String s.name);
                     ("ph", String "X");
                     ("ts", us s.start);
                     ("dur", us s.dur);
                     ("pid", Int 1);
                     ("tid", Int 1);
                     ("args", Obj [ ("self_us", us s.self); ("depth", Int s.depth) ]);
                   ])
               !recorded) );
      ]
end

(* [body i] for rounds i = 1, 2, ... until [seconds] have passed, or for
   one round when [once]; the rounds' results in order.  A full major
   collection between rounds, outside any timed span, starts every
   round from the same heap state. *)
let rounds ~seconds ~once body =
  let deadline = now_ns () + (seconds * 1_000_000_000) in
  let rec go i acc =
    let acc = Spans.span (Printf.sprintf "round %d" i) (fun () -> body i) :: acc in
    Gc.full_major ();
    if once || now_ns () >= deadline then List.rev acc else go (i + 1) acc
  in
  go 1 []
