(* Samples are kept in chunks of [chunk_words] words, well under the
   256 words the OCaml runtime still allocates in the minor heap:
   recording never copies a sample, and no block it allocates is large
   enough for the major heap. *)
type acc = {
  mutable n : int; (* samples recorded *)
  mutable sum : int;
  mutable min : int;
  mutable max : int;
  mutable full : int array list; (* filled chunks, newest first *)
  mutable chunk : int array; (* the chunk being filled *)
  mutable len : int; (* samples in [chunk] *)
}

let chunk_words = 64

type t = (string, acc) Hashtbl.t

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

let create () = Hashtbl.create 16

let fresh () =
  {
    n = 0;
    sum = 0;
    min = max_int;
    max = min_int;
    full = [];
    chunk = Array.make chunk_words 0;
    len = 0;
  }

(* [Hashtbl.find] rather than [find_opt]: recording into an existing key
   allocates nothing *)
let record t key v =
  let acc =
    match Hashtbl.find t key with
    | a -> a
    | exception Not_found ->
        let a = fresh () in
        Hashtbl.add t key a;
        a
  in
  acc.n <- acc.n + 1;
  acc.sum <- acc.sum + v;
  if v < acc.min then acc.min <- v;
  if v > acc.max then acc.max <- v;
  if acc.len = chunk_words then begin
    acc.full <- acc.chunk :: acc.full;
    acc.chunk <- Array.make chunk_words 0;
    acc.len <- 0
  end;
  acc.chunk.(acc.len) <- v;
  acc.len <- acc.len + 1

(* every sample of [a], chunk by chunk *)
let iter_samples f a =
  List.iter (Array.iter f) a.full;
  for k = 0 to a.len - 1 do
    f a.chunk.(k)
  done

let count t key =
  match Hashtbl.find_opt t key with Some a -> a.n | None -> 0

let sum t key =
  match Hashtbl.find_opt t key with Some a -> a.sum | None -> 0

let mean t key =
  match Hashtbl.find_opt t key with
  | Some a when a.n > 0 -> float_of_int a.sum /. float_of_int a.n
  | _ -> 0.0

let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let i = int_of_float (p *. float_of_int (n - 1)) in
    sorted.(i)

let sorted_samples a =
  let sorted = Array.make a.n 0 and k = ref 0 in
  iter_samples
    (fun v ->
      sorted.(!k) <- v;
      incr k)
    a;
  Array.sort compare sorted;
  sorted

let percentile t key p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Stats.percentile: p must be within [0, 1]";
  match Hashtbl.find_opt t key with
  | None -> 0
  | Some a when a.n = 0 -> 0
  | Some a -> percentile_sorted (sorted_samples a) p

let summary t key =
  match Hashtbl.find_opt t key with
  | None -> None
  | Some a when a.n = 0 -> None
  | Some a ->
      let sorted = sorted_samples a in
      Some
        {
          key;
          count = a.n;
          mean = float_of_int a.sum /. float_of_int a.n;
          min = a.min;
          max = a.max;
          p50 = percentile_sorted sorted 0.5;
          p95 = percentile_sorted sorted 0.95;
          p99 = percentile_sorted sorted 0.99;
        }

(* power-of-two latency buckets: index 0 holds values <= 0, index i >= 1
   the values in [2^(i-1), 2^i - 1] *)
let bucket_index v =
  if v <= 0 then 0
  else
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    bits v 0

let bucket_bound i = if i = 0 then 0 else (1 lsl i) - 1

let histogram t key =
  match Hashtbl.find_opt t key with
  | None -> []
  | Some a ->
      let counts = Hashtbl.create 16 in
      iter_samples
        (fun v ->
          let i = bucket_index v in
          Hashtbl.replace counts i
            (1 + Option.value (Hashtbl.find_opt counts i) ~default:0))
        a;
      Hashtbl.fold (fun i c acc -> (i, c) :: acc) counts []
      |> List.sort compare
      |> List.map (fun (i, c) -> (bucket_bound i, c))

let keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort compare

let merge_mean t ks =
  let n = ref 0 and sum = ref 0 in
  let add key =
    match Hashtbl.find_opt t key with
    | Some a ->
        n := !n + a.n;
        sum := !sum + a.sum
    | None -> ()
  in
  List.iter add ks;
  if !n = 0 then 0.0 else float_of_int !sum /. float_of_int !n
