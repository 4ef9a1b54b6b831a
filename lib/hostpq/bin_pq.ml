let name = "bin-pq"

type 'a bin = { lock : Hlock.t; mutable items : 'a list; size : int Atomic.t }
type 'a t = { bins : 'a bin array }

let create ~npriorities () =
  if npriorities <= 0 then invalid_arg "Bin_pq.create";
  {
    bins =
      Array.init npriorities (fun i ->
          {
            lock = Hlock.create ~name:(Printf.sprintf "%s.bin[%d]" name i) ();
            items = [];
            size = Atomic.make 0;
          });
  }

let insert t ~pri v =
  if pri < 0 || pri >= Array.length t.bins then invalid_arg "Bin_pq.insert";
  let b = t.bins.(pri) in
  Hlock.lock b.lock;
  b.items <- v :: b.items;
  Atomic.incr b.size;
  Hlock.unlock b.lock

let rec scan bins i =
  if i >= Array.length bins then None
  else
    let b = bins.(i) in
    if Atomic.get b.size = 0 then scan bins (i + 1)
    else begin
      Hlock.lock b.lock;
      match b.items with
      | v :: rest ->
          b.items <- rest;
          Atomic.decr b.size;
          Hlock.unlock b.lock;
          Some (i, v)
      | [] ->
          Hlock.unlock b.lock;
          scan bins (i + 1)
    end

let delete_min t = scan t.bins 0

let length t =
  Array.fold_left (fun acc b -> acc + Atomic.get b.size) 0 t.bins
