let name = "locked-heap"

type 'a t = { lock : Hlock.t; heap : 'a Heap.t; npriorities : int }

let create ~npriorities () =
  if npriorities <= 0 || npriorities > Heap.key_limit then
    invalid_arg "Locked_heap.create";
  {
    lock = Hlock.create ~name:(name ^ ".lock") ~index:Hlock.no_index ();
    heap = Heap.create ();
    npriorities;
  }

let insert t ~pri v =
  if pri < 0 || pri >= t.npriorities then invalid_arg "Locked_heap.insert";
  Hlock.lock t.lock;
  Heap.push t.heap pri v;
  Hlock.unlock t.lock

let delete_min t =
  Hlock.lock t.lock;
  let r = Heap.pop t.heap in
  Hlock.unlock t.lock;
  r

let length t =
  Hlock.lock t.lock;
  let n = Heap.size t.heap in
  Hlock.unlock t.lock;
  n
