type 'a slot = Empty | Parked of 'a | Taken

type 'a t = {
  top : 'a list Atomic.t;
  slots : 'a slot Atomic.t array;
  rng_key : int;
  max_attempts : int;
}

let create ?(slots = 8) ?(max_attempts = max_int) () =
  {
    top = Atomic.make [];
    slots = Array.init (max 1 slots) (fun _ -> Atomic.make Empty);
    rng_key = Random.bits ();
    max_attempts;
  }

(* cheap per-domain pseudo-random slot choice; quality is irrelevant *)
let pick t =
  let id = (Domain.self () :> int) in
  let h = (id * 0x9E3779B1) lxor t.rng_key lxor (Random.bits () lsl 7) in
  (h land max_int) mod Array.length t.slots

let spins = 64

(* [failed] is the operation's failed attempts so far, [spin] its next
   wait *)
let rec push_retry failed spin t v =
  let failed = failed + 1 in
  push_attempt failed
    (Retry.once ~max_attempts:t.max_attempts "Elim_stack.push" ~failed spin)
    t v

and push_attempt failed spin t v =
  let cur = Atomic.get t.top in
  if Atomic.compare_and_set t.top cur (v :: cur) then ()
  else begin
    (* park in the elimination array and wait briefly for a pop; every
       later CAS on the slot compares against this very cell, since
       [compare_and_set] is physical equality *)
    let s = t.slots.(pick t) in
    let cell = Parked v in
    if Atomic.compare_and_set s Empty cell then begin
      let rec wait i =
        if Atomic.get s == Taken then Atomic.set s Empty (* consumed *)
        else if i = 0 then
          if Atomic.compare_and_set s cell Empty then push_retry failed spin t v
            (* withdrew unconsumed: retry on the stack *)
          else Atomic.set s Empty (* a pop took it at the last moment *)
        else begin
          Domain.cpu_relax ();
          wait (i - 1)
        end
      in
      wait spins
    end
    else push_retry failed spin t v
  end

let push t v = push_attempt 0 Retry.first t v

let try_steal t =
  let s = t.slots.(pick t) in
  match Atomic.get s with
  | Parked v as cell when Atomic.compare_and_set s cell Taken -> Some v
  | Parked _ | Empty | Taken -> None

let rec pop_attempt failed spin t =
  match Atomic.get t.top with
  | [] -> try_steal t (* the stack looks empty; a parked push still counts *)
  | v :: rest as cur ->
      if Atomic.compare_and_set t.top cur rest then Some v
      else begin
        match try_steal t with
        | Some _ as r -> r
        | None ->
            let failed = failed + 1 in
            pop_attempt failed
              (Retry.once ~max_attempts:t.max_attempts "Elim_stack.pop"
                 ~failed spin)
              t
      end

let pop t = pop_attempt 0 Retry.first t

let is_empty t = Atomic.get t.top = []
let length t = List.length (Atomic.get t.top)
