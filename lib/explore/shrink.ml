open Pqsim

let is_perturbed (d : Sched.decision) = d.delay > 0 || d.weight <> 0

(* drop a trailing run of undisturbed decisions: semantically free
   (decisions past the array are continue_ anyway) *)
let trim (s : Schedule.t) =
  let n = Array.length s.decisions in
  let last = ref (n - 1) in
  while !last >= 0 && not (is_perturbed s.decisions.(!last)) do
    decr last
  done;
  if !last = n - 1 then s
  else { s with decisions = Array.sub s.decisions 0 (!last + 1) }

let max_runs = 400

let shrink ~violates (s0 : Schedule.t) =
  let runs = ref 0 in
  let try_ s =
    if !runs >= max_runs then false
    else begin
      incr runs;
      violates s
    end
  in
  let current = ref (trim s0) in
  let decisions () = (!current).Schedule.decisions in
  let set_decision i d =
    let ds = Array.copy (decisions ()) in
    ds.(i) <- d;
    { !current with Schedule.decisions = ds }
  in
  (* try keeping only a prefix of the decisions *)
  let try_prefix len =
    let n = Array.length (decisions ()) in
    len < n
    &&
    let c = trim { !current with Schedule.decisions = Array.sub (decisions ()) 0 len } in
    Array.length c.Schedule.decisions < n && try_ c
    && begin
         current := c;
         true
       end
  in
  (* restore decision [i] to the default, or at least halve its delay *)
  let try_soften i =
    let d = (decisions ()).(i) in
    is_perturbed d
    &&
    let c = trim (set_decision i Sched.continue_) in
    if try_ c then begin
      current := c;
      true
    end
    else if d.Sched.delay > 1 then begin
      let c = set_decision i { d with Sched.delay = d.Sched.delay / 2 } in
      try_ c
      && begin
           current := c;
           true
         end
    end
    else false
  in
  let progress = ref true in
  while !progress && !runs < max_runs do
    progress := false;
    let n = Array.length (decisions ()) in
    if try_prefix (n / 2) || try_prefix (3 * n / 4) then progress := true;
    let i = ref (Array.length (decisions ()) - 1) in
    while !i >= 0 && !runs < max_runs do
      (* an accepted trim may have shortened the schedule under us *)
      if !i >= Array.length (decisions ()) then
        i := Array.length (decisions ()) - 1;
      if !i >= 0 && try_soften !i then progress := true;
      decr i
    done
  done;
  (!current, !runs)
