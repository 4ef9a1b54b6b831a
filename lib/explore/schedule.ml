type t = { seed : int; decisions : Pqsim.Sched.decision array }

let empty ~seed = { seed; decisions = [||] }

let decision t i =
  if i >= 0 && i < Array.length t.decisions then t.decisions.(i)
  else Pqsim.Sched.continue_

let replay t : Pqsim.Sched.t =
 fun info -> Pqsim.Sched.Run (decision t info.Pqsim.Sched.step)

let length t = Array.length t.decisions

let is_perturbed (d : Pqsim.Sched.decision) = d.delay > 0 || d.weight <> 0

let perturbations t =
  Array.fold_left (fun n d -> if is_perturbed d then n + 1 else n) 0 t.decisions

let pp ppf t =
  Format.fprintf ppf "seed=%d steps=%d {" t.seed (length t);
  let first = ref true in
  Array.iteri
    (fun i (d : Pqsim.Sched.decision) ->
      if is_perturbed d then begin
        if not !first then Format.fprintf ppf " ";
        first := false;
        if d.weight = 0 then Format.fprintf ppf "%d:+%d" i d.delay
        else Format.fprintf ppf "%d:+%d/%d" i d.delay d.weight
      end)
    t.decisions;
  Format.fprintf ppf "}"
