(* splitmix on OCaml's 63-bit ints: a state stepped by the odd [gamma],
   each state hashed by [mix] *)
let gamma = 0x2545F4914F6CDD1D

let mix z =
  let z = (z lxor (z lsr 30)) * 0x106689D45497235B in
  let z = (z lxor (z lsr 27)) * 0x1D8E4E27C47D124F in
  (z lxor (z lsr 31)) land max_int

type stream = { mutable s : int }

let key =
  Domain.DLS.new_key (fun () ->
      { s = mix (((Domain.self () :> int) + 1) * gamma) })

let next () =
  let st = Domain.DLS.get key in
  let s = st.s + gamma in
  st.s <- s;
  mix s
