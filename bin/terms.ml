(* Shared cmdliner argument terms for the pqbench sub-commands.

   Every sub-command drives the same simulated machine, so the knobs that
   select a run — queue, processor count, priority range, accesses per
   processor, seed — are defined once here.  Defaults differ per command
   (an exploration run wants a tiny schedule space, a benchmark a
   realistic one) and are passed in, read from the library where it
   owns them (explore); the seed default is otherwise the one global:
   every command, like Workload.spec, starts from [default_seed].  The
   gate commands build their options from Pqanalysis.Gate instead. *)

open Cmdliner

let default_seed = 42

let seed =
  Arg.(
    value & opt int default_seed
    & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic simulation seed.")

(* a count of things (processors, priorities, accesses, schedules): zero
   or a negative value is a usage error that names the option *)
let positive = Arg.conv' (Pqanalysis.Gate.positive, Format.pp_print_int)

let count names ~docv ~doc ~default =
  Arg.(value & opt positive default & info names ~docv ~doc)

let procs = count [ "procs"; "p" ] ~docv:"P" ~doc:"Simulated processors."
let priorities = count [ "priorities"; "n" ] ~docv:"N" ~doc:"Priority range."
let ops = count [ "ops" ] ~docv:"OPS" ~doc:"Queue accesses per processor."

let queue ~default ~doc =
  Arg.(value & opt string default & info [ "queue" ] ~docv:"NAME" ~doc)

let jobs =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"J"
        ~env:(Cmd.Env.info "PQBENCH_JOBS")
        ~doc:
          "Host domains running independent experiment points concurrently. \
           Results are merged in fixed point order, so any value produces \
           byte-identical output; 1 (the default) runs everything in the \
           calling domain.")

(* expand --queue all / check the name against the registry *)
let resolve_queues name =
  let queues =
    if name = "all" then Pqcore.Registry.names_paper else [ name ]
  in
  match
    List.filter (fun q -> not (List.mem q Pqcore.Registry.names)) queues
  with
  | [] -> Ok queues
  | q :: _ -> Error (Printf.sprintf "unknown queue %S; try `pqbench list'" q)

let report =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE" ~doc:"Also write the report to $(docv).")

let write path text =
  Out_channel.with_open_text path (fun oc -> output_string oc text);
  Printf.printf "wrote %s\n" path

(* the gate commands' one exit path: print the report, write it to
   --report FILE if given, then pass (printing [pass_line]) or fail
   with the gate errors, one per line *)
let gate ?report ?(pass_line = "") text errors =
  print_string text;
  Option.iter (fun path -> write path text) report;
  match errors with
  | [] ->
      print_string pass_line;
      `Ok ()
  | errors -> `Error (false, String.concat "\n" errors)

(* a gate error naming what failed, or none *)
let failing prefix = function
  | [] -> []
  | names -> [ prefix ^ String.concat ", " names ]
