(* Shared cmdliner argument terms for the pqbench sub-commands.

   Every sub-command drives the same simulated machine, so the knobs that
   select a run — queue, processor count, priority range, accesses per
   processor, seed — are defined once here.  Defaults differ per command
   (an exploration run wants a tiny schedule space, a benchmark a
   realistic one) and are passed in, or left [unset] where the library
   call the command makes owns them (explore); the seed default is
   otherwise the one global: every command, like Workload.spec, starts
   from [default_seed]. *)

open Cmdliner

let default_seed = 42

let seed_info =
  Arg.info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic simulation seed."

let seed = Arg.(value & opt int default_seed seed_info)

(* a count of things (processors, priorities, accesses, schedules): zero
   or a negative value is a usage error that names the option *)
let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let procs_info =
  Arg.info [ "procs"; "p" ] ~docv:"P" ~doc:"Simulated processors."
let priorities_info =
  Arg.info [ "priorities"; "n" ] ~docv:"N" ~doc:"Priority range."
let ops_info =
  Arg.info [ "ops" ] ~docv:"OPS" ~doc:"Queue accesses per processor."

let procs ~default = Arg.(value & opt positive default procs_info)
let priorities ~default = Arg.(value & opt positive default priorities_info)
let ops ~default = Arg.(value & opt positive default ops_info)

(* an option whose default belongs to the library call that reads it:
   [None] when not given *)
let unset c i = Arg.(value & opt (some c) None i)

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

(* the gate commands' one exit path: print the report, write it to
   --report FILE if given, then pass (printing [pass_line]) or fail
   with the gate errors, one per line *)
let gate ?report ?(pass_line = "") text errors =
  print_string text;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s\n" path)
    report;
  match errors with
  | [] ->
      print_string pass_line;
      `Ok ()
  | errors -> `Error (false, String.concat "\n" errors)

(* a gate error naming what failed, or none *)
let failing prefix = function
  | [] -> []
  | names -> [ prefix ^ String.concat ", " names ]

(* names as the bold, comma-separated list a --help text shows *)
let bold_list names =
  String.concat ", " (List.map (Printf.sprintf "$(b,%s)") names)

(* a comma-separated list, each item through [of_string] (first error
   wins); [all], when given, is what the word "all" expands to *)
let parse_list ?all ~of_string s =
  match all with
  | Some all when s = "all" -> Ok all
  | _ ->
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun x -> x <> "")
      |> List.fold_left
           (fun acc x ->
             match (acc, of_string x) with
             | (Error _ as e), _ -> e
             | _, (Error _ as e) -> e
             | Ok xs, Ok x -> Ok (xs @ [ x ]))
           (Ok [])
