(** The gate commands' one interface.

    [pqbench audit], [chaos] and [adapt], the BENCH.json sections of the
    same names and the golden digests of their reports are all built
    from the {!spec} values below, over the library's own config
    records: each gate's configs, settable fields and their defaults,
    and its report are written once, here. *)

type 'c arg =
  | Flag of ('c -> 'c)  (** a switch, applied when given *)
  | Value of {
      docv : string;
      print : 'c -> string;  (** the field's value, as the flag reads *)
      set : string -> 'c -> ('c, string) result;
    }

type 'c field = {
  names : string list;  (** flag names, the long one first *)
  doc : string;  (** cmdliner markup *)
  arg : 'c arg;
}

type outcome = {
  report : string;  (** what the command prints and [--report] writes *)
  summary : string;  (** a one-line verdict *)
  errors : string list;  (** gate errors; [[]] is a pass *)
  json : Pqtrace.Json.t;  (** the BENCH.json section *)
}

type 'c spec = {
  name : string;  (** the command and its BENCH.json section *)
  doc : string;
  title : string;  (** bench/main.exe's heading over the section *)
  default : 'c;
  quick : 'c option;  (** what [--quick] starts from, if the gate has it *)
  bench : 'c;  (** the config the BENCH.json section runs *)
  fields : 'c field list;
  run : jobs:int -> 'c -> outcome;  (** the same outcome for any [jobs] *)
}

type t = Gate : 'c spec -> t

val audit : Pqchaos.Driver.config spec
(** {!Audit.config} only: no field, no quick config *)

val chaos : Pqchaos.Driver.config spec
(** its section runs [{quick with seeds = [42]}] *)

val adapt : Pqadapt.Driver.config spec
(** setting [procs] also sets the classifier to
    {!Pqadapt.Driver.classifier_for} that count *)

val all : t list
(** audit, chaos, adapt: command and section order *)

val configure : 'c spec -> (string * string) list -> ('c, string) result
(** the config a command line gives as [(long name, value)] pairs, [""]
    for a switch: ["quick"] picks the base, then the fields are set in
    list order; a name that is no field is ignored.  An error names the
    flag whose value is bad. *)

val positive : string -> (int, string) result
(** a count of things: zero or less is an error *)
