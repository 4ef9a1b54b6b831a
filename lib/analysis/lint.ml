(* Memory-discipline lint: a hand-rolled lexical/AST-lite scanner (in
   the spirit of lib/trace/json.ml — no parser dependencies) enforcing
   that simulated algorithm code stays inside the priced Api/Mem
   instruction set.  Host-level mutable state (refs at module scope,
   Hashtbl/Atomic/Mutex, mutable record fields) silently escapes the
   Proteus-style cost accounting; this makes such escapes loud.

   The scanner is lexical on purpose: it understands comments, strings
   and char literals, tracks local-binding depth, and nothing more.  Its
   verdicts are calibrated against this repository (see
   test/test_analysis.ml for pinned accept/reject cases); it is a
   tripwire, not a type system. *)

type violation = { file : string; line : int; rule : string; message : string }

let pp_violation ppf v =
  Format.fprintf ppf "%s:%d: [%s] %s" v.file v.line v.rule v.message

(* ------------------------------------------------------------------ *)
(* Tokenizer.                                                          *)

type tok = { t : string; line : int; col : int }

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '\''

let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let bol = ref 0 in
  let i = ref 0 in
  let newline at = incr line; bol := at + 1 in
  let emit s start = toks := { t = s; line = !line; col = start - !bol } :: !toks in
  (* skip a string literal, [!i] at the opening quote; handles escapes *)
  let skip_string () =
    incr i;
    let fin = ref false in
    while (not !fin) && !i < n do
      (match src.[!i] with
      | '\\' -> incr i
      | '"' -> fin := true
      | '\n' -> newline !i
      | _ -> ());
      incr i
    done
  in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      newline !i;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      (* comment; nested, and quotes inside open a string as in OCaml *)
      let depth = ref 1 in
      i := !i + 2;
      while !depth > 0 && !i < n do
        if src.[!i] = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
          incr depth;
          i := !i + 2
        end
        else if src.[!i] = '*' && !i + 1 < n && src.[!i + 1] = ')' then begin
          decr depth;
          i := !i + 2
        end
        else if src.[!i] = '"' then skip_string ()
        else begin
          if src.[!i] = '\n' then newline !i;
          incr i
        end
      done
    end
    else if c = '"' then skip_string ()
    else if c = '\'' then begin
      (* char literal, or the quote of a type variable / polymorphic
         label; a quote continuing an identifier never reaches here *)
      if !i + 1 < n && src.[!i + 1] = '\\' then begin
        i := !i + 2;
        while !i < n && src.[!i] <> '\'' do
          incr i
        done;
        incr i
      end
      else if !i + 2 < n && src.[!i + 2] = '\'' then i := !i + 3
      else incr i (* type variable: skip the quote *)
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      emit (String.sub src start (!i - start)) start
    end
    else if is_digit c then begin
      let start = !i in
      while
        !i < n
        && (is_ident_char src.[!i] || src.[!i] = '.')
      do
        incr i
      done;
      emit (String.sub src start (!i - start)) start
    end
    else begin
      (* two-char operators the checks care about, else single chars *)
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      if two = "<-" || two = ":=" || two = "->" then begin
        emit two !i;
        i := !i + 2
      end
      else begin
        emit (String.make 1 c) !i;
        incr i
      end
    end
  done;
  Array.of_list (List.rev !toks)

(* ------------------------------------------------------------------ *)
(* Checks.                                                             *)

let banned_modules =
  [
    "Hashtbl"; "Atomic"; "Mutex"; "Condition"; "Semaphore"; "Domain";
    "Thread"; "Obj"; "Unix"; "Sys"; "Random"; "Effect"; "Weak"; "Ephemeron";
  ]

(* a banned name under one of these is still the host module; under any
   other module it is something else, a constructor such as [Json.Obj] *)
let stdlib_paths = [ "Stdlib"; "StdLabels"; "MoreLabels" ]

let escape_words = [ "raise"; "failwith"; "invalid_arg"; "assert"; "progress" ]

let scan_string ?(file = "<string>") ?(allow = []) src =
  let toks = tokenize src in
  let ntok = Array.length toks in
  let out = ref [] in
  let add line rule message = out := { file; line; rule; message } :: !out in
  let allowed ident =
    List.exists (fun (f, id) -> f = file && id = ident) allow
  in
  (* pass 1: banned modules and the external keyword *)
  let under_other_module k =
    k >= 2
    && toks.(k - 1).t = "."
    &&
    let m = toks.(k - 2).t in
    m.[0] >= 'A' && m.[0] <= 'Z' && not (List.mem m stdlib_paths)
  in
  Array.iteri
    (fun k tk ->
      if List.mem tk.t banned_modules && not (under_other_module k) then
        add tk.line "host-effect"
          (Printf.sprintf
             "host-level module %s is off-limits in simulated code (use \
              Api/Mem cells or move the helper out of the linted tree)"
             tk.t)
      else if tk.t = "external" then
        add tk.line "host-effect" "external declarations are off-limits")
    toks;
  (* pass 2: token-stream walk for refs, mutable fields, assignments and
     spin loops.  [local] counts let..in nesting (a [let] not at column
     0 opens a local binding closed by [in]); [in_type] tracks whether
     the current column-0 item is a type declaration. *)
  let local = ref 0 in
  let in_type = ref false in
  let item_keywords = [ "let"; "type"; "module"; "exception"; "open"; "include" ] in
  for k = 0 to ntok - 1 do
    let tk = toks.(k) in
    if tk.col = 0 && List.mem tk.t item_keywords then begin
      local := 0;
      in_type := tk.t = "type"
    end
    else if tk.t = "let" && tk.col > 0 then incr local
    else if tk.t = "in" && !local > 0 then decr local
    else if tk.t = "ref" then begin
      if !in_type then
        add tk.line "host-state"
          "ref-typed field in a type declaration: shared host state \
           escapes the simulated cost model"
      else if !local = 0 then
        add tk.line "host-state"
          "module-level ref: host mutable state shared across simulated \
           processors (local refs inside a let..in body are fine)"
    end
    else if tk.t = "mutable" then begin
      let field = if k + 1 < ntok then toks.(k + 1).t else "?" in
      if not (allowed field) then
        add tk.line "host-state"
          (Printf.sprintf
             "mutable record field '%s' not in the lint allowlist" field)
    end
    else if tk.t = "<-" then begin
      (* walk back to the assigned identifier: skip one balanced (..)
         group for array syntax a.(i) <- v *)
      let j = ref (k - 1) in
      if !j >= 0 && toks.(!j).t = ")" then begin
        let depth = ref 1 in
        decr j;
        while !j >= 0 && !depth > 0 do
          (match toks.(!j).t with
          | ")" -> incr depth
          | "(" -> decr depth
          | _ -> ());
          decr j
        done;
        if !j >= 0 && toks.(!j).t = "." then decr j
      end;
      let target = if !j >= 0 then toks.(!j).t else "?" in
      if not (allowed target) then
        add tk.line "host-state"
          (Printf.sprintf "mutation of '%s' not in the lint allowlist"
             target)
    end
    else if
      tk.t = "while"
      && k + 2 < ntok
      && toks.(k + 1).t = "true"
      && toks.(k + 2).t = "do"
    then begin
      (* unbounded spin loop: the body must be able to escape or report
         progress *)
      let depth = ref 1 in
      let j = ref (k + 3) in
      let escapes = ref false in
      while !j < ntok && !depth > 0 do
        (match toks.(!j).t with
        | "do" -> incr depth
        | "done" -> decr depth
        | w when List.mem w escape_words -> escapes := true
        | _ -> ());
        incr j
      done;
      if not !escapes then
        add tk.line "spin-loop"
          "while true loop with no raise/failwith/Api.progress in its \
           body: unbounded spinning is invisible to the progress verifier"
    end
  done;
  List.sort (fun a b -> compare (a.file, a.line) (b.file, b.line)) !out

(* ------------------------------------------------------------------ *)
(* Allowlist file and directory walk (host-side driver).               *)

(* Format: one entry per line, "<relative-path> <identifier>", '#' to
   end of line is a comment.  Every entry should say why. *)
let load_allow path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let entries = ref [] in
    (try
       while true do
         let line = input_line ic in
         let line =
           match String.index_opt line '#' with
           | Some i -> String.sub line 0 i
           | None -> line
         in
         match
           String.split_on_char ' ' line
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun s -> s <> "")
         with
         | [ f; id ] -> entries := (f, id) :: !entries
         | [] -> ()
         | _ -> failwith (Printf.sprintf "%s: malformed allowlist line %S" path line)
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !entries
  end

let default_dirs =
  [
    "lib/core"; "lib/sync"; "lib/funnel"; "lib/structures"; "lib/counters";
    "lib/relaxed"; "lib/adapt";
  ]

(* Engine files scanned individually, outside the simulated-algorithm
   trees.  The event queue keeps every mutable slot it owns enumerated
   in the allowlist with its lifetime rule, so creeping mutable state
   (or a banned host module) in the hot path stays loud even though the
   rest of lib/psim is host code and unscannable. *)
let default_extra_files = [ "lib/psim/evq.ml" ]

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let scan_dirs ?(allow = []) ~root () =
  let out = ref [] in
  List.iter
    (fun dir ->
      let abs = Filename.concat root dir in
      if not (Sys.file_exists abs && Sys.is_directory abs) then
        out :=
          [ { file = dir; line = 0; rule = "io"; message = "directory not found" } ]
          @ !out
      else
        Array.iter
          (fun entry ->
            if Filename.check_suffix entry ".ml" then begin
              let rel = dir ^ "/" ^ entry in
              let path = Filename.concat abs entry in
              (* mli coverage: every implementation needs an interface *)
              if not (Sys.file_exists (path ^ "i")) then
                out :=
                  {
                    file = rel;
                    line = 1;
                    rule = "mli-coverage";
                    message = "no corresponding .mli interface";
                  }
                  :: !out;
              out := scan_string ~file:rel ~allow (read_file path) @ !out
            end)
          (let a = Sys.readdir abs in
           Array.sort compare a;
           a))
    default_dirs;
  List.iter
    (fun rel ->
      let path = Filename.concat root rel in
      if not (Sys.file_exists path) then
        out :=
          { file = rel; line = 0; rule = "io"; message = "file not found" }
          :: !out
      else begin
        if not (Sys.file_exists (path ^ "i")) then
          out :=
            {
              file = rel;
              line = 1;
              rule = "mli-coverage";
              message = "no corresponding .mli interface";
            }
            :: !out;
        out := scan_string ~file:rel ~allow (read_file path) @ !out
      end)
    default_extra_files;
  List.sort (fun a b -> compare (a.file, a.line) (b.file, b.line)) !out
