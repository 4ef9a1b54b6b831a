type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Deterministic serialization: fields print in the order given, floats
   through a fixed format, no whitespace dependence on the environment —
   the same value always yields the same bytes. *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | String s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          write b x)
        xs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape b k;
          Buffer.add_string b "\":";
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 4096 in
  write b v;
  Buffer.contents b

(* {1 Parsing} — a small recursive-descent parser, enough to re-read our
   own output and externally edited copies of it. *)

exception Parse_error of string

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let fail st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
        advance st;
        (match peek st with
        | Some '"' -> Buffer.add_char b '"'
        | Some '\\' -> Buffer.add_char b '\\'
        | Some '/' -> Buffer.add_char b '/'
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 'r' -> Buffer.add_char b '\r'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'b' -> Buffer.add_char b '\b'
        | Some 'f' -> Buffer.add_char b '\012'
        | Some 'u' ->
            advance st;
            if st.pos + 4 > String.length st.src then fail st "bad \\u escape";
            let hex = String.sub st.src st.pos 4 in
            st.pos <- st.pos + 3;
            (* code points beyond one byte round-trip as '?': traces only
               emit ASCII, so this loses nothing we produce *)
            let code = int_of_string ("0x" ^ hex) in
            Buffer.add_char b (if code < 0x80 then Char.chr code else '?')
        | _ -> fail st "bad escape");
        advance st;
        go ()
    | Some c ->
        advance st;
        Buffer.add_char b c;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek st with
    | Some c when is_num_char c ->
        advance st;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub st.src start (st.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail st (Printf.sprintf "bad number %S" s))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items (v :: acc)
          | Some ']' ->
              advance st;
              List.rev (v :: acc)
          | _ -> fail st "expected ',' or ']'"
        in
        List (items [])
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else
        let field () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          (k, v)
        in
        let rec fields acc =
          let f = field () in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              fields (f :: acc)
          | Some '}' ->
              advance st;
              List.rev (f :: acc)
          | _ -> fail st "expected ',' or '}'"
        in
        Obj (fields [])
  | Some ('0' .. '9' | '-') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then Error "trailing garbage after value"
      else Ok v
  | exception Parse_error msg -> Error msg

(* {1 Accessors} *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List xs -> Some xs | _ -> None
let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function String s -> Some s | _ -> None
