type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- parser ------------------------------------------------------------ *)

type cursor = { text : string; mutable pos : int }

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let fail c msg =
  failwith (Printf.sprintf "Json.parse: %s at offset %d" msg c.pos)

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        c.pos <- c.pos + 1;
        true
    | _ -> false
  do
    ()
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word
  then begin
    c.pos <- c.pos + n;
    v
  end
  else fail c (Printf.sprintf "expected %s" word)

let parse_string c =
  expect c '"';
  let buffer = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' -> (
        c.pos <- c.pos + 1;
        match peek c with
        | Some 'n' -> Buffer.add_char buffer '\n'; c.pos <- c.pos + 1; loop ()
        | Some 't' -> Buffer.add_char buffer '\t'; c.pos <- c.pos + 1; loop ()
        | Some 'r' -> Buffer.add_char buffer '\r'; c.pos <- c.pos + 1; loop ()
        | Some (('"' | '\\' | '/') as ch) ->
            Buffer.add_char buffer ch;
            c.pos <- c.pos + 1;
            loop ()
        | Some 'u' ->
            if c.pos + 5 > String.length c.text then fail c "bad \\u escape";
            let hex = String.sub c.text (c.pos + 1) 4 in
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some v -> v
              | None -> fail c "bad \\u escape"
            in
            (* Our writer only escapes control characters, so a raw
               byte is enough. *)
            if code < 0x100 then Buffer.add_char buffer (Char.chr code)
            else fail c "unsupported \\u escape";
            c.pos <- c.pos + 5;
            loop ()
        | _ -> fail c "bad escape")
    | Some ch ->
        Buffer.add_char buffer ch;
        c.pos <- c.pos + 1;
        loop ()
  in
  loop ();
  Buffer.contents buffer

let parse_number c =
  let start = c.pos in
  let number_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek c with Some ch when number_char ch -> true | _ -> false do
    c.pos <- c.pos + 1
  done;
  match float_of_string_opt (String.sub c.text start (c.pos - start)) with
  | Some x -> x
  | None -> fail c "bad number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              members ((key, v) :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              List.rev ((key, v) :: acc)
          | _ -> fail c "expected ',' or '}'"
        in
        Obj (members [])
      end
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              elements (v :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              List.rev (v :: acc)
          | _ -> fail c "expected ',' or ']'"
        in
        List (elements [])
      end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> Num (parse_number c)

let parse text =
  let c = { text; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length text then fail c "trailing garbage";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* --- printer ------------------------------------------------------------ *)

let escape_into buffer s =
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"'

(* The C primitive behind [Printf]'s [%g] (and [string_of_float]):
   [Printf.sprintf "%.12g" x] is [format_float "%.12g" x], less the
   interpretation of the format on every call. *)
external format_float : string -> float -> string = "caml_format_float"

(* Shortest of [%.12g] and [%.17g] that still round-trips. *)
let format_shortest x =
  let s = format_float "%.12g" x in
  if Float.equal (float_of_string s) x then s else format_float "%.17g" x

(* An integer below 10^12 has at most 12 digits, so [%.12g] prints it
   as [string_of_int] does and it round-trips; -0.0, which [%.12g]
   prints as "-0", keeps the general path. *)
let float_repr x =
  if Float.abs x < 1e12 then begin
    let i = int_of_float x in
    if Float.equal (float_of_int i) x && (i <> 0 || not (Float.sign_bit x))
    then string_of_int i
    else format_shortest x
  end
  else if Float.is_finite x then format_shortest x
  else "null"

let rec to_buffer buffer = function
  | Null -> Buffer.add_string buffer "null"
  | Bool b -> Buffer.add_string buffer (string_of_bool b)
  | Num x -> Buffer.add_string buffer (float_repr x)
  | Str s -> escape_into buffer s
  | List elts ->
      Buffer.add_char buffer '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buffer ',';
          to_buffer buffer v)
        elts;
      Buffer.add_char buffer ']'
  | Obj fields ->
      Buffer.add_char buffer '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buffer ',';
          escape_into buffer k;
          Buffer.add_char buffer ':';
          to_buffer buffer v)
        fields;
      Buffer.add_char buffer '}'

let to_string v =
  let buffer = Buffer.create 256 in
  to_buffer buffer v;
  Buffer.contents buffer

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Num x, Num y -> Float.compare x y = 0
  | Str x, Str y -> String.equal x y
  | List xs, List ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
           xs ys
  | (Null | Bool _ | Num _ | Str _ | List _ | Obj _), _ -> false
