type t =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Range of float * float

exception Type_error of string

let type_name = function
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | Range _ -> "range"

let type_error ~expected v =
  raise (Type_error (Printf.sprintf "expected %s, got %s" expected (type_name v)))

let equal a b =
  match a, b with
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Int x, Float y | Float y, Int x -> Float.equal (float_of_int x) y
  | String x, String y -> String.equal x y
  | Range (l1, h1), Range (l2, h2) -> Float.equal l1 l2 && Float.equal h1 h2
  | (Bool _ | Int _ | Float _ | String _ | Range _), _ -> false

let compare a b =
  match a, b with
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | _ -> Stdlib.compare a b

let pp ppf = function
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | String s -> Format.pp_print_string ppf s
  | Range (lo, hi) -> Format.fprintf ppf "[%g,%g]" lo hi

let to_string v = Format.asprintf "%a" pp v

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | (Bool _ | String _ | Range _) as v -> type_error ~expected:"number" v

let to_bool = function
  | Bool b -> b
  | (Int _ | Float _ | String _ | Range _) as v -> type_error ~expected:"bool" v

let range_lo = function
  | Range (lo, _) -> lo
  | Int i -> float_of_int i
  | Float f -> f
  | (Bool _ | String _) as v -> type_error ~expected:"number or range" v

let range_hi = function
  | Range (_, hi) -> hi
  | Int i -> float_of_int i
  | Float f -> f
  | (Bool _ | String _) as v -> type_error ~expected:"number or range" v

let is_numeric = function
  | Int _ | Float _ | Range _ -> true
  | Bool _ | String _ -> false

let range lo hi =
  if Float.is_nan lo || Float.is_nan hi then invalid_arg "Value.range: NaN bound";
  if lo > hi then invalid_arg "Value.range: lo > hi";
  Range (lo, hi)

let is_digit c = c >= '0' && c <= '9'
let rec skip_digits s i = if i < String.length s && is_digit s.[i] then skip_digits s (i + 1) else i
let skip_sign s i = if i < String.length s && (s.[i] = '-' || s.[i] = '+') then i + 1 else i

(* An optional sign, then decimal digits: [int_of_string] also takes
   '_' separators and 0x, 0o and 0b prefixes. *)
let is_decimal s =
  let sign = skip_sign s 0 in
  String.length s > sign && skip_digits s sign = String.length s

(* [s] from [i] on is exactly [word]. *)
let rec rest_is s i word j =
  if j = String.length word then i = String.length s
  else i < String.length s && s.[i] = word.[j] && rest_is s (i + 1) word (j + 1)

(* Decimal float syntax: an optional sign, digits with an optional
   fraction (a digit on at least one side of the point), and an
   optional exponent; or [nan] or [inf] after the optional sign, as
   [%.17g] writes them.  [float_of_string] also takes '_' separators,
   hexadecimal floats and a leading '_'.  Allocates nothing: GraphML
   reads one float payload per measured attribute. *)
let is_decimal_float s =
  let n = String.length s in
  let start = skip_sign s 0 in
  rest_is s start "nan" 0 || rest_is s start "inf" 0
  ||
  let int_end = skip_digits s start in
  let frac_end = if int_end < n && s.[int_end] = '.' then skip_digits s (int_end + 1) else int_end in
  (int_end > start || frac_end > int_end + 1)
  && (frac_end = n
     || (s.[frac_end] = 'e' || s.[frac_end] = 'E')
        &&
        let exp_start = skip_sign s (frac_end + 1) in
        exp_start < n && is_digit s.[exp_start] && skip_digits s exp_start = n)

let of_string_as ty s =
  let fail () = raise (Type_error (Printf.sprintf "cannot parse %S" s)) in
  match ty with
  | `String -> String s
  | `Bool -> (
      match String.lowercase_ascii (String.trim s) with
      | "true" | "1" -> Bool true
      | "false" | "0" -> Bool false
      | _ -> fail ())
  | `Int -> (
      let t = String.trim s in
      match if is_decimal t then int_of_string_opt t else None with
      | Some i -> Int i
      | None -> fail ())
  | `Float -> (
      let t = String.trim s in
      match if is_decimal_float t then float_of_string_opt t else None with
      | Some f -> Float f
      | None -> fail ())
