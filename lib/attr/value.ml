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

(* The helpers below read [s] from [i] up to [stop], excluded. *)
let rec skip_digits s i stop = if i < stop && is_digit s.[i] then skip_digits s (i + 1) stop else i
let skip_sign s i stop = if i < stop && (s.[i] = '-' || s.[i] = '+') then i + 1 else i

(* [s] from [i] on is exactly [word], ASCII letters in either case when
   [ci]. *)
let rec rest_is ci s i stop word j =
  if j = String.length word then i = stop
  else
    i < stop
    && (if ci then Char.lowercase_ascii s.[i] else s.[i]) = word.[j]
    && rest_is ci s (i + 1) stop word (j + 1)

(* Decimal float syntax: an optional sign, digits with an optional
   fraction (a digit on at least one side of the point), and an
   optional exponent; or [nan] or [inf] after the optional sign, as
   [%.17g] writes them.  [float_of_string] also takes '_' separators,
   hexadecimal floats and a leading '_'. *)
let is_decimal_float s i stop =
  let start = skip_sign s i stop in
  rest_is false s start stop "nan" 0 || rest_is false s start stop "inf" 0
  ||
  let int_end = skip_digits s start stop in
  let frac_end =
    if int_end < stop && s.[int_end] = '.' then skip_digits s (int_end + 1) stop else int_end
  in
  (int_end > start || frac_end > int_end + 1)
  && (frac_end = stop
     || (s.[frac_end] = 'e' || s.[frac_end] = 'E')
        &&
        let exp_start = skip_sign s (frac_end + 1) stop in
        exp_start < stop && is_digit s.[exp_start] && skip_digits s exp_start stop = stop)

(* The whitespace of [String.trim]. *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* 10^k for k <= 22, each exact in binary64. *)
let powers_of_ten = Array.init 23 (fun k -> float_of_string ("1e" ^ string_of_int k))

(* [s + r] rounded to the nearest double, where [s + r] is within
   2^-103 [s] of the exact value [x] being read and |[r]| <= 2^-50 [s]:
   that is [x] rounded too, unless [x] may lie within 2^-98 [s] of a
   midpoint between two doubles; then nan, and the caller asks
   [strtod].  Adding [tail +- d] to [hi] tests both neighbouring
   midpoints at the spacing that holds on either side of [hi]. *)
let[@inline] round_sum s r =
  let hi = s +. r in
  let tail = r -. (hi -. s) in
  let d = hi *. 0x1p-98 in
  if hi +. (tail +. d) = hi && hi +. (tail -. d) = hi then hi else Float.nan

(* [w * 10^e], correctly rounded, for [0 < w < 2^60] and [|e| <= 22],
   or nan when the error bound cannot decide it.  Below 2^53 both
   operands are exact and one IEEE operation rounds once (Clinger's
   fast path).  Above, [w] is split into two exact doubles [w1 + w2],
   and the product or the quotient is carried as a head plus a tail
   whose error is at most 2^-103 of the value (error-free transforms
   through [Float.fma]). *)
let scale_decimal w e =
  let p = powers_of_ten.(abs e) in
  if w < 1 lsl 53 then if e >= 0 then Float.of_int w *. p else Float.of_int w /. p
  else
    let w1 = Float.of_int w in
    let w2 = Float.of_int (w - Float.to_int w1) in
    if e >= 0 then
      let a = w1 *. p and b = w2 *. p in
      round_sum a (Float.fma w1 p (-.a) +. b +. Float.fma w2 p (-.b))
    else
      let q = w1 /. p in
      round_sum q ((Float.fma (-.q) p w1 +. w2) /. p)

(* The value of [s.[i .. stop - 1]] when it is a decimal float of at
   most 18 digits whose exponent, once the point is moved past them, is
   at most 22 either way, and [scale_decimal] decides it.  Otherwise
   nan: [is_decimal_float] and [float_of_string] read the payload, nan
   and inf among them. *)
let fast_decimal s i stop =
  let j = ref (skip_sign s i stop) and w = ref 0 in
  let first = !j in
  while !j < stop && is_digit (String.unsafe_get s !j) do
    w := (10 * !w) + (Char.code (String.unsafe_get s !j) - Char.code '0');
    incr j
  done;
  let digits = ref (!j - first) and scale = ref 0 in
  if !j < stop && String.unsafe_get s !j = '.' then begin
    incr j;
    let fraction = !j in
    while !j < stop && is_digit (String.unsafe_get s !j) do
      w := (10 * !w) + (Char.code (String.unsafe_get s !j) - Char.code '0');
      incr j
    done;
    scale := fraction - !j;
    digits := !digits - !scale
  end;
  let valid = ref (!digits > 0) in
  let has_exponent =
    !j < stop && (String.unsafe_get s !j = 'e' || String.unsafe_get s !j = 'E')
  in
  if !valid && has_exponent then begin
    let negative = !j + 1 < stop && String.unsafe_get s (!j + 1) = '-' in
    j := skip_sign s (!j + 1) stop;
    valid := !j < stop;
    let x = ref 0 in
    while !j < stop && is_digit (String.unsafe_get s !j) do
      if !x < 100_000 then x := (10 * !x) + (Char.code (String.unsafe_get s !j) - Char.code '0');
      incr j
    done;
    scale := !scale + if negative then - !x else !x
  end;
  if (not !valid) || !j <> stop || !digits > 18 then Float.nan
  else if !w = 0 then if s.[i] = '-' then -0.0 else 0.0
  else if abs !scale > 22 then Float.nan
  else
    let x = scale_decimal !w !scale in
    if s.[i] = '-' then -.x else x

let cannot_parse s pos len =
  raise (Type_error (Printf.sprintf "cannot parse %S" (String.sub s pos len)))

(* Every payload is validated and parsed in place, but for the rare
   float that [fast_decimal] leaves to [float_of_string] and an int of
   more than 18 digits: GraphML reads one payload per measured
   attribute, and only the value it makes is kept.  [int_of_string]
   alone would also take '_' separators and 0x, 0o and 0b prefixes; 18
   decimal digits cannot overflow it. *)
let of_substring_as ty s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Value.of_substring_as";
  let fail () = cannot_parse s pos len in
  let i = ref pos and stop = ref (pos + len) in
  while !i < !stop && is_blank s.[!i] do
    incr i
  done;
  while !stop > !i && is_blank s.[!stop - 1] do
    decr stop
  done;
  let i = !i and stop = !stop in
  match ty with
  | `String -> String (if len = String.length s then s else String.sub s pos len)
  | `Bool ->
      if rest_is true s i stop "true" 0 || rest_is false s i stop "1" 0 then Bool true
      else if rest_is true s i stop "false" 0 || rest_is false s i stop "0" 0 then Bool false
      else fail ()
  | `Int ->
      let digits = skip_sign s i stop in
      if stop = digits || skip_digits s digits stop <> stop then fail ()
      else if stop - digits <= 18 then begin
        let n = ref 0 in
        for k = digits to stop - 1 do
          n := (10 * !n) + (Char.code s.[k] - Char.code '0')
        done;
        Int (if s.[i] = '-' then - !n else !n)
      end
      else (
        match int_of_string_opt (String.sub s i (stop - i)) with
        | Some n -> Int n
        | None -> fail ())
  | `Float -> (
      let x = fast_decimal s i stop in
      if not (Float.is_nan x) then Float x
      else
        match
          if is_decimal_float s i stop then float_of_string_opt (String.sub s i (stop - i))
          else None
        with
        | Some f -> Float f
        | None -> fail ())

let of_string_as ty s = of_substring_as ty s 0 (String.length s)
