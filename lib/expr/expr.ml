type t = Ast.t

let parse = Parser.parse_result

let parse_exn src =
  match Parser.parse_result src with
  | Ok e -> e
  | Error m -> invalid_arg ("Expr.parse_exn: " ^ m)

let to_string = Ast.to_string
let accepts = Eval.accepts
let always = Ast.Bool true

let delay_range_within =
  parse_exn "rEdge.minDelay >= vEdge.minDelay && rEdge.maxDelay <= vEdge.maxDelay"

let avg_delay_within =
  parse_exn "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"

let delay_tolerance tol =
  let lo = 1.0 -. tol and hi = 1.0 +. tol in
  parse_exn
    (Printf.sprintf
       "vEdge.avgDelay >= %g * rEdge.avgDelay && vEdge.avgDelay <= %g * rEdge.avgDelay"
       lo hi)
