module Engine = Netembed_core.Engine
module Mapping = Netembed_core.Mapping
module Telemetry = Netembed_telemetry.Telemetry

let mode_to_string = function
  | Engine.First -> "first"
  | Engine.All -> "all"
  | Engine.At_most k -> Printf.sprintf "atmost:%d" k

let mode_of_string s =
  match String.lowercase_ascii s with
  | "first" -> Ok Engine.First
  | "all" -> Ok Engine.All
  | s when String.length s > 7 && String.sub s 0 7 = "atmost:" -> (
      match int_of_string_opt (String.sub s 7 (String.length s - 7)) with
      | Some k when k >= 1 -> Ok (Engine.At_most k)
      | Some _ -> Error (Printf.sprintf "bad mode %S: atmost needs k >= 1" s)
      | None -> Error (Printf.sprintf "bad mode %S" s))
  | s -> Error (Printf.sprintf "bad mode %S" s)

let algorithm_of_string s =
  match String.uppercase_ascii s with
  | "ECF" -> Ok Engine.ECF
  | "RWB" -> Ok Engine.RWB
  | "LNS" -> Ok Engine.LNS
  | s -> Error (Printf.sprintf "unknown algorithm %S" s)

let encode_embed keyword (r : Request.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%s alg=%s mode=%s%s\n" keyword
       (Engine.algorithm_name r.Request.algorithm)
       (mode_to_string r.Request.mode)
       (match r.Request.timeout with
       | None -> ""
       | Some s -> Printf.sprintf " timeout=%g" s));
  Buffer.add_string buf (Printf.sprintf "CONSTRAINT %s\n" r.Request.constraint_text);
  (match r.Request.node_constraint_text with
  | None -> ()
  | Some c -> Buffer.add_string buf (Printf.sprintf "NODECONSTRAINT %s\n" c));
  Buffer.add_string buf "GRAPHML\n";
  Buffer.add_string buf (Netembed_graphml.Graphml.write_string r.Request.query);
  Buffer.add_string buf ".\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Bounded frame reading                                               *)
(* ------------------------------------------------------------------ *)

(* A frame is at most [max_bytes] of body (everything before the "."
   terminator).  The bound exists so a malicious or broken client
   cannot grow an unbounded Buffer in the server: it is counted as the
   bytes arrive, so past the limit the reader stops accumulating, even
   inside a line, consumes input up to the terminator and hands back a
   clean wire error — the connection stays usable for the next frame. *)
let default_max_frame_bytes = 1 lsl 20

let frame_too_large ~limit =
  Printf.sprintf "frame exceeds the %d-byte limit" limit

type reader = {
  refill : Bytes.t -> int -> int -> int;
  chunk : Bytes.t;
  mutable pos : int;  (* next unread byte of [chunk] *)
  mutable lim : int;  (* end of the bytes [refill] last stored *)
}

let reader refill = { refill; chunk = Bytes.create 4096; pos = 0; lim = 0 }

let rec newline r i =
  if i < r.lim && Bytes.get r.chunk i <> '\n' then newline r (i + 1) else i

(* Hands the next line to [take] chunk by chunk, without its '\n', and
   says whether there was one: [false] at end of input before any of
   its bytes.  A last line without a '\n' ends at end of input, as
   [input_line] reads it.  A refill that raises leaves [r] as it was. *)
let rec feed_line r take started =
  if r.pos < r.lim then begin
    let i = newline r r.pos in
    take r.chunk r.pos (i - r.pos);
    r.pos <- min (i + 1) r.lim;
    i < r.lim || feed_line r take true
  end
  else begin
    let n = r.refill r.chunk 0 (Bytes.length r.chunk) in
    r.pos <- 0;
    r.lim <- n;
    if n = 0 then started else feed_line r take started
  end

(* The next line, of which at most [keep] bytes are kept: the rest is
   skipped as it arrives. *)
let bounded_line ~keep r =
  let line = Buffer.create 128 in
  let take b pos n = Buffer.add_subbytes line b pos (min n (keep - Buffer.length line)) in
  if feed_line r take false then Some (Buffer.contents line) else None

let read_line r = bounded_line ~keep:default_max_frame_bytes r

let read_frame ?(max_bytes = default_max_frame_bytes) r =
  (* A line of [max_bytes] bytes or more overflows the body whole, so
     keeping [max_bytes] of it changes no result; keeping at least 2
     keeps a longer line from reading as the terminator. *)
  let keep = max 2 max_bytes in
  let buf = Buffer.create 1024 in
  let overflow = ref false in
  let rec go () =
    match bounded_line ~keep r with
    | Some "." ->
        if !overflow then Some (Error (frame_too_large ~limit:max_bytes))
        else Some (Ok (Buffer.contents buf))
    | Some line ->
        if !overflow then go ()
        else if Buffer.length buf + String.length line + 1 > max_bytes then begin
          overflow := true;
          Buffer.clear buf;
          go ()
        end
        else begin
          Buffer.add_string buf line;
          Buffer.add_char buf '\n';
          go ()
        end
    | None ->
        if !overflow then Some (Error (frame_too_large ~limit:max_bytes))
        else if Buffer.length buf = 0 then None
        else Some (Ok (Buffer.contents buf))
  in
  go ()

let split_kv token =
  match String.index_opt token '=' with
  | None -> (token, "")
  | Some i ->
      (String.sub token 0 i, String.sub token (i + 1) (String.length token - i - 1))

let ( let* ) = Result.bind

(* A frame's lines run up to its first "." line, or to its end, where a
   final '\n' ends the last line rather than starting an empty one.
   [line_at text pos] is the end (the '\n', or the end of the text) of
   the line that starts at [pos], or [None] past the frame's last line. *)
let line_at text pos =
  let len = String.length text in
  if pos >= len then None
  else
    let eol = Option.value ~default:len (String.index_from_opt text pos '\n') in
    if eol = pos + 1 && text.[pos] = '.' then None else Some eol

(* The end of the last line of the section that follows the line
   ending at [last]; [last] itself when no line follows. *)
let rec section_end text last =
  match line_at text (last + 1) with None -> last | Some eol -> section_end text eol

let trimmed_line text pos eol = String.trim (String.sub text pos (eol - pos))

(* Body shared by EMBED and ALLOC: header parameters, then
   CONSTRAINT/NODECONSTRAINT lines from [pos] on, then the GRAPHML
   document. *)
let decode_embed_frame params text pos =
  let* algorithm, mode, timeout =
    List.fold_left
      (fun acc token ->
        let* alg, mode, timeout = acc in
        match split_kv token with
        | "alg", v ->
            let* a = algorithm_of_string v in
            Ok (Some a, mode, timeout)
        | "mode", v ->
            let* m = mode_of_string v in
            Ok (alg, Some m, timeout)
        | "timeout", v -> (
            match float_of_string_opt v with
            | Some f -> Ok (alg, mode, Some f)
            | None -> Error (Printf.sprintf "bad timeout %S" v))
        | k, _ -> Error (Printf.sprintf "unknown parameter %S" k))
      (Ok (None, None, None))
      params
  in
  let algorithm = Option.value ~default:Engine.ECF algorithm in
  let mode = Option.value ~default:Engine.First mode in
  let rec scan pos constraint_text node_constraint =
    match line_at text pos with
    | None -> Error "missing GRAPHML section"
    | Some eol -> (
        let line = trimmed_line text pos eol in
        if line = "GRAPHML" then
          match constraint_text with
          | None -> Error "missing CONSTRAINT line"
          | Some c ->
              let first = eol + 1 and last = section_end text eol in
              let graphml = if last < first then "" else String.sub text first (last - first) in
              Ok (c, node_constraint, graphml)
        else
          match String.index_opt line ' ' with
          | None -> Error (Printf.sprintf "malformed line %S" line)
          | Some i -> (
              let payload = String.sub line (i + 1) (String.length line - i - 1) in
              match String.sub line 0 i with
              | "CONSTRAINT" -> scan (eol + 1) (Some payload) node_constraint
              | "NODECONSTRAINT" -> scan (eol + 1) constraint_text (Some payload)
              | k -> Error (Printf.sprintf "unknown keyword %S" k)))
  in
  let* constraint_text, node_constraint, graphml = scan pos None None in
  let* query =
    match Netembed_graphml.Graphml.read_string graphml with
    | g -> Ok g
    | exception Netembed_graphml.Graphml.Error m -> Error m
  in
  Ok (Request.make ?node_constraint ~algorithm ~mode ?timeout ~query constraint_text)

type command =
  | Submit of Request.t
  | Allocate of Request.t
  | Free of int
  | Utilization
  | Explain of int
  | Top
  | Health

let decode_command text =
  match line_at text 0 with
  | None -> Error "empty request"
  | Some eol -> (
      match String.split_on_char ' ' (trimmed_line text 0 eol) with
      | "EMBED" :: params ->
          Result.map (fun r -> Submit r) (decode_embed_frame params text (eol + 1))
      | "ALLOC" :: params ->
          Result.map (fun r -> Allocate r) (decode_embed_frame params text (eol + 1))
      | [ "FREE"; id ] -> (
          match int_of_string_opt id with
          | Some id when id > 0 -> Ok (Free id)
          | Some _ | None -> Error (Printf.sprintf "bad allocation id %S" id))
      | [ "FREE" ] -> Error "FREE requires an allocation id"
      | [ "UTIL" ] -> Ok Utilization
      | [ "EXPLAIN"; id ] -> (
          match int_of_string_opt id with
          | Some id when id > 0 -> Ok (Explain id)
          | Some _ | None -> Error (Printf.sprintf "bad request id %S" id))
      | [ "EXPLAIN" ] -> Error "EXPLAIN requires a request id"
      | [ "TOP" ] -> Ok Top
      | [ "HEALTH" ] -> Ok Health
      | _ ->
          Error
            "request must start with EMBED, ALLOC, FREE, UTIL, EXPLAIN, TOP or \
             HEALTH")

let encode_command = function
  | Submit r -> encode_embed "EMBED" r
  | Allocate r -> encode_embed "ALLOC" r
  | Free id -> Printf.sprintf "FREE %d\n.\n" id
  | Utilization -> "UTIL\n.\n"
  | Explain id -> Printf.sprintf "EXPLAIN %d\n.\n" id
  | Top -> "TOP\n.\n"
  | Health -> "HEALTH\n.\n"

(* Per-phase milliseconds as one space-free header token:
   [parse:0.012,search:48.921] — zero cells are omitted. *)
let phases_token phases =
  let parts = ref [] in
  Array.iteri
    (fun i v ->
      if i < Telemetry.Phase.count && v > 0.0 then
        parts :=
          Printf.sprintf "%s:%.3f"
            (Telemetry.Phase.name (Telemetry.Phase.of_index i))
            (v *. 1000.0)
          :: !parts)
    phases;
  String.concat "," (List.rev !parts)

let phases_of_token v =
  if v = "" then Ok []
  else
    String.split_on_char ',' v
    |> List.fold_left
         (fun acc part ->
           let* acc = acc in
           match String.index_opt part ':' with
           | None -> Error (Printf.sprintf "bad phase token %S" part)
           | Some i -> (
               let name = String.sub part 0 i in
               let ms = String.sub part (i + 1) (String.length part - i - 1) in
               match float_of_string_opt ms with
               | Some f -> Ok ((name, f) :: acc)
               | None -> Error (Printf.sprintf "bad phase token %S" part)))
         (Ok [])
    |> Result.map List.rev

let encode_answer ?allocation (a : Service.answer) =
  let buf = Buffer.create 256 in
  let r = a.Service.result in
  Buffer.add_string buf
    (Printf.sprintf
       "OK id=%d trace=%d outcome=%s verdict=%s count=%d elapsed=%.3f%s%s\n"
       a.Service.id a.Service.trace_id
       (Engine.outcome_name r.Engine.outcome)
       (Engine.verdict r)
       (List.length r.Engine.mappings)
       (r.Engine.elapsed *. 1000.0)
       (match phases_token r.Engine.telemetry.Telemetry.phases with
       | "" -> ""
       | tok -> Printf.sprintf " phases=%s" tok)
       (match allocation with
       | None -> ""
       | Some id -> Printf.sprintf " allocation=%d" id));
  List.iter
    (fun m ->
      Buffer.add_string buf "MAPPING";
      List.iter
        (fun (q, r) -> Buffer.add_string buf (Printf.sprintf " q%d->r%d" q r))
        (Mapping.to_list m);
      Buffer.add_char buf '\n')
    r.Engine.mappings;
  Buffer.add_string buf ".\n";
  Buffer.contents buf

let encode_error ?id m =
  match id with
  | None -> Printf.sprintf "ERR %s\n.\n" m
  | Some id -> Printf.sprintf "ERR id=%d %s\n.\n" id m

module Explanation = Netembed_explain.Explain

let encode_explanation (e : Service.entry) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "OK explain=%d trace=%d verdict=%s elapsed=%.3f%s\n"
       e.Service.id e.Service.trace_id e.Service.verdict
       (e.Service.elapsed *. 1000.0)
       (if e.Service.slow_search then " slow_search=true" else ""));
  Buffer.add_string buf (Printf.sprintf "SUMMARY %s\n" e.Service.summary);
  (match phases_token e.Service.phases with
  | "" -> ()
  | tok -> Buffer.add_string buf (Printf.sprintf "PHASES %s\n" tok));
  (match e.Service.certificate with
  | None -> ()
  | Some cert ->
      let text = Explanation.Certificate.to_text cert in
      let text =
        if String.length text > 0 && text.[String.length text - 1] = '\n' then
          String.sub text 0 (String.length text - 1)
        else text
      in
      List.iter
        (fun line -> Buffer.add_string buf (Printf.sprintf "TEXT %s\n" line))
        (String.split_on_char '\n' text);
      Buffer.add_string buf
        (Printf.sprintf "JSON %s\n" (Explanation.Certificate.to_json cert)));
  Buffer.add_string buf ".\n";
  Buffer.contents buf
let encode_freed id = Printf.sprintf "OK freed=%d\n.\n" id

let encode_top (t : Service.top) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "OK phases=%d worst=%d window=%g\n"
       (List.length t.Service.busiest)
       (List.length t.Service.worst)
       t.Service.window_s);
  List.iter
    (fun (s : Service.phase_stat) ->
      Buffer.add_string buf
        (Printf.sprintf
           "PHASE name=%s total=%.6f count=%d p50=%.3f p95=%.3f p99=%.3f\n"
           (Telemetry.Phase.name s.Service.phase)
           s.Service.total_s s.Service.window_count
           (s.Service.p50_s *. 1000.0)
           (s.Service.p95_s *. 1000.0)
           (s.Service.p99_s *. 1000.0)))
    t.Service.busiest;
  List.iter
    (fun (e : Service.entry) ->
      Buffer.add_string buf
        (Printf.sprintf "SLOW id=%d trace=%d verdict=%s elapsed=%.3f%s%s\n"
           e.Service.id e.Service.trace_id e.Service.verdict
           (e.Service.elapsed *. 1000.0)
           (if e.Service.slow_search then " slow_search=true" else "")
           (match phases_token e.Service.phases with
           | "" -> ""
           | tok -> Printf.sprintf " phases=%s" tok)))
    t.Service.worst;
  Buffer.add_string buf ".\n";
  Buffer.contents buf

let encode_health (r : Health.report) =
  Printf.sprintf
    "OK state=%s code=%d fast_p99=%.3f slow_p99=%.3f fast_err=%.4f \
     slow_err=%.4f queue=%d/%d\n.\n"
    (Health.state_name r.Health.r_state)
    (Health.state_code r.Health.r_state)
    (r.Health.fast_p99_s *. 1000.0)
    (r.Health.slow_p99_s *. 1000.0)
    r.Health.fast_error_rate r.Health.slow_error_rate r.Health.queue_depth
    r.Health.queue_capacity

let kind_to_string = function `Node -> "node" | `Edge -> "edge"

let encode_utilization rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "OK resources=%d\n" (List.length rows));
  List.iter
    (fun (resource, kind, used, capacity) ->
      Buffer.add_string buf
        (Printf.sprintf "UTIL resource=%s kind=%s used=%g capacity=%g\n" resource
           (kind_to_string kind) used capacity))
    rows;
  Buffer.add_string buf ".\n";
  Buffer.contents buf

type decoded_answer = {
  id : int option;
  trace_id : int option;
  outcome : Engine.outcome;
  verdict : string option;
  elapsed_ms : float;
  phases_ms : (string * float) list;
  mappings : (int * int) list list;
  allocation : int option;
}

let outcome_of_string = function
  | "complete" -> Ok Engine.Complete
  | "partial" -> Ok Engine.Partial
  | "inconclusive" -> Ok Engine.Inconclusive
  | s -> Error (Printf.sprintf "unknown outcome %S" s)

(* A reply's [OK] header tokens and its other lines, with empty and "."
   lines dropped; an [ERR] reply is its message. *)
let decode_reply text =
  match List.filter (fun l -> l <> "" && l <> ".") (String.split_on_char '\n' text) with
  | [] -> Error "empty answer"
  | header :: rest -> (
      match String.split_on_char ' ' (String.trim header) with
      | "ERR" :: msg -> Error (String.concat " " msg)
      | "OK" :: params -> Ok (params, rest)
      | _ -> Error "answer must start with OK or ERR")

let decode_answer text =
  let* params, rest = decode_reply text in
  let* id, trace_id, outcome, verdict, elapsed, phases, allocation =
    List.fold_left
      (fun acc token ->
        let* id, trace_id, outcome, verdict, elapsed, phases, allocation = acc in
        match split_kv token with
        | "id", v -> (
            match int_of_string_opt v with
            | Some i -> Ok (Some i, trace_id, outcome, verdict, elapsed, phases, allocation)
            | None -> Error "bad request id")
        | "trace", v -> (
            match int_of_string_opt v with
            | Some i -> Ok (id, Some i, outcome, verdict, elapsed, phases, allocation)
            | None -> Error "bad trace id")
        | "outcome", v ->
            let* o = outcome_of_string v in
            Ok (id, trace_id, Some o, verdict, elapsed, phases, allocation)
        | "verdict", v -> Ok (id, trace_id, outcome, Some v, elapsed, phases, allocation)
        | "elapsed", v -> (
            match float_of_string_opt v with
            | Some f -> Ok (id, trace_id, outcome, verdict, f, phases, allocation)
            | None -> Error "bad elapsed")
        | "phases", v ->
            let* p = phases_of_token v in
            Ok (id, trace_id, outcome, verdict, elapsed, p, allocation)
        | "allocation", v -> (
            match int_of_string_opt v with
            | Some a -> Ok (id, trace_id, outcome, verdict, elapsed, phases, Some a)
            | None -> Error "bad allocation id")
        | "count", _ -> acc
        | k, _ -> Error (Printf.sprintf "unknown parameter %S" k))
      (Ok (None, None, None, None, 0.0, [], None))
      params
  in
  let* outcome = match outcome with Some o -> Ok o | None -> Error "missing outcome" in
  let parse_mapping line =
    List.filter_map
      (fun tok -> Scanf.sscanf_opt tok "q%d->r%d" (fun q r -> (q, r)))
      (String.split_on_char ' ' (String.trim line))
  in
  let mappings =
    List.filter_map
      (fun line ->
        if String.starts_with ~prefix:"MAPPING" line then
          Some (parse_mapping (String.sub line 7 (String.length line - 7)))
        else None)
      rest
  in
  Ok
    {
      id;
      trace_id;
      outcome;
      verdict;
      elapsed_ms = elapsed;
      phases_ms = phases;
      mappings;
      allocation;
    }

type utilization_row = {
  resource : string;
  kind : [ `Node | `Edge ];
  used : float;
  capacity : float;
}

let decode_utilization text =
  let* _, rest = decode_reply text in
  let parse_row line =
    List.fold_left
      (fun acc token ->
        let* row = acc in
        match split_kv token with
        | "resource", v -> Ok { row with resource = v }
        | "kind", "node" -> Ok { row with kind = `Node }
        | "kind", "edge" -> Ok { row with kind = `Edge }
        | "kind", v -> Error (Printf.sprintf "bad kind %S" v)
        | "used", v -> (
            match float_of_string_opt v with
            | Some f -> Ok { row with used = f }
            | None -> Error "bad used")
        | "capacity", v -> (
            match float_of_string_opt v with
            | Some f -> Ok { row with capacity = f }
            | None -> Error "bad capacity")
        | k, _ -> Error (Printf.sprintf "unknown field %S" k))
      (Ok { resource = ""; kind = `Node; used = 0.0; capacity = 0.0 })
      (List.filter (fun t -> t <> "") (String.split_on_char ' ' (String.trim line)))
  in
  let rec rows acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest when String.starts_with ~prefix:"UTIL " line ->
        let* row = parse_row (String.sub line 5 (String.length line - 5)) in
        rows (row :: acc) rest
    | _ :: rest -> rows acc rest
  in
  rows [] rest
