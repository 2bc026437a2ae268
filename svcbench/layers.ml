(* Per-layer tracing for the traced run.  Spans are recorded from the
   benchmark, around calls into each layer's public functions, into
   preallocated arrays, and written out as Chrome trace JSON when the
   run ends.

   Two kinds of span:
   - [Call] spans time the calls a server worker makes (wire codec,
     Service.submit / allocate_shared / free);
   - [Replay] spans time the same request pushed, just before the real
     call and on the same model state, through the functions Service
     runs internally (residual snapshot, admission, parse, Problem.make,
     Filter.build, Engine.run, charge derivation).  Their time is not
     part of the op's latency. *)

type layer =
  | Op
  | Decode
  | Submit
  | Allocate
  | Free
  | Encode
  | Snapshot
  | Admissible
  | Parse
  | Problem_make
  | Filter_build
  | Search
  | Charge

let all =
  [|
    Op; Decode; Submit; Allocate; Free; Encode; Snapshot; Admissible; Parse;
    Problem_make; Filter_build; Search; Charge;
  |]

let index = function
  | Op -> 0
  | Decode -> 1
  | Submit -> 2
  | Allocate -> 3
  | Free -> 4
  | Encode -> 5
  | Snapshot -> 6
  | Admissible -> 7
  | Parse -> 8
  | Problem_make -> 9
  | Filter_build -> 10
  | Search -> 11
  | Charge -> 12

let name = function
  | Op -> "op"
  | Decode -> "wire.decode"
  | Submit -> "service.submit"
  | Allocate -> "service.allocate"
  | Free -> "service.free"
  | Encode -> "wire.encode"
  | Snapshot -> "model.snapshot"
  | Admissible -> "ledger.admissible"
  | Parse -> "expr.parse"
  | Problem_make -> "core.problem"
  | Filter_build -> "core.filter_build"
  | Search -> "core.search"
  | Charge -> "ledger.charge_of_mapping"

let is_replay = function
  | Snapshot | Admissible | Parse | Problem_make | Filter_build | Search | Charge ->
      true
  | Op | Decode | Submit | Allocate | Free | Encode -> false

(* The layers replayed out of Service.submit; what is left of submit's
   time after them is [service.other_ms]. *)
let inside_submit = [ Snapshot; Admissible; Parse; Problem_make; Filter_build; Search ]

let now = Unix.gettimeofday

type t = {
  sums : float array;  (** seconds per layer, all ops *)
  layer_of : int array;
  op_of : int array;
  start_of : float array;
  dur_of : float array;
  mutable spans : int;
  mutable dropped : int;
  mutable op : int;
  mutable replay_s : float;  (** replay seconds inside the current op *)
}

let create ~capacity =
  {
    sums = Array.make (Array.length all) 0.0;
    layer_of = Array.make capacity 0;
    op_of = Array.make capacity 0;
    start_of = Array.make capacity 0.0;
    dur_of = Array.make capacity 0.0;
    spans = 0;
    dropped = 0;
    op = 0;
    replay_s = 0.0;
  }

let record t layer start dur =
  let i = index layer in
  t.sums.(i) <- t.sums.(i) +. dur;
  if is_replay layer then t.replay_s <- t.replay_s +. dur;
  if t.spans < Array.length t.layer_of then begin
    t.layer_of.(t.spans) <- i;
    t.op_of.(t.spans) <- t.op;
    t.start_of.(t.spans) <- start;
    t.dur_of.(t.spans) <- dur;
    t.spans <- t.spans + 1
  end
  else t.dropped <- t.dropped + 1

let begin_op t op =
  t.op <- op;
  t.replay_s <- 0.0

(* [span tr layer f]: run [f], recording a span when tracing. *)
let span tr layer f =
  match tr with
  | None -> f ()
  | Some t ->
      let s = now () in
      let r = f () in
      record t layer s (now () -. s);
      r

let seconds t layer = t.sums.(index layer)

let write_chrome t ~provenance file =
  let oc = open_out file in
  let base = if t.spans > 0 then t.start_of.(0) else 0.0 in
  Printf.fprintf oc "{\"otherData\": %s,\n\"traceEvents\": [\n" provenance;
  for k = 0 to t.spans - 1 do
    let layer = all.(t.layer_of.(k)) in
    Printf.fprintf oc
      "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
       \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %d}}"
      (if k = 0 then "" else ",\n")
      (name layer)
      (if is_replay layer then "replay" else "call")
      ((t.start_of.(k) -. base) *. 1e6)
      (t.dur_of.(k) *. 1e6)
      t.op_of.(k)
  done;
  Printf.fprintf oc "\n], \"droppedSpans\": %d}\n" t.dropped;
  close_out oc
