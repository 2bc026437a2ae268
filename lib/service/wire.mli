(** Plain-text wire protocol for a standalone NETEMBED service.

    NETEMBED "can be integrated as a service and implemented in a
    distributed fashion"; this module defines the request/response
    framing used by the CLI and by the line-oriented server loop, so a
    deployment can put the engine behind any transport.

    Request frames (text, terminated by a line containing only [.]):
    {v
    EMBED alg=<ECF|RWB|LNS> mode=<first|all|atmost:k> [timeout=<sec>]
    CONSTRAINT <expression>
    [NODECONSTRAINT <expression>]
    GRAPHML
    <graphml document for the query network>
    .
    v}
    [ALLOC] takes the same shape as [EMBED] and additionally commits the
    first returned mapping as a fractional ledger allocation.  Three
    body-less commands manage allocations and diagnostics:
    {v
    FREE <allocation-id>
    .

    UTIL
    .

    EXPLAIN <request-id>
    .

    TOP
    .
    v}

    Response frames:
    {v
    OK id=<request-id> trace=<trace-id>
       outcome=<complete|partial|inconclusive>
       verdict=<complete|unsat|partial|exhausted> count=<n> elapsed=<ms>
       [phases=<phase>:<ms>,...] [allocation=<id>]         (one line)
    MAPPING q0->r17 q1->r4 ...       (one line per mapping)
    .
    v}
    The [phases=] token is the request's phase-latency decomposition
    (zero phases omitted; names from
    {!Netembed_telemetry.Telemetry.Phase.name}).  [FREE] answers
    [OK freed=<id>]; [UTIL] answers one
    [UTIL resource=<name> kind=<node|edge> used=<x> capacity=<y>] line
    per tracked resource.  [EXPLAIN] answers the retained failure
    certificate of the identified request:
    {v
    OK explain=<request-id> trace=<trace-id> verdict=<v> elapsed=<ms>
       [slow_search=true]
    SUMMARY <one line>
    PHASES <phase>:<ms>,...                  (when recorded)
    TEXT <human-readable certificate line>   (repeated)
    JSON <single-line certificate json>
    .
    v}
    [TOP] answers the slow-request triage report ({!Service.top}):
    {v
    OK phases=<n> worst=<n> window=<seconds>
    PHASE name=<phase> total=<lifetime-s> count=<in-window>
          p50=<ms> p95=<ms> p99=<ms>        (one line per phase,
                                             busiest first)
    SLOW id=<request-id> trace=<trace-id> verdict=<v> elapsed=<ms>
         [slow_search=true] [phases=...]    (slowest retained first)
    .
    v}
    Errors are [ERR [id=<request-id>] <message>] followed by [.] — the
    id is present when the failing request got far enough to be
    assigned one (so the client can still [EXPLAIN] it). *)

val mode_to_string : Netembed_core.Engine.mode -> string
val mode_of_string : string -> (Netembed_core.Engine.mode, string) result
(** ["first"], ["all"] or ["atmost:k"] with [k >= 1]. *)

val default_max_frame_bytes : int
(** Default bound on a frame's body (1 MiB) — far above any realistic
    query, far below anything that could pressure the server's heap. *)

val frame_too_large : limit:int -> string
(** The canonical oversized-frame error message, shared by every
    transport so clients see one spelling. *)

type reader
(** A buffered byte source.  Every transport reads frames through one:
    the stdio loop, the TCP front-end and its metrics listener, the CLI
    [watch] client.  It reads ahead, so make one per stream. *)

val reader : (Bytes.t -> int -> int -> int) -> reader
(** [reader refill]: [refill buf pos len] stores at most [len] bytes at
    [pos] and returns how many, [0] at end of input ([input ic] for a
    channel).  Its exceptions propagate out of the reads below. *)

val read_line : reader -> string option
(** The next line as [input_line] reads it, [None] at end of input.
    Bytes past {!default_max_frame_bytes} are skipped as they arrive. *)

val read_frame : ?max_bytes:int -> reader -> (string, string) result option
(** Read one frame (lines up to a [.] terminator, each line of the body
    ending in ['\n']).  [None] on EOF before any content;
    [Some (Ok body)] on a complete frame (EOF after partial content
    yields the partial body, matching the historical server loop);
    [Some (Error msg)] when the body exceeds [max_bytes] (default
    {!default_max_frame_bytes}).  The bound is counted as the bytes
    arrive, inside a line too: the reader keeps at most [max_bytes] bytes
    of a line (2 if [max_bytes] is smaller) and consumes the rest through
    the terminator, so the stream is
    resynchronized and the next frame parses cleanly. *)

(** One decoded protocol verb. *)
type command =
  | Submit of Request.t  (** [EMBED]: search, do not allocate *)
  | Allocate of Request.t
      (** [ALLOC]: search, then commit the first mapping in the ledger *)
  | Free of int  (** [FREE <id>]: release a fractional allocation *)
  | Utilization  (** [UTIL]: report per-resource ledger utilization *)
  | Explain of int
      (** [EXPLAIN <request-id>]: fetch the retained failure certificate
          of an earlier request *)
  | Top
      (** [TOP]: the phase-latency triage report — busiest phases with
          sliding-window quantiles, plus the slowest retained requests *)
  | Health
      (** [HEALTH]: the SLO health machine's state and window inputs —
          one
          [OK state=<s> code=<0-3> fast_p99=<ms> slow_p99=<ms>
          fast_err=<rate> slow_err=<rate> queue=<depth>/<capacity>]
          line *)

val decode_command : string -> (command, string) result
(** Decodes a frame as {!read_frame} returns it or as {!encode_command}
    writes it: the frame ends at its first [.] line or at its end, so
    the text decodes the same with or without the terminator. *)

val encode_command : command -> string

val encode_answer : ?allocation:int -> Service.answer -> string
(** [?allocation] adds [allocation=<id>] to the [OK] header (the
    [ALLOC] response). *)

val encode_error : ?id:int -> string -> string
(** [?id] tags the error with the request id it was assigned, when the
    request got far enough to receive one. *)

val encode_explanation : Service.entry -> string
(** The [EXPLAIN] response: header, [SUMMARY], the certificate as
    [TEXT] lines and one single-line [JSON] rendering. *)

val encode_freed : int -> string
(** The [FREE] success response, [OK freed=<id>]. *)

val encode_top : Service.top -> string
(** The [TOP] response: one [PHASE] line per phase (busiest first, with
    window quantiles in ms) and one [SLOW] line per retained slow
    request. *)

val encode_health : Health.report -> string
(** The [HEALTH] response: state name and gauge code, fast/slow-window
    p99 (ms) and error rates, and the queue depth as of the last
    health evaluation. *)

val encode_utilization :
  (string * [ `Node | `Edge ] * float * float) list -> string
(** The [UTIL] response from {!Service.utilization} rows. *)

type decoded_answer = {
  id : int option;  (** request id ([None] from a pre-id server) *)
  trace_id : int option;
      (** the request's trace id ([None] from a pre-tracing server) *)
  outcome : Netembed_core.Engine.outcome;
  verdict : string option;
      (** the four-way verdict ({!Netembed_core.Engine.verdict});
          [None] from a pre-verdict server *)
  elapsed_ms : float;
  phases_ms : (string * float) list;
      (** per-phase milliseconds from the [phases=] header token, in
          phase order (empty from a pre-tracing server) *)
  mappings : (int * int) list list;  (** association lists per mapping *)
  allocation : int option;
      (** allocation id from an [ALLOC] response; [None] for [EMBED] *)
}

val decode_answer : string -> (decoded_answer, string) result

type utilization_row = {
  resource : string;
  kind : [ `Node | `Edge ];
  used : float;
  capacity : float;
}

val decode_utilization : string -> (utilization_row list, string) result
