(* Runtime introspection for the mapping service.

   Two independent pieces, both optional at runtime:

   - a sampler domain that polls [Gc.quick_stat] on a configurable
     interval and exports [netembed_gc_*] gauges into a registry —
     allocation rates (words/s between consecutive polls), collection
     counts, heap size and compactions;
   - cooperative per-domain allocation publishing: any domain may call
     {!publish_minor_words} to drop its own [Gc.minor_words] reading
     into a per-domain cell, which the sampler exports as
     [netembed_domain_minor_words{domain=...}] (Gc counters are
     per-domain in multicore OCaml, so the sampler cannot read them on
     behalf of other domains).

   Concurrency: the sampler slot is process-global and mutex-guarded;
   [start]/[stop]/[running] are idempotent and safe from any domain.
   The per-domain cells follow the repo's single-writer/racy-reader
   model (each domain writes only its own cell). *)

let max_domains = 128

(* cells.(i): last minor-words reading domain i published; live.(i)
   marks the cell as carrying data.  Single writer per cell (the owning
   domain), racy reader (the sampler). *)
let alloc_cells = Array.make max_domains 0.0
let alloc_live = Array.make max_domains false

let publish_minor_words () =
  let id = (Domain.self () :> int) in
  if id >= 0 && id < max_domains then begin
    alloc_cells.(id) <- Gc.minor_words ();
    alloc_live.(id) <- true
  end

type sampler = {
  registry : Telemetry.Registry.t;
  interval : float;
  lock : Mutex.t;
  mutable stop_flag : bool;  (* guarded by [lock] *)
  mutable thread : unit Domain.t option;
}

let slot : sampler option ref = ref None
let slot_lock = Mutex.create ()
let gc_help = "sampled from Gc.quick_stat by the runtime sampler domain"

(* One poll: refresh every gauge, return the readings the next poll
   rates against. *)
let sample registry ~prev_minor ~prev_major ~prev_t =
  let s = Gc.quick_stat () in
  let now = Unix.gettimeofday () in
  let g name = Telemetry.Registry.gauge registry ~help:gc_help name in
  let dt = now -. prev_t in
  if dt > 0.0 then begin
    Telemetry.Gauge.set
      (g "netembed_gc_minor_words_rate")
      ((s.Gc.minor_words -. prev_minor) /. dt);
    Telemetry.Gauge.set
      (g "netembed_gc_major_words_rate")
      ((s.Gc.major_words -. prev_major) /. dt)
  end;
  Telemetry.Gauge.set
    (g "netembed_gc_minor_collections")
    (float_of_int s.Gc.minor_collections);
  Telemetry.Gauge.set
    (g "netembed_gc_major_collections")
    (float_of_int s.Gc.major_collections);
  Telemetry.Gauge.set (g "netembed_gc_compactions")
    (float_of_int s.Gc.compactions);
  Telemetry.Gauge.set (g "netembed_gc_heap_words")
    (float_of_int s.Gc.heap_words);
  for i = 0 to max_domains - 1 do
    if alloc_live.(i) then
      Telemetry.Gauge.set
        (Telemetry.Registry.gauge registry
           ~help:"per-domain minor words, published by the domain itself"
           ~labels:[ ("domain", string_of_int i) ]
           "netembed_domain_minor_words")
        alloc_cells.(i)
  done;
  (s.Gc.minor_words, s.Gc.major_words, now)

let stopped sampler =
  Mutex.lock sampler.lock;
  let s = sampler.stop_flag in
  Mutex.unlock sampler.lock;
  s

let run sampler () =
  let rec loop prev_minor prev_major prev_t =
    (* Chunked sleep so [stop] never waits a full interval. *)
    let deadline = Unix.gettimeofday () +. sampler.interval in
    let rec wait () =
      if stopped sampler then true
      else
        let now = Unix.gettimeofday () in
        if now >= deadline then false
        else begin
          Unix.sleepf (Float.min 0.02 (deadline -. now));
          wait ()
        end
    in
    if not (wait ()) then begin
      let pm, pj, pt =
        sample sampler.registry ~prev_minor ~prev_major ~prev_t
      in
      loop pm pj pt
    end
  in
  (* Export the absolute gauges immediately so /metrics carries them
     without waiting one full interval; rates appear from poll two. *)
  let s = Gc.quick_stat () in
  let pm, pj, pt =
    sample sampler.registry ~prev_minor:s.Gc.minor_words
      ~prev_major:s.Gc.major_words ~prev_t:(Unix.gettimeofday ())
  in
  loop pm pj pt

let start ?(registry = Telemetry.default_registry) ?(interval = 1.0) () =
  if interval <= 0.0 then
    invalid_arg "Runtime.start: interval must be positive";
  Mutex.lock slot_lock;
  (match !slot with
  | Some _ -> ()  (* already running: idempotent *)
  | None ->
      let sampler =
        { registry; interval; lock = Mutex.create (); stop_flag = false;
          thread = None }
      in
      sampler.thread <- Some (Domain.spawn (run sampler));
      slot := Some sampler);
  Mutex.unlock slot_lock

let stop () =
  Mutex.lock slot_lock;
  let s = !slot in
  slot := None;
  Mutex.unlock slot_lock;
  match s with
  | None -> ()
  | Some sampler -> (
      Mutex.lock sampler.lock;
      sampler.stop_flag <- true;
      Mutex.unlock sampler.lock;
      match sampler.thread with Some d -> Domain.join d | None -> ())

let running () =
  Mutex.lock slot_lock;
  let r = match !slot with Some _ -> true | None -> false in
  Mutex.unlock slot_lock;
  r
