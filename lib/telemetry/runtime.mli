(** Runtime introspection: continuous GC sampling and cooperative
    per-domain allocation publishing.

    The sampler is a dedicated domain polling [Gc.quick_stat] on a
    configurable interval and exporting gauges into a registry:

    - [netembed_gc_minor_words_rate] / [netembed_gc_major_words_rate]
      — allocation rate in words/s between consecutive polls;
    - [netembed_gc_minor_collections] / [netembed_gc_major_collections]
      / [netembed_gc_compactions] — lifetime collection counts;
    - [netembed_gc_heap_words] — major heap size;
    - [netembed_domain_minor_words{domain=...}] — the last reading each
      domain dropped via {!publish_minor_words} (Gc counters are
      per-domain in multicore OCaml, so domains must publish their
      own).

    The sampler slot is process-global: {!start}, {!stop} and
    {!running} are idempotent and safe from any domain, so a [Service]
    can be torn down and recreated without leaking sampler domains. *)

val start : ?registry:Telemetry.Registry.t -> ?interval:float -> unit -> unit
(** Start the sampler domain (no-op when already running).  [registry]
    defaults to {!Telemetry.default_registry}; [interval] (default
    1.0s) is the poll period.
    @raise Invalid_argument when [interval <= 0]. *)

val stop : unit -> unit
(** Stop and join the sampler domain (no-op when not running).  Stops
    promptly — the sampler sleeps in small chunks, never a full
    interval. *)

val running : unit -> bool

val publish_minor_words : unit -> unit
(** Record the calling domain's [Gc.minor_words] into its per-domain
    cell for the sampler to export.  Cheap enough to call once per
    request or per worker-loop iteration. *)
