(** Attribute tables: the per-node / per-link characterization maps.

    An attribute table binds attribute names (e.g. ["avgDelay"],
    ["osType"], ["cpuMhz"]) to typed {!Value.t}s.  Tables are persistent:
    updates return new tables, so query generators can derive constrained
    copies of host attributes without aliasing. *)

type t

val empty : t
val is_empty : t -> bool
val cardinal : t -> int

val add : string -> Value.t -> t -> t
(** [add name v t] binds [name] to [v], replacing any previous binding. *)

val remove : string -> t -> t

val find : string -> t -> Value.t option
val find_exn : string -> t -> Value.t
(** @raise Not_found if the attribute is absent. *)

val mem : string -> t -> bool

val float : string -> t -> float option
(** [float name t] is the numeric value of attribute [name], if present
    and numeric ([Int] widens). *)

val string : string -> t -> string option

val union : t -> t -> t
(** [union a b] contains all bindings of [a] and [b]; [b] wins on
    conflicts. *)

val of_list : (string * Value.t) list -> t
val to_list : t -> (string * Value.t) list
(** Bindings in increasing name order. *)

val fold : (string -> Value.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (string -> Value.t -> unit) -> t -> unit
val map : (string -> Value.t -> Value.t) -> t -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
