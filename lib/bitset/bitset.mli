(** Fixed-universe dense bit sets.

    The ECF/RWB filter matrix stores, for every (query edge, host node)
    pair, the set of candidate host nodes (paper, section V-A).  Hosting
    networks have a fixed node universe [0 .. n-1], so a packed bit
    vector gives O(n/63) intersection and difference — the hot loop of
    the search (expression (2) of the paper). *)

type t

val create : int -> t
(** [create n] is the empty set over universe [\[0, n)]. *)

val universe_size : t -> int
val full : int -> t
val copy : t -> t

val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool
val bits_per_word : int
(** Members per word of {!word}: 62. *)

val word : t -> int -> int
(** [word t w] holds members [w * bits_per_word] to
    [(w + 1) * bits_per_word - 1] of [t] as a bit mask: bit [j] is set
    when member [w * bits_per_word + j] is in [t].  A caller testing
    every member in order reads one word per [bits_per_word] members
    instead of calling {!mem} on each.
    @raise Invalid_argument when [w] is not below
    [max 1 ((universe_size t + bits_per_word - 1) / bits_per_word)]. *)

val cardinal : t -> int
val is_empty : t -> bool

val clear : t -> unit
val equal : t -> t -> bool

(** {1 Bulk operations}

    All binary operations require both operands to share a universe
    size and raise [Invalid_argument] otherwise. *)

val blit : dst:t -> t -> unit
(** [blit ~dst src] overwrites [dst] with the contents of [src] without
    allocating — the load operation of the search core's scratch-domain
    pool. *)

val inter_into : dst:t -> t -> unit
(** [inter_into ~dst src] replaces [dst] with [dst ∩ src]. *)

val union_into : dst:t -> t -> unit
val diff_into : dst:t -> t -> unit
(** [diff_into ~dst src] replaces [dst] with [dst \ src]. *)

val diff_into_card : dst:t -> t -> int
(** [diff_into_card ~dst src] is [diff_into ~dst src] returning
    [cardinal dst], in a single pass over the words. *)

val inter : t -> t -> t
val union : t -> t -> t
val diff : t -> t -> t

val inter_cardinal : t -> t -> int
(** [inter_cardinal a b] is [cardinal (inter a b)] without materializing
    the intersection. *)

(** {1 Building from a numeric column} *)

type cmp = Lt | Le | Gt | Ge | Eq

val select : mask:t -> float array -> cmp -> float -> t
(** [select ~mask col cmp x] is the set of members [i] of [mask] with
    [Float.compare col.(i) x] of [cmp]'s sign ([< 0], [<= 0], [> 0],
    [>= 0], [= 0]) — the order {!Netembed_expr.Eval} compares numbers
    by, NaN below every other float and equal to itself.  [col] must
    cover the universe; slots outside [mask] may hold any value.  The
    set is built one word at a time: for a non-NaN bound each word's
    bits come from one comparison loop, masked afterwards, with no
    per-member branch or closure call. *)

(** {1 Iteration} *)

val iter : (int -> unit) -> t -> unit
(** Ascending order. *)

val iter_from : (int -> unit) -> t -> int -> unit
(** [iter_from f t i] applies [f] to every element [>= i], ascending.
    [i] may lie anywhere (negative values behave like 0; values [>= n]
    visit nothing). *)

val next_set_bit : t -> int -> int
(** [next_set_bit t i] is the smallest element [>= i], or [-1] when
    none exists.  Successive calls with [prev + 1] traverse the set
    without a closure — the candidate-enumeration primitive of the
    search core. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
val to_array : t -> int array
val of_list : int -> int list -> t

val choose : t -> int option
(** Smallest element, if any. *)

val nth : t -> int -> int option
(** [nth t k] is the [k]-th smallest element (0-based), if it exists.
    Used by RWB to pick a uniformly random candidate without
    materializing the set. *)
