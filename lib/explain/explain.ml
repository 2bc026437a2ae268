(* Explainability kernel: constraint-blame accounting, near-miss
   analysis and the flight recorder.  Everything here is generic over
   plain ints (query nodes, host nodes, depths) so the library sits
   below the search core — the core threads blame tables and recorders
   through its hot paths, and the engine assembles certificates from
   them.  All recording structures are preallocated (the recorder is a
   ring of int arrays; the blame table only grows on elimination
   events), so instrumented searches stay allocation-light. *)

module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Ast = Netembed_expr.Ast
module Json = Netembed_telemetry.Json
module Bitset = Netembed_bitset.Bitset

(* ------------------------------------------------------------------ *)
(* Causes                                                              *)
(* ------------------------------------------------------------------ *)

module Cause = struct
  type t =
    | Degree_filter
    | Node_constraint
    | Edge_constraint of int * int
    | Host_contention
    | Admission of string
    | Budget

  let to_string = function
    | Degree_filter -> "degree filter"
    | Node_constraint -> "node constraint"
    | Edge_constraint (a, b) -> Printf.sprintf "edge constraint on (q%d,q%d)" a b
    | Host_contention -> "host contention (all remaining candidates in use)"
    | Admission r -> Printf.sprintf "admission (aggregate %s demand exceeds residual)" r
    | Budget -> "budget exhausted"

  (* Low-cardinality label for metrics: edge constraints collapse to one
     series regardless of which query pair they hit. *)
  let label = function
    | Degree_filter -> "degree_filter"
    | Node_constraint -> "node_constraint"
    | Edge_constraint _ -> "edge_constraint"
    | Host_contention -> "host_contention"
    | Admission _ -> "admission"
    | Budget -> "budget"
end

(* ------------------------------------------------------------------ *)
(* Blame table                                                         *)
(* ------------------------------------------------------------------ *)

module Blame = struct
  type t = { counts : (int * Cause.t, int) Hashtbl.t }

  let create () = { counts = Hashtbl.create 64 }

  let record t ~q cause n =
    if n > 0 then begin
      let k = (q, cause) in
      match Hashtbl.find_opt t.counts k with
      | Some prior -> Hashtbl.replace t.counts k (prior + n)
      | None -> Hashtbl.replace t.counts k n
    end

  let eliminate t ~q cause = record t ~q cause 1

  let desc (_, a) (_, b) = compare (b : int) a

  let by_node t q =
    Hashtbl.fold
      (fun (q', cause) n acc -> if q' = q then (cause, n) :: acc else acc)
      t.counts []
    |> List.sort desc

  let totals t =
    let agg : (Cause.t, int) Hashtbl.t = Hashtbl.create 8 in
    Hashtbl.iter
      (fun (_, cause) n ->
        Hashtbl.replace agg cause (n + Option.value ~default:0 (Hashtbl.find_opt agg cause)))
      t.counts;
    Hashtbl.fold (fun cause n acc -> (cause, n) :: acc) agg [] |> List.sort desc

  let label_totals t =
    let agg : (string, int) Hashtbl.t = Hashtbl.create 8 in
    Hashtbl.iter
      (fun (_, cause) n ->
        let l = Cause.label cause in
        Hashtbl.replace agg l (n + Option.value ~default:0 (Hashtbl.find_opt agg l)))
      t.counts;
    Hashtbl.fold (fun l n acc -> (l, n) :: acc) agg [] |> List.sort desc

  let total_for t q = List.fold_left (fun acc (_, n) -> acc + n) 0 (by_node t q)

  let nodes t =
    let seen = Hashtbl.create 16 in
    Hashtbl.iter (fun (q, _) _ -> Hashtbl.replace seen q ()) t.counts;
    Hashtbl.fold (fun q () acc -> q :: acc) seen []
    |> List.sort (fun a b -> compare (total_for t b) (total_for t a))
end

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

module Recorder = struct
  type kind = Visit | Wipeout | Backtrack | Solution

  let kind_name = function
    | Visit -> "visit"
    | Wipeout -> "wipeout"
    | Backtrack -> "backtrack"
    | Solution -> "solution"

  let code = function Visit -> 0 | Wipeout -> 1 | Backtrack -> 2 | Solution -> 3
  let of_code = function 0 -> Visit | 1 -> Wipeout | 2 -> Backtrack | _ -> Solution

  type event = { seq : int; kind : kind; depth : int; host : int; size : int }

  type t = {
    capacity : int;
    sample_every : int;
    kinds : int array;
    depths : int array;
    hosts : int array;
    sizes : int array;
    seqs : int array;
    mutable recorded : int;  (* total push calls, monotonic *)
    mutable visits : int;  (* visit ticks seen, for 1/N sampling *)
  }

  let create ?(capacity = 256) ?(sample_every = 32) () =
    if capacity < 1 then invalid_arg "Explain.Recorder.create: capacity";
    if sample_every < 1 then invalid_arg "Explain.Recorder.create: sample_every";
    {
      capacity;
      sample_every;
      kinds = Array.make capacity 0;
      depths = Array.make capacity 0;
      hosts = Array.make capacity (-1);
      sizes = Array.make capacity 0;
      seqs = Array.make capacity 0;
      recorded = 0;
      visits = 0;
    }

  let push t kind ~depth ~host ~size =
    let i = t.recorded mod t.capacity in
    t.kinds.(i) <- code kind;
    t.depths.(i) <- depth;
    t.hosts.(i) <- host;
    t.sizes.(i) <- size;
    t.seqs.(i) <- t.recorded;
    t.recorded <- t.recorded + 1

  let visit t ~depth ~host ~size =
    t.visits <- t.visits + 1;
    if t.visits mod t.sample_every = 0 then push t Visit ~depth ~host ~size

  let wipeout t ~depth ~host = push t Wipeout ~depth ~host ~size:0
  let backtrack t ~depth = push t Backtrack ~depth ~host:(-1) ~size:0
  let solution t ~depth = push t Solution ~depth ~host:(-1) ~size:0
  let recorded t = t.recorded

  let events t =
    let n = min t.recorded t.capacity in
    let start = t.recorded - n in
    List.init n (fun j ->
        let i = (start + j) mod t.capacity in
        {
          seq = t.seqs.(i);
          kind = of_code t.kinds.(i);
          depth = t.depths.(i);
          host = t.hosts.(i);
          size = t.sizes.(i);
        })

  let event_json e =
    Json.(Obj ([ ("seq", Int e.seq); ("ev", String (kind_name e.kind)); ("depth", Int e.depth) ]
               @ (if e.host >= 0 then [ ("host", Int e.host) ] else [])
               @ if e.kind = Visit then [ ("domain_size", Int e.size) ] else []))
end

(* ------------------------------------------------------------------ *)
(* Requirement extraction and near-miss analysis                       *)
(* ------------------------------------------------------------------ *)

type requirement = {
  subject : Ast.obj;
  attr : string;
  op : [ `Ge | `Gt | `Le | `Lt | `Eq ];
  bound : float;
}

let op_name = function
  | `Ge -> ">="
  | `Gt -> ">"
  | `Le -> "<="
  | `Lt -> "<"
  | `Eq -> "=="

let requirement_to_string r =
  Printf.sprintf "%s.%s %s %g" (Ast.obj_name r.subject) r.attr (op_name r.op) r.bound

(* The numeric projection of {!Netembed_expr.Bounds.of_ast}: the same
   conjunctive-spine extraction that drives the filter's attribute
   pre-sweeps also yields the certificate's "attr OP number"
   obligations, so blame and filtering can never disagree about what a
   constraint demands.  String-equality and bare-boolean atoms carry no
   numeric bound and are skipped here. *)
let requirements ~on ast =
  let module Bounds = Netembed_expr.Bounds in
  let b = Bounds.of_ast ast in
  List.filter_map
    (fun atom ->
      let subject, attr = Bounds.atom_subject atom in
      if not (List.mem subject on) then None
      else
        match atom with
        | Bounds.Cmp { cmp; bound; _ } ->
            let op =
              match cmp with
              | Bounds.Lt -> `Lt
              | Bounds.Le -> `Le
              | Bounds.Gt -> `Gt
              | Bounds.Ge -> `Ge
            in
            Some { subject; attr; op; bound }
        | Bounds.Eq { value; _ } when Value.is_numeric value ->
            Some { subject; attr; op = `Eq; bound = Value.to_float value }
        | Bounds.Eq _ | Bounds.Has_bool _ -> None)
    b.Bounds.atoms

(* Inlined so that the ranking scan compares unboxed floats. *)
let[@inline] satisfies r value =
  match r.op with
  | `Ge -> value >= r.bound
  | `Gt -> value > r.bound
  | `Le -> value <= r.bound
  | `Lt -> value < r.bound
  | `Eq -> value = r.bound

type near_miss = {
  id : int;
  label : string;
  violated : (requirement * float option) list;
      (** each violated requirement with the actual value (None when the
          attribute is missing entirely) *)
  satisfied : int;
}

let check_item reqs attrs =
  List.fold_left
    (fun (viol, sat) r ->
      match Attrs.float r.attr attrs with
      | Some v when satisfies r v -> (viol, sat + 1)
      | Some v -> ((r, Some v) :: viol, sat)
      | None -> ((r, None) :: viol, sat))
    ([], 0) reqs
  |> fun (viol, sat) -> (List.rev viol, sat)

(* One pass over the items, one word of [Bitset.bits_per_word] items at
   a time.  For each requirement, the block reads its presence word
   and its scale once, then adds every violation to the block's
   unboxed count and gap accumulators — in requirement order from
   0.0, as [|v - bound| / max 1 |bound|] or 1.0 for a missing
   value.  The best [limit] (violations, gap, id) keys are
   kept in plain arrays, best first, by stable insertion, so equal
   keys stay in id order and nothing is allocated per item.  Only the
   winners are labelled and get their violation lists built, from
   their attribute tables. *)
let near_misses ~reqs ~count ~column ~attrs ~label ~limit =
  let reqs_a = Array.of_list reqs in
  let cap = if reqs = [] then 0 else max 0 (min limit count) in
  let best_n = Array.make cap 0 and best_g = Array.make cap 0.0 and best_id = Array.make cap 0 in
  let kept = ref 0 in
  if cap > 0 then begin
    let cols = Array.map (fun r -> column r.attr) reqs_a in
    let width = Bitset.bits_per_word in
    let viol = Array.make width 0 and gaps = Array.make width 0.0 in
    (* Block item [j] ranks strictly before kept entry [k]: fewer
       violations, then the smaller gap under [Float.compare]'s order
       (NaN first). *)
    let precedes j k =
      let c = Int.compare viol.(j) best_n.(k) in
      if c <> 0 then c < 0 else Float.compare gaps.(j) best_g.(k) < 0
    in
    for w = 0 to (count - 1) / width do
      let base = w * width in
      let len = min width (count - base) in
      Array.fill viol 0 len 0;
      Array.fill gaps 0 len 0.0;
      for k = 0 to Array.length reqs_a - 1 do
        let r = reqs_a.(k) in
        let present, num = cols.(k) in
        let present = Bitset.word present w in
        let scale = Float.max 1.0 (Float.abs r.bound) in
        for j = 0 to len - 1 do
          if present land (1 lsl j) = 0 then begin
            viol.(j) <- viol.(j) + 1;
            gaps.(j) <- gaps.(j) +. 1.0
          end
          else
            let v = num.(base + j) in
            if not (satisfies r v) then begin
              viol.(j) <- viol.(j) + 1;
              gaps.(j) <- gaps.(j) +. (Float.abs (v -. r.bound) /. scale)
            end
        done
      done;
      for j = 0 to len - 1 do
        if viol.(j) > 0 && (!kept < cap || precedes j (cap - 1)) then begin
          let i = ref (min !kept (cap - 1)) in
          while !i > 0 && precedes j (!i - 1) do
            best_n.(!i) <- best_n.(!i - 1);
            best_g.(!i) <- best_g.(!i - 1);
            best_id.(!i) <- best_id.(!i - 1);
            decr i
          done;
          best_n.(!i) <- viol.(j);
          best_g.(!i) <- gaps.(j);
          best_id.(!i) <- base + j;
          if !kept < cap then incr kept
        end
      done
    done
  end;
  List.init !kept (fun k ->
      let id = best_id.(k) in
      let violated, satisfied = check_item reqs (attrs id) in
      { id; label = label id; violated; satisfied })

let near_miss_to_string m =
  Printf.sprintf "%s: %s" m.label
    (String.concat "; "
       (List.map
          (fun (r, v) ->
            match v with
            | Some v -> Printf.sprintf "needs %s, has %g" (requirement_to_string r) v
            | None -> Printf.sprintf "needs %s, attribute missing" (requirement_to_string r))
          m.violated))

let near_miss_json m =
  let violated (r, v) =
    Json.(Obj (("requirement", String (requirement_to_string r))
               :: Option.to_list (Option.map (fun v -> ("actual", Float v)) v)))
  in
  Json.(Obj [ ("id", Int m.id); ("label", String m.label); ("satisfied", Int m.satisfied);
              ("violated", List (List.map violated m.violated)) ])

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)
(* ------------------------------------------------------------------ *)

module Certificate = struct
  type blamed = {
    node : int;
    node_label : string;
    causes : (Cause.t * int) list;
    requirements : requirement list;
    near : near_miss list;
  }

  type hot_spot = {
    depth : int;
    node : int;  (** -1 when the searcher has no static depth->node map *)
    node_label : string;
    backtracks : int;
    wipeouts : int;
  }

  type t = {
    verdict : string;
    message : string;
    blamed : blamed list;
    hot_spot : hot_spot option;
    notes : string list;
    flight : Recorder.event list;
  }

  let make ?(blamed = []) ?hot_spot ?(notes = []) ?(flight = []) ~verdict message =
    { verdict; message; blamed; hot_spot; notes; flight }

  let primary_cause t =
    match t.blamed with
    | { causes = (c, _) :: _; _ } :: _ -> Some c
    | _ -> None

  let to_text t =
    let buf = Buffer.create 512 in
    Buffer.add_string buf (Printf.sprintf "verdict: %s\n%s\n" t.verdict t.message);
    List.iter
      (fun (b : blamed) ->
        Buffer.add_string buf
          (Printf.sprintf "blamed node %s (q%d): domain emptied\n" b.node_label b.node);
        List.iter
          (fun (c, n) ->
            Buffer.add_string buf
              (Printf.sprintf "  - %s eliminated %d candidate(s)\n" (Cause.to_string c) n))
          b.causes;
        if b.requirements <> [] then
          Buffer.add_string buf
            (Printf.sprintf "  requires: %s\n"
               (String.concat " && " (List.map requirement_to_string b.requirements)));
        List.iter
          (fun m ->
            Buffer.add_string buf (Printf.sprintf "  near miss %s\n" (near_miss_to_string m)))
          b.near)
      t.blamed;
    (match t.hot_spot with
    | None -> ()
    | Some h ->
        Buffer.add_string buf
          (Printf.sprintf "hot spot: depth %d%s, %d backtracks, %d wipeouts\n" h.depth
             (if h.node >= 0 then Printf.sprintf " (query node %s, q%d)" h.node_label h.node
              else "")
             h.backtracks h.wipeouts));
    List.iter (fun n -> Buffer.add_string buf (Printf.sprintf "note: %s\n" n)) t.notes;
    if t.flight <> [] then
      Buffer.add_string buf
        (Printf.sprintf "flight recorder: %d recent event(s) captured\n"
           (List.length t.flight));
    Buffer.contents buf

  let blamed_json (b : blamed) =
    let cause (c, n) =
      Json.(Obj [ ("cause", String (Cause.label c)); ("detail", String (Cause.to_string c));
                  ("eliminated", Int n) ])
    in
    Json.(Obj [ ("node", Int b.node); ("label", String b.node_label);
                ("causes", List (List.map cause b.causes));
                ("requirements",
                 List (List.map (fun r -> String (requirement_to_string r)) b.requirements));
                ("near_misses", List (List.map near_miss_json b.near)) ])

  let hot_spot_json h =
    Json.(Obj [ ("depth", Int h.depth); ("node", Int h.node); ("label", String h.node_label);
                ("backtracks", Int h.backtracks); ("wipeouts", Int h.wipeouts) ])

  let to_json t =
    let hot_spot = Option.map (fun h -> ("hot_spot", hot_spot_json h)) t.hot_spot in
    Json.(to_string (Obj ([ ("verdict", String t.verdict); ("message", String t.message);
                            ("blamed", List (List.map blamed_json t.blamed)) ]
                          @ Option.to_list hot_spot
                          @ (if t.notes = [] then []
                             else [ ("notes", List (List.map (fun n -> String n) t.notes)) ])
                          @ [ ("flight", List (List.map Recorder.event_json t.flight)) ])))
end
