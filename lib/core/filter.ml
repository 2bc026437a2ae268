open Netembed_graph
module Ast = Netembed_expr.Ast
module Bounds = Netembed_expr.Bounds
module Bitset = Netembed_bitset.Bitset
module Explain = Netembed_explain.Explain

type t = {
  rows : Bitset.t array array;
      (** [rows.(a * nq + b)] is the row of the ordered query-edge
          direction [(a, b)], indexed by host node [r]: the cell
          [F[a, r, b]], the candidates for [b] when [a] is mapped onto
          [r].  Empty cells are [empty_cell]; directions the query does
          not link share [no_row]. *)
  nq : int;
  nr : int;
  node_cands : Bitset.t array;
  ls_order : int array;
  nonempty_cells : int;
}

(* Shared sentinels, compared physically: one empty cell and one empty
   row for every filter, so a missing cell costs one pointer in its row
   and an unlinked direction one pointer in [rows].  With one-partner
   cells shared too (see [build]), the rows of a sparse matrix hold
   fewer words than the int-keyed hash table of cells they replace. *)
let empty_cell = Bitset.create 0
let no_row : Bitset.t array = [||]

let cell t a r b =
  let row = t.rows.((a * t.nq) + b) in
  if r < Array.length row then row.(r) else empty_cell

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* One query edge fills two lookup directions, each a scratch matrix of
   [nr] rows of partner words: row [r] of a direction holds the words
   of cell [F[a, r, b]] at [bits.(r * words)], and [state.(r)] is -1
   while the row is empty, the partner while it holds one, and -2 once
   it holds more.  A build allocates its scratch once and every query
   edge reuses it, so concurrent builds on worker domains share
   nothing. *)
type scratch = { words : int; bits : int array; state : int array }

(* {!Bitset}'s word width as a literal: the library is compiled
   [-opaque] in the default profile, where [Bitset.bits_per_word] is a
   load and the fill's division by it an integer division. *)
let bits_per_word = 62
let () = assert (bits_per_word = Bitset.bits_per_word)

let scratch nr =
  let words = max 1 ((nr + bits_per_word - 1) / bits_per_word) in
  { words; bits = Array.make (nr * words) 0; state = Array.make nr (-1) }

let set s r v =
  let i = (r * s.words) + (v / bits_per_word) and bit = 1 lsl (v mod bits_per_word) in
  let w = s.bits.(i) in
  if w land bit = 0 then begin
    s.bits.(i) <- w lor bit;
    s.state.(r) <- (if s.state.(r) = -1 then v else -2)
  end

(* A pre-filter plan's verdict on one host node, read from its
   [admissible] and [clean] sets once per plan instead of per visited
   host edge. *)
let inadmissible = 0
let undecided = 1
let clean = 2

type ordering = Connected_lemma1 | Lemma1 | Input_order

let build ?(ordering = Connected_lemma1) ?(prefilter = true) ?blame (p : Problem.t) =
  let nq = Graph.node_count p.query and nr = Graph.node_count p.host in
  let undirected = Graph.kind p.host = Graph.Undirected in
  (* The bounds pre-filter reads the problem's column stores; the atom
     cache is this build's, shared by every residual. *)
  let prefilter_stores =
    let { Prefilter.edges; nodes } = p.columns in
    lazy (Prefilter.create edges, Prefilter.create nodes)
  in
  let plan_of bounds =
    let edges, nodes = Lazy.force prefilter_stores in
    Prefilter.plan ~edges ~nodes bounds
  in
  (* The node constraint takes the edge residuals' path: specialized to
     the query node, its atoms swept over the host node columns, so only
     hosts the plan leaves undecided reach the evaluator.  A plan with
     [rEdge] atoms is bypassed (no host edge is in scope of a node
     constraint), as is the whole path without the pre-filter. *)
  let node_plan q =
    if not prefilter then None
    else
      match Problem.node_residual p q with
      | None -> None
      | Some residual ->
          let bounds = Bounds.of_ast residual in
          if
            List.exists
              (fun atom -> fst (Bounds.atom_subject atom) = Ast.R_edge)
              bounds.Bounds.atoms
          then None
          else Some (residual, plan_of bounds)
  in
  (* Per-query-node acceptability over all host nodes, precomputed once
     as a bool per host, which the per-host-edge loop below reads, and
     as a set, which node candidates and blame read: the loop would
     otherwise re-decide the node constraint for the same (q, r) pair
     once per incident host edge.  A node plan has no [rEdge]
     restriction, so [~he] is never read. *)
  let node_ok =
    Array.init nq (fun q ->
        let ok =
          match node_plan q with
          | None -> fun r -> Problem.node_ok p ~q ~r
          | Some (residual, plan) ->
              fun r ->
                Problem.degree_ok p ~q ~r
                && Prefilter.admits_pair plan ~he:0 ~r_src:r ~r_dst:r
                && (Prefilter.decides_pair plan ~he:0 ~r_src:r ~r_dst:r
                   || Problem.node_residual_ok p ~q ~r residual)
        in
        Array.init nr ok)
  in
  let node_ok_bits =
    Array.map
      (fun ok ->
        let bits = Bitset.create nr in
        Array.iteri (fun r accepted -> if accepted then Bitset.add bits r) ok;
        bits)
      node_ok
  in
  (* Most cells on sparse hosts hold one partner (tight delay bands), so
     one-partner cells share a single bitset per partner, made on first
     use; any other non-empty cell gets one set of its own, copied once
     from the scratch row. *)
  let singletons = Array.make nr empty_cell in
  let singleton v =
    if singletons.(v) == empty_cell then singletons.(v) <- Bitset.of_list nr [ v ];
    singletons.(v)
  in
  let fwd = scratch nr and bwd = scratch nr in
  (* A plan's host-node restriction as one verdict per host; no
     restriction leaves every host clean. *)
  let all_clean = Array.make nr clean in
  let verdicts = function
    | None -> all_clean
    | Some { Prefilter.admissible; clean = clean_nodes } ->
        Array.init nr (fun r ->
            if Bitset.mem clean_nodes r then clean
            else if Bitset.mem admissible r then undecided
            else inadmissible)
  in
  (* Turn each non-empty scratch row into its cell, clearing the row for
     the next query edge. *)
  let materialize s =
    let row = Array.make nr empty_cell in
    for r = 0 to nr - 1 do
      let state = s.state.(r) in
      if state <> -1 then begin
        row.(r) <-
          (if state >= 0 then singleton state else Bitset.of_words nr s.bits (r * s.words));
        Array.fill s.bits (r * s.words) s.words 0;
        s.state.(r) <- -1
      end
    done;
    row
  in
  (* Per query edge: evaluate the specialized residual against every host
     edge the plan admits (both host orientations when undirected),
     setting, for both lookup directions, partner [v] in row [u] of the
     scratch: the candidate bitset of [b] when [a] is on [u], and
     back. *)
  let add_edge_cells qe a b =
    let residual = Problem.residual p qe ~q_src:a ~q_dst:b in
    let plan =
      if not prefilter then None
      else
        let bounds = Bounds.of_ast residual in
        if bounds.Bounds.atoms = [] && not bounds.Bounds.complete then None
        else Some (plan_of bounds)
    in
    let complete, src_verdicts, tgt_verdicts =
      match plan with
      | None -> (false, all_clean, all_clean)
      | Some plan ->
          (plan.Prefilter.complete, verdicts plan.Prefilter.src, verdicts plan.Prefilter.tgt)
    in
    (* All real evaluations flow through [Problem.edge_pair_ok] and its
       shared telemetry counter; pairs the pre-filter decides never
       reach the evaluator, which is exactly the saving the bench
       ablation measures.  [edge_clean] is the host edge's bit in the
       plan's clean edge set (true without an edge restriction); the
       walk below visits only edges the plan admits. *)
    let accepts he edge_clean u v =
      let src = src_verdicts.(u) and tgt = tgt_verdicts.(v) in
      src <> inadmissible
      && tgt <> inadmissible
      && ((complete && edge_clean && src = clean && tgt = clean)
         || Problem.edge_pair_ok p ~qe ~q_src:a ~q_dst:b ~he ~r_src:u ~r_dst:v)
    in
    (* If the residual never touches host-endpoint attributes, its value
       cannot depend on the orientation of the host edge, so one
       evaluation decides both. *)
    let orientation_sensitive =
      Ast.fold_attrs
        (fun obj _ acc ->
          acc
          ||
          match obj with
          | Ast.R_source | Ast.R_target -> true
          | Ast.R_edge | Ast.V_edge | Ast.V_source | Ast.V_target -> false)
        residual false
    in
    let ok_a = node_ok.(a) and ok_b = node_ok.(b) in
    let visit he u v edge_clean =
      let fwd_nodes_ok = ok_a.(u) && ok_b.(v) in
      let bwd_nodes_ok = undirected && ok_a.(v) && ok_b.(u) in
      if orientation_sensitive then begin
        (* Orientation a->u, b->v. *)
        if fwd_nodes_ok && accepts he edge_clean u v then begin
          set fwd u v;
          set bwd v u
        end;
        (* Orientation a->v, b->u (undirected hosts only). *)
        if bwd_nodes_ok && accepts he edge_clean v u then begin
          set fwd v u;
          set bwd u v
        end
      end
      else if (fwd_nodes_ok || bwd_nodes_ok) && accepts he edge_clean u v then begin
        if fwd_nodes_ok then begin
          set fwd u v;
          set bwd v u
        end;
        if bwd_nodes_ok then begin
          set fwd v u;
          set bwd u v
        end
      end
    in
    (* A host edge outside the plan's admissible set fails the plan, so
       only admissible edges are walked, a word of the admissible and
       clean sets at a time; an infeasible plan admits none. *)
    (match plan with
    | Some { Prefilter.infeasible = true; _ } -> ()
    | Some { Prefilter.edge = Some { Prefilter.admissible; clean = clean_edges }; _ } ->
        let ne = Bitset.universe_size admissible in
        for w = 0 to ((ne + bits_per_word - 1) / bits_per_word) - 1 do
          let cleans = Bitset.word clean_edges w in
          let rest = ref (Bitset.word admissible w) and bit = ref 0 in
          while !rest <> 0 do
            if !rest land 1 <> 0 then begin
              let he = (w * bits_per_word) + !bit in
              visit he (Graph.edge_source p.host he) (Graph.edge_target p.host he)
                (cleans land (1 lsl !bit) <> 0)
            end;
            rest := !rest lsr 1;
            incr bit
          done
        done
    | Some _ | None -> Graph.iter_edges (fun he u v -> visit he u v true) p.host);
    (materialize fwd, materialize bwd)
  in
  let rows = Array.make (nq * nq) no_row in
  let merge dir row =
    let prior = rows.(dir) in
    if prior == no_row then rows.(dir) <- row
    else
      (* A parallel query edge: a cell survives only where every edge
         between the pair has a partner set, and holds their
         intersection. *)
      Array.iteri
        (fun r partners ->
          let cell = prior.(r) in
          if cell != empty_cell then
            if partners == empty_cell then prior.(r) <- empty_cell
            else
              (* a fresh set: [cell] may be a shared singleton *)
              let both = Bitset.inter cell partners in
              prior.(r) <- (if Bitset.is_empty both then empty_cell else both))
        row
  in
  Graph.iter_edges
    (fun qe a b ->
      let fwd, bwd = add_edge_cells qe a b in
      merge ((a * nq) + b) fwd;
      merge ((b * nq) + a) bwd)
    p.query;
  let nonempty_cells =
    Array.fold_left
      (fun acc row ->
        Array.fold_left (fun acc c -> if c == empty_cell then acc else acc + 1) acc row)
      0 rows
  in
  (* The hosts [r] whose cell [F[q, r, w]] is not empty. *)
  let sources q w =
    let out = Bitset.create nr in
    Array.iteri (fun r c -> if c != empty_cell then Bitset.add out r) rows.((q * nq) + w);
    out
  in
  (* Node-level candidates: intersection over incident edges of the
     sources with a non-empty cell, within node_ok. *)
  let node_cands =
    Array.init (max 1 nq) (fun q ->
        if q >= nq then Bitset.create nr
        else
          match List.map (fun (w, _) -> sources q w) (Problem.query_neighbours p q) with
          | [] -> Bitset.copy node_ok_bits.(q)
          | first :: rest ->
              List.iter (fun s -> Bitset.inter_into ~dst:first s) rest;
              first)
  in
  let t =
    {
      rows;
      nq;
      nr;
      node_cands;
      ls_order = [||];
      nonempty_cells;
    }
  in
  (* Explain mode: attribute every host excluded from a node's
     expression-(1) candidate set to the filter stage that removed it,
     one set operation per stage.  Precedence mirrors the build: the
     degree filter fires before the node constraint, which fires before
     edge-compatibility, where the first incident query edge whose cell
     is empty takes the blame.  The node constraint's verdict is read
     back from [node_ok_bits] (degree and node constraint together), so
     blame evaluates nothing.  Each (node, cause) is recorded once, with
     its count, in the order a host-by-host pass would first meet it
     (ascending least host), which keeps the blame table, and the
     certificates that list its tied causes, as per-host recording
     left them. *)
  (match blame with
  | None -> ()
  | Some bl ->
      for q = 0 to nq - 1 do
        let rejected = Bitset.full nr in
        Bitset.diff_into ~dst:rejected node_ok_bits.(q);
        let degree = Bitset.create nr in
        Bitset.iter
          (fun r -> if not (Problem.degree_ok p ~q ~r) then Bitset.add degree r)
          rejected;
        Bitset.diff_into ~dst:rejected degree;
        let alive = Bitset.copy node_ok_bits.(q) in
        let edge_classes =
          List.map
            (fun (w, _) ->
              let s = sources q w in
              let lost = Bitset.diff alive s in
              Bitset.inter_into ~dst:alive s;
              (Explain.Cause.Edge_constraint (q, w), lost))
            (Problem.query_neighbours p q)
        in
        (Explain.Cause.Degree_filter, degree)
        :: (Explain.Cause.Node_constraint, rejected)
        :: edge_classes
        |> List.filter_map (fun (cause, hosts) ->
               let least = Bitset.next_set_bit hosts 0 in
               if least < 0 then None else Some (least, cause, Bitset.cardinal hosts))
        |> List.sort (fun (x, _, _) (y, _, _) -> Int.compare x y)
        |> List.iter (fun (_, cause, n) -> Explain.Blame.record bl ~q cause n)
      done);
  (* Search order: Lemma 1 seeds the order with the fewest-candidate
     node; after that, expression (2) only prunes through edges into the
     assigned prefix, so each subsequent node is chosen connected to the
     prefix (most edges into it, ties broken by fewest candidates).
     Disconnected queries reseed by candidate count. *)
  let cand_counts = Array.init (max 1 nq) (fun q -> Bitset.cardinal t.node_cands.(q)) in
  let cand_count q = cand_counts.(q) in
  let order =
    match ordering with
    | Input_order -> Array.init nq (fun q -> q)
    | Lemma1 ->
        let order = Array.init nq (fun q -> q) in
        Array.sort
          (fun q1 q2 ->
            let c = compare (cand_count q1) (cand_count q2) in
            if c <> 0 then c
            else compare (Graph.degree p.query q2) (Graph.degree p.query q1))
          order;
        order
    | Connected_lemma1 ->
        let order = Array.make (max 1 nq) 0 in
        let placed = Array.make (max 1 nq) false in
        let links_to_prefix = Array.make (max 1 nq) 0 in
        for pos = 0 to nq - 1 do
          let best = ref (-1) in
          let better q =
            match !best with
            | -1 -> true
            | b ->
                if links_to_prefix.(q) <> links_to_prefix.(b) then
                  links_to_prefix.(q) > links_to_prefix.(b)
                else if cand_count q <> cand_count b then cand_count q < cand_count b
                else Graph.degree p.query q > Graph.degree p.query b
          in
          for q = 0 to nq - 1 do
            if (not placed.(q)) && better q then best := q
          done;
          let q = !best in
          placed.(q) <- true;
          order.(pos) <- q;
          List.iter
            (fun (w, _) ->
              if not placed.(w) then links_to_prefix.(w) <- links_to_prefix.(w) + 1)
            (Problem.query_neighbours p q)
        done;
        if nq = 0 then [||] else order
  in
  { t with ls_order = order }

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let universe t = t.nr

let cell_bits t ~q_assigned ~r_assigned ~q_next =
  let c = cell t q_assigned r_assigned q_next in
  if c == empty_cell then None else Some c

(* Exception variant for the search hot loop: an array read and a
   physical comparison, raising the preallocated [Not_found] on a miss,
   so a hit boxes nothing where [cell_bits] allocates a [Some] per
   lookup — measurable at millions of visited nodes per second. *)
let cell_bits_exn t ~q_assigned ~r_assigned ~q_next =
  let c = cell t q_assigned r_assigned q_next in
  if c == empty_cell then raise Not_found else c

let node_candidates_bits t q = t.node_cands.(q)
let order t = t.ls_order
let cell_count t = t.nonempty_cells
