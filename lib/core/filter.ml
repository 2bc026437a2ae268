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

(* Cells accumulate directly into bitsets over the host universe, in
   one row per query-edge direction.  With parallel query edges between
   the same pair, every edge must be satisfiable, so their rows are
   intersected cell by cell. *)

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
  (* Per-query-node acceptability over all host nodes, precomputed once:
     the per-host-edge loop below would otherwise re-decide the node
     constraint for the same (q, r) pair once per incident host edge.
     A node plan has no [rEdge] restriction, so [~he] is never read. *)
  let node_ok_bits =
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
        let bits = Bitset.create nr in
        for r = 0 to nr - 1 do
          if ok r then Bitset.add bits r
        done;
        bits)
  in
  (* Most cells hold one partner (tight delay bands on sparse hosts), so
     one-partner cells share a single bitset per partner, made on first
     use; a cell gaining a second partner gets its own copy.  Sharing
     while recording, rather than in a pass after the merge, keeps the
     build from allocating one short-lived set per cell. *)
  let singletons = Array.make nr empty_cell in
  let singleton v =
    if singletons.(v) == empty_cell then singletons.(v) <- Bitset.of_list nr [ v ];
    singletons.(v)
  in
  (* Per query edge: evaluate the specialized residual against every host
     edge the plan admits (both host orientations when undirected),
     filling, for both lookup directions, a row indexed by r_assigned:
     the candidate bitset of its partner. *)
  let add_edge_cells qe a b =
    let residual = Problem.residual p qe ~q_src:a ~q_dst:b in
    let plan =
      if not prefilter then None
      else
        let bounds = Bounds.of_ast residual in
        if bounds.Bounds.atoms = [] && not bounds.Bounds.complete then None
        else Some (plan_of bounds)
    in
    let fwd = Array.make nr empty_cell and bwd = Array.make nr empty_cell in
    let record row r partner =
      let cell = row.(r) in
      if cell == empty_cell then row.(r) <- singleton partner
      else if not (Bitset.mem cell partner) then
        if cell == singletons.(Bitset.next_set_bit cell 0) then begin
          (* shared: copy on write *)
          let cell = Bitset.copy cell in
          Bitset.add cell partner;
          row.(r) <- cell
        end
        else Bitset.add cell partner
    in
    (* All real evaluations flow through [Problem.edge_pair_ok] and its
       shared telemetry counter; pairs the pre-filter decides never
       reach the evaluator, which is exactly the saving the bench
       ablation measures. *)
    let test he u v =
      match plan with
      | None -> Problem.edge_pair_ok p ~qe ~q_src:a ~q_dst:b ~he ~r_src:u ~r_dst:v
      | Some plan ->
          if not (Prefilter.admits_pair plan ~he ~r_src:u ~r_dst:v) then false
          else if Prefilter.decides_pair plan ~he ~r_src:u ~r_dst:v then true
          else Problem.edge_pair_ok p ~qe ~q_src:a ~q_dst:b ~he ~r_src:u ~r_dst:v
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
    let visit he u v =
      let fwd_nodes_ok =
        Bitset.mem node_ok_bits.(a) u && Bitset.mem node_ok_bits.(b) v
      in
      let bwd_nodes_ok =
        undirected && Bitset.mem node_ok_bits.(a) v && Bitset.mem node_ok_bits.(b) u
      in
      if orientation_sensitive then begin
        (* Orientation a->u, b->v. *)
        if fwd_nodes_ok && test he u v then begin
          record fwd u v;
          record bwd v u
        end;
        (* Orientation a->v, b->u (undirected hosts only). *)
        if bwd_nodes_ok && test he v u then begin
          record fwd v u;
          record bwd u v
        end
      end
      else if (fwd_nodes_ok || bwd_nodes_ok) && test he u v then begin
        if fwd_nodes_ok then begin
          record fwd u v;
          record bwd v u
        end;
        if bwd_nodes_ok then begin
          record fwd v u;
          record bwd u v
        end
      end
    in
    (* A host edge outside the plan's admissible set fails [test], so
       only admissible edges are walked; an infeasible plan admits
       none. *)
    (match plan with
    | Some { Prefilter.infeasible = true; _ } -> ()
    | Some { Prefilter.edge = Some { Prefilter.admissible; _ }; _ } ->
        Bitset.iter
          (fun he -> visit he (Graph.edge_source p.host he) (Graph.edge_target p.host he))
          admissible
    | Some _ | None -> Graph.iter_edges visit p.host);
    (fwd, bwd)
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
  (* Node-level candidates: intersection over incident edges of the
     sources with a non-empty cell, within node_ok. *)
  let node_cands =
    Array.init (max 1 nq) (fun q ->
        if q >= nq then Bitset.create nr
        else
          let sources (w, _) =
            let out = Bitset.create nr in
            Array.iteri (fun r c -> if c != empty_cell then Bitset.add out r) rows.((q * nq) + w);
            out
          in
          match List.map sources (Problem.query_neighbours p q) with
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
     expression-(1) candidate set to the filter stage that removed it.
     Precedence mirrors the build: the degree filter fires before the
     node constraint, which fires before edge-compatibility.  The node
     constraint's verdict is read back from [node_ok_bits] (degree and
     node constraint together), so blame evaluates nothing. *)
  (match blame with
  | None -> ()
  | Some bl ->
      for q = 0 to nq - 1 do
        let incident = Problem.query_neighbours p q in
        for r = 0 to nr - 1 do
          if not (Bitset.mem t.node_cands.(q) r) then
            if not (Problem.degree_ok p ~q ~r) then
              Explain.Blame.eliminate bl ~q Explain.Cause.Degree_filter
            else if not (Bitset.mem node_ok_bits.(q) r) then
              Explain.Blame.eliminate bl ~q Explain.Cause.Node_constraint
            else (
              match List.find_opt (fun (w, _) -> cell t q r w == empty_cell) incident with
              | Some (w, _) ->
                  Explain.Blame.eliminate bl ~q (Explain.Cause.Edge_constraint (q, w))
              | None -> ())
        done
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
