open Netembed_graph
module Ast = Netembed_expr.Ast
module Bounds = Netembed_expr.Bounds
module Bitset = Netembed_bitset.Bitset
module Explain = Netembed_explain.Explain

type t = {
  cells : (int, Bitset.t) Hashtbl.t;
      (** key: (q_assigned * nq + q_next) * nr + r_assigned; values are
          non-empty candidate sets over the host universe *)
  cell_views : (int, int array) Hashtbl.t;
      (** lazily materialized sorted-array views of [cells] for the
          legacy array path (differential tests, bench ablation) *)
  nq : int;
  nr : int;
  node_cands : Bitset.t array;
  node_cand_views : int array array;
  ls_order : int array;
  mutable nonempty_cells : int;
}

let cell_key t a b r = (((a * t.nq) + b) * t.nr) + r

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Cells accumulate directly into bitsets over the host universe.  With
   parallel query edges between the same pair, every edge must be
   satisfiable, so per-edge sets are intersected. *)

type ordering = Connected_lemma1 | Lemma1 | Input_order

let build ?(ordering = Connected_lemma1) ?(prefilter = true) ?blame (p : Problem.t) =
  let nq = Graph.node_count p.query and nr = Graph.node_count p.host in
  let t =
    {
      cells = Hashtbl.create 1024;
      cell_views = Hashtbl.create 64;
      nq;
      nr;
      node_cands = Array.make (max 1 nq) (Bitset.create nr);
      node_cand_views = Array.make (max 1 nq) [||];
      ls_order = [||];
      nonempty_cells = 0;
    }
  in
  let undirected = Graph.kind p.host = Graph.Undirected in
  (* Column stores for the bounds pre-filter, shared by every residual
     of this build; columns materialize on first touch. *)
  let edge_store =
    lazy
      (Prefilter.create ~size:(Graph.edge_count p.host) ~attrs:(Graph.edge_attrs p.host))
  in
  let node_store =
    lazy
      (Prefilter.create ~size:(Graph.node_count p.host) ~attrs:(Graph.node_attrs p.host))
  in
  let plan_of bounds =
    Prefilter.plan ~edges:(Lazy.force edge_store) ~nodes:(Lazy.force node_store) bounds
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
  (* Per query edge: evaluate the specialized residual against every host
     edge the plan admits (both host orientations when undirected),
     collecting, for both lookup directions, one row per r_assigned: the
     candidate bitset of its partner. *)
  let add_edge_cells qe a b =
    let residual = Problem.residual p qe ~q_src:a ~q_dst:b in
    let plan =
      if not prefilter then None
      else
        let bounds = Bounds.of_ast residual in
        if bounds.Bounds.atoms = [] && not bounds.Bounds.complete then None
        else Some (plan_of bounds)
    in
    let fwd : Bitset.t option array = Array.make nr None in
    let bwd : Bitset.t option array = Array.make nr None in
    let record rows r partner =
      let row =
        match rows.(r) with
        | Some row -> row
        | None ->
            let row = Bitset.create nr in
            rows.(r) <- Some row;
            row
      in
      Bitset.add row partner
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
  (* Group query edges by unordered endpoint pair to intersect parallel
     edges. *)
  let pending : (int, Bitset.t) Hashtbl.t = Hashtbl.create 1024 in
  let touched_pairs = Hashtbl.create 64 in
  Graph.iter_edges
    (fun qe a b ->
      let fwd, bwd = add_edge_cells qe a b in
      let apply dir_a dir_b rows =
        Array.iteri
          (fun r row ->
            match row with
            | None -> ()
            | Some partners -> (
                let key = cell_key t dir_a dir_b r in
                match Hashtbl.find_opt pending key with
                | None -> Hashtbl.replace pending key partners
                | Some prior -> Bitset.inter_into ~dst:prior partners))
          rows
      in
      (* If this pair was seen before (parallel edge), cells not re-hit by
         this edge must drop to empty: handled by intersecting only hit
         cells and clearing the rest afterwards. *)
      (match Hashtbl.find_opt touched_pairs (min a b, max a b) with
      | None -> Hashtbl.replace touched_pairs (min a b, max a b) 1
      | Some k ->
          Hashtbl.replace touched_pairs (min a b, max a b) (k + 1));
      apply a b fwd;
      apply b a bwd)
    p.query;
  (* For parallel edges, a cell hit by only some of the edges is not
     jointly satisfiable; detecting that requires counting hits, which
     the merge above does not track.  Generators produce simple graphs;
     for safety, verify parallel pairs the slow way. *)
  Hashtbl.iter
    (fun (a, b) hits ->
      if hits > 1 then begin
        let edges_ab = Problem.query_edges_between p a b in
        (* dir_a maps to [r], dir_b maps to [partner]; every parallel
           query edge needs some satisfying host edge between them. *)
        let jointly_ok dir_a r partner =
          List.for_all
            (fun (qe, forward) ->
              let q_src, q_dst = if forward then (a, b) else (b, a) in
              let image q = if q = dir_a then r else partner in
              let r_src = image q_src and r_dst = image q_dst in
              List.exists
                (fun he -> Problem.edge_pair_ok p ~qe ~q_src ~q_dst ~he ~r_src ~r_dst)
                (Graph.edges_between p.host r_src r_dst))
            edges_ab
        in
        let recheck dir_a dir_b =
          for r = 0 to t.nr - 1 do
            match Hashtbl.find_opt pending (cell_key t dir_a dir_b r) with
            | None -> ()
            | Some partners ->
                let drop =
                  Bitset.fold
                    (fun partner acc ->
                      if jointly_ok dir_a r partner then acc else partner :: acc)
                    partners []
                in
                List.iter (Bitset.remove partners) drop
          done
        in
        recheck a b;
        recheck b a
      end)
    touched_pairs;
  Hashtbl.iter
    (fun key v -> if not (Bitset.is_empty v) then Hashtbl.replace t.cells key v)
    pending;
  t.nonempty_cells <- Hashtbl.length t.cells;
  (* Node-level candidates: intersection over incident edges of the
     sources present in F, within node_ok. *)
  for q = 0 to nq - 1 do
    let incident = Problem.query_neighbours p q in
    let sets =
      List.map
        (fun (w, _) ->
          (* sources r for which cell (q, w, r) is non-empty *)
          let out = Bitset.create nr in
          for r = 0 to t.nr - 1 do
            if Hashtbl.mem t.cells (cell_key t q w r) then Bitset.add out r
          done;
          out)
        incident
    in
    t.node_cands.(q) <-
      (match sets with
      | [] -> Bitset.copy node_ok_bits.(q)
      | first :: rest ->
          List.iter (fun s -> Bitset.inter_into ~dst:first s) rest;
          first);
    t.node_cand_views.(q) <- Bitset.to_array t.node_cands.(q)
  done;
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
              match
                List.find_opt
                  (fun (w, _) -> not (Hashtbl.mem t.cells (cell_key t q w r)))
                  incident
              with
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
  Hashtbl.find_opt t.cells (cell_key t q_assigned q_next r_assigned)

(* Exception variant for the search hot loop: [Hashtbl.find] raises the
   preallocated [Not_found], so a hit boxes nothing, where [find_opt]
   allocates a [Some] per lookup — measurable at millions of visited
   nodes per second. *)
let cell_bits_exn t ~q_assigned ~r_assigned ~q_next =
  Hashtbl.find t.cells (cell_key t q_assigned q_next r_assigned)

let candidates_from t ~q_assigned ~r_assigned ~q_next =
  let key = cell_key t q_assigned q_next r_assigned in
  match Hashtbl.find_opt t.cell_views key with
  | Some a -> a
  | None -> (
      match Hashtbl.find_opt t.cells key with
      | None -> [||]
      | Some bits ->
          let a = Bitset.to_array bits in
          Hashtbl.replace t.cell_views key a;
          a)

let node_candidates_bits t q = t.node_cands.(q)
let node_candidates t q = t.node_cand_views.(q)
let order t = t.ls_order
let cell_count t = t.nonempty_cells
