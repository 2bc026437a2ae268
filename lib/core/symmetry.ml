open Netembed_graph
module Attrs = Netembed_attr.Attrs

type t = { n : int; elements : int array list }

exception Too_many

(* An automorphism must preserve node attributes exactly and carry each
   edge onto an edge with equal attributes.  For undirected graphs the
   image edge may be stored in either orientation; for directed graphs
   the direction must be preserved. *)
let edge_compatible g u' v' attrs =
  List.exists (fun e -> Attrs.equal attrs (Graph.edge_attrs g e)) (Graph.edges_between g u' v')

let automorphisms ?(limit = 10_000) g =
  let n = Graph.node_count g in
  let sigma = Array.make (max 1 n) (-1) in
  let used = Array.make (max 1 n) false in
  let found = ref [] in
  let count = ref 0 in
  (* Order nodes by (attrs, degree) buckets implicitly via candidate
     checks; plain 0..n-1 order is fine at these sizes. *)
  let degree = Array.init n (Graph.degree g) in
  let in_degree = Array.init n (Graph.in_degree g) in
  let node_compatible q r =
    degree.(q) = degree.(r)
    && in_degree.(q) = in_degree.(r)
    && Attrs.equal (Graph.node_attrs g q) (Graph.node_attrs g r)
  in
  let consistent q r =
    (* Check edges between q and already-mapped nodes. *)
    List.for_all
      (fun (w, e) ->
        sigma.(w) < 0
        ||
        let src, _ = Graph.endpoints g e in
        let u', v' = if src = q then (r, sigma.(w)) else (sigma.(w), r) in
        edge_compatible g u' v' (Graph.edge_attrs g e))
      (Graph.succ g q)
    && List.for_all
         (fun (w, e) ->
           sigma.(w) < 0
           ||
           let src, _ = Graph.endpoints g e in
           let u', v' = if src = q then (r, sigma.(w)) else (sigma.(w), r) in
           edge_compatible g u' v' (Graph.edge_attrs g e))
         (Graph.pred g q)
  in
  let rec go q =
    if q = n then begin
      incr count;
      if !count > limit then raise Too_many;
      found := Array.copy sigma :: !found
    end
    else
      for r = 0 to n - 1 do
        if (not used.(r)) && node_compatible q r && consistent q r then begin
          sigma.(q) <- r;
          used.(r) <- true;
          go (q + 1);
          used.(r) <- false;
          sigma.(q) <- -1
        end
      done
  in
  match go 0 with
  | () -> Some { n; elements = List.rev !found }
  | exception Too_many -> None

let size t = List.length t.elements

let compose m sigma =
  (* (m ∘ σ)(q) = m(σ(q)) *)
  Array.init (Array.length sigma) (fun q -> Mapping.apply m sigma.(q))

let canonical t m =
  if t.n = 0 then m
  else begin
    let best = ref (Mapping.to_array m) in
    List.iter
      (fun sigma ->
        let candidate = compose m sigma in
        if candidate < !best then best := candidate)
      t.elements;
    Mapping.of_array !best
  end

let dedupe t mappings =
  let seen = Hashtbl.create (List.length mappings) in
  List.filter_map
    (fun m ->
      let c = canonical t m in
      let key = Mapping.to_array c in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.replace seen key ();
        Some c
      end)
    mappings

let orbit_count t mappings = List.length (dedupe t mappings)
