open Netembed_graph

let hops_from g src =
  let n = Graph.node_count g in
  let dist = Array.make n max_int in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.push src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun (w, _) ->
        if dist.(w) = max_int then begin
          dist.(w) <- dist.(v) + 1;
          Queue.push w q
        end)
      (Graph.succ g v)
  done;
  dist

(* Binary min-heap keyed by float priority, on (priority, node) pairs. *)
module Heap = struct
  type t = { mutable data : (float * int) array; mutable len : int }

  let create () = { data = Array.make 16 (0.0, -1); len = 0 }
  let is_empty h = h.len = 0

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let push h prio v =
    if h.len = Array.length h.data then begin
      let data = Array.make (2 * h.len) (0.0, -1) in
      Array.blit h.data 0 data 0 h.len;
      h.data <- data
    end;
    h.data.(h.len) <- (prio, v);
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let pop h =
    let top = h.data.(0) in
    h.len <- h.len - 1;
    h.data.(0) <- h.data.(h.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.len && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
      if r < h.len && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        swap h !i !smallest;
        i := !smallest
      end
      else continue := false
    done;
    top
end

let dijkstra g ~weight src =
  let n = Graph.node_count g in
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let heap = Heap.create () in
  dist.(src) <- 0.0;
  Heap.push heap 0.0 src;
  while not (Heap.is_empty heap) do
    let d, v = Heap.pop heap in
    if d <= dist.(v) then
      List.iter
        (fun (w, e) ->
          let we = weight e in
          if we < 0.0 then invalid_arg "Paths.dijkstra: negative weight";
          let nd = d +. we in
          if nd < dist.(w) then begin
            dist.(w) <- nd;
            parent.(w) <- v;
            Heap.push heap nd w
          end)
        (Graph.succ g v)
  done;
  (dist, parent)

let shortest_path g ~weight src dst =
  let dist, parent = dijkstra g ~weight src in
  if Float.is_finite dist.(dst) then begin
    let rec walk v acc = if v = src then src :: acc else walk parent.(v) (v :: acc) in
    Some (dist.(dst), walk dst [])
  end
  else None

let eccentricity g v =
  let dist = hops_from g v in
  Array.fold_left (fun acc d -> if d <> max_int && d > acc then d else acc) 0 dist

let diameter_approx g ~rng ~samples =
  let n = Graph.node_count g in
  if n < 2 then 0
  else begin
    let best = ref 0 in
    for _ = 1 to samples do
      let start = Netembed_rng.Rng.int rng n in
      let dist = hops_from g start in
      (* Double sweep: re-run from the farthest reachable node. *)
      let far = ref start and far_d = ref 0 in
      Array.iteri
        (fun v d ->
          if d <> max_int && d > !far_d then begin
            far := v;
            far_d := d
          end)
        dist;
      let ecc = eccentricity g !far in
      if ecc > !best then best := ecc
    done;
    !best
  end
