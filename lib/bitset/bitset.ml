type t = { n : int; words : int array }

let bits_per_word = 62 (* OCaml native ints carry 63 bits incl. sign; use 62 so
                          a full word is exactly [max_int] *)

let word_count n = (n + bits_per_word - 1) / bits_per_word

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { n; words = Array.make (max 1 (word_count n)) 0 }

let universe_size t = t.n

(* Mask for the last, possibly partial word so that full/complement style
   operations never set bits beyond the universe. *)
let last_word_mask n =
  let rem = n mod bits_per_word in
  if rem = 0 then max_int else (1 lsl rem) - 1

let full n =
  let t = create n in
  let wc = word_count n in
  for i = 0 to wc - 1 do
    t.words.(i) <- max_int
  done;
  if n > 0 then t.words.(wc - 1) <- last_word_mask n;
  t

let copy t = { n = t.n; words = Array.copy t.words }

let blit ~dst src =
  if dst.n <> src.n then invalid_arg "Bitset: universe mismatch";
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let check_index t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: index out of universe"

let add t i =
  check_index t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let remove t i =
  check_index t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  if i < 0 || i >= t.n then false
  else
    let w = i / bits_per_word and b = i mod bits_per_word in
    t.words.(w) land (1 lsl b) <> 0

let word t w = t.words.(w)

let of_words n src pos =
  let wc = max 1 (word_count n) in
  if n < 0 || pos < 0 || pos > Array.length src - wc then invalid_arg "Bitset.of_words";
  let words = Array.sub src pos wc in
  words.(wc - 1) <- (if n = 0 then 0 else words.(wc - 1) land last_word_mask n);
  { n; words }

(* Branch-free SWAR popcount: constant ~12 ops per word, where the
   classic clear-lowest-bit loop costs one iteration per set bit — the
   difference matters because [diff_into_card] popcounts every word of
   the candidate domain on every visited search node, and domains near
   the root are dense.  Masks are the usual 64-bit constants truncated
   to the 62 payload bits of a word (the top mask bits would exceed
   OCaml's 63-bit [max_int]). *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

(* [is_empty] runs once per neighbour cell on every search visit, so
   its loop, like [equal]'s, is a top-level function: no closure per
   call. *)
let rec zero_from words i =
  i >= Array.length words || (words.(i) = 0 && zero_from words (i + 1))

let is_empty t = zero_from t.words 0

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let rec same_from a b i =
  i >= Array.length a || (a.(i) = b.(i) && same_from a b (i + 1))

let equal a b = a.n = b.n && same_from a.words b.words 0

let check_same a b = if a.n <> b.n then invalid_arg "Bitset: universe mismatch"

let inter_into ~dst src =
  check_same dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land src.words.(i)
  done

let union_into ~dst src =
  check_same dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let diff_into ~dst src =
  check_same dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land lnot src.words.(i)
  done

(* Fused diff + popcount: the search core observes the candidate-domain
   size on every visited node, and a separate [cardinal] pass would walk
   the words a second time on the hottest path in the tree. *)
let diff_into_card ~dst src =
  check_same dst src;
  let dw = dst.words and sw = src.words in
  let acc = ref 0 in
  for i = 0 to Array.length dw - 1 do
    let w = Array.unsafe_get dw i land lnot (Array.unsafe_get sw i) in
    Array.unsafe_set dw i w;
    acc := !acc + popcount w
  done;
  !acc

let inter_cardinal a b =
  check_same a b;
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount (a.words.(i) land b.words.(i))
  done;
  !acc

let inter a b =
  let r = copy a in
  inter_into ~dst:r b;
  r

let union a b =
  let r = copy a in
  union_into ~dst:r b;
  r

let diff a b =
  let r = copy a in
  diff_into ~dst:r b;
  r

type cmp = Lt | Le | Gt | Ge | Eq

(* The [len] slots of [col] from [base], one result bit per slot, in
   one branch-free loop per comparison.  For a non-NaN bound [x],
   [Float.compare v x] agrees with IEEE order except at a NaN [v],
   which it sorts below every float: so [Lt]/[Le] are written
   [not (v >= x)]/[not (v > x)], true at NaN, and the other three are
   the IEEE tests, false at NaN.  Signed zeros compare equal either
   way. *)
let word_of_slots (col : float array) base len cmp (x : float) =
  let acc = ref 0 in
  (match cmp with
  | Lt ->
      for b = 0 to len - 1 do
        acc := !acc lor (Bool.to_int (not (Array.unsafe_get col (base + b) >= x)) lsl b)
      done
  | Le ->
      for b = 0 to len - 1 do
        acc := !acc lor (Bool.to_int (not (Array.unsafe_get col (base + b) > x)) lsl b)
      done
  | Gt ->
      for b = 0 to len - 1 do
        acc := !acc lor (Bool.to_int (Array.unsafe_get col (base + b) > x) lsl b)
      done
  | Ge ->
      for b = 0 to len - 1 do
        acc := !acc lor (Bool.to_int (Array.unsafe_get col (base + b) >= x) lsl b)
      done
  | Eq ->
      for b = 0 to len - 1 do
        acc := !acc lor (Bool.to_int (Array.unsafe_get col (base + b) = x) lsl b)
      done);
  !acc

let select ~mask (col : float array) cmp x =
  let n = mask.n in
  if Array.length col < n then invalid_arg "Bitset.select: column shorter than universe";
  let out = create n in
  if Float.is_nan x then begin
    (* Rare: every non-NaN value sorts above a NaN bound, so keep
       Float.compare's sign member by member. *)
    let keep s =
      match cmp with Lt -> s < 0 | Le -> s <= 0 | Gt -> s > 0 | Ge -> s >= 0 | Eq -> s = 0
    in
    for i = 0 to n - 1 do
      if mem mask i && keep (Float.compare col.(i) x) then add out i
    done
  end
  else
    for w = 0 to word_count n - 1 do
      let m = mask.words.(w) in
      if m <> 0 then begin
        let base = w * bits_per_word in
        let len = min bits_per_word (n - base) in
        out.words.(w) <- word_of_slots col base len cmp x land m
      end
    done;
  out

(* Index of the least significant set bit of a one-bit word: binary
   search over halving masks — six branches, not a 62-step shift loop.
   This sits under every candidate enumerated by the search core. *)
let bit_index lsb =
  let n = ref 0 in
  let x = ref lsb in
  if !x land 0xFFFFFFFF = 0 then begin
    n := !n + 32;
    x := !x lsr 32
  end;
  if !x land 0xFFFF = 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then incr n;
  !n

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = ref t.words.(w) in
    while !word <> 0 do
      let lsb = !word land - !word in
      f ((w * bits_per_word) + bit_index lsb);
      word := !word land lnot lsb
    done
  done

let next_set_bit t i =
  if i >= t.n then -1
  else begin
    let i = max 0 i in
    let start_w = i / bits_per_word in
    let first = t.words.(start_w) land lnot ((1 lsl (i mod bits_per_word)) - 1) in
    if first <> 0 then (start_w * bits_per_word) + bit_index (first land -first)
    else begin
      let result = ref (-1) in
      (try
         for w = start_w + 1 to Array.length t.words - 1 do
           let word = t.words.(w) in
           if word <> 0 then begin
             result := (w * bits_per_word) + bit_index (word land -word);
             raise Exit
           end
         done
       with Exit -> ());
      !result
    end
  end

let iter_from f t i =
  if i < t.n then begin
    let i = max 0 i in
    let start_w = i / bits_per_word in
    for w = start_w to Array.length t.words - 1 do
      let word =
        ref
          (if w = start_w then
             t.words.(w) land lnot ((1 lsl (i mod bits_per_word)) - 1)
           else t.words.(w))
      in
      while !word <> 0 do
        let lsb = !word land - !word in
        f ((w * bits_per_word) + bit_index lsb);
        word := !word land lnot lsb
      done
    done
  end

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let to_array t =
  let a = Array.make (cardinal t) 0 in
  let k = ref 0 in
  iter
    (fun i ->
      a.(!k) <- i;
      incr k)
    t;
  a

let of_list n l =
  let t = create n in
  List.iter (fun i -> add t i) l;
  t

exception Found of int

let choose t =
  try
    iter (fun i -> raise (Found i)) t;
    None
  with Found i -> Some i

let nth t k =
  if k < 0 then None
  else
    (* Skip whole words by popcount, then scan within the word. *)
    let remaining = ref k in
    let result = ref None in
    (try
       for w = 0 to Array.length t.words - 1 do
         let c = popcount t.words.(w) in
         if !remaining < c then begin
           let word = ref t.words.(w) in
           for _ = 1 to !remaining do
             word := !word land (!word - 1)
           done;
           let lsb = !word land - !word in
           let rec bit_index x acc = if x = 1 then acc else bit_index (x lsr 1) (acc + 1) in
           result := Some ((w * bits_per_word) + bit_index lsb 0);
           raise Exit
         end
         else remaining := !remaining - c
       done
     with Exit -> ());
    !result
