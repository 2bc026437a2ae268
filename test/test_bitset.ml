module Bitset = Netembed_bitset.Bitset

let check = Alcotest.check

let test_empty () =
  let s = Bitset.create 100 in
  check Alcotest.bool "empty" true (Bitset.is_empty s);
  check Alcotest.int "cardinal" 0 (Bitset.cardinal s);
  check Alcotest.bool "mem" false (Bitset.mem s 5);
  check (Alcotest.option Alcotest.int) "choose" None (Bitset.choose s)

let test_add_remove () =
  let s = Bitset.create 200 in
  Bitset.add s 0;
  Bitset.add s 61;
  Bitset.add s 62;
  Bitset.add s 63;
  Bitset.add s 199;
  check Alcotest.int "cardinal" 5 (Bitset.cardinal s);
  check Alcotest.bool "mem 62 (word boundary)" true (Bitset.mem s 62);
  check Alcotest.bool "mem 199" true (Bitset.mem s 199);
  check Alcotest.bool "not mem 100" false (Bitset.mem s 100);
  Bitset.remove s 62;
  check Alcotest.bool "removed" false (Bitset.mem s 62);
  check Alcotest.int "cardinal after remove" 4 (Bitset.cardinal s);
  (* Idempotent add. *)
  Bitset.add s 0;
  check Alcotest.int "idempotent" 4 (Bitset.cardinal s);
  Alcotest.check_raises "out of universe"
    (Invalid_argument "Bitset: index out of universe") (fun () -> Bitset.add s 200)

let test_full () =
  List.iter
    (fun n ->
      let s = Bitset.full n in
      check Alcotest.int (Printf.sprintf "full %d" n) n (Bitset.cardinal s);
      if n > 0 then begin
        check Alcotest.bool "first" true (Bitset.mem s 0);
        check Alcotest.bool "last" true (Bitset.mem s (n - 1))
      end)
    [ 0; 1; 61; 62; 63; 124; 300 ]

let test_elements_ordered () =
  let s = Bitset.of_list 150 [ 149; 3; 77; 0; 62 ] in
  check Alcotest.(list int) "ascending" [ 0; 3; 62; 77; 149 ] (Bitset.elements s)

(* [word] exposes members 62 at a time: bit j of word w is member
   62w + j. *)
let test_word () =
  let s = Bitset.of_list 130 [ 0; 61; 62; 129 ] in
  check Alcotest.int "bits per word" 62 Bitset.bits_per_word;
  check Alcotest.int "word 0" (1 lor (1 lsl 61)) (Bitset.word s 0);
  check Alcotest.int "word 1" 1 (Bitset.word s 1);
  check Alcotest.int "word 2" (1 lsl 5) (Bitset.word s 2);
  check Alcotest.int "empty word" 0 (Bitset.word (Bitset.create 10) 0)

(* [of_words] reads the words [word] writes: from an offset, with bits
   past the universe dropped. *)
let test_of_words () =
  let s = Bitset.of_list 130 [ 0; 61; 62; 129 ] in
  let src = Array.append [| -1 |] (Array.init 3 (Bitset.word s)) in
  check Alcotest.bool "round trip" true (Bitset.equal s (Bitset.of_words 130 src 1));
  check Alcotest.(list int) "tail bits dropped" [ 0; 1 ]
    (Bitset.elements (Bitset.of_words 2 [| 0b1111 |] 0));
  check Alcotest.bool "empty universe" true (Bitset.is_empty (Bitset.of_words 0 [| 7 |] 0));
  check Alcotest.bool "short source" true
    (match Bitset.of_words 130 src 2 with _ -> false | exception Invalid_argument _ -> true)

let test_nth () =
  let s = Bitset.of_list 150 [ 5; 62; 63; 130 ] in
  check (Alcotest.option Alcotest.int) "0th" (Some 5) (Bitset.nth s 0);
  check (Alcotest.option Alcotest.int) "1st" (Some 62) (Bitset.nth s 1);
  check (Alcotest.option Alcotest.int) "2nd" (Some 63) (Bitset.nth s 2);
  check (Alcotest.option Alcotest.int) "3rd" (Some 130) (Bitset.nth s 3);
  check (Alcotest.option Alcotest.int) "4th" None (Bitset.nth s 4);
  check (Alcotest.option Alcotest.int) "negative" None (Bitset.nth s (-1))

let test_universe_mismatch () =
  let a = Bitset.create 10 and b = Bitset.create 20 in
  let mismatch = Invalid_argument "Bitset: universe mismatch" in
  Alcotest.check_raises "inter_into" mismatch (fun () -> Bitset.inter_into ~dst:a b);
  Alcotest.check_raises "blit" mismatch (fun () -> Bitset.blit ~dst:a b);
  Alcotest.check_raises "inter_cardinal" mismatch (fun () ->
      ignore (Bitset.inter_cardinal a b))

let test_next_set_bit () =
  (* Tail-word masking edge cases: universes straddling the 62-bit word
     size and the conventional 63/64/65 boundaries. *)
  List.iter
    (fun n ->
      let empty = Bitset.create n in
      check Alcotest.int (Printf.sprintf "empty n=%d" n) (-1) (Bitset.next_set_bit empty 0);
      let s = Bitset.full n in
      (* Walking with next_set_bit enumerates exactly [0 .. n-1]. *)
      let count = ref 0 and i = ref 0 in
      let continue = ref true in
      while !continue do
        match Bitset.next_set_bit s !i with
        | -1 -> continue := false
        | j ->
            check Alcotest.int (Printf.sprintf "full n=%d step" n) !count j;
            incr count;
            i := j + 1
      done;
      check Alcotest.int (Printf.sprintf "full n=%d count" n) n !count;
      check Alcotest.int (Printf.sprintf "past end n=%d" n) (-1) (Bitset.next_set_bit s n);
      check Alcotest.int
        (Printf.sprintf "negative start n=%d" n)
        (if n = 0 then -1 else 0)
        (Bitset.next_set_bit s (-5)))
    [ 0; 1; 61; 62; 63; 64; 65; 124; 130 ];
  let s = Bitset.of_list 130 [ 3; 61; 62; 63; 129 ] in
  check Alcotest.int "from 0" 3 (Bitset.next_set_bit s 0);
  check Alcotest.int "from 3" 3 (Bitset.next_set_bit s 3);
  check Alcotest.int "from 4 crosses into word tail" 61 (Bitset.next_set_bit s 4);
  check Alcotest.int "word boundary 62" 62 (Bitset.next_set_bit s 62);
  check Alcotest.int "from 64" 129 (Bitset.next_set_bit s 64);
  check Alcotest.int "last element" 129 (Bitset.next_set_bit s 129);
  check Alcotest.int "exhausted" (-1) (Bitset.next_set_bit s 130)

let test_iter_from () =
  let s = Bitset.of_list 130 [ 0; 5; 61; 62; 100; 129 ] in
  let collect i = List.rev (let acc = ref [] in Bitset.iter_from (fun x -> acc := x :: !acc) s i; !acc) in
  check Alcotest.(list int) "from 0" [ 0; 5; 61; 62; 100; 129 ] (collect 0);
  check Alcotest.(list int) "from 5" [ 5; 61; 62; 100; 129 ] (collect 5);
  check Alcotest.(list int) "from 6" [ 61; 62; 100; 129 ] (collect 6);
  check Alcotest.(list int) "from 62 (word boundary)" [ 62; 100; 129 ] (collect 62);
  check Alcotest.(list int) "from 130" [] (collect 130);
  check Alcotest.(list int) "negative behaves like 0" [ 0; 5; 61; 62; 100; 129 ] (collect (-1));
  (* Empty universes never call f. *)
  Bitset.iter_from (fun _ -> Alcotest.fail "universe 0 visited") (Bitset.create 0) 0

let test_inter_cardinal_and_blit () =
  List.iter
    (fun n ->
      let evens = Bitset.of_list n (List.filter (fun i -> i mod 2 = 0) (List.init n Fun.id)) in
      let all = Bitset.full n in
      check Alcotest.int
        (Printf.sprintf "inter_cardinal full n=%d" n)
        (Bitset.cardinal evens)
        (Bitset.inter_cardinal evens all);
      let dst = Bitset.create n in
      Bitset.blit ~dst all;
      check Alcotest.bool (Printf.sprintf "blit n=%d" n) true (Bitset.equal dst all);
      (* blit must not smear bits past the universe: a subsequent
         complement-style op sees a clean tail word. *)
      check Alcotest.int (Printf.sprintf "blit cardinal n=%d" n) n (Bitset.cardinal dst))
    [ 0; 1; 63; 64; 65 ]

(* [select] edge cases on one column: slots 0-5 are members holding
   NaN, -0.0, +0.0, +inf, -inf and 1.0; slots 6 and 7 are outside the
   mask and hold values every comparison below would keep.  The order
   is Float.compare's: NaN below every float and equal to itself,
   signed zeros equal. *)
let test_select_edge_cases () =
  let col = [| Float.nan; -0.0; 0.0; Float.infinity; Float.neg_infinity; 1.0; Float.nan; 0.0 |] in
  let mask = Bitset.of_list 8 [ 0; 1; 2; 3; 4; 5 ] in
  let nan = Float.nan and inf = Float.infinity and ninf = Float.neg_infinity in
  let table =
    [ "< 0",     Bitset.Lt, 0.0,    [ 0; 4 ]
    ; "<= 0",    Bitset.Le, 0.0,    [ 0; 1; 2; 4 ]
    ; "> 0",     Bitset.Gt, 0.0,    [ 3; 5 ]
    ; ">= 0",    Bitset.Ge, 0.0,    [ 1; 2; 3; 5 ]
    ; "= 0",     Bitset.Eq, 0.0,    [ 1; 2 ]
    ; "< -0",    Bitset.Lt, -0.0,   [ 0; 4 ]
    ; "= -0",    Bitset.Eq, -0.0,   [ 1; 2 ]
    ; "< inf",   Bitset.Lt, inf,    [ 0; 1; 2; 4; 5 ]
    ; "<= inf",  Bitset.Le, inf,    [ 0; 1; 2; 3; 4; 5 ]
    ; "> inf",   Bitset.Gt, inf,    []
    ; "= inf",   Bitset.Eq, inf,    [ 3 ]
    ; "< -inf",  Bitset.Lt, ninf,   [ 0 ]
    ; "<= -inf", Bitset.Le, ninf,   [ 0; 4 ]
    ; "> -inf",  Bitset.Gt, ninf,   [ 1; 2; 3; 5 ]
    ; ">= -inf", Bitset.Ge, ninf,   [ 1; 2; 3; 4; 5 ]
    ; "< nan",   Bitset.Lt, nan,    []
    ; "<= nan",  Bitset.Le, nan,    [ 0 ]
    ; "> nan",   Bitset.Gt, nan,    [ 1; 2; 3; 4; 5 ]
    ; ">= nan",  Bitset.Ge, nan,    [ 0; 1; 2; 3; 4; 5 ]
    ; "= nan",   Bitset.Eq, nan,    [ 0 ]
    ; "= -nan",  Bitset.Eq, -.nan,  [ 0 ]
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun (name, cmp, bound, expected) ->
      check Alcotest.(list int) name expected (Bitset.elements (Bitset.select ~mask col cmp bound)))
    table;
  Alcotest.check_raises "short column"
    (Invalid_argument "Bitset.select: column shorter than universe") (fun () ->
      ignore (Bitset.select ~mask [| 0.0 |] Bitset.Lt 0.0))

(* Model-based property tests: compare against sorted-int-list sets. *)

let gen_set n =
  QCheck.Gen.(
    map
      (fun l -> List.sort_uniq compare (List.filter (fun x -> x >= 0 && x < n) l))
      (small_list (int_range 0 (n - 1))))

let arbitrary_pair n =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "(%s, %s)"
        (String.concat "," (List.map string_of_int a))
        (String.concat "," (List.map string_of_int b)))
    QCheck.Gen.(pair (gen_set n) (gen_set n))

let model_test name op list_op =
  QCheck.Test.make ~name ~count:500 (arbitrary_pair 130) (fun (la, lb) ->
      let a = Bitset.of_list 130 la and b = Bitset.of_list 130 lb in
      let result = op a b in
      Bitset.elements result = list_op la lb)

let list_inter a b = List.filter (fun x -> List.mem x b) a
let list_union a b = List.sort_uniq compare (a @ b)
let list_diff a b = List.filter (fun x -> not (List.mem x b)) a

let prop_inter = model_test "inter matches model" Bitset.inter list_inter
let prop_union = model_test "union matches model" Bitset.union list_union
let prop_diff = model_test "diff matches model" Bitset.diff list_diff

let prop_cardinal =
  QCheck.Test.make ~name:"cardinal = |elements|" ~count:500
    (QCheck.make (gen_set 130))
    (fun l ->
      let s = Bitset.of_list 130 l in
      Bitset.cardinal s = List.length l && Bitset.elements s = l)

let prop_inplace_agree =
  QCheck.Test.make ~name:"in-place ops agree with pure ops" ~count:300
    (arbitrary_pair 130) (fun (la, lb) ->
      let a = Bitset.of_list 130 la and b = Bitset.of_list 130 lb in
      let i = Bitset.copy a in
      Bitset.inter_into ~dst:i b;
      let u = Bitset.copy a in
      Bitset.union_into ~dst:u b;
      let d = Bitset.copy a in
      Bitset.diff_into ~dst:d b;
      Bitset.equal i (Bitset.inter a b)
      && Bitset.equal u (Bitset.union a b)
      && Bitset.equal d (Bitset.diff a b))

let prop_nth_total =
  QCheck.Test.make ~name:"nth enumerates elements" ~count:300
    (QCheck.make (gen_set 130))
    (fun l ->
      let s = Bitset.of_list 130 l in
      List.for_all2
        (fun i x -> Bitset.nth s i = Some x)
        (List.init (List.length l) Fun.id)
        l)

let prop_next_set_bit_walk =
  QCheck.Test.make ~name:"next_set_bit walk = elements" ~count:300
    (QCheck.make (gen_set 130))
    (fun l ->
      let s = Bitset.of_list 130 l in
      let rec walk i acc =
        match Bitset.next_set_bit s i with
        | -1 -> List.rev acc
        | j -> walk (j + 1) (j :: acc)
      in
      walk 0 [] = l)

let prop_inter_cardinal =
  QCheck.Test.make ~name:"inter_cardinal = |inter|" ~count:300 (arbitrary_pair 130)
    (fun (la, lb) ->
      let a = Bitset.of_list 130 la and b = Bitset.of_list 130 lb in
      Bitset.inter_cardinal a b = Bitset.cardinal (Bitset.inter a b))

let prop_iter_from_suffix =
  QCheck.Test.make ~name:"iter_from i = elements >= i" ~count:300
    (QCheck.make QCheck.Gen.(pair (gen_set 130) (int_range 0 131)))
    (fun (l, i) ->
      let s = Bitset.of_list 130 l in
      let acc = ref [] in
      Bitset.iter_from (fun x -> acc := x :: !acc) s i;
      List.rev !acc = List.filter (fun x -> x >= i) l)

(* [select] against the member-by-member Float.compare sweep it
   replaced, for every comparison: universes straddling word
   boundaries, columns mixing NaNs of both signs, signed zeros,
   infinities and near-duplicates of the bound, non-members holding
   arbitrary values. *)
let reference_select ~mask col cmp x =
  let keep s =
    match cmp with
    | Bitset.Lt -> s < 0
    | Bitset.Le -> s <= 0
    | Bitset.Gt -> s > 0
    | Bitset.Ge -> s >= 0
    | Bitset.Eq -> s = 0
  in
  let out = Bitset.create (Bitset.universe_size mask) in
  Bitset.iter (fun i -> if keep (Float.compare col.(i) x) then Bitset.add out i) mask;
  out

let special_floats =
  [ Float.nan; -.Float.nan; -0.0; 0.0; Float.infinity; Float.neg_infinity; 1.0; -1.0;
    2.5; Float.succ 2.5; Float.pred 2.5; Float.max_float; Float.min_float ]

let gen_select_case =
  QCheck.Gen.(
    let value = frequency [ (3, oneofl special_floats); (2, float_range (-3.0) 3.0) ] in
    oneofl [ 0; 1; 61; 62; 63; 124; 125; 3397 ] >>= fun n ->
    array_size (return n) value >>= fun col ->
    array_size (return n) (frequency [ (3, return true); (1, return false) ]) >>= fun members ->
    value >|= fun bound -> (col, members, bound))

let print_select_case (col, members, bound) =
  Printf.sprintf "n=%d bound=%h members=%d col=[%s]" (Array.length col) bound
    (Array.fold_left (fun acc m -> if m then acc + 1 else acc) 0 members)
    (String.concat ";" (List.map (Printf.sprintf "%h") (Array.to_list col)))

let prop_select_reference =
  QCheck.Test.make ~name:"select = Float.compare sweep" ~count:300
    (QCheck.make ~print:print_select_case gen_select_case)
    (fun (col, members, bound) ->
      let n = Array.length col in
      let mask = Bitset.create n in
      Array.iteri (fun i m -> if m then Bitset.add mask i) members;
      List.for_all
        (fun cmp ->
          Bitset.equal (Bitset.select ~mask col cmp bound) (reference_select ~mask col cmp bound))
        [ Bitset.Lt; Bitset.Le; Bitset.Gt; Bitset.Ge; Bitset.Eq ])

let () =
  Alcotest.run "bitset"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add/remove" `Quick test_add_remove;
          Alcotest.test_case "full" `Quick test_full;
          Alcotest.test_case "elements ordered" `Quick test_elements_ordered;
          Alcotest.test_case "nth" `Quick test_nth;
          Alcotest.test_case "word" `Quick test_word;
          Alcotest.test_case "of_words" `Quick test_of_words;
          Alcotest.test_case "universe mismatch" `Quick test_universe_mismatch;
          Alcotest.test_case "next_set_bit" `Quick test_next_set_bit;
          Alcotest.test_case "iter_from" `Quick test_iter_from;
          Alcotest.test_case "inter_cardinal / blit" `Quick test_inter_cardinal_and_blit;
          Alcotest.test_case "select edge cases" `Quick test_select_edge_cases;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_inter; prop_union; prop_diff; prop_cardinal; prop_inplace_agree;
            prop_nth_total; prop_next_set_bit_walk; prop_inter_cardinal;
            prop_iter_from_suffix; prop_select_reference;
          ] );
    ]
