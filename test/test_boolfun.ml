module Tt = Mm_boolfun.Truth_table
module Literal = Mm_boolfun.Literal
module Spec = Mm_boolfun.Spec
module Expr = Mm_boolfun.Expr
module Gf = Mm_boolfun.Gf
module Arith = Mm_boolfun.Arith
module Qmc = Mm_boolfun.Qmc

let qtest = QCheck_alcotest.to_alcotest

(* --- truth tables --- *)

let test_row_convention () =
  (* the paper's convention: x1 is the MSB of the row index, so for n=4
     x4 prints as 0101... and x1 as 0000000011111111 (Table II). *)
  Alcotest.(check string) "x4" "0101010101010101" (Tt.to_string (Tt.var 4 4));
  Alcotest.(check string) "x2" "0000111100001111" (Tt.to_string (Tt.var 4 2));
  Alcotest.(check string) "x1" "0000000011111111" (Tt.to_string (Tt.var 4 1));
  Alcotest.(check string) "~x3" "1100110011001100" (Tt.to_string (Tt.nvar 4 3))

let test_input_bit () =
  (* row 0b0010 for n=4 has x3 = 1 and others 0 (paper's worked example) *)
  Alcotest.(check bool) "x1" false (Tt.input_bit 4 0b0010 1);
  Alcotest.(check bool) "x2" false (Tt.input_bit 4 0b0010 2);
  Alcotest.(check bool) "x3" true (Tt.input_bit 4 0b0010 3);
  Alcotest.(check bool) "x4" false (Tt.input_bit 4 0b0010 4)

let test_ops () =
  let a = Tt.var 2 1 and b = Tt.var 2 2 in
  Alcotest.(check string) "and" "0001" Tt.(to_string (a &&& b));
  Alcotest.(check string) "or" "0111" Tt.(to_string (a ||| b));
  Alcotest.(check string) "xor" "0110" Tt.(to_string (a ^^^ b));
  Alcotest.(check string) "nor" "1000" (Tt.to_string (Tt.nor a b));
  Alcotest.(check string) "nand" "1110" (Tt.to_string (Tt.nand a b));
  Alcotest.(check string) "imply" "1101" (Tt.to_string (Tt.imply a b));
  Alcotest.(check string) "nimp" "0010" (Tt.to_string (Tt.nimp a b))

let test_cofactor () =
  let f = Tt.(var 3 1 &&& var 3 2 ||| var 3 3) in
  let f1 = Tt.cofactor f 1 true in
  let f0 = Tt.cofactor f 1 false in
  Alcotest.(check bool) "pos cofactor" true
    (Tt.equal f1 Tt.(var 3 2 ||| var 3 3));
  Alcotest.(check bool) "neg cofactor" true (Tt.equal f0 (Tt.var 3 3));
  Alcotest.(check bool) "depends x1" true (Tt.depends_on f 1);
  Alcotest.(check bool) "independent" false (Tt.depends_on (Tt.var 3 3) 1)

let test_int_roundtrip () =
  for v = 0 to 255 do
    Alcotest.(check int) "roundtrip" v (Tt.to_int (Tt.of_int 3 v))
  done

(* --- literals --- *)

let test_literal_indexing () =
  List.iter
    (fun n ->
      let all = Literal.all n in
      Alcotest.(check int) "count" (Literal.count n) (List.length all);
      List.iteri
        (fun j l ->
          Alcotest.(check int) "to_index" j (Literal.to_index n l);
          Alcotest.(check bool) "of_index" true
            (Literal.equal l (Literal.of_index n j)))
        all)
    [ 1; 2; 3; 4; 7 ]

let test_literal_order () =
  (* L_4 = (const-0, const-1, ~x1, x1, ..., ~x4, x4): 0-based index 8 = ~x4 *)
  Alcotest.(check string) "idx 0" "const-0"
    (Literal.to_string (Literal.of_index 4 0));
  Alcotest.(check string) "idx 8" "~x4" (Literal.to_string (Literal.of_index 4 8));
  Alcotest.(check string) "idx 9" "x4" (Literal.to_string (Literal.of_index 4 9))

let test_literal_eval () =
  Alcotest.(check bool) "const1" true (Literal.eval 3 Literal.Const1 5);
  Alcotest.(check bool) "x3 at 0b001" true (Literal.eval 3 (Literal.Pos 3) 0b001);
  Alcotest.(check bool) "~x1 at 0b100" false (Literal.eval 3 (Literal.Neg 1) 0b100);
  Alcotest.check_raises "bad var" (Invalid_argument "Literal: variable out of range")
    (fun () -> ignore (Literal.table 2 (Literal.Pos 3)))

let prop_literal_negate =
  QCheck.Test.make ~name:"negate complements the table"
    (QCheck.make QCheck.Gen.(pair (int_range 1 4) (int_range 0 9)))
    (fun (n, j) ->
      QCheck.assume (j < Literal.count n);
      let l = Literal.of_index n j in
      Tt.equal (Literal.table n (Literal.negate l)) (Tt.lnot (Literal.table n l)))

(* --- expressions --- *)

let test_expr_parse () =
  let t s = Tt.to_string (Expr.table ~n:2 (Expr.parse_exn s)) in
  Alcotest.(check string) "and" "0001" (t "x1 & x2");
  Alcotest.(check string) "or" "0111" (t "x1 | x2");
  Alcotest.(check string) "xor" "0110" (t "x1 ^ x2");
  Alcotest.(check string) "not" "1100" (t "~x1");
  Alcotest.(check string) "paper notation" "0111" (t "x1 + x2");
  Alcotest.(check string) "star" "0001" (t "x1 * x2");
  (* precedence: & binds tighter than ^ binds tighter than | *)
  Alcotest.(check string) "precedence" "11110001"
    (Tt.to_string (Expr.table ~n:3 (Expr.parse_exn "~x1 | x2 & x3")));
  Alcotest.(check string) "parens" "0100"
    (Tt.to_string (Expr.table ~n:2 (Expr.parse_exn "~(x1 | ~x2) | (x1 & ~x1)")))

let test_expr_errors () =
  let fails s =
    match Expr.parse s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "dangling" true (fails "x1 &");
  Alcotest.(check bool) "unclosed" true (fails "(x1 | x2");
  Alcotest.(check bool) "bad var" true (fails "x0 | x1");
  Alcotest.(check bool) "bad char" true (fails "x1 ? x2");
  Alcotest.(check bool) "trailing" true (fails "x1 x2")

let gen_expr =
  let open QCheck.Gen in
  sized (fun size ->
      fix
        (fun self size ->
          if size <= 1 then
            oneof [ map (fun v -> Expr.Var v) (int_range 1 3); return (Expr.Const true) ]
          else
            oneof
              [
                map (fun e -> Expr.Not e) (self (size - 1));
                map2 (fun a b -> Expr.And (a, b)) (self (size / 2)) (self (size / 2));
                map2 (fun a b -> Expr.Or (a, b)) (self (size / 2)) (self (size / 2));
                map2 (fun a b -> Expr.Xor (a, b)) (self (size / 2)) (self (size / 2));
              ])
        (min size 20))

let prop_expr_print_parse =
  QCheck.Test.make ~name:"to_string/parse roundtrip (semantics)"
    (QCheck.make ~print:Expr.to_string gen_expr)
    (fun e ->
      let e' = Expr.parse_exn (Expr.to_string e) in
      Tt.equal (Expr.table ~n:3 e) (Expr.table ~n:3 e'))

(* --- specs --- *)

let test_spec () =
  let s = Arith.full_adder in
  Alcotest.(check int) "arity" 3 (Spec.arity s);
  Alcotest.(check int) "outputs" 2 (Spec.output_count s);
  (* row (a,b,cin) = (1,1,0) = 0b110: sum=0 carry=1 -> output word 0b10 *)
  Alcotest.(check int) "1+1+0" 0b10 (Spec.eval s 0b110);
  (* (1,1,1): sum=1 carry=1 *)
  Alcotest.(check int) "1+1+1" 0b11 (Spec.eval s 0b111)

(* --- GF arithmetic --- *)

let test_gf_mul_table () =
  (* GF(4) multiplication with x^2 + x + 1 *)
  let expect =
    [ (2, 2, 3); (2, 3, 1); (3, 3, 2); (1, 2, 2); (3, 1, 3); (0, 2, 0) ]
  in
  List.iter
    (fun (a, b, p) ->
      Alcotest.(check int) (Printf.sprintf "%d*%d" a b) p (Gf.mul 2 a b))
    expect

let test_gf_inverse () =
  List.iter
    (fun k ->
      for a = 1 to (1 lsl k) - 1 do
        Alcotest.(check int)
          (Printf.sprintf "GF(2^%d): %d * inv" k a)
          1
          (Gf.mul k a (Gf.inv k a))
      done;
      Alcotest.(check int) "inv 0 = 0" 0 (Gf.inv k 0))
    Gf.supported

let test_gf_mul_spec () =
  let s = Gf.mul_spec 2 in
  Alcotest.(check int) "arity" 4 (Spec.arity s);
  Alcotest.(check int) "outputs" 2 (Spec.output_count s);
  (* row x1x2x3x4 = 1011: a = 10b = 2, b = 11b = 3, product = 1 = 01b:
     out1 (MSB, bit 0 of word) = 0, out2 (LSB, bit 1 of word) = 1 *)
  Alcotest.(check int) "2*3" 0b10 (Spec.eval s 0b1011);
  (* exhaustive against Gf.mul *)
  for row = 0 to 15 do
    let a = row lsr 2 and b = row land 3 in
    let p = Gf.mul 2 a b in
    let word = Spec.eval s row in
    let msb = word land 1 and lsb = (word lsr 1) land 1 in
    Alcotest.(check int) "product" p ((msb lsl 1) lor lsb)
  done

let test_gf_add () =
  Alcotest.(check int) "xor add" 0b110 (Gf.add 3 0b101 0b011);
  Alcotest.check_raises "range" (Invalid_argument "Gf: element out of range")
    (fun () -> ignore (Gf.add 2 4 0))

(* --- arithmetic specs --- *)

let test_adders () =
  List.iter
    (fun bits ->
      let s = Arith.adder_bits bits in
      let n = Spec.arity s in
      for row = 0 to (1 lsl n) - 1 do
        let a = row lsr (bits + 1) in
        let b = (row lsr 1) land ((1 lsl bits) - 1) in
        let cin = row land 1 in
        let total = a + b + cin in
        let word = Spec.eval s row in
        (* outputs: sum MSB..LSB then carry *)
        let sum = ref 0 in
        for o = 0 to bits - 1 do
          sum := (!sum lsl 1) lor ((word lsr o) land 1)
        done;
        let carry = (word lsr bits) land 1 in
        Alcotest.(check int)
          (Printf.sprintf "adder%d row %d" bits row)
          total
          ((carry lsl bits) + !sum)
      done)
    [ 1; 2; 3 ]

let test_parity_majority () =
  let p = Arith.parity 4 in
  Alcotest.(check int) "parity 0b1011" 1 (Spec.eval p 0b1011);
  Alcotest.(check int) "parity 0b1001" 0 (Spec.eval p 0b1001);
  let m = Arith.majority 3 in
  Alcotest.(check int) "maj 110" 1 (Spec.eval m 0b110);
  Alcotest.(check int) "maj 100" 0 (Spec.eval m 0b100)

let test_mux_cmp_mul () =
  Alcotest.(check int) "mux sel=1" 1 (Spec.eval Arith.mux21 0b110);
  Alcotest.(check int) "mux sel=0" 1 (Spec.eval Arith.mux21 0b001);
  let c = Arith.comparator 2 in
  (* a = 01, b = 10 -> a < b *)
  Alcotest.(check int) "lt" 0b01 (Spec.eval c 0b0110);
  Alcotest.(check int) "eq" 0b10 (Spec.eval c 0b1111);
  let m = Arith.multiplier 2 in
  (* exhaustive: outputs are product bits MSB first *)
  for row = 0 to 15 do
    let a = row lsr 2 and b = row land 3 in
    let word = Spec.eval m row in
    let product = ref 0 in
    for o = 0 to 3 do
      product := (!product lsl 1) lor ((word lsr o) land 1)
    done;
    Alcotest.(check int) (Printf.sprintf "%d*%d" a b) (a * b) !product
  done

(* mux41 and comparator3 against naive evaluators, exhaustively *)
let test_mux41 () =
  let s = Arith.mux41 in
  Alcotest.(check int) "arity" 6 (Spec.arity s);
  for row = 0 to 63 do
    (* x1 = MSB: row = s1 s0 d0 d1 d2 d3 *)
    let bit i = (row lsr (6 - i)) land 1 in
    let sel = (2 * bit 1) + bit 2 in
    let expect = bit (3 + sel) in
    Alcotest.(check int) (Printf.sprintf "mux41 row %d" row) expect
      (Spec.eval s row)
  done

let test_comparator3 () =
  List.iter
    (fun width ->
      let s = Arith.comparator3 width in
      let n = 2 * width in
      Alcotest.(check int) "outputs" 3 (Spec.output_count s);
      for row = 0 to (1 lsl n) - 1 do
        let a = row lsr width and b = row land ((1 lsl width) - 1) in
        let expect =
          (if a < b then 1 else 0)
          lor (if a = b then 2 else 0)
          lor if a > b then 4 else 0
        in
        Alcotest.(check int)
          (Printf.sprintf "cmp3_%d row %d" width row)
          expect (Spec.eval s row)
      done;
      (* exactly one of lt/eq/gt holds on every row *)
      for row = 0 to (1 lsl n) - 1 do
        let w = Spec.eval s row in
        let pop = (w land 1) + ((w lsr 1) land 1) + ((w lsr 2) land 1) in
        Alcotest.(check int) "one-hot" 1 pop
      done)
    [ 1; 2; 3 ]

let test_table2_spec () =
  let s = Arith.table2_spec in
  (* row 15 = all ones: AND=1 NAND=0 OR=1 NOR=0 -> word 0b0101 *)
  Alcotest.(check int) "all ones" 0b0101 (Spec.eval s 15);
  Alcotest.(check int) "all zeros" 0b1010 (Spec.eval s 0);
  Alcotest.(check int) "mixed" 0b0110 (Spec.eval s 0b0100)

(* --- Quine-McCluskey --- *)

let prop_qmc_exact =
  QCheck.Test.make ~name:"QMC cover is exact" ~count:300
    (QCheck.make
       ~print:(fun (n, v) -> Printf.sprintf "n=%d v=%d" n v)
       QCheck.Gen.(
         let* n = int_range 1 4 in
         let* v = int_range 0 ((1 lsl (1 lsl n)) - 1) in
         return (n, v)))
    (fun (n, v) ->
      let tt = Tt.of_int n v in
      let cubes = Qmc.minimize tt in
      Tt.equal tt (Qmc.sop_table n cubes))

let test_qmc_corner_cases () =
  Alcotest.(check int) "const0 empty" 0
    (List.length (Qmc.minimize (Tt.const 3 false)));
  (match Qmc.minimize (Tt.const 3 true) with
   | [ c ] -> Alcotest.(check int) "tautology cube size" 0 (Qmc.cube_size c)
   | l -> Alcotest.failf "expected 1 cube, got %d" (List.length l));
  (* xor needs 2^(n-1) cubes of full size *)
  let xor3 = Tt.(var 3 1 ^^^ var 3 2 ^^^ var 3 3) in
  let cubes = Qmc.minimize xor3 in
  Alcotest.(check int) "xor3 cubes" 4 (List.length cubes);
  List.iter
    (fun c -> Alcotest.(check int) "xor3 cube size" 3 (Qmc.cube_size c))
    cubes;
  (* single variable minimizes to one 1-literal cube *)
  match Qmc.minimize (Tt.var 4 2) with
  | [ c ] ->
    Alcotest.(check int) "var cube" 1 (Qmc.cube_size c);
    Alcotest.(check string) "literals" "x2"
      (String.concat "," (List.map Literal.to_string (Qmc.cube_literals 4 c)))
  | l -> Alcotest.failf "expected 1 cube, got %d" (List.length l)

let test_qmc_covers () =
  let c = { Qmc.care = 0b1010; value = 0b1000 } in
  Alcotest.(check bool) "covers" true (Qmc.covers c 0b1100);
  Alcotest.(check bool) "not covers" false (Qmc.covers c 0b1110)

(* Brute-force prime check: every cube of the cover is an implicant of
   [tt], dropping any one of its literals breaks that, and the cover is
   exact. *)
let check_prime_cover name tt =
  let n = Tt.arity tt in
  let implicant c =
    List.for_all
      (fun q -> (not (Qmc.covers c q)) || Tt.eval tt q)
      (List.init (Tt.rows tt) Fun.id)
  in
  let cubes = Qmc.minimize tt in
  List.iter
    (fun c ->
      if not (implicant c) then
        Alcotest.failf "%s: %s is not an implicant" name
          (Format.asprintf "%a" (Qmc.pp_cube n) c);
      for i = 0 to n - 1 do
        let b = 1 lsl i in
        if c.Qmc.care land b <> 0 then begin
          let wider = { Qmc.care = c.Qmc.care land lnot b; value = c.Qmc.value land lnot b } in
          if implicant wider then
            Alcotest.failf "%s: %s is not prime" name
              (Format.asprintf "%a" (Qmc.pp_cube n) c)
        end
      done)
    cubes;
  if not (Tt.equal tt (Qmc.sop_table n cubes)) then
    Alcotest.failf "%s: cover is not exact" name

let test_qmc_primes () =
  for v = 0 to 255 do
    check_prime_cover (Printf.sprintf "n=3 v=%d" v) (Tt.of_int 3 v)
  done;
  let st = Random.State.make [| 14 |] in
  for n = 4 to 7 do
    for k = 1 to 40 do
      (* vary the ON-set density so sparse and dense functions both occur *)
      let density = Random.State.float st 1.0 in
      let tt = Tt.of_fun n (fun _ -> Random.State.float st 1.0 < density) in
      check_prime_cover (Printf.sprintf "n=%d #%d" n k) tt
    done
  done

(* Identity pin: the covers of all 65,536 4-input functions, recorded
   before the hashed-merge implementation replaced the pairwise one. *)
let test_qmc_identity () =
  let b = Buffer.create (1 lsl 20) in
  for v = 0 to 65535 do
    List.iter
      (fun { Qmc.care; value } -> Printf.bprintf b "%x/%x," care value)
      (Qmc.minimize (Tt.of_int 4 v));
    Buffer.add_char b ';'
  done;
  Alcotest.(check string) "digest of all 4-input covers"
    "4df2b2288723f314c488751b90f13b1b"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let () =
  Alcotest.run "boolfun"
    [
      ( "truth_table",
        [
          Alcotest.test_case "row convention" `Quick test_row_convention;
          Alcotest.test_case "input_bit" `Quick test_input_bit;
          Alcotest.test_case "operators" `Quick test_ops;
          Alcotest.test_case "cofactor" `Quick test_cofactor;
          Alcotest.test_case "int roundtrip" `Quick test_int_roundtrip;
        ] );
      ( "literal",
        [
          Alcotest.test_case "indexing" `Quick test_literal_indexing;
          Alcotest.test_case "paper order" `Quick test_literal_order;
          Alcotest.test_case "eval" `Quick test_literal_eval;
          qtest prop_literal_negate;
        ] );
      ( "expr",
        [
          Alcotest.test_case "parse" `Quick test_expr_parse;
          Alcotest.test_case "errors" `Quick test_expr_errors;
          qtest prop_expr_print_parse;
        ] );
      ("spec", [ Alcotest.test_case "full adder" `Quick test_spec ]);
      ( "gf",
        [
          Alcotest.test_case "mul table" `Quick test_gf_mul_table;
          Alcotest.test_case "inverse" `Quick test_gf_inverse;
          Alcotest.test_case "mul spec" `Quick test_gf_mul_spec;
          Alcotest.test_case "add" `Quick test_gf_add;
        ] );
      ( "arith",
        [
          Alcotest.test_case "adders vs ints" `Quick test_adders;
          Alcotest.test_case "parity/majority" `Quick test_parity_majority;
          Alcotest.test_case "mux/cmp/mul" `Quick test_mux_cmp_mul;
          Alcotest.test_case "mux41" `Quick test_mux41;
          Alcotest.test_case "comparator3" `Quick test_comparator3;
          Alcotest.test_case "table2 spec" `Quick test_table2_spec;
        ] );
      ( "qmc",
        [
          qtest prop_qmc_exact;
          Alcotest.test_case "corner cases" `Quick test_qmc_corner_cases;
          Alcotest.test_case "covers" `Quick test_qmc_covers;
          Alcotest.test_case "prime oracle" `Quick test_qmc_primes;
          Alcotest.test_case "identity pin" `Quick test_qmc_identity;
        ] );
    ]
