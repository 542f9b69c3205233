module Aig = Mm_map.Aig
module Cut = Mm_map.Cut
module Blocklib = Mm_map.Blocklib
module Mapper = Mm_map.Mapper
module Stitch = Mm_map.Stitch
module Engine = Mm_engine.Engine
module Cache = Mm_engine.Cache
module Arith = Mm_boolfun.Arith
module Spec = Mm_boolfun.Spec
module Tt = Mm_boolfun.Truth_table
module Expr = Mm_boolfun.Expr
module C = Mm_core.Circuit

let tmp_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mm_map_test_%d_%d.cache" (Unix.getpid ()) !counter)

let aig_specs =
  [ Arith.adder_bits 2; Arith.parity 5; Arith.majority 5; Arith.mux41;
    Arith.comparator3 2; Arith.multiplier 2 ]

(* the AIG front end is a pure re-representation: output tables must be
   bit-identical to the source spec for every construction path *)
let test_aig_of_spec () =
  List.iter
    (fun spec ->
      let aig = Aig.of_spec spec in
      let tables = Aig.output_tables aig in
      Array.iteri
        (fun o t ->
          Alcotest.(check bool)
            (Printf.sprintf "%s out %d" (Spec.name spec) o)
            true
            (Tt.equal t (Spec.output spec o)))
        tables)
    aig_specs

(* Identity pins: the fanins and outputs of [Aig.of_spec], both
   constructions, recorded before the hashed-merge QMC replaced the
   pairwise one. *)
let test_aig_identity () =
  let digest ~balance spec =
    let g = Aig.of_spec ~balance spec in
    let b = Buffer.create 4096 in
    Printf.bprintf b "%d/%d:" (Aig.n_inputs g) (Aig.n_ands g);
    for v = Aig.n_inputs g + 1 to Aig.n_nodes g - 1 do
      let x, y = Aig.fanins g v in
      Printf.bprintf b "%d,%d;" x y
    done;
    Array.iter (Printf.bprintf b "o%d") (Aig.outputs g);
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  List.iter
    (fun (spec, plain, balanced) ->
      Alcotest.(check string) (Spec.name spec) plain (digest ~balance:false spec);
      Alcotest.(check string)
        (Spec.name spec ^ " balanced")
        balanced (digest ~balance:true spec))
    [ (Arith.adder_bits 2, "869da0196b2c412c7819d1d2602a0939",
       "6a160ff0687d93b0a03dec5c9b4a4b47");
      (Arith.adder_bits 3, "0787064eaa7637754414d74fde47a443",
       "3ce98feead9df2198ce5bd6030830b0f");
      (Arith.adder_bits 4, "33a6eb3547c0cabe789c76ac836c624e",
       "10d3e2886fee3e5be08fa04f386548c5");
      (Arith.majority 5, "d0ffc51f83d084a39294aa1d6748c25f",
       "d0ffc51f83d084a39294aa1d6748c25f");
      (Arith.majority 6, "dcb7f6c9ab7a6c5c9b0d32cecfe5f426",
       "dcb7f6c9ab7a6c5c9b0d32cecfe5f426");
      (Arith.majority 7, "ec3b5f41a047617cba6c7396e9bbbf45",
       "ec3b5f41a047617cba6c7396e9bbbf45") ]

let test_aig_of_exprs () =
  let e = Expr.parse_exn "(x1 ^ x2) & ~(x3 | x4)" in
  let aig = Aig.of_exprs ~n:4 [ e ] in
  Alcotest.(check bool) "expr table" true
    (Tt.equal (Aig.output_tables aig).(0) (Expr.table ~n:4 e))

let test_aig_strash () =
  (* structurally identical sub-terms must share one node *)
  let b = Aig.create ~n_inputs:3 () in
  let x1 = Aig.input b 1 and x2 = Aig.input b 2 in
  let a1 = Aig.mk_and b x1 x2 in
  let a2 = Aig.mk_and b x2 x1 in
  Alcotest.(check int) "commuted AND shared" a1 a2;
  Alcotest.(check int) "const prop x&~x"
    Aig.lit_false
    (Aig.mk_and b x1 (Aig.lit_neg x1))

(* every cut truth table must agree with the node's global function on all
   rows, and every AND node keeps at least one usable (non-self) cut *)
let test_cut_tables () =
  List.iter
    (fun spec ->
      let aig = Aig.of_spec spec in
      let cuts = Cut.enumerate aig ~k:4 ~limit:8 in
      (match Cut.check aig cuts with
       | None -> ()
       | Some (v, c) ->
         Alcotest.failf "%s: cut of node %d over %d leaves is wrong"
           (Spec.name spec) v
           (Array.length c.Cut.leaves));
      for v = Aig.n_inputs aig + 1 to Aig.n_nodes aig - 1 do
        let usable =
          List.exists
            (fun (c : Cut.t) ->
              not (Array.length c.Cut.leaves = 1 && c.Cut.leaves.(0) = v))
            cuts.(v)
        in
        if not usable then
          Alcotest.failf "%s: node %d has only its self-cut" (Spec.name spec)
            v
      done)
    [ Arith.majority 5; Arith.adder_bits 2; Arith.parity 6 ]

(* tight per-call budget: probes that time out degrade to verified
   QMC→NOR fallback blocks, so correctness is budget-independent. One
   memory-only cache shared by all compile tests dedupes probes of the
   same NPN class across specs. *)
let shared_cache = lazy (Cache.create ())

let compile_cfg ?cache () =
  let cache =
    match cache with Some c -> c | None -> Lazy.force shared_cache
  in
  Engine.config ~timeout_per_call:0.05 ~max_rops:5 ~domains:1 ~cache ()

(* end-to-end: compile and the internal row-by-row re-verification must
   pass (Stitch.lower raises otherwise); assert it again here explicitly *)
let test_compile_end_to_end () =
  List.iter
    (fun spec ->
      let r = Stitch.compile (compile_cfg ()) spec in
      Alcotest.(check bool)
        (Spec.name spec ^ " verifies")
        true
        (C.realizes r.Stitch.stitched.Stitch.circuit spec = Ok ());
      Alcotest.(check bool)
        (Spec.name spec ^ " has blocks")
        true
        (r.Stitch.stitched.Stitch.placed <> []))
    [ Arith.parity 5; Arith.adder_bits 2; Arith.mux41; Arith.majority 5 ]

let test_compile_wide_arity () =
  (* far beyond the SAT cap (arity 9): only the mapper can answer this *)
  let spec = Arith.adder_bits 4 in
  let r = Stitch.compile (compile_cfg ()) spec in
  Alcotest.(check bool) "adder4 verifies" true
    (C.realizes r.Stitch.stitched.Stitch.circuit spec = Ok ())

let test_compile_trivial_outputs () =
  (* outputs that are wires/constants exercise the no-block paths *)
  let x1 = Expr.parse_exn "x1" in
  let nx2 = Expr.parse_exn "~x2" in
  let const1 = Expr.parse_exn "x1 | ~x1" in
  let spec =
    Expr.spec ~name:"wires" ~n:2 [ x1; nx2; const1 ]
  in
  let r = Stitch.compile (compile_cfg ()) spec in
  Alcotest.(check bool) "wires verify" true
    (C.realizes r.Stitch.stitched.Stitch.circuit spec = Ok ())

let test_compile_shares_cache () =
  (* a second compile against the same persistent cache must answer its
     library probes from cache (no stale, hits > 0) *)
  let path = tmp_path () in
  let spec = Arith.majority 5 in
  let run () =
    let cache = Cache.create ~path () in
    let r = Stitch.compile (compile_cfg ~cache ()) spec in
    Cache.flush cache;
    (r, Cache.counters cache)
  in
  let r1, c1 = run () in
  let r2, c2 = run () in
  Sys.remove path;
  Alcotest.(check bool) "first run populated" true (c1.Cache.entries > 0);
  Alcotest.(check bool) "second run hits" true (c2.Cache.hits > 0);
  Alcotest.(check int) "same lookups"
    r1.Stitch.lib_lookups r2.Stitch.lib_lookups;
  Alcotest.(check bool) "both verify" true
    (C.realizes r2.Stitch.stitched.Stitch.circuit spec = Ok ())

let test_mapper_blocks_topological () =
  let spec = Arith.adder_bits 3 in
  let r = Stitch.compile (compile_cfg ()) spec in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (p : Stitch.placed) ->
      Array.iter
        (fun l ->
          if l > r.Stitch.aig_inputs then
            Alcotest.(check bool)
              (Printf.sprintf "leaf %d of block %d already placed" l
                 p.Stitch.root)
              true (Hashtbl.mem seen l))
        p.Stitch.leaves;
      Hashtbl.replace seen p.Stitch.root ())
    r.Stitch.stitched.Stitch.placed

let () =
  Alcotest.run "map"
    [
      ( "aig",
        [
          Alcotest.test_case "of_spec tables" `Quick test_aig_of_spec;
          Alcotest.test_case "of_exprs tables" `Quick test_aig_of_exprs;
          Alcotest.test_case "strash + const prop" `Quick test_aig_strash;
          Alcotest.test_case "of_spec identity pin" `Quick test_aig_identity;
        ] );
      ( "cut",
        [ Alcotest.test_case "cut tables vs oracle" `Slow test_cut_tables ] );
      ( "compile",
        [
          Alcotest.test_case "end to end" `Slow test_compile_end_to_end;
          Alcotest.test_case "wide arity" `Slow test_compile_wide_arity;
          Alcotest.test_case "trivial outputs" `Quick
            test_compile_trivial_outputs;
          Alcotest.test_case "cache shared across compiles" `Slow
            test_compile_shares_cache;
          Alcotest.test_case "cover topological" `Slow
            test_mapper_blocks_topological;
        ] );
    ]
