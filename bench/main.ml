(* Experiment harness: one sub-command per table/figure of the paper, plus
   ablations and a Bechamel micro-benchmark suite. Running with no argument
   executes every reproduction in sequence. See DESIGN.md for the index. *)

module Tt = Mm_boolfun.Truth_table
module Literal = Mm_boolfun.Literal
module Spec = Mm_boolfun.Spec
module Arith = Mm_boolfun.Arith
module Gf = Mm_boolfun.Gf
module C = Mm_core.Circuit
module E = Mm_core.Encode
module Synth = Mm_core.Synth
module U = Mm_core.Universality
module Vop = Mm_core.Vop
module Baseline = Mm_core.Baseline
module Metrics = Mm_core.Metrics
module Reference = Mm_core.Reference
module Schedule = Mm_core.Schedule
module Reliability = Mm_core.Reliability
module Table = Mm_report.Table
module Json = Mm_report.Json
module Variation = Mm_device.Variation
module Xbar = Mm_core.Xbar_schedule
module Heuristic = Mm_core.Heuristic

(* a float in the BENCH files, to [digits] decimals (wall times: 0.1 ms) *)
let json_s ?(digits = 4) x =
  let scale = 10. ** float_of_int digits in
  Json.Float (Float.round (x *. scale) /. scale)

(* The short revision of the work tree the bench runs in, or "none". *)
let git_rev () =
  let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
  let rev = String.trim (In_channel.input_all ic) in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 when rev <> "" -> rev
  | _ -> "none"

(* Every BENCH file is written here, as pretty-printed JSON under one
   header: the file's schema, the revision and core count of the run, the
   per-call solver budget, and the state of the caches the measurements
   start from ("none", "cold", "warm" or "cold+warm"). *)
let write_bench ?(version = 1) name ~budget ~cache fields =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let header =
    [ ("schema", Json.String (Printf.sprintf "mmsynth-bench-%s-v%d" name version));
      ("git_rev", Json.String (git_rev ()));
      ("host_cores", Json.Int (Domain.recommended_domain_count ()));
      ("budget_per_call_s", Json.Float budget);
      ("cache", Json.String cache) ]
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Json.to_string_pretty (Json.Obj (header @ fields)));
      output_char oc '\n');
  Printf.printf "written to %s\n%!" file

(* A path in the temp directory that no other process uses. *)
let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "mm_bench_%d_%s" (Unix.getpid ()) name)

(* The [p]-quantile of an ascending array (0 when it is empty). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* [f ()] and its wall time in seconds *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let start_daemon cfg =
  match Mm_serve.Server.start cfg with
  | Ok t -> t
  | Error msg -> failwith ("bench daemon: " ^ msg)

let section title = Printf.printf "\n=== %s ===\n\n%!" title

let human n =
  if n >= 1_000_000 then Printf.sprintf "%.1fM" (float_of_int n /. 1e6)
  else if n >= 10_000 then Printf.sprintf "%.1fK" (float_of_int n /. 1e3)
  else string_of_int n

let verdict_string = function
  | Synth.Sat _ -> "SAT"
  | Synth.Unsat -> "UNSAT"
  | Synth.Timeout -> "timeout"

(* ------------------------------------------------------------------ *)
(* Table I: V-op behaviour of a single device, logical and electrical  *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table I: voltage-input behaviour V-op(s, TE, BE)";
  let t = Table.create [ "s"; "TE"; "BE"; "next s (model)"; "next s (simulator)" ] in
  let params = Mm_device.Device.default_params in
  List.iter
    (fun (s, te, be, next) ->
      let d = Mm_device.Device.create ~rng:(Mm_device.Rng.create 1) params in
      Mm_device.Device.set_state d s;
      let pulse b = if b then params.Mm_device.Device.v_write else 0.0 in
      ignore (Mm_device.Device.apply d ~v_te:(pulse te) ~v_be:(pulse be));
      let electrical = Mm_device.Device.state d in
      let b x = if x then "1" else "0" in
      Table.add_row t [ b s; b te; b be; b next; b electrical ];
      assert (electrical = next))
    Vop.table1;
  Table.print t;
  Printf.printf "\nAll 8 rows agree between the logical model and the electrical simulator.\n"

(* ------------------------------------------------------------------ *)
(* Table II: AND4/NAND4/OR4/NOR4 with V-ops only on a shared-BE array   *)
(* ------------------------------------------------------------------ *)

let print_vleg_table ?names c =
  let names =
    match names with
    | Some n -> n
    | None ->
      (* label each leg by the outputs that tap it *)
      let output_names = [| "AND4"; "NAND4"; "OR4"; "NOR4" |] in
      Array.init (C.n_legs c) (fun l ->
          let tapped =
            List.filteri (fun _ _ -> true)
              (List.concat
                 (List.mapi
                    (fun o src ->
                      match src with
                      | C.From_leg l' when l' = l -> [ output_names.(o) ]
                      | C.From_vop (l', _) when l' = l -> [ output_names.(o) ]
                      | C.From_leg _ | C.From_vop _ | C.From_rop _
                      | C.From_literal _ -> [])
                    (Array.to_list c.C.outputs)))
          in
          match tapped with
          | [] -> Printf.sprintf "leg %d" (l + 1)
          | l -> String.concat "/" l)
  in
  let t =
    Table.create
      ([ "step" ]
      @ Array.to_list (Array.map (fun n -> "TE " ^ n) names)
      @ [ "shared BE" ])
  in
  for s = 0 to C.steps_per_leg c - 1 do
    Table.add_row t
      ([ string_of_int (s + 1) ]
      @ List.init (C.n_legs c) (fun l -> Literal.to_string c.C.legs.(l).(s).C.te)
      @ [ Literal.to_string c.C.legs.(0).(s).C.be ])
  done;
  Table.print t;
  print_newline ();
  let st = Table.create ([ "state" ] @ Array.to_list names) in
  for s = 0 to C.steps_per_leg c - 1 do
    Table.add_row st
      ([ Printf.sprintf "s%d" (s + 1) ]
      @ List.init (C.n_legs c) (fun l -> Tt.to_string (C.leg_value c ~leg:l ~step:s)))
  done;
  Table.print st

let table2 ~budget () =
  section "Table II: 4-input AND/NAND/OR/NOR by V-ops only (shared BE)";
  Printf.printf "Reference schedule transcribed from the paper:\n\n";
  let ref_c = Reference.table2_circuit () in
  print_vleg_table ~names:[| "AND4"; "NAND4"; "OR4"; "NOR4" |] ref_c;
  (match C.realizes ref_c Arith.table2_spec with
   | Ok () -> Printf.printf "\nReference schedule verified on all 16 rows.\n"
   | Error row -> Printf.printf "\nREFERENCE WRONG on row %d!\n" row);
  Printf.printf
    "\nRe-synthesizing the same 4-output function from scratch (N_R=0, 4 legs, 5 steps):\n%!";
  let cfg = E.config ~n_legs:4 ~steps_per_leg:5 ~n_rops:0 () in
  let a = Synth.solve_instance ~timeout:budget cfg Arith.table2_spec in
  Printf.printf "  %s in %.1fs (%d vars, %d clauses)\n" (verdict_string a.Synth.verdict)
    a.Synth.time_s a.Synth.vars a.Synth.clauses;
  match a.Synth.verdict with
  | Synth.Sat c ->
    print_newline ();
    print_vleg_table c;
    let plan = Schedule.plan c in
    let failures = Schedule.verify plan Arith.table2_spec in
    Printf.printf "\nSynthesized schedule on the electrical simulator: %d failing rows.\n"
      (List.length failures)
  | Synth.Unsat | Synth.Timeout -> ()

(* ------------------------------------------------------------------ *)
(* Table III: universality counts                                      *)
(* ------------------------------------------------------------------ *)

let table3 ~full () =
  section "Table III: numbers of realizable 3- and 4-input functions";
  if not full then
    Printf.printf
      "(the n=4 cell of row (0,0,2) takes ~40s and is skipped; pass --full to include it)\n\n";
  let t =
    Table.create
      [ "k_pre"; "k_post"; "k_TEBE"; "N3"; "N3 paper"; "N4"; "N4 paper"; "match" ]
  in
  List.iter
    (fun ((k_pre, k_post, k_tebe) as row) ->
      let e3, e4 = U.paper_expected row in
      let n3 = U.count ~n:3 ~k_pre ~k_post ~k_tebe in
      let skip_n4 = (not full) && row = (0, 0, 2) in
      let n4 = if skip_n4 then -1 else U.count ~n:4 ~k_pre ~k_post ~k_tebe in
      Table.add_row t
        [
          string_of_int k_pre;
          string_of_int k_post;
          string_of_int k_tebe;
          string_of_int n3;
          string_of_int e3;
          (if skip_n4 then "(skipped)" else string_of_int n4);
          string_of_int e4;
          (if n3 = e3 && (skip_n4 || n4 = e4) then "yes" else "NO");
        ])
    U.paper_rows;
  Table.print t;
  Printf.printf "\nTotal functions: 256 (n=3), 65536 (n=4).\n"

(* ------------------------------------------------------------------ *)
(* Table IV: optimal synthesis, MM vs R-only                           *)
(* ------------------------------------------------------------------ *)

let attempt_row ~(paper : Paper_data.row) (a : Synth.attempt) =
  let measured_dev, measured_steps =
    match a.Synth.verdict with
    | Synth.Sat c -> (string_of_int (C.n_devices c), string_of_int (C.n_steps c))
    | Synth.Unsat | Synth.Timeout -> ("-", "-")
  in
  [
    paper.Paper_data.circuit;
    (match paper.Paper_data.mode with Paper_data.Mm -> "MM" | Paper_data.R_only -> "R-only");
    verdict_string a.Synth.verdict;
    string_of_int a.Synth.n_rops;
    string_of_int a.Synth.n_legs;
    string_of_int a.Synth.steps_per_leg;
    measured_steps;
    string_of_int paper.Paper_data.n_steps;
    measured_dev;
    string_of_int paper.Paper_data.n_dev;
    human a.Synth.vars;
    paper.Paper_data.vars;
    human a.Synth.clauses;
    paper.Paper_data.clauses;
    Printf.sprintf "%.1f" a.Synth.time_s;
    paper.Paper_data.time_s;
  ]

let table4 ~budget () =
  section "Table IV: optimal synthesis results (MM and R-only), paper vs measured";
  Printf.printf
    "Paper dimensions are re-solved with this repository's own CDCL solver\n\
     (the paper used SLIME 5 on a 16-core Ryzen 9; base budget here: %gs per call;\n\
     rows exceeding their budget report 'timeout', akin to the paper's '<=' rows).\n\
     Taps follow the paper's Eq. 7 (Any_vop).\n\n%!"
    budget;
  let t =
    Table.create
      [
        "circuit"; "mode"; "verdict"; "N_R"; "N_L"; "N_VS";
        "N_St"; "paper"; "N_Dev"; "paper";
        "vars"; "paper"; "clauses"; "paper"; "T[s]"; "paper";
      ]
  in
  let solve_paper_row (row : Paper_data.row) =
    let spec = Paper_data.spec_of_circuit row.Paper_data.circuit in
    (* generous budgets only where a from-scratch single-core solver has a
       realistic shot; the rest still reports exact formula sizes *)
    let row_budget =
      match (row.Paper_data.circuit, row.Paper_data.mode) with
      | "1-bit adder", _ -> budget
      | "GF(2^2) multiplier", Paper_data.Mm -> 3.0 *. budget
      | "GF(2^2) multiplier", Paper_data.R_only -> budget
      | _ -> budget /. 4.
    in
    let cfg =
      match row.Paper_data.mode with
      | Paper_data.Mm ->
        E.config ~taps:E.Any_vop ~n_legs:row.Paper_data.n_legs
          ~steps_per_leg:row.Paper_data.n_vs ~n_rops:row.Paper_data.n_rops ()
      | Paper_data.R_only ->
        E.config ~n_legs:0 ~steps_per_leg:0 ~n_rops:row.Paper_data.n_rops ()
    in
    Printf.printf "  solving %-20s %-7s (budget %4.0fs)...\n%!"
      row.Paper_data.circuit
      (match row.Paper_data.mode with Paper_data.Mm -> "MM" | _ -> "R-only")
      row_budget;
    let a = Synth.solve_instance ~timeout:row_budget cfg spec in
    Table.add_row t (attempt_row ~paper:row a);
    match a.Synth.verdict with
    | Synth.Sat c ->
      let plan = Schedule.plan c in
      let failures = Schedule.verify plan spec in
      if failures <> [] then
        Printf.printf "!! %s: %d simulator failures\n" row.Paper_data.circuit
          (List.length failures)
    | Synth.Unsat ->
      Printf.printf "!! %s: UNSAT at the paper's dimensions\n" row.Paper_data.circuit
    | Synth.Timeout -> ()
  in
  List.iter solve_paper_row Paper_data.table4;
  print_newline ();
  Table.print t;
  Printf.printf "\nOptimality certificates (UNSAT proofs for smaller budgets):\n%!";
  let cert name cfg spec =
    let a = Synth.solve_instance ~timeout:budget cfg spec in
    Printf.printf "  %-48s %-7s (%.1fs)\n%!" name (verdict_string a.Synth.verdict)
      a.Synth.time_s
  in
  let fa = Arith.adder_bits 1 in
  cert "1-bit adder, N_R=1 (paper: UNSAT)"
    (E.config ~taps:E.Any_vop ~n_legs:3 ~steps_per_leg:3 ~n_rops:1 ())
    fa;
  cert "1-bit adder, N_R=2, N_VS=2 (paper: UNSAT)"
    (E.config ~taps:E.Any_vop ~n_legs:3 ~steps_per_leg:2 ~n_rops:2 ())
    fa;
  cert "GF(2^2) multiplier, N_R=3 (paper: UNSAT)"
    (E.config ~taps:E.Any_vop ~n_legs:5 ~steps_per_leg:3 ~n_rops:3 ())
    (Gf.mul_spec 2);
  Printf.printf
    "\nTap-discipline ablation (reproduction finding): the paper's Eq. 7 lets\n\
     R-ops tap one leg at several time points; with physically schedulable\n\
     leg-final taps the 1-bit adder needs one extra leg:\n%!";
  cert "1-bit adder MM, Final_only taps, N_L=3"
    (E.config ~taps:E.Final_only ~n_legs:3 ~steps_per_leg:3 ~n_rops:2 ())
    fa;
  cert "1-bit adder MM, Final_only taps, N_L=4"
    (E.config ~taps:E.Final_only ~n_legs:4 ~steps_per_leg:3 ~n_rops:2 ())
    fa

(* ------------------------------------------------------------------ *)
(* Table V: adders vs literature                                       *)
(* ------------------------------------------------------------------ *)

let table5 () =
  section "Table V: MM adders vs published adder designs";
  let t =
    Table.create
      [ "design"; "n=1 N_St"; "n=1 N_Dev"; "n=2 N_St"; "n=2 N_Dev";
        "n=3 N_St"; "n=3 N_Dev" ]
  in
  let cell source bits pick =
    match
      List.find_opt
        (fun e -> e.Metrics.source = source && e.Metrics.bits = bits)
        Metrics.literature_adders
    with
    | Some e -> string_of_int (pick e)
    | None -> "-"
  in
  List.iter
    (fun source ->
      Table.add_row t
        [
          source;
          cell source 1 (fun e -> e.Metrics.n_st);
          cell source 1 (fun e -> e.Metrics.n_dev);
          cell source 2 (fun e -> e.Metrics.n_st);
          cell source 2 (fun e -> e.Metrics.n_dev);
          cell source 3 (fun e -> e.Metrics.n_st);
          cell source 3 (fun e -> e.Metrics.n_dev);
        ])
    [ "[16]"; "[17]"; "[18]"; "[19]"; "[20]" ];
  Table.add_separator t;
  let ours bits =
    let row =
      List.find
        (fun r ->
          r.Paper_data.mode = Paper_data.Mm
          && r.Paper_data.circuit = Printf.sprintf "%d-bit adder" bits)
        Paper_data.table4
    in
    ( Metrics.steps ~n_vs:row.Paper_data.n_vs ~n_rops:row.Paper_data.n_rops,
      row.Paper_data.n_dev )
  in
  let s1, d1 = ours 1 and s2, d2 = ours 2 and s3, d3 = ours 3 in
  Table.add_row t
    [
      "Ours (MM)";
      string_of_int s1; string_of_int d1;
      string_of_int s2; string_of_int d2;
      string_of_int s3; string_of_int d3;
    ];
  Table.print t;
  Printf.printf
    "\n[18]/[20] use IMPLY gates needing fewer devices per gate than the\n\
     3-device MAGIC NOR R-op, as the paper notes.\n"

(* ------------------------------------------------------------------ *)
(* Fig. 1: the GF(2^2) multiplier circuit                              *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "Fig. 1: mixed-mode GF(2^2) multiplier (18 V-ops, 4 R-ops, 10 devices)";
  let c = Reference.gf4_mul_circuit () in
  Format.printf "%a@." C.pp c;
  Printf.printf
    "\nMetrics: N_V=%d, N_R=%d, N_L=%d, N_VS=%d, N_St=%d, N_Dev=%d (paper: 18/4/6/3/7/10)\n"
    (C.n_vops c) (C.n_rops c) (C.n_legs c) (C.steps_per_leg c) (C.n_steps c)
    (C.n_devices c);
  (match C.realizes c (Gf.mul_spec 2) with
   | Ok () -> Printf.printf "Verified against GF(2^2) multiplication on all 16 inputs.\n"
   | Error row -> Printf.printf "WRONG on row %d!\n" row);
  let dot_path = "gf4_mul.dot" in
  let oc = open_out dot_path in
  output_string oc (Mm_core.Emit.to_dot c);
  close_out oc;
  Printf.printf "Graphviz netlist written to %s\n" dot_path

(* ------------------------------------------------------------------ *)
(* Fig. 2: electrical trace for input 1011                             *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "Fig. 2: electrical execution of the GF(2^2) multiplier, input x=1011";
  let c = Reference.gf4_mul_circuit () in
  let plan = Schedule.plan c in
  let r = Schedule.execute plan ~input:0b1011 () in
  Format.printf "%a@." Mm_device.Waveform.pp r.Schedule.waveform;
  Printf.printf
    "\nReadout: out1 = %d, out2 = %d over %d cycles on %d cells\n\
     (paper measurement: out1 = 0, out2 = 1, 9 cycles incl. readout, 10 cells).\n"
    (if r.Schedule.outputs.(0) then 1 else 0)
    (if r.Schedule.outputs.(1) then 1 else 0)
    r.Schedule.cycles (Schedule.n_cells plan);
  let failures = Schedule.verify plan (Gf.mul_spec 2) in
  Printf.printf "Full input sweep on the simulator: %d/16 inputs correct.\n"
    (16 - List.length failures)

(* ------------------------------------------------------------------ *)
(* Ablation A: reliability under variation                             *)
(* ------------------------------------------------------------------ *)

let reliability ~trials () =
  section "Ablation A: MM vs R-only error rate under D2D/C2C variation";
  let spec = Gf.mul_spec 2 in
  let mm = Reference.gf4_mul_circuit () in
  let r_only = Baseline.nor_network spec in
  Printf.printf
    "MM: %d R-ops (cascade depth %d); R-only baseline: %d R-ops (depth %d).\n\
     Monte Carlo: %d trials x 16 inputs per point, deterministic seed.\n\n%!"
    (C.n_rops mm)
    (C.rop_depth mm)
    (C.n_rops r_only)
    (C.rop_depth r_only)
    trials;
  let study = Reliability.run spec ~mm ~r_only ~trials ~seed:2025 in
  let t = Table.create [ "variation"; "sigma"; "MM error"; "R-only error" ] in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.Reliability.variation.Variation.label;
          Printf.sprintf "%.2f" p.Reliability.variation.Variation.sigma_c2c;
          Printf.sprintf "%.4f" p.Reliability.mm_error;
          Printf.sprintf "%.4f" p.Reliability.r_only_error;
        ])
    study.Reliability.points;
  Table.print t;
  Printf.printf
    "\nExpected shape (paper, Sections II-B/III): both are clean when ideal;\n\
     as variation grows the deep R-only cascade degrades faster than MM.\n"

(* ------------------------------------------------------------------ *)
(* Ablation B: direct (Eqs. 4-10) vs compact encoding                  *)
(* ------------------------------------------------------------------ *)

let encodings ~budget () =
  section "Ablation B: paper-literal (direct) vs compact encoding of Phi";
  let t =
    Table.create
      [ "circuit"; "mode"; "direct vars"; "direct clauses"; "compact vars";
        "compact clauses"; "paper vars"; "paper clauses" ]
  in
  List.iter
    (fun (row : Paper_data.row) ->
      let spec = Paper_data.spec_of_circuit row.Paper_data.circuit in
      let cfg style =
        match row.Paper_data.mode with
        | Paper_data.Mm ->
          E.config ~style ~taps:E.Any_vop ~n_legs:row.Paper_data.n_legs
            ~steps_per_leg:row.Paper_data.n_vs ~n_rops:row.Paper_data.n_rops ()
        | Paper_data.R_only ->
          E.config ~style ~n_legs:0 ~steps_per_leg:0 ~n_rops:row.Paper_data.n_rops ()
      in
      let dv, dc = E.size (cfg E.Direct) spec in
      let cv, cc = E.size (cfg E.Compact) spec in
      Table.add_row t
        [
          row.Paper_data.circuit;
          (match row.Paper_data.mode with Paper_data.Mm -> "MM" | _ -> "R-only");
          human dv; human dc; human cv; human cc;
          row.Paper_data.vars; row.Paper_data.clauses;
        ])
    Paper_data.table4;
  Table.print t;
  Printf.printf "\nSolving the 1-bit adder MM instance with both encodings:\n%!";
  let fa = Arith.adder_bits 1 in
  List.iter
    (fun (label, style) ->
      let cfg =
        E.config ~style ~taps:E.Any_vop ~n_legs:3 ~steps_per_leg:3 ~n_rops:2 ()
      in
      let a = Synth.solve_instance ~timeout:budget cfg fa in
      Printf.printf "  %-8s %-7s in %6.2fs (%d vars, %d clauses)\n%!" label
        (verdict_string a.Synth.verdict) a.Synth.time_s a.Synth.vars a.Synth.clauses)
    [ ("direct", E.Direct); ("compact", E.Compact) ]

(* ------------------------------------------------------------------ *)
(* Ablation C: symmetry breaking                                       *)
(* ------------------------------------------------------------------ *)

let symmetry ~budget () =
  section "Ablation C: effect of symmetry breaking on solve time";
  let cases =
    [
      ( "1-bit adder MM (SAT)",
        Arith.adder_bits 1,
        fun sym ->
          E.config ~symmetry_breaking:sym ~taps:E.Any_vop ~n_legs:3
            ~steps_per_leg:3 ~n_rops:2 () );
      ( "1-bit adder N_R=1 (UNSAT)",
        Arith.adder_bits 1,
        fun sym ->
          E.config ~symmetry_breaking:sym ~taps:E.Any_vop ~n_legs:3
            ~steps_per_leg:3 ~n_rops:1 () );
      ( "GF(2^2) mult N_R=4 (SAT)",
        Gf.mul_spec 2,
        fun sym ->
          E.config ~symmetry_breaking:sym ~taps:E.Any_vop ~n_legs:6
            ~steps_per_leg:3 ~n_rops:4 () );
    ]
  in
  let t =
    Table.create [ "instance"; "symmetry"; "verdict"; "time [s]"; "conflicts" ]
  in
  List.iter
    (fun (name, spec, cfg_of) ->
      List.iter
        (fun sym ->
          let a = Synth.solve_instance ~timeout:budget (cfg_of sym) spec in
          Table.add_row t
            [
              name;
              (if sym then "on" else "off");
              verdict_string a.Synth.verdict;
              Printf.sprintf "%.2f" a.Synth.time_s;
              string_of_int a.Synth.solver_stats.Mm_sat.Solver.conflicts;
            ])
        [ true; false ])
    cases;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Extension D: crossbar scheduling (the paper's future work)          *)
(* ------------------------------------------------------------------ *)

let crossbar () =
  section "Extension D: 1D line array vs 2D crossbar latency (parallel R-ops)";
  Printf.printf
    "The paper's conclusions point to crossbars for parallel R-ops. Here the\n\
     same circuits run on both substrates; crossbar latency is\n\
     N_VS + 2*depth + N_O (one transfer + one parallel-NOR cycle per level).\n\n";
  let t =
    Table.create
      [ "circuit"; "N_R"; "R depth"; "line cycles"; "crossbar cycles"; "verified" ]
  in
  let case name circuit spec =
    let plan = Xbar.plan circuit in
    let line, xbar = Xbar.latency_comparison circuit in
    let failures = Xbar.verify plan spec in
    Table.add_row t
      [
        name;
        string_of_int (C.n_rops circuit);
        string_of_int (Xbar.depth plan);
        string_of_int line;
        string_of_int xbar;
        (if failures = [] then "yes" else "NO");
      ]
  in
  let gf_spec = Gf.mul_spec 2 in
  case "GF(2^2) mult, MM" (Reference.gf4_mul_circuit ()) gf_spec;
  case "GF(2^2) mult, R-only" (Baseline.nor_network gf_spec) gf_spec;
  let fa = Arith.adder_bits 1 in
  case "full adder, R-only" (Baseline.nor_network fa) fa;
  let cmp = Arith.comparator 2 in
  case "2-bit comparator, R-only" (Baseline.nor_network cmp) cmp;
  Table.print t;
  Printf.printf
    "\nShape: MM circuits are already shallow, so the crossbar gains little;\n\
     deep R-only NOR networks parallelize well — matching the paper's remark\n\
     that crossbars mainly help stateful-heavy designs.\n"

(* ------------------------------------------------------------------ *)
(* Extension E: scalable heuristic synthesis (the paper's future work) *)
(* ------------------------------------------------------------------ *)

let heuristic_bench () =
  section "Extension E: heuristic synthesis for larger functions";
  Printf.printf
    "Shannon decomposition to <=4-input blocks, each block synthesized\n\
     optimally by SAT (cached), recombined with 3-NOR multiplexers; the\n\
     QMC->NOR two-level baseline is the comparison point.\n\n%!";
  let t =
    Table.create
      [ "function"; "n"; "heuristic NORs"; "baseline NORs"; "blocks";
        "exact"; "cache hits"; "time [s]"; "verified" ]
  in
  let case spec =
    let (c, stats), dt =
      timed (fun () -> Heuristic.synthesize ~timeout_per_block:10. spec)
    in
    let plan = Schedule.plan c in
    let failures = Schedule.verify plan spec in
    Table.add_row t
      [
        Spec.name spec;
        string_of_int (Spec.arity spec);
        string_of_int (C.n_rops c);
        string_of_int (Baseline.nor_count spec);
        string_of_int stats.Heuristic.blocks;
        string_of_int stats.Heuristic.exact_blocks;
        string_of_int stats.Heuristic.cache_hits;
        Printf.sprintf "%.1f" dt;
        (if failures = [] then "yes" else "NO");
      ]
  in
  case (Arith.adder_bits 2);
  case (Gf.inv_spec 4);
  case (Arith.multiplier 2);
  case (Arith.majority 5);
  case (Arith.comparator 3);
  Table.print t;
  Printf.printf
    "\nShape: block-exact synthesis beats the two-level baseline by a wide\n\
     margin while scaling past the reach of monolithic optimal SAT calls.\n"

(* ------------------------------------------------------------------ *)
(* Map: technology mapping, the crossbar backend and resynthesis       *)
(* ------------------------------------------------------------------ *)

let map_bench ~budget () =
  let module Engine = Mm_engine.Engine in
  let module Cache = Mm_engine.Cache in
  let module Stitch = Mm_map.Stitch in
  let module Mapper = Mm_map.Mapper in
  let module Xsched = Mm_map.Xsched in
  let module Xstitch = Mm_map.Xstitch in
  let module Resyn = Mm_resyn.Resyn in
  let rows = 16 and ports = 4 and passes = 4 in
  section "Map: cut-based mapping, crossbar backend and resynthesis";
  Printf.printf
    "The mapper covers an AND-inverter graph with width-<=4 cuts, prices\n\
     each cut by probing an NPN-canonicalized library of SAT-minimized\n\
     blocks, and stitches the chosen cover onto one verified line-array\n\
     schedule (cost = V-steps + R-ops). The crossbar backend maps a\n\
     depth-balanced AIG onto a %d-row crossbar with %d transfer ports, where\n\
     independent MAGIC NORs share a cycle and identical TE patterns share a\n\
     broadcast V-cycle; every schedule runs on the crossbar simulator for\n\
     all input rows. Resynthesis then re-optimizes the line-array schedule:\n\
     semantic sweeping, dead R-op removal and shared-BE rail compaction.\n\
     The Shannon heuristic and the QMC->NOR baseline are the comparison\n\
     points. Each compile starts on a fresh in-memory block cache, and\n\
     each time covers its own stage.\n\n%!"
    rows ports;
  let map_t =
    Table.create
      [ "function"; "n"; "map V+R"; "heur V+R"; "base V+R"; "blocks";
        "optimal"; "exact"; "time [s]"; "verified" ]
  in
  let xbar_t =
    Table.create
      [ "function"; "n"; "1D steps"; "xbar cycles"; "V/R/T"; "xfers";
        "depth"; "rows"; "polish"; "time [s]"; "verified" ]
  in
  let resyn_t =
    Table.create
      [ "function"; "n"; "map"; "resyn"; "heur"; "merged"; "dead"; "V saved";
        "time [s]"; "verified" ]
  in
  let cfg () =
    Engine.config ~timeout_per_call:budget ~max_rops:8 ~domains:1
      ~taps:E.Final_only ~cache:(Cache.create ()) ()
  in
  let faster = ref 0 and meets_gate = ref 0 in
  let row spec =
    let r, map_s = timed (fun () -> Stitch.compile (cfg ()) spec) in
    let x, xbar_s = timed (fun () -> Xstitch.compile ~rows ~ports (cfg ()) spec) in
    let st = r.Stitch.stitched in
    let c = st.Stitch.circuit in
    let rs, resyn_s = timed (fun () -> Resyn.run ~max_passes:passes spec c) in
    let hc, _ = Heuristic.synthesize ~timeout_per_block:budget spec in
    let heur = C.n_steps hc in
    let base = C.n_steps (Baseline.nor_network spec) in
    let verified c = Schedule.verify (Schedule.plan c) spec = [] in
    let name = Spec.name spec and n = string_of_int (Spec.arity spec) in
    let ident = [ ("function", Json.String name); ("n", Json.Int (Spec.arity spec)) ] in
    (* the line array *)
    let blocks = List.length st.Stitch.placed in
    let count p = List.length (List.filter p st.Stitch.placed) in
    let optimal = count (fun p -> p.Stitch.optimal) in
    let exact = count (fun p -> p.Stitch.exact) in
    let map_ok = verified c in
    Table.add_row map_t
      [ name; n;
        Printf.sprintf "%d+%d=%d" (C.steps_per_leg c) (C.n_rops c) (C.n_steps c);
        string_of_int heur; string_of_int base; string_of_int blocks;
        string_of_int optimal; string_of_int exact;
        Printf.sprintf "%.1f" map_s;
        (if map_ok then "yes" else "NO") ];
    let map_row =
      Json.Obj
        (ident
        @ [ ("mapped_v_steps", Json.Int (C.steps_per_leg c));
            ("mapped_rops", Json.Int (C.n_rops c));
            ("mapped_total", Json.Int (C.n_steps c));
            ("blocks", Json.Int blocks);
            ("optimal_blocks", Json.Int optimal);
            ("exact_blocks", Json.Int exact);
            ("heuristic_total", Json.Int heur);
            ("baseline_total", Json.Int base);
            ("time_s", json_s ~digits:2 map_s);
            ("verified", Json.Bool map_ok) ])
    in
    (* the crossbar *)
    let steps_1d = C.n_steps c in
    let sc = x.Xstitch.sched and dag = x.Xstitch.stitch.Stitch.dag in
    let is_faster = x.Xstitch.cycles < steps_1d in
    if is_faster then incr faster;
    Table.add_row xbar_t
      [ name; n; string_of_int steps_1d; string_of_int x.Xstitch.cycles;
        Printf.sprintf "%d/%d/%d" sc.Xsched.v_cycles sc.Xsched.r_cycles
          sc.Xsched.t_cycles;
        string_of_int x.Xstitch.transfers;
        string_of_int dag.Mapper.depth;
        string_of_int x.Xstitch.rows_used;
        Printf.sprintf "-%d" sc.Xsched.polish_gain;
        Printf.sprintf "%.1f" xbar_s;
        (if x.Xstitch.verified then "yes" else "NO") ];
    let xbar_row =
      Json.Obj
        (ident
        @ [ ("steps_1d", Json.Int steps_1d);
            ("cycles", Json.Int x.Xstitch.cycles);
            ("v_cycles", Json.Int sc.Xsched.v_cycles);
            ("r_cycles", Json.Int sc.Xsched.r_cycles);
            ("t_cycles", Json.Int sc.Xsched.t_cycles);
            ("transfers", Json.Int x.Xstitch.transfers);
            ("readout", Json.Int x.Xstitch.readout);
            ("blocks", Json.Int (Array.length dag.Mapper.blocks));
            ("block_depth", Json.Int dag.Mapper.depth);
            ("rows_used", Json.Int x.Xstitch.rows_used);
            ("cols_used", Json.Int x.Xstitch.cols_used);
            ("polish_gain", Json.Int sc.Xsched.polish_gain);
            ("time_s", json_s ~digits:2 xbar_s);
            ("faster_than_1d", Json.Bool is_faster);
            ("verified", Json.Bool x.Xstitch.verified) ])
    in
    (* resynthesis of the line-array schedule *)
    let s = rs.Resyn.stats in
    let gate = C.n_steps rs.Resyn.circuit <= heur in
    let resyn_ok =
      verified rs.Resyn.circuit && s.Resyn.steps_after <= s.Resyn.steps_before
    in
    if gate && resyn_ok then incr meets_gate;
    Table.add_row resyn_t
      [ name; n; string_of_int s.Resyn.steps_before;
        string_of_int s.Resyn.steps_after; string_of_int heur;
        string_of_int s.Resyn.sweep_merged; string_of_int s.Resyn.dce_removed;
        string_of_int s.Resyn.v_steps_saved;
        Printf.sprintf "%.1f" resyn_s;
        (if resyn_ok then "yes" else "NO") ];
    let resyn_row =
      Json.Obj
        (ident
        @ [ ("mapped_total", Json.Int s.Resyn.steps_before);
            ("resyn_total", Json.Int s.Resyn.steps_after);
            ("heuristic_total", Json.Int heur);
            ("sweep_merged", Json.Int s.Resyn.sweep_merged);
            ("dce_removed", Json.Int s.Resyn.dce_removed);
            ("v_steps_saved", Json.Int s.Resyn.v_steps_saved);
            ("passes", Json.Int s.Resyn.passes);
            ("fixed_point", Json.Bool s.Resyn.fixed_point);
            ("mapped_le_heuristic", Json.Bool gate);
            ("time_s", json_s resyn_s);
            ("verified", Json.Bool resyn_ok) ])
    in
    (map_row, xbar_row, resyn_row)
  in
  let results =
    List.map row
      [ Arith.adder_bits 2; Arith.adder_bits 3; Arith.adder_bits 4;
        Arith.majority 5; Arith.majority 6; Arith.majority 7;
        Arith.parity 5; Arith.parity 6; Arith.parity 7; Arith.parity 8 ]
  in
  let workloads = List.length results in
  let cost_metric =
    ("cost_metric", Json.String "V-steps per leg + R-ops (total schedule steps)")
  in
  Printf.printf "Line array (1D steps):\n\n";
  Table.print map_t;
  Printf.printf
    "\nShape: wide xor-heavy functions (parity) gain most — V-op blocks\n\
     absorb whole sub-trees the two-level baseline pays per-minterm for.\n";
  write_bench "map" ~budget ~cache:"cold"
    [ ( "workload",
        Json.String "technology mapping vs heuristic vs QMC->NOR baseline" );
      ("resyn_passes", Json.Int 0);
      cost_metric;
      ("results", Json.List (List.map (fun (m, _, _) -> m) results)) ];
  Printf.printf "\nCrossbar (%d rows, %d ports):\n\n" rows ports;
  Table.print xbar_t;
  Printf.printf
    "\nShape: %d/%d workloads need fewer crossbar cycles than 1D steps —\n\
     the R-op phase parallelizes across rows while placement affinity\n\
     keeps transfer cycles low.\n"
    !faster workloads;
  write_bench "xbar" ~budget ~cache:"cold"
    [ ( "workload",
        Json.String
          "crossbar row-parallel scheduling (balanced-AIG cover) vs serial \
           1D schedule" );
      ("resyn_passes", Json.Int 0);
      ("rows", Json.Int rows);
      ("ports", Json.Int ports);
      ( "cycle_metric",
        Json.String
          "V broadcast cycles + parallel NOR cycles + transfer cycles \
           (readout reported separately, matching the 1D step metric)" );
      ("faster_than_1d", Json.Int !faster);
      ("workloads", Json.Int workloads);
      ("results", Json.List (List.map (fun (_, x, _) -> x) results)) ];
  Printf.printf "\nResynthesis of the line-array schedule:\n\n";
  Table.print resyn_t;
  Printf.printf
    "\nShape: %d/%d workloads meet the mapped+resyn <= heuristic gate —\n\
     sweeps absorb cross-block duplication and SCS rail compaction\n\
     reclaims the stitcher's serialization padding.\n"
    !meets_gate workloads;
  write_bench "resyn" ~budget ~cache:"cold"
    [ ( "workload",
        Json.String
          "post-mapping resynthesis (sweep + dce + leg compaction) vs \
           Shannon heuristic" );
      ("resyn_passes", Json.Int passes);
      cost_metric;
      ("mapped_le_heuristic", Json.Int !meets_gate);
      ("workloads", Json.Int workloads);
      ("results", Json.List (List.map (fun (_, _, r) -> r) results)) ]

(* ------------------------------------------------------------------ *)
(* Engine: NPN-canonicalizing, cached, multicore batch synthesis       *)
(* ------------------------------------------------------------------ *)

let engine_bench () =
  let module Engine = Mm_engine.Engine in
  let module Cache = Mm_engine.Cache in
  section "Engine: batch synthesis over the full 3-input function space";
  let specs = Engine.all_functions ~arity:3 in
  let budget = 30. in
  let cache_path suffix = tmp_path (Printf.sprintf "engine_%s.cache" suffix) in
  let cleanup = ref [] in
  let run ~label ~domains ~cache_path =
    let cache = Cache.create ~path:cache_path () in
    if not (List.mem cache_path !cleanup) then
      cleanup := cache_path :: !cleanup;
    let cfg = Engine.config ~timeout_per_call:budget ~domains ~cache () in
    let results, s = Engine.run cfg specs in
    let bad =
      Array.fold_left
        (fun n r -> if r.Engine.error <> None then n + 1 else n)
        0 results
    in
    let line =
      Format.asprintf "%a" Engine.pp_summary s
      |> String.map (function '\n' -> ' ' | c -> c)
    in
    Printf.printf "%-22s %s%s\n%!" label line
      (if bad > 0 then Printf.sprintf "  (%d ERRORS)" bad else "");
    s
  in
  (* the engine's worker pool counts the calling domain as a worker, so
     the parallel passes use one domain per core *)
  let cores = Domain.recommended_domain_count () in
  let domains = cores in
  (* three cold passes of each kind, alternating so drift in the host's
     speed hits both alike, each on a fresh cache; the medians are kept *)
  let passes = 3 in
  let cold =
    List.init passes (fun i ->
        let seq =
          run ~label:(Printf.sprintf "sequential, cold #%d:" (i + 1))
            ~domains:1 ~cache_path:(cache_path (Printf.sprintf "seq%d" i))
        in
        let par =
          run ~label:(Printf.sprintf "%d domains, cold #%d:" domains (i + 1))
            ~domains ~cache_path:(cache_path (Printf.sprintf "par%d" i))
        in
        (seq, par))
  in
  let median pick =
    let sorted =
      List.sort
        (fun (a : Engine.summary) b -> compare a.Engine.wall_s b.Engine.wall_s)
        (List.map pick cold)
    in
    List.nth sorted (passes / 2)
  in
  let seq = median fst and par = median snd in
  let warm =
    run ~label:(Printf.sprintf "%d domains, warm:" domains) ~domains
      ~cache_path:(cache_path (Printf.sprintf "par%d" (passes - 1)))
  in
  let speedup = if par.Engine.wall_s > 0. then seq.Engine.wall_s /. par.Engine.wall_s else 0. in
  let hit_rate (s : Engine.summary) =
    match s.Engine.cache with
    | Some c ->
      let probes = c.Cache.hits + c.Cache.misses + c.Cache.stale in
      if probes > 0 then float_of_int c.Cache.hits /. float_of_int probes
      else 0.
    | None -> 0.
  in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) !cleanup;
  Printf.printf
    "\nspeedup %.2fx on %d cores (%d domains, medians of %d cold passes); \
     warm hit rate %.0f%%\n"
    speedup cores domains passes (100. *. hit_rate warm);
  write_bench "engine" ~budget ~cache:"cold+warm"
    [ ("workload", Json.String "all 256 3-input functions, minimize loop");
      ("domains", Json.Int domains);
      ("cold_passes", Json.Int passes);
      ("functions", Json.Int seq.Engine.functions);
      ("classes", Json.Int seq.Engine.classes);
      ("sequential_wall_s", json_s ~digits:3 seq.Engine.wall_s);
      ("parallel_wall_s", json_s ~digits:3 par.Engine.wall_s);
      ("speedup_vs_sequential", json_s ~digits:2 speedup);
      ("solves_per_s_sequential", json_s ~digits:1 seq.Engine.solves_per_s);
      ("solves_per_s_parallel", json_s ~digits:1 par.Engine.solves_per_s);
      ("warm_wall_s", json_s ~digits:3 warm.Engine.wall_s);
      ("warm_solves_per_s", json_s ~digits:1 warm.Engine.solves_per_s);
      ("cold_cache_hit_rate", json_s ~digits:3 (hit_rate par));
      ("warm_cache_hit_rate", json_s ~digits:3 (hit_rate warm)) ]

(* ------------------------------------------------------------------ *)
(* Ladder: incremental assumption sweeps vs monolithic re-encoding     *)
(* ------------------------------------------------------------------ *)

(* A 4-input spec named by its hex truth table. *)
let npn_spec v =
  Spec.make ~name:(Printf.sprintf "npn-%04x" v) [| Tt.of_int 4 v |]

let ladder_bench ~budget ~limit () =
  section "Ladder: incremental assumption sweep vs monolithic re-encoding";
  (* Deterministic sample of 4-input NPN class representatives: an evenly
     spaced slice of the ascending class list, so easy and hard classes
     are both represented. *)
  let reps = Array.of_list (Mm_engine.Npn.class_reps 4) in
  let n_total = Array.length reps in
  let limit = max 1 (min limit n_total) in
  let specs =
    Array.init limit (fun i -> npn_spec (Tt.to_int reps.(i * n_total / limit)))
  in
  (* identical caps on both paths keep the sweeps point-for-point
     comparable: same budget points, same verdicts, different solvers *)
  let sweep ~incremental spec =
    let r, wall =
      timed (fun () ->
          Synth.minimize ~timeout_per_call:budget ~max_rops:4 ~max_steps:3
            ~incremental spec)
    in
    let conflicts =
      List.fold_left
        (fun acc a -> acc + a.Synth.solver_stats.Mm_sat.Solver.conflicts)
        0 r.Synth.attempts
    in
    (r, wall, conflicts)
  in
  let fingerprint (r : Synth.report) =
    ( (match r.Synth.best with
       | Some (_, a) -> Some (a.Synth.n_rops, a.Synth.n_legs, a.Synth.steps_per_leg)
       | None -> None),
      r.Synth.rops_proven_minimal,
      r.Synth.steps_proven_minimal )
  in
  let timed_out (r : Synth.report) =
    List.exists (fun a -> a.Synth.verdict = Synth.Timeout) r.Synth.attempts
  in
  let t =
    Table.create
      [ "class"; "verdict"; "mono(s)"; "inc(s)"; "confl mono"; "confl inc";
        "match" ]
  in
  let per_class = ref [] in
  (* (monolithic wall, incremental wall, monolithic conflicts, incremental
     conflicts) of every class that finished inside the budget *)
  let finished = ref [] in
  let mismatches = ref 0 in
  let skipped = ref 0 in
  let record name verdict ~wm ~wi ~cm ~ci ~same ~excluded =
    per_class :=
      Json.Obj
        [ ("class", Json.String name);
          ("verdict", Json.String verdict);
          ("monolithic_wall_s", json_s wm);
          ("incremental_wall_s", json_s wi);
          ("monolithic_conflicts", Json.Int cm);
          ("incremental_conflicts", Json.Int ci);
          ("verdicts_match", Json.Bool same);
          ("excluded_over_budget", Json.Bool excluded) ]
      :: !per_class
  in
  let over_budget name =
    incr skipped;
    record name "budget" ~wm:0. ~wi:0. ~cm:0 ~ci:0 ~same:true ~excluded:true
  in
  Array.iter
    (fun spec ->
      (* The incremental sweep runs first as a screen: a class that cannot
         finish inside the per-call budget is reported but excluded from
         the aggregate — walls of budget-capped runs measure the budget,
         not the solver, and a timeout verdict is nondeterministic across
         paths so it cannot participate in the differential check either. *)
      let name = Spec.name spec in
      let ri, wi, ci = sweep ~incremental:true spec in
      if timed_out ri then begin
        over_budget name;
        Table.add_row t
          [ name; "budget"; "-"; Printf.sprintf "%.2f" wi; "-";
            string_of_int ci; "t/o" ]
      end
      else begin
        let rm, wm, cm = sweep ~incremental:false spec in
        if timed_out rm then begin
          over_budget name;
          Table.add_row t
            [ name; "budget"; Printf.sprintf "%.2f" wm;
              Printf.sprintf "%.2f" wi; string_of_int cm; string_of_int ci;
              "t/o" ]
        end
        else begin
          let same = fingerprint rm = fingerprint ri in
          if not same then incr mismatches;
          let verdict =
            match rm.Synth.best with
            | Some (_, a) ->
              Printf.sprintf "N_R=%d N_VS=%d" a.Synth.n_rops
                a.Synth.steps_per_leg
            | None -> "none"
          in
          Table.add_row t
            [ name; verdict; Printf.sprintf "%.2f" wm;
              Printf.sprintf "%.2f" wi; string_of_int cm; string_of_int ci;
              (if same then "yes" else "NO") ];
          record name verdict ~wm ~wi ~cm ~ci ~same ~excluded:false;
          finished := (wm, wi, cm, ci) :: !finished
        end
      end)
    specs;
  Table.print t;
  let wall_mono = List.fold_left (fun acc (w, _, _, _) -> acc +. w) 0. !finished in
  let wall_inc = List.fold_left (fun acc (_, w, _, _) -> acc +. w) 0. !finished in
  let confl_mono = List.fold_left (fun acc (_, _, c, _) -> acc + c) 0 !finished in
  let confl_inc = List.fold_left (fun acc (_, _, _, c) -> acc + c) 0 !finished in
  let speedup_inc = if wall_inc > 0. then wall_mono /. wall_inc else 0. in
  Printf.printf
    "\nincremental %.2fx vs monolithic (%d/%d classes, %d over budget, %d \
     mismatches)\n"
    speedup_inc limit n_total !skipped !mismatches;
  write_bench ~version:3 "ladder" ~budget ~cache:"none"
    [ ( "workload",
        Json.String
          "4-input NPN class representatives, minimize sweep (max_rops=4, \
           max_steps=3)" );
      ("classes_total", Json.Int n_total);
      ("classes_sampled", Json.Int limit);
      ("classes_over_budget", Json.Int !skipped);
      ("monolithic_wall_s", json_s wall_mono);
      ("incremental_wall_s", json_s wall_inc);
      ("monolithic_conflicts", Json.Int confl_mono);
      ("incremental_conflicts", Json.Int confl_inc);
      ("speedup_incremental", Json.Float (Float.round (speedup_inc *. 100.) /. 100.));
      ("verdict_mismatches", Json.Int !mismatches);
      ("per_class", Json.List (List.rev !per_class)) ]

(* Depth/hardness map of every 4-input NPN class, incremental path only. *)
let ladder_scan ~budget () =
  List.iter
    (fun rep ->
      let v = Tt.to_int rep in
      let r, wall =
        timed (fun () ->
            Synth.minimize ~timeout_per_call:budget ~max_rops:4 ~max_steps:3
              (npn_spec v))
      in
      let verdict =
        match r.Synth.best with
        | Some (_, a) ->
          Printf.sprintf "N_R=%d N_VS=%d" a.Synth.n_rops a.Synth.steps_per_leg
        | None -> "none"
      in
      Printf.printf "%04x %-14s %5.2fs attempts=%d%s\n%!" v verdict wall
        (List.length r.Synth.attempts)
        (if List.exists (fun a -> a.Synth.verdict = Synth.Timeout) r.Synth.attempts
         then " TIMEOUT"
         else ""))
    (Mm_engine.Npn.class_reps 4)

(* Per-attempt diagnostic for one 4-input table, on both ladder paths. *)
let ladder_probe ~budget table =
  match int_of_string_opt ("0x" ^ table) with
  | None ->
    Printf.eprintf "ladder-probe: %S is not a hex truth table\n" table;
    exit 2
  | Some v ->
    let spec = npn_spec (v land 0xffff) in
    List.iter
      (fun (label, incremental) ->
        let r, wall =
          timed (fun () ->
              Synth.minimize ~timeout_per_call:budget ~max_rops:4 ~max_steps:3
                ~incremental spec)
        in
        Printf.printf "%s: %.3fs\n" label wall;
        List.iter
          (fun a ->
            let s = a.Synth.solver_stats in
            Printf.printf
              "  N_R=%d N_L=%d N_VS=%d %-7s t=%.3fs confl=%d props=%d \
               decisions=%d\n"
              a.Synth.n_rops a.Synth.n_legs a.Synth.steps_per_leg
              (verdict_string a.Synth.verdict)
              a.Synth.time_s s.Mm_sat.Solver.conflicts
              s.Mm_sat.Solver.propagations s.Mm_sat.Solver.decisions)
          r.Synth.attempts)
      [ ("mono", false); ("inc", true) ]

(* ------------------------------------------------------------------ *)
(* Robustness: batch completion and overhead under injected faults     *)
(* ------------------------------------------------------------------ *)

let robustness_bench () =
  let module Engine = Mm_engine.Engine in
  let module Fault = Mm_engine.Fault in
  section "Robustness: batch completion under injected worker/solver faults";
  Printf.printf
    "Full 3-input sweep with worker crashes and forced solver unknowns\n\
     injected at increasing rates (deterministic seed); retries + baseline\n\
     fallback must keep the answered fraction at 100%%.\n\n%!";
  let specs = Engine.all_functions ~arity:3 in
  let budget = 30. in
  let run rate =
    let fault =
      if rate = 0. then None
      else
        Some
          (Fault.create ~seed:2025
             [
               Fault.rule Fault.Worker rate Fault.Crash;
               Fault.rule Fault.Solver rate Fault.Unknown_result;
             ])
    in
    let cfg =
      Engine.config ~timeout_per_call:budget ~retries:2 ~retry_backoff_s:0.01
        ~fallback:Engine.Use_baseline ?fault ()
    in
    let results, s = Engine.run cfg specs in
    let answered =
      Array.fold_left
        (fun n r ->
          (* a verified circuit or an UNSAT proof both answer the spec *)
          if r.Engine.circuit <> None || r.Engine.error = None then n + 1 else n)
        0 results
    in
    (float_of_int answered /. float_of_int (Array.length specs), s)
  in
  let rates = [ 0.0; 0.1; 0.3 ] in
  let outcomes = List.map (fun r -> (r, run r)) rates in
  let base_wall =
    match outcomes with
    | (_, (_, s)) :: _ -> s.Engine.wall_s
    | [] -> 1.
  in
  let t =
    Table.create
      [ "fault rate"; "answered"; "exact"; "fallbacks"; "retries";
        "wall [s]"; "overhead" ]
  in
  List.iter
    (fun (rate, (completion, (s : Engine.summary))) ->
      Table.add_row t
        [
          Printf.sprintf "%.0f%%" (100. *. rate);
          Printf.sprintf "%.1f%%" (100. *. completion);
          string_of_int s.Engine.sat;
          string_of_int s.Engine.fallbacks;
          string_of_int s.Engine.retries_used;
          Printf.sprintf "%.2f" s.Engine.wall_s;
          (if base_wall > 0. then
             Printf.sprintf "%.2fx" (s.Engine.wall_s /. base_wall)
           else "-");
        ])
    outcomes;
  Table.print t;
  let point (rate, (completion, (s : Engine.summary))) =
    Json.Obj
      [ ("fault_rate", json_s ~digits:2 rate);
        ("completion_rate", json_s completion);
        ("exact", Json.Int s.Engine.sat);
        ("fallbacks", Json.Int s.Engine.fallbacks);
        ("retries_used", Json.Int s.Engine.retries_used);
        ("wall_s", json_s ~digits:3 s.Engine.wall_s);
        ( "overhead_vs_clean",
          json_s ~digits:3
            (if base_wall > 0. then s.Engine.wall_s /. base_wall else 0.) ) ]
  in
  print_newline ();
  write_bench "robustness" ~budget ~cache:"none"
    [ ( "workload",
        Json.String
          "all 256 3-input functions, minimize loop, retries=2, baseline \
           fallback" );
      ("seed", Json.Int 2025);
      ("points", Json.List (List.map point outcomes)) ]

(* ------------------------------------------------------------------ *)
(* Serve: daemon throughput/latency under concurrent load, warm vs cold *)
(* ------------------------------------------------------------------ *)

let serve_bench () =
  let module Engine = Mm_engine.Engine in
  let module Cache = Mm_engine.Cache in
  let module Server = Mm_serve.Server in
  let module Client = Mm_serve.Client in
  let module Wire = Mm_serve.Wire in
  section "Serve: resident daemon under concurrent load, warm vs cold";
  let budget = 30. in
  let sock = tmp_path "serve.sock" in
  let cache_path = tmp_path "serve.cache" in
  let engine =
    Engine.config ~timeout_per_call:budget
      ~cache:(Cache.create ~path:cache_path ()) ()
  in
  (* a fixed shard id, so the stats in the file do not name the temp socket *)
  let server =
    start_daemon
      (Server.config ~engine ~max_pending:64 ~shard_id:"serve" ~socket_path:sock ())
  in
  let specs = Engine.all_functions ~arity:3 in
  let n_specs = Array.length specs in
  (* one warm-up sweep populates the daemon's cache, so the concurrency
     levels measure serving overhead, not first-time SAT solving *)
  let sweep ?sock:(sk = sock) conc =
    let lats = Array.make n_specs 0. in
    let shed = Atomic.make 0 and transport = Atomic.make 0 in
    let next = Atomic.make 0 in
    let t0 = Unix.gettimeofday () in
    let worker () =
      match Client.wait_ready (Client.Unix_sock sk) with
      | Error _ -> Atomic.incr transport
      | Ok c ->
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n_specs then begin
            let s0 = Unix.gettimeofday () in
            (match Client.synth c specs.(i) with
             | Ok (Wire.Result _) -> lats.(i) <- Unix.gettimeofday () -. s0
             | Ok (Wire.Err e) -> (
               match e.Wire.code with
               | Wire.Overloaded | Wire.Unavailable -> Atomic.incr shed
               | Wire.Bad_request | Wire.Deadline_exceeded | Wire.Internal ->
                 Atomic.incr transport)
             | Error _ -> Atomic.incr transport);
            go ()
          end
        in
        go ();
        Client.close c
    in
    let threads = List.init conc (fun _ -> Thread.create worker ()) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    let ok = Array.of_list (List.filter (fun l -> l > 0.) (Array.to_list lats)) in
    Array.sort compare ok;
    ( conc,
      Array.length ok,
      wall,
      float_of_int (Array.length ok) /. wall,
      percentile ok 0.50,
      percentile ok 0.95,
      percentile ok 0.99,
      Atomic.get shed,
      Atomic.get transport )
  in
  Printf.printf "priming the daemon cache with the 3-input sweep...\n%!";
  ignore (sweep 4);
  let levels = List.map sweep [ 1; 4 ] in
  let t =
    Table.create
      [ "clients"; "requests"; "wall [s]"; "req/s"; "p50 [ms]"; "p95 [ms]";
        "p99 [ms]"; "shed"; "errors" ]
  in
  List.iter
    (fun (conc, ok, wall, rps, p50, p95, p99, shed, errors) ->
      Table.add_row t
        [
          string_of_int conc;
          string_of_int ok;
          Printf.sprintf "%.2f" wall;
          Printf.sprintf "%.0f" rps;
          Printf.sprintf "%.2f" (1e3 *. p50);
          Printf.sprintf "%.2f" (1e3 *. p95);
          Printf.sprintf "%.2f" (1e3 *. p99);
          string_of_int shed;
          string_of_int errors;
        ])
    levels;
  Table.print t;
  (* warm daemon round trip vs a cold engine run for one repeated spec:
     the daemon answers from its open cache + resident heap, the cold run
     pays pool spin-up and the full SAT solve every time *)
  let spec4 =
    (* (x1 & x2) xor (x3 | x4): needs one R-op and a few UNSAT proofs, so a
       cold run pays a real (but bounded) SAT bill *)
    Spec.of_fun ~name:"bench4" ~arity:4 ~outputs:1 (fun ~row ~output:_ ->
        let x i = (row lsr (i - 1)) land 1 = 1 in
        (x 1 && x 2) <> (x 3 || x 4))
  in
  (* the median of [n] timings of [f] *)
  let median n f =
    let a = Array.init n (fun _ -> snd (timed f)) in
    Array.sort compare a;
    a.(n / 2)
  in
  (* one request of [spec] to the daemon at [sk] primes it, then five are
     timed *)
  let warm_request sk spec =
    match Client.wait_ready (Client.Unix_sock sk) with
    | Error msg -> failwith ("serve bench: " ^ msg)
    | Ok c ->
      let ask () =
        match Client.synth c spec with
        | Ok (Wire.Result _) -> ()
        | Ok (Wire.Err e) -> failwith ("request refused: " ^ e.Wire.msg)
        | Error msg -> failwith ("request: " ^ msg)
      in
      ask ();
      let s = median 5 ask in
      Client.close c;
      s
  in
  let warm_s = warm_request sock spec4 in
  let cold_s =
    median 3 (fun () ->
        ignore (Engine.run (Engine.config ~timeout_per_call:budget ()) [| spec4 |]))
  in
  let speedup = if warm_s > 0. then cold_s /. warm_s else 0. in
  Printf.printf
    "\nrepeated 4-input spec: warm daemon %.2f ms vs cold engine run %.0f ms \
     (%.0fx)\n%!"
    (1e3 *. warm_s) (1e3 *. cold_s) speedup;
  (* atlas-backed serving: the same sweep against a daemon whose cache
     carries the precomputed NPN atlas tier, so every covered request is
     answered with zero solver calls *)
  let module Atlas = Mm_atlas.Atlas in
  let atlas_path = tmp_path "serve.mmatlas" in
  let atlas_goals =
    Atlas.universe ~modes:[ Atlas.Mixed ] ~max_n:3
      ~include_tts:[ Spec.output spec4 0 ] ()
  in
  let atlas_build_s, atlas_records, atlas_bytes =
    let t0 = Unix.gettimeofday () in
    match
      Atlas.build ~effort:2 ~timeout_per_call:10. ~resume:false
        ~path:atlas_path atlas_goals
    with
    | Error e -> failwith (Format.asprintf "atlas build: %a" Atlas.pp_error e)
    | Ok _ -> (
      let wall = Unix.gettimeofday () -. t0 in
      match Atlas.info atlas_path with
      | Ok i -> (wall, i.Atlas.i_records, i.Atlas.i_bytes)
      | Error e -> failwith (Format.asprintf "atlas info: %a" Atlas.pp_error e))
  in
  Printf.printf
    "\natlas: %d records (%d bytes) built in %.1fs; restarting the workload \
     against an atlas-backed daemon\n%!"
    atlas_records atlas_bytes atlas_build_s;
  let attach_atlas cache =
    match Atlas.load atlas_path with
    | Ok a -> Atlas.attach a cache
    | Error e -> failwith (Format.asprintf "atlas load: %a" Atlas.pp_error e)
  in
  let sock2 = tmp_path "serve2.sock" in
  let cache2 = Cache.create () in
  attach_atlas cache2;
  let server2 =
    let engine = Engine.config ~timeout_per_call:budget ~cache:cache2 () in
    start_daemon (Server.config ~engine ~max_pending:64 ~socket_path:sock2 ())
  in
  let atlas_level = sweep ~sock:sock2 4 in
  (* atlas round trip for one covered request, measured warm *)
  let warm_atlas_s = warm_request sock2 specs.(0x16) in
  let engine2 = Json.member "engine" (Server.stats_json server2) in
  Server.stop server2;
  let engine_count k =
    Option.value ~default:0 (Option.bind engine2 (Json.get Json.to_int k))
  in
  let atlas_answered = engine_count "atlas" in
  let atlas_sat = engine_count "sat" in
  let atlas_hit_rate =
    float_of_int atlas_answered
    /. float_of_int (max 1 (atlas_answered + atlas_sat))
  in
  (* cold single-request latency: fresh engine per request, with and
     without opening + attaching the atlas artifact *)
  let cold_atlas_s =
    median 3 (fun () ->
        let cache = Cache.create () in
        attach_atlas cache;
        ignore (Engine.run (Engine.config ~timeout_per_call:budget ~cache ()) [| spec4 |]))
  in
  Printf.printf
    "atlas sweep: hit rate %.0f%% (%d atlas / %d solved); warm request %.0f \
     us; cold 4-input run %.2f ms with atlas vs %.0f ms without\n%!"
    (100. *. atlas_hit_rate) atlas_answered atlas_sat (1e6 *. warm_atlas_s)
    (1e3 *. cold_atlas_s) (1e3 *. cold_s);
  (try Sys.remove atlas_path with Sys_error _ -> ());
  let daemon_stats = Server.stats_json server in
  Server.stop server;
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    (cache_path :: Cache.quarantined_siblings cache_path);
  let level_json (conc, ok, wall, rps, p50, p95, p99, shed, errors) =
    Json.Obj
      [
        ("concurrency", Json.Int conc);
        ("requests_ok", Json.Int ok);
        ("wall_s", Json.Float wall);
        ("throughput_rps", Json.Float rps);
        ("p50_s", Json.Float p50);
        ("p95_s", Json.Float p95);
        ("p99_s", Json.Float p99);
        ("shed", Json.Int shed);
        ( "shed_rate",
          Json.Float
            (float_of_int shed /. float_of_int (max 1 (ok + shed))) );
        ("transport_errors", Json.Int errors);
      ]
  in
  write_bench "serve" ~budget ~cache:"cold+warm"
    [
      ( "workload",
        Json.String
          "all 256 3-input functions over the Unix socket, warm cache" );
      ("levels", Json.List (List.map level_json levels));
      ( "warm_vs_cold",
        Json.Obj
          [
            ("spec", Json.String "(x1&x2) xor (x3|x4), repeated");
            ("warm_daemon_request_s", Json.Float warm_s);
            ("cold_engine_run_s", Json.Float cold_s);
            ("warm_speedup", Json.Float speedup);
          ] );
      ( "atlas",
        Json.Obj
          [
            ("records", Json.Int atlas_records);
            ("size_bytes", Json.Int atlas_bytes);
            ("build_s", Json.Float atlas_build_s);
            ("level", level_json atlas_level);
            ("atlas_hit_rate", Json.Float atlas_hit_rate);
            ("requests_atlas_answered", Json.Int atlas_answered);
            ("requests_solver_answered", Json.Int atlas_sat);
            ("warm_request_s", Json.Float warm_atlas_s);
            ("cold_run_with_atlas_s", Json.Float cold_atlas_s);
            ("cold_run_without_atlas_s", Json.Float cold_s);
          ] );
      ("daemon_stats", Json.Obj [ ("final", daemon_stats) ]);
    ]

(* ------------------------------------------------------------------ *)
(* Storm: open-loop load on a 4-shard cluster with a mid-run kill      *)
(* ------------------------------------------------------------------ *)

let storm_bench () =
  let module Engine = Mm_engine.Engine in
  let module Cache = Mm_engine.Cache in
  let module Server = Mm_serve.Server in
  let module Client = Mm_serve.Client in
  let module Wire = Mm_serve.Wire in
  let module Router = Mm_cluster.Router in
  let module Rng = Mm_device.Rng in
  section "Storm: open-loop arrivals on 4 shards, one killed mid-run";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let n_shards = 4 in
  let budget = 30. in
  let sock i = tmp_path (Printf.sprintf "storm_shard%d.sock" i) in
  (* one warm in-memory cache per shard: the ring partitions by NPN class,
     so each shard's cache sees its whole slice *)
  let boot i =
    start_daemon
      (Server.config
         ~engine:(Engine.config ~timeout_per_call:budget ~cache:(Cache.create ()) ())
         ~max_pending:64 ~max_batch:16
         ~shard_id:(Printf.sprintf "shard-%d" i)
         ~socket_path:(sock i) ())
  in
  let servers = Array.init n_shards boot in
  let router =
    Router.create
      (Router.config ~replicas:2 ~retry_budget_s:2.0
         ~probe_interval_s:(Some 0.1) ~seed:42 ())
      (List.init n_shards (fun i ->
           { Router.id = Printf.sprintf "shard-%d" i;
             addr = Client.Unix_sock (sock i) }))
  in
  (* mixed widths: every 2- and 3-input function, shuffled one way *)
  let specs =
    let a = Array.append (Engine.all_functions ~arity:2)
        (Engine.all_functions ~arity:3) in
    let rng = Rng.create 7 in
    for i = Array.length a - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  (* one storm phase: open-loop Poisson arrivals at [rate] req/s — a
     request is launched at its scheduled time whether or not earlier
     ones have answered, so a struggling cluster faces a growing backlog
     instead of a conveniently self-throttling client *)
  let storm ~label ~rate ~n_requests ~kill =
    let rng = Rng.create 11 in
    let arrivals = Array.make n_requests 0. in
    let t = ref 0. in
    for i = 0 to n_requests - 1 do
      t := !t +. (-.log (1. -. Rng.float rng) /. rate);
      arrivals.(i) <- !t
    done;
    let outcomes = Array.make n_requests None in
    let m = Mutex.create () in
    let launched = ref 0 in
    let t0 = Unix.gettimeofday () in
    (match kill with
     | None -> ()
     | Some (victim, at_frac) ->
       let kill_at = at_frac *. arrivals.(n_requests - 1) in
       ignore
         (Thread.create
            (fun () ->
               Thread.delay kill_at;
               Printf.printf "  [%.2fs] killing shard-%d (abrupt, no drain)\n%!"
                 kill_at victim;
               Server.die servers.(victim);
               Server.wait servers.(victim);
               Thread.delay 0.5;
               servers.(victim) <- boot victim;
               Printf.printf "  [%.2fs] shard-%d restarted\n%!"
                 (Unix.gettimeofday () -. t0) victim)
            ()));
    let worker i () =
      let s0 = Unix.gettimeofday () in
      let r = Router.synth router specs.(i mod Array.length specs) in
      let dt = Unix.gettimeofday () -. s0 in
      Mutex.protect m (fun () -> outcomes.(i) <- Some (r, dt))
    in
    let threads = ref [] in
    for i = 0 to n_requests - 1 do
      let due = arrivals.(i) -. (Unix.gettimeofday () -. t0) in
      if due > 0. then Thread.delay due;
      threads := Thread.create (worker i) () :: !threads;
      incr launched
    done;
    List.iter Thread.join !threads;
    let wall = Unix.gettimeofday () -. t0 in
    (* slice the answered latencies by the shard that answered *)
    let by_shard = Hashtbl.create 8 in
    let ok = ref 0 and shed = ref 0 and erred = ref 0 and failed = ref 0 in
    let failovers = ref 0 in
    let lats = ref [] in
    Array.iter
      (function
        | None -> ()
        | Some (r, dt) -> (
          match r with
          | Ok o -> (
            if o.Router.failover then incr failovers;
            match o.Router.reply with
            | Wire.Result _ ->
              incr ok;
              lats := dt :: !lats;
              let l =
                try Hashtbl.find by_shard o.Router.shard
                with Not_found -> ref []
              in
              l := dt :: !l;
              Hashtbl.replace by_shard o.Router.shard l
            | Wire.Err e -> (
              match e.Wire.code with
              | Wire.Overloaded | Wire.Unavailable -> incr shed
              | _ -> incr erred))
          | Error _ -> incr failed))
      outcomes;
    let availability = float_of_int !ok /. float_of_int (max 1 n_requests) in
    let all = Array.of_list !lats in
    Array.sort compare all;
    Printf.printf
      "  %s: %d req @ %.0f rps in %.2fs -> ok %d, shed %d, err %d, \
       no-answer %d; availability %.2f%%; failover %d; p50 %.1f ms \
       p95 %.1f ms p99 %.1f ms\n%!"
      label n_requests rate wall !ok !shed !erred !failed
      (100. *. availability) !failovers
      (1e3 *. percentile all 0.50)
      (1e3 *. percentile all 0.95)
      (1e3 *. percentile all 0.99);
    let shard_json =
      Hashtbl.fold
        (fun shard l acc ->
          let a = Array.of_list !l in
          Array.sort compare a;
          Json.Obj
            [
              ("shard", Json.String shard);
              ("answered", Json.Int (Array.length a));
              ("p50_s", Json.Float (percentile a 0.50));
              ("p95_s", Json.Float (percentile a 0.95));
              ("p99_s", Json.Float (percentile a 0.99));
            ]
          :: acc)
        by_shard []
    in
    ( availability,
      Json.Obj
        [
          ("phase", Json.String label);
          ("requests", Json.Int n_requests);
          ("rate_rps", Json.Float rate);
          ("wall_s", Json.Float wall);
          ("ok", Json.Int !ok);
          ("shed", Json.Int !shed);
          ( "shed_rate",
            Json.Float (float_of_int !shed /. float_of_int (max 1 n_requests))
          );
          ("typed_errors", Json.Int !erred);
          ("unanswered", Json.Int !failed);
          ("availability", Json.Float availability);
          ("failovers", Json.Int !failovers);
          ("p50_s", Json.Float (percentile all 0.50));
          ("p95_s", Json.Float (percentile all 0.95));
          ("p99_s", Json.Float (percentile all 0.99));
          ( "kill",
            match kill with
            | None -> Json.Null
            | Some (victim, at_frac) ->
              Json.Obj
                [
                  ("shard", Json.Int victim);
                  ("at_fraction", Json.Float at_frac);
                ] );
          ("per_shard", Json.List shard_json);
        ] )
  in
  (* cold: first sight of every class, SAT bills on every shard *)
  let _, cold_json =
    storm ~label:"cold" ~rate:60. ~n_requests:272 ~kill:None
  in
  (* warm: caches hot, then one shard is SIGKILLed (in-process stand-in:
     Server.die) mid-run and restarted 0.5 s later — the router must keep
     answering throughout via failover *)
  let availability, warm_json =
    storm ~label:"warm+kill" ~rate:250. ~n_requests:544
      ~kill:(Some (1, 0.45))
  in
  let router_stats = Router.stats_json router in
  Router.close router;
  Array.iter (fun s -> Server.stop s) servers;
  if availability < 0.99 then
    Printf.printf
      "WARNING: availability %.2f%% under the injected kill is below the \
       99%% target\n"
      (100. *. availability);
  write_bench "cluster" ~budget ~cache:"cold+warm"
    [
      ( "workload",
        Json.String
          "open-loop Poisson arrivals, all 2- and 3-input functions \
           shuffled, 4 shards, replicas=2, one shard killed mid-warm-run" );
      ("n_shards", Json.Int n_shards);
      ("phases", Json.List [ cold_json; warm_json ]);
      ("availability_under_kill", Json.Float availability);
      ("router_stats", router_stats);
    ]

(* ------------------------------------------------------------------ *)
(* Atlas: offline universe build cost per effort tier + lookup speed   *)
(* ------------------------------------------------------------------ *)

let atlas_bench () =
  let module Atlas = Mm_atlas.Atlas in
  section "Atlas: offline NPN universe build per effort tier, lookup speed";
  let budget = 10. in
  let goals = Atlas.universe ~max_n:3 () in
  Printf.printf "universe: %d goals (all classes n<=3, both modes, both \
                 polarities)\n\n%!"
    (List.length goals);
  let t =
    Table.create
      [ "effort"; "built"; "failed"; "records"; "bytes"; "N_R proofs";
        "certificates"; "wall [s]" ]
  in
  let tiers =
    List.map
      (fun effort ->
        let path = tmp_path (Printf.sprintf "atlas_tier%d.mmatlas" effort) in
        let stats, wall =
          timed (fun () ->
              match
                Atlas.build ~effort ~timeout_per_call:budget ~resume:false ~path
                  goals
              with
              | Ok s -> s
              | Error e ->
                failwith
                  (Format.asprintf "tier %d build: %a" effort Atlas.pp_error e))
        in
        let info =
          match Atlas.info path with
          | Ok i -> i
          | Error e ->
            failwith (Format.asprintf "tier %d info: %a" effort Atlas.pp_error e)
        in
        Table.add_row t
          [ string_of_int effort;
            string_of_int stats.Atlas.built;
            string_of_int stats.Atlas.failed;
            string_of_int info.Atlas.i_records;
            string_of_int info.Atlas.i_bytes;
            string_of_int info.Atlas.i_rops_exact;
            string_of_int info.Atlas.i_certificates;
            Printf.sprintf "%.2f" wall ];
        (effort, path, stats, info, wall))
      [ 1; 2; 3 ]
  in
  Table.print t;
  (* lookup latency: every 3-input function against the tier-2 artifact —
     canonicalize, hash probe, inverse transform, full row re-verification *)
  let _, lookup_path, _, _, _ = List.nth tiers 1 in
  let atlas =
    match Atlas.load lookup_path with
    | Ok a -> a
    | Error e -> failwith (Format.asprintf "lookup load: %a" Atlas.pp_error e)
  in
  let reps = 200 in
  let misses = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    for v = 0 to 255 do
      match
        Atlas.find atlas ~mode:Atlas.Mixed ~rop_kind:Mm_core.Rop.Nor
          ~taps:E.Any_vop (Tt.of_int 3 v)
      with
      | Some _ -> ()
      | None -> incr misses
    done
  done;
  let lookup_s = (Unix.gettimeofday () -. t0) /. float_of_int (reps * 256) in
  Printf.printf
    "\nlookup: %.1f us per answered minimization (%d lookups, %d misses)\n%!"
    (1e6 *. lookup_s) (reps * 256) !misses;
  let (), verify_s =
    timed (fun () ->
        match Atlas.verify lookup_path with
        | Ok _ -> ()
        | Error issues ->
          failwith
            (Format.asprintf "bench atlas failed verify: %a" Atlas.pp_issue
               (List.hd issues)))
  in
  Printf.printf "verify: full re-simulation of every record in %.2fs\n%!"
    verify_s;
  let tier_json (effort, _, (stats : Atlas.build_stats), info, wall) =
    Json.Obj
      [
        ("effort", Json.Int effort);
        ("built", Json.Int stats.Atlas.built);
        ("failed", Json.Int stats.Atlas.failed);
        ("records", Json.Int info.Atlas.i_records);
        ("size_bytes", Json.Int info.Atlas.i_bytes);
        ("rops_exact", Json.Int info.Atlas.i_rops_exact);
        ("both_exact", Json.Int info.Atlas.i_both_exact);
        ("certificates", Json.Int info.Atlas.i_certificates);
        ("build_wall_s", Json.Float wall);
      ]
  in
  List.iter
    (fun (_, path, _, _, _) -> try Sys.remove path with Sys_error _ -> ())
    tiers;
  write_bench "atlas" ~budget ~cache:"none"
    [
      ( "workload",
        Json.String
          "all NPN classes n<=3, both modes and polarities, per effort \
           tier; lookups over all 256 3-input functions" );
      ("goals", Json.Int (List.length goals));
      ("tiers", Json.List (List.map tier_json tiers));
      ("lookup_us", Json.Float (1e6 *. lookup_s));
      ("lookup_misses", Json.Int !misses);
      ("verify_s", Json.Float verify_s);
    ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (one Test.make per table/figure kernel)   *)
(* ------------------------------------------------------------------ *)

let perf () =
  section "Bechamel micro-benchmarks (kernel of each experiment)";
  let open Bechamel in
  let open Toolkit in
  let and4 =
    Spec.of_fun ~name:"and4" ~arity:4 ~outputs:1 (fun ~row ~output:_ -> row = 15)
  in
  let tests =
    [
      Test.make ~name:"table1/vop-apply"
        (Staged.stage (fun () ->
             ignore
               (Vop.apply ~n:4 (Tt.var 4 1) ~te:(Literal.Pos 2) ~be:(Literal.Neg 3))));
      Test.make ~name:"table2/synth-and4-v-only"
        (Staged.stage (fun () ->
             ignore
               (Synth.solve_instance ~timeout:30.
                  (E.config ~n_legs:1 ~steps_per_leg:5 ~n_rops:0 ())
                  and4)));
      Test.make ~name:"table3/vop-closure-n3"
        (Staged.stage (fun () ->
             let lits = U.literal_functions ~n:3 in
             ignore (U.vop_closure ~n:3 ~electrodes:lits lits)));
      Test.make ~name:"table4/encode-gfmul-compact"
        (Staged.stage (fun () ->
             ignore
               (E.size
                  (E.config ~taps:E.Any_vop ~n_legs:6 ~steps_per_leg:3 ~n_rops:4 ())
                  (Gf.mul_spec 2))));
      Test.make ~name:"table5/baseline-full-adder"
        (Staged.stage (fun () ->
             ignore (Baseline.nor_network (Arith.adder_bits 1))));
      Test.make ~name:"fig1/evaluate-gfmul"
        (Staged.stage (fun () ->
             ignore (C.output_tables (Reference.gf4_mul_circuit ()))));
      Test.make ~name:"fig2/simulate-input-1011"
        (Staged.stage
           (let plan = Schedule.plan (Reference.gf4_mul_circuit ()) in
            fun () -> ignore (Schedule.execute plan ~input:0b1011 ())));
    ]
  in
  let grouped = Test.make_grouped ~name:"mmsynth" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let t = Table.create [ "kernel"; "time/run"; "r^2" ] in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, ols_result) ->
      let time_ns =
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> est
        | Some _ | None -> nan
      in
      let pretty =
        if Float.is_nan time_ns then "n/a"
        else if time_ns > 1e9 then Printf.sprintf "%.2f s" (time_ns /. 1e9)
        else if time_ns > 1e6 then Printf.sprintf "%.2f ms" (time_ns /. 1e6)
        else if time_ns > 1e3 then Printf.sprintf "%.2f us" (time_ns /. 1e3)
        else Printf.sprintf "%.0f ns" time_ns
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with
        | Some r -> Printf.sprintf "%.3f" r
        | None -> "-"
      in
      Table.add_row t [ name; pretty; r2 ])
    (List.sort compare rows);
  Table.print t

(* ------------------------------------------------------------------ *)
(* compare: what two runs of one experiment disagree on                *)
(* ------------------------------------------------------------------ *)

(* Walk two BENCH files side by side, objects by key and lists by index,
   and print the path of every difference. Counts, verdicts, names and
   flags must match; float leaves (times, rates) and the host fields
   [git_rev] and [host_cores] are informational. Exits 1 on any
   difference. *)
let compare_bench old_file new_file =
  let load file =
    match Json.of_string (In_channel.with_open_text file In_channel.input_all) with
    | Ok j -> j
    | Error msg -> failwith (Printf.sprintf "compare: %s: %s" file msg)
  in
  let differences = ref 0 in
  let differ path what =
    incr differences;
    Printf.printf "%s: %s\n" path what
  in
  let informational k = k = "git_rev" || k = "host_cores" in
  let rec walk path a b =
    match (a, b) with
    | Json.Obj ka, Json.Obj kb ->
      let key k = if path = "" then k else path ^ "." ^ k in
      List.iter
        (fun (k, va) ->
          if not (informational k) then
            match List.assoc_opt k kb with
            | Some vb -> walk (key k) va vb
            | None -> differ (key k) ("only in " ^ old_file))
        ka;
      List.iter
        (fun (k, _) ->
          if not (informational k || List.mem_assoc k ka) then
            differ (key k) ("only in " ^ new_file))
        kb
    | Json.List la, Json.List lb ->
      let rec items i la lb =
        let p = Printf.sprintf "%s[%d]" path i in
        match (la, lb) with
        | a :: la, b :: lb -> walk p a b; items (i + 1) la lb
        | _ :: la, [] -> differ p ("only in " ^ old_file); items (i + 1) la []
        | [], _ :: lb -> differ p ("only in " ^ new_file); items (i + 1) [] lb
        | [], [] -> ()
      in
      items 0 la lb
    | (Json.Float _ | Json.Int _), Json.Float _ | Json.Float _, Json.Int _ -> ()
    | _ ->
      if a <> b then differ path (Json.to_string a ^ " -> " ^ Json.to_string b)
  in
  walk "" (load old_file) (load new_file);
  if !differences > 0 then begin
    Printf.printf "%d difference(s)\n" !differences;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* driver                                                              *)
(* ------------------------------------------------------------------ *)

type opts = { budget : float option; limit : int; trials : int; full : bool }

(* One experiment: its name, the positional arguments it takes, whether
   [all] runs it, its usage text and its runner. *)
type experiment = {
  name : string;
  args : string list;
  in_all : bool;
  doc : string;
  run : opts -> string list -> unit;
}

let entry ?(args = []) ?(in_all = true) name doc run =
  { name; args; in_all = in_all && args = []; doc; run }

(* the --budget of an experiment whose own default is [default] *)
let budget o default = Option.value o.budget ~default

let experiments =
  [ entry "table1" "V-op behaviour (Table I)" (fun _ _ -> table1 ());
    entry "table2" "V-only AND/NAND/OR/NOR schedules (Table II)" (fun o _ ->
        table2 ~budget:(budget o 120.) ());
    entry "table3" "universality counts (Table III); --full includes the slow cell"
      (fun o _ -> table3 ~full:o.full ());
    entry "table4" "optimal synthesis MM vs R-only (Table IV)" (fun o _ ->
        table4 ~budget:(budget o 120.) ());
    entry "table5" "adder comparison with literature (Table V)" (fun _ _ ->
        table5 ());
    entry "fig1" "the GF(2^2) multiplier circuit" (fun _ _ -> fig1 ());
    entry "fig2" "electrical trace for input 1011" (fun _ _ -> fig2 ());
    entry "reliability" "MM vs R-only under variation (ablation A); --trials N"
      (fun o _ -> reliability ~trials:o.trials ());
    entry "encodings" "direct vs compact encoding (ablation B)" (fun o _ ->
        encodings ~budget:(budget o 120.) ());
    entry "symmetry" "symmetry-breaking ablation (ablation C)" (fun o _ ->
        symmetry ~budget:(budget o 120.) ());
    entry "crossbar" "line array vs crossbar latency (extension D)" (fun _ _ ->
        crossbar ());
    entry "heuristic" "scalable heuristic synthesis (extension E)" (fun _ _ ->
        heuristic_bench ());
    entry "map"
      "technology mapping, the crossbar backend and resynthesis, one\n\
       compile per backend and workload -> BENCH_map.json,\n\
       BENCH_xbar.json, BENCH_resyn.json (budget 0.5 s per probe)"
      (fun o _ -> map_bench ~budget:(budget o 0.5) ());
    entry "engine"
      "batch engine: NPN classes + cache + domain pool -> BENCH_engine.json"
      (fun _ _ -> engine_bench ());
    entry "ladder"
      "incremental assumption sweep vs monolithic -> BENCH_ladder.json\n\
       (budget 60 s); --limit N classes"
      (fun o _ -> ladder_bench ~budget:(budget o 60.) ~limit:o.limit ());
    entry "ladder-scan" ~in_all:false
      "depth/hardness map of all 4-input classes, incremental only\n\
       (budget 3 s)"
      (fun o _ -> ladder_scan ~budget:(budget o 3.) ());
    entry "ladder-probe" ~args:[ "TABLE" ]
      "per-attempt diagnostic for one 4-input hex table, both paths\n\
       (budget 10 s)"
      (fun o args -> ladder_probe ~budget:(budget o 10.) (List.hd args));
    entry "robustness"
      "completion/overhead under injected faults -> BENCH_robustness.json"
      (fun _ _ -> robustness_bench ());
    entry "serve"
      "resident daemon load test, warm vs cold, atlas-backed level\n\
       -> BENCH_serve.json"
      (fun _ _ -> serve_bench ());
    entry "storm"
      "open-loop storm on a 4-shard cluster with a mid-run shard kill\n\
       -> BENCH_cluster.json"
      (fun _ _ -> storm_bench ());
    entry "atlas" "NPN atlas build per effort tier + lookup latency\n-> BENCH_atlas.json"
      (fun _ _ -> atlas_bench ());
    entry "perf" "Bechamel micro-benchmarks" (fun _ _ -> perf ());
    entry "compare" ~args:[ "OLD"; "NEW" ]
      "the counts two BENCH files disagree on, by path; exits 1 on any"
      (fun _ args -> compare_bench (List.nth args 0) (List.nth args 1)) ]

let usage =
  let line e =
    let first = String.concat " " (e.name :: e.args) in
    let doc = String.split_on_char '\n' e.doc in
    (* a name too wide for its column gets a line of its own *)
    let doc = if String.length first > 14 then "" :: doc else doc in
    String.concat ("\n" ^ String.make 17 ' ')
      (Printf.sprintf "  %-14s %s" first (List.hd doc) :: List.tl doc)
  in
  String.concat "\n"
    ([ "usage: main.exe [experiment] [options]"; ""; "experiments:" ]
    @ List.map line experiments
    @ [ Printf.sprintf "  %-14s %s" "all"
          "every experiment above that takes no argument, but ladder-scan\n\
          \                 (the default)";
        "";
        "options:" ])

let () =
  let budget = ref None and limit = ref 24 and trials = ref 40 in
  let full = ref false and words = ref [] in
  let options =
    Arg.align
      [ ( "--budget",
          Arg.Float (fun b -> budget := Some b),
          "SECONDS per solver call (each experiment has its own default)" );
        ("--limit", Arg.Set_int limit, "N classes that ladder samples (24)");
        ("--trials", Arg.Set_int trials, "N Monte Carlo trials of reliability (40)");
        ("--full", Arg.Set full, " include table3's slow cell") ]
  in
  Arg.parse options (fun w -> words := w :: !words) usage;
  let o = { budget = !budget; limit = !limit; trials = !trials; full = !full } in
  match List.rev !words with
  | [] | [ "all" ] -> List.iter (fun e -> if e.in_all then e.run o []) experiments
  | name :: args -> (
    match List.find_opt (fun e -> e.name = name) experiments with
    | Some e when List.length args = List.length e.args -> e.run o args
    | _ ->
      Arg.usage options usage;
      exit 2)
