(* mmsynth: command-line front end for the mixed-mode synthesis library.

     mmsynth synth -e "x1 ^ x2" -e "x1 & x2" --minimize
     mmsynth synth -e "x1 & x2 | x3" --rops 0 --legs 1 --steps 3 --dot out.dot
     mmsynth check -e "x1 ^ x2"            # V-op realizability
     mmsynth baseline -e "x1 ^ x2 ^ x3"    # QMC -> NOR-NOR gate count
     mmsynth simulate -e "x1 & x2" --rops 1 --legs 2 --steps 2 --input 3
     mmsynth batch --sweep 3 --cache mm3.cache -j 4   # whole function space *)

open Cmdliner

module Expr = Mm_boolfun.Expr
module Spec = Mm_boolfun.Spec
module Arith = Mm_boolfun.Arith
module C = Mm_core.Circuit
module E = Mm_core.Encode
module Synth = Mm_core.Synth
module Schedule = Mm_core.Schedule

(* built-in benchmark specs addressable by name, e.g. adder3, parity8 *)
let workload_of_name s =
  let num prefix k =
    let lp = String.length prefix in
    if String.length s > lp && String.sub s 0 lp = prefix then
      Option.map k (int_of_string_opt (String.sub s lp (String.length s - lp)))
    else None
  in
  let first fs =
    List.fold_left
      (fun acc f -> match acc with Some _ -> acc | None -> f ())
      None fs
  in
  let named =
    match s with
    | "mux21" -> Some Arith.mux21
    | "mux41" -> Some Arith.mux41
    | "andor4" -> Some Arith.and_or_4
    | "table2" -> Some Arith.table2_spec
    | "full_adder" -> Some Arith.full_adder
    | _ ->
      first
        [ (fun () -> num "adder" Arith.adder_bits);
          (fun () -> num "majority" Arith.majority);
          (fun () -> num "parity" Arith.parity);
          (fun () -> num "cmp3_" Arith.comparator3);
          (fun () -> num "cmp" Arith.comparator);
          (fun () -> num "mul" Arith.multiplier) ]
  in
  match named with
  | Some spec -> Ok spec
  | None | exception Invalid_argument _ | exception Failure _ ->
    Error
      (Printf.sprintf
         "unknown workload %S (try adderN, majorityN, parityN, cmpN, cmp3_N, \
          mulN, mux21, mux41, andor4, table2, full_adder)"
         s)

(* build the spec from -e expressions, a --pla/--tables file, or a named
   --workload *)
let spec_of_inputs names exprs arity pla tables workload =
  let name = match names with Some n -> n | None -> "cli" in
  let sources =
    (if exprs <> [] then 1 else 0)
    + (if pla <> None then 1 else 0)
    + (if tables <> None then 1 else 0)
    + (if workload <> None then 1 else 0)
  in
  if sources = 0 then
    Error
      "no specification: use -e EXPR, --pla FILE, --tables FILE or \
       --workload NAME"
  else if sources > 1 then
    Error "give exactly one of -e, --pla, --tables, --workload"
  else
    match workload, exprs, pla, tables with
    | Some w, _, _, _ -> workload_of_name w
    | None, (_ :: _), _, _ -> (
      match List.map Expr.parse_exn exprs with
      | parsed -> (
        match arity with
        | Some n -> Ok (Expr.spec ~name ~n parsed)
        | None -> Ok (Expr.spec ~name parsed))
      | exception Invalid_argument msg -> Error msg)
    | None, [], Some path, _ -> Mm_boolfun.Io.read_pla path
    | None, [], None, Some path -> (
      match open_in path with
      | exception Sys_error msg -> Error msg
      | ic ->
        let len = in_channel_length ic in
        let contents = really_input_string ic len in
        close_in ic;
        Mm_boolfun.Io.parse_tables ~name contents)
    | None, [], None, None -> assert false

(* common options *)
let exprs =
  let doc = "Output function as a Boolean expression over x1, x2, ... \
             (operators: ~ & | ^, or the paper's * and +). Repeatable: one \
             per output. Alternatively load a spec with --pla or --tables." in
  Arg.(value & opt_all string [] & info [ "e"; "expr" ] ~docv:"EXPR" ~doc)

let pla_file =
  Arg.(value & opt (some file) None & info [ "pla" ] ~docv:"FILE"
         ~doc:"Load the specification from a Berkeley-PLA file.")

let tables_file =
  Arg.(value & opt (some file) None & info [ "tables" ] ~docv:"FILE"
         ~doc:"Load the specification from a truth-table file (one \
               2^n-character 0/1 line per output).")

let arity =
  let doc = "Force the number of inputs (default: the largest variable used)." in
  Arg.(value & opt (some int) None & info [ "n"; "arity" ] ~docv:"N" ~doc)

let workload_t =
  Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"NAME"
         ~doc:"Built-in benchmark spec: $(b,adderN) (N-bit ripple adder, \
               2N+1 inputs), $(b,majorityN), $(b,parityN), $(b,cmpN), \
               $(b,cmp3_N) (full 3-output comparator), $(b,mulN), \
               $(b,mux21), $(b,mux41), $(b,andor4), $(b,table2), \
               $(b,full_adder).")

let name_t =
  Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME"
         ~doc:"Name for the specification.")

let timeout =
  Arg.(value & opt float 60.0 & info [ "timeout" ] ~docv:"SECONDS"
         ~doc:"Solver budget per SAT call.")

let rops = Arg.(value & opt (some int) None & info [ "rops" ] ~docv:"N_R"
                  ~doc:"Number of stateful R-ops (NOR gates).")

let legs = Arg.(value & opt (some int) None & info [ "legs" ] ~docv:"N_L"
                  ~doc:"Number of V-legs (default: N_R + #outputs).")

let steps = Arg.(value & opt (some int) None & info [ "steps" ] ~docv:"N_VS"
                   ~doc:"V-op steps per leg (default: arity + 2).")

let minimize_flag =
  Arg.(value & flag & info [ "minimize" ]
         ~doc:"Run the paper's optimality loop: smallest N_R, then smallest N_VS.")

let r_only = Arg.(value & flag & info [ "r-only" ]
                    ~doc:"Synthesize with stateful R-ops only (no V-legs).")

let final_taps =
  Arg.(value & flag & info [ "final-taps" ]
         ~doc:"Restrict R-op inputs to leg-final values (directly \
               schedulable; the paper's formula allows intermediate taps).")

let no_incremental =
  Arg.(value & flag & info [ "no-incremental" ]
         ~doc:"Disable the incremental assumption-ladder sweep and solve \
               every budget point on a fresh solver (the monolithic \
               differential-testing oracle; slower).")

let dot_out = Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
                     ~doc:"Write the circuit as Graphviz dot.")

let json_flag = Arg.(value & flag & info [ "json" ] ~doc:"Print the circuit as JSON.")

let taps_of final = if final then E.Final_only else E.Any_vop

let print_circuit ~json ~dot c =
  Format.printf "%a@." C.pp c;
  Printf.printf
    "steps: %d (V) + %d (R) = %d; devices: %d (after physicalization)\n"
    (C.steps_per_leg c) (C.n_rops c) (C.n_steps c) (C.n_devices c);
  if json then print_endline (Mm_core.Emit.to_json c);
  match dot with
  | Some path ->
    let oc = open_out path in
    output_string oc (Mm_core.Emit.to_dot c);
    close_out oc;
    Printf.printf "dot written to %s\n" path
  | None -> ()

let synth_cmd =
  let run exprs pla tables workload arity name timeout rops legs steps minimize
      r_only final no_inc json dot =
    match spec_of_inputs name exprs arity pla tables workload with
    | Error msg -> `Error (false, msg)
    | Ok spec ->
    let n_out = Spec.output_count spec in
    if minimize then begin
      let incremental = not no_inc in
      let report =
        if r_only then
          Synth.minimize_r_only ~timeout_per_call:timeout ~incremental spec
        else
          Synth.minimize ~timeout_per_call:timeout ~taps:(taps_of final)
            ~incremental spec
      in
      List.iter (fun a -> Format.printf "tried %a@." Synth.pp_attempt a)
        report.Synth.attempts;
      match report.Synth.best with
      | Some (c, _) ->
        Format.printf "@.N_R minimal proven: %b; N_VS minimal proven: %b@.@."
          report.Synth.rops_proven_minimal report.Synth.steps_proven_minimal;
        print_circuit ~json ~dot c;
        `Ok 0
      | None -> `Error (false, "no circuit found within the budget")
    end
    else begin
      let n_rops = Option.value rops ~default:(if r_only then 4 else 1) in
      let n_legs =
        if r_only then 0
        else Option.value legs ~default:(Synth.default_legs spec ~n_rops)
      in
      let steps_per_leg =
        if r_only then 0
        else Option.value steps ~default:(Spec.arity spec + 2)
      in
      ignore n_out;
      let cfg =
        E.config ~taps:(taps_of final) ~n_legs ~steps_per_leg ~n_rops ()
      in
      let a = Synth.solve_instance ~timeout cfg spec in
      Format.printf "%a@.@." Synth.pp_attempt a;
      match a.Synth.verdict with
      | Synth.Sat c ->
        print_circuit ~json ~dot c;
        let plan = Schedule.plan c in
        let failures = Schedule.verify plan spec in
        Printf.printf "simulator validation: %d/%d rows correct\n"
          ((1 lsl Spec.arity spec) - List.length failures)
          (1 lsl Spec.arity spec);
        `Ok 0
      | Synth.Unsat ->
        Printf.printf "UNSAT: no circuit with these dimensions (optimality certificate)\n";
        `Ok 0
      | Synth.Timeout -> `Error (false, "solver budget exhausted")
    end
  in
  let term =
    Term.(
      ret
        (const run $ exprs $ pla_file $ tables_file $ workload_t $ arity
        $ name_t $ timeout $ rops $ legs $ steps $ minimize_flag $ r_only
        $ final_taps $ no_incremental $ json_flag $ dot_out))
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Synthesize a mixed-mode memristive circuit via SAT.")
    term

(* ---- prove: parallel proof orchestration over one minimization --------- *)

let prove_cmd =
  let module Prove = Mm_prove.Prove in
  let workers =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N"
           ~doc:"Crash-isolated solver workers on the domain pool (each \
                 budget point of the sweep is attacked by all of them).")
  in
  let mode =
    Arg.(value
         & opt (enum [ ("auto", Prove.Auto);
                       ("portfolio", Prove.Portfolio_mode);
                       ("cube", Prove.Cube_mode) ]) Prove.Auto
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"$(b,portfolio) races diversified solver configurations \
                   with learnt-clause sharing, first definitive verdict \
                   wins; $(b,cube) splits the instance on the first \
                   operation-selector bank and conquers the cubes as \
                   independent assumption jobs; $(b,auto) (default) cubes \
                   whenever the instance exposes a splittable selector \
                   bank and falls back to the portfolio otherwise.")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S"
           ~doc:"Diversification seed. Every worker derives its private \
                 PRNG stream from it, so a run is reproducible seed-for-seed \
                 (and single-core via --replay).")
  in
  let exchange_lbd =
    Arg.(value & opt int 4 & info [ "exchange-lbd" ] ~docv:"K"
           ~doc:"Portfolio clause sharing: only learnt clauses with LBD <= K \
                 (and all unit clauses) are exported to the exchange.")
  in
  let cube_depth =
    Arg.(value & opt int 1 & info [ "cube-depth" ] ~docv:"D"
           ~doc:"Selector banks in the cartesian cube split (D=1 splits on \
                 the first leg's first step only; deeper splits multiply \
                 the cube count).")
  in
  let replay_flag =
    Arg.(value & flag & info [ "replay" ]
           ~doc:"After the parallel run, re-prove every budget point \
                 single-core from its recorded provenance (the winning \
                 portfolio configuration, or the same cube set on one \
                 worker) and fail unless each verdict is reproduced.")
  in
  let run exprs pla tables workload arity name timeout r_only final json dot
      workers mode seed exchange_lbd cube_depth replay =
    match spec_of_inputs name exprs arity pla tables workload with
    | Error msg -> `Error (false, msg)
    | Ok spec ->
    if workers < 1 then `Error (false, "--workers must be >= 1")
    else begin
      let pcfg =
        { Prove.workers; mode; seed; exchange_lbd; cube_depth }
      in
      (* chronological (cfg, provenance) trail of the sweep, for --replay *)
      let points = ref [] in
      let log cfg prov =
        points := (cfg, prov) :: !points;
        Format.printf "point (%d legs, %d steps, %d rops): %a@."
          cfg.E.n_legs cfg.E.steps_per_leg cfg.E.n_rops Prove.pp_provenance
          prov
      in
      let prove = Prove.hook ~log pcfg spec in
      let report =
        if r_only then
          Synth.minimize_r_only ~timeout_per_call:timeout ~incremental:false
            ~prove spec
        else
          Synth.minimize ~timeout_per_call:timeout ~taps:(taps_of final)
            ~incremental:false ~prove spec
      in
      List.iter (fun a -> Format.printf "tried %a@." Synth.pp_attempt a)
        report.Synth.attempts;
      let verdict_tag = function
        | Synth.Sat _ -> "SAT"
        | Synth.Unsat -> "UNSAT"
        | Synth.Timeout -> "TIMEOUT"
      in
      let replay_mismatches =
        if not replay then 0
        else
          List.fold_left
            (fun bad (cfg, prov) ->
              match
                List.find_opt
                  (fun a ->
                    a.Synth.n_legs = cfg.E.n_legs
                    && a.Synth.steps_per_leg = cfg.E.steps_per_leg
                    && a.Synth.n_rops = cfg.E.n_rops)
                  report.Synth.attempts
              with
              | None -> bad
              | Some a ->
                let r = Prove.replay ~timeout prov cfg spec in
                let same =
                  verdict_tag r.Synth.verdict = verdict_tag a.Synth.verdict
                in
                Format.printf "replay (%d legs, %d steps, %d rops): %s %s@."
                  cfg.E.n_legs cfg.E.steps_per_leg cfg.E.n_rops
                  (verdict_tag r.Synth.verdict)
                  (if same then "(reproduced)" else "(MISMATCH)");
                if same then bad else bad + 1)
            0 (List.rev !points)
      in
      if replay_mismatches > 0 then
        `Error
          (false,
           Printf.sprintf "replay: %d point(s) not reproduced single-core"
             replay_mismatches)
      else
        match report.Synth.best with
        | Some (c, _) ->
          Format.printf "@.N_R minimal proven: %b; N_VS minimal proven: %b@.@."
            report.Synth.rops_proven_minimal report.Synth.steps_proven_minimal;
          print_circuit ~json ~dot c;
          `Ok 0
        | None -> `Error (false, "no circuit found within the budget")
    end
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:"Minimize like $(b,synth --minimize), but attack every budget \
             point with a parallel proof orchestrator: a diversified SAT \
             portfolio with clause sharing, or cube-and-conquer over the \
             operation-selector literals. Verdicts are byte-compatible with \
             the sequential path ($(b,make smoke-prove) diffs them) and \
             each point's provenance is printed for single-core replay.")
    Term.(
      ret
        (const run $ exprs $ pla_file $ tables_file $ workload_t $ arity
        $ name_t $ timeout $ r_only $ final_taps $ json_flag $ dot_out
        $ workers $ mode $ seed $ exchange_lbd $ cube_depth $ replay_flag))

let check_cmd =
  let run exprs pla tables workload arity name =
    match spec_of_inputs name exprs arity pla tables workload with
    | Error msg -> `Error (false, msg)
    | Ok spec ->
    if Spec.arity spec > 4 then
      `Error (false, "V-op realizability check supports up to 4 inputs")
    else begin
      Array.iteri
        (fun o tt ->
          Printf.printf "output %d: %s\n" (o + 1)
            (if Mm_core.Universality.vop_realizable tt then
               "realizable by V-ops alone"
             else "NOT realizable by V-ops alone (R-ops required)"))
        (Spec.outputs spec);
      `Ok 0
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Check whether each output is realizable by V-ops alone (n <= 4).")
    Term.(
      ret
        (const run $ exprs $ pla_file $ tables_file $ workload_t $ arity
        $ name_t))

let baseline_cmd =
  let run exprs pla tables workload arity name =
    match spec_of_inputs name exprs arity pla tables workload with
    | Error msg -> `Error (false, msg)
    | Ok spec ->
      let c = Mm_core.Baseline.nor_network spec in
      Format.printf "%a@." C.pp c;
      Printf.printf
        "QMC -> NOR-NOR baseline: %d NOR gates, %d devices, %d steps\n"
        (C.n_rops c) (C.n_devices c) (C.n_steps c);
      `Ok 0
  in
  Cmd.v
    (Cmd.info "baseline"
       ~doc:"Gate-oriented baseline: Quine-McCluskey cover mapped to 2-input NORs.")
    Term.(
      ret
        (const run $ exprs $ pla_file $ tables_file $ workload_t $ arity
        $ name_t))

let simulate_cmd =
  let input =
    Arg.(value & opt (some int) None & info [ "input" ] ~docv:"ROW"
           ~doc:"Input row to trace (default: verify all rows).")
  in
  let run exprs pla tables workload arity name timeout rops legs steps final
      input =
    match spec_of_inputs name exprs arity pla tables workload with
    | Error msg -> `Error (false, msg)
    | Ok spec ->
    let n_rops = Option.value rops ~default:1 in
    let n_legs = Option.value legs ~default:(Synth.default_legs spec ~n_rops) in
    let steps_per_leg = Option.value steps ~default:(Spec.arity spec + 2) in
    let cfg = E.config ~taps:(taps_of final) ~n_legs ~steps_per_leg ~n_rops () in
    let a = Synth.solve_instance ~timeout cfg spec in
    match a.Synth.verdict with
    | Synth.Sat c ->
      let plan = Schedule.plan c in
      (match input with
       | Some row ->
         let r = Schedule.execute plan ~input:row () in
         Format.printf "%a@." Mm_device.Waveform.pp r.Schedule.waveform;
         Printf.printf "outputs:";
         Array.iteri
           (fun o b -> Printf.printf " out%d=%d" (o + 1) (if b then 1 else 0))
           r.Schedule.outputs;
         print_newline ();
         `Ok 0
       | None ->
         let failures = Schedule.verify plan spec in
         Printf.printf "simulator validation: %d/%d rows correct\n"
           ((1 lsl Spec.arity spec) - List.length failures)
           (1 lsl Spec.arity spec);
         `Ok 0)
    | Synth.Unsat -> `Error (false, "UNSAT at these dimensions")
    | Synth.Timeout -> `Error (false, "solver budget exhausted")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Synthesize, then execute on the behavioral line-array simulator.")
    Term.(
      ret
        (const run $ exprs $ pla_file $ tables_file $ workload_t $ arity
        $ name_t $ timeout $ rops $ legs $ steps $ final_taps $ input))

(* ---- batch: NPN-canonicalizing, cached, multicore sweep ---------------- *)

(* ---- the two-tier store: atlas tier + overlay, shared by batch / serve /
   map ------------------------------------------------------------------- *)

module Atlas = Mm_atlas.Atlas

let atlas_arg =
  Arg.(value & opt (some string) None & info [ "atlas" ] ~docv:"FILE"
         ~doc:"Read-only NPN block atlas attached as the immutable front \
               tier of the result cache: covered whole-function requests \
               (arity <= 4) are answered from it with zero solver calls. A \
               damaged atlas is refused with a warning and the run degrades \
               to overlay-only operation.")

let cache_shards_arg =
  Arg.(value & opt (some int) None & info [ "cache-shards" ] ~docv:"K"
         ~doc:"Create the $(b,--cache) as a directory of K shard files \
               keyed by NPN-class hash, so damage quarantines one shard \
               instead of the whole store. Ignored when the path already \
               holds a legacy single-file cache; an existing sharded store \
               keeps its on-disk shard count.")

(* Open the mutable overlay (single file, sharded directory, or — when only
   an atlas is given — memory-only so the atlas has a cache to attach to),
   then attach the atlas tier. Damaged atlases are never served: warn and
   run overlay-only. *)
let open_store ?cache_file ?shards ?atlas () =
  let module Cache = Mm_engine.Cache in
  let cache =
    match cache_file, atlas with
    | Some path, _ -> Some (Cache.create ~path ?shards ())
    | None, Some _ -> Some (Cache.create ())
    | None, None -> None
  in
  (match cache, cache_file with
   | Some c, Some _ ->
     (match Cache.load_result c with
      | Cache.Fresh -> ()
      | l -> Format.printf "cache: %a@." Cache.pp_load l)
   | _ -> ());
  (match atlas, cache with
   | Some path, Some c ->
     (match Atlas.load path with
      | Ok a ->
        Printf.printf "atlas: %s: %d records attached\n%!" path (Atlas.size a);
        Atlas.attach a c
      | Error e ->
        Format.eprintf
          "warning: atlas: %s: %a — running overlay-only@." path
          Atlas.pp_error e)
   | _ -> ());
  cache

let batch_cmd =
  let module Engine = Mm_engine.Engine in
  let module Cache = Mm_engine.Cache in
  let module Table = Mm_report.Table in
  let batch_arity =
    Arg.(value & opt (some int) None & info [ "sweep" ] ~docv:"N"
           ~doc:"Sweep all $(b,2^2^N) single-output functions of N inputs \
                 (1-4; the 4-input space is 65 536 functions in 222 NPN \
                 classes).")
  in
  let jobs =
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"D"
           ~doc:"Worker domains (default: cores - 1; 1 = sequential).")
  in
  let cache_file =
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"FILE"
           ~doc:"Persistent result cache: hits skip the SAT solver and \
                 survive across runs.")
  in
  let no_npn =
    Arg.(value & flag & info [ "no-npn" ]
           ~doc:"Disable NPN class sharing (every function gets its own \
                 solver job).")
  in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print the per-function solver statistics table.")
  in
  let limit =
    Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"K"
           ~doc:"Only the first K functions of the sweep.")
  in
  let deadline_flag =
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS"
           ~doc:"Global wall-clock budget for the whole batch, distributed \
                 over pending instances; instances starting after it is \
                 gone skip the solver and degrade (see $(b,--fallback)).")
  in
  let retries_flag =
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N"
           ~doc:"Extra attempts for a crashed job, with bounded exponential \
                 backoff between rounds.")
  in
  let fallback_flag =
    Arg.(value
         & opt
             (enum
                [ ("none", Engine.No_fallback);
                  ("baseline", Engine.Use_baseline);
                  ("heuristic", Engine.Use_heuristic) ])
             Engine.No_fallback
         & info [ "fallback" ] ~docv:"KIND"
             ~doc:"When an instance exhausts its budget or crashes past its \
                   retries, emit a verified non-optimal circuit instead of \
                   dropping the spec: $(b,baseline) (QMC->NOR network) or \
                   $(b,heuristic) (Shannon decomposition).")
  in
  let inject_flag =
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"SPEC"
           ~doc:"Deterministic fault injection for robustness testing: \
                 comma-separated STAGE:RATE pairs (stages: worker, solver, \
                 cache-read, cache-write, verify), e.g. \
                 $(b,worker:0.3,solver:0.1).")
  in
  let inject_seed_flag =
    Arg.(value & opt int 0 & info [ "inject-seed" ] ~docv:"SEED"
           ~doc:"Seed for the $(b,--inject) plan (same seed, same faults).")
  in
  let json_stats_flag =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Also print the run summary as JSON (the shared \
                 $(b,mmsynth-stats-v4) schema used by the serve daemon's \
                 stats endpoint and the benches).")
  in
  let map_large_flag =
    Arg.(value & flag & info [ "map-large" ]
           ~doc:"Divert specs wider than the 4-input exact-SAT/NPN cap \
                 through the cut-based technology mapper ($(b,mmsynth map)) \
                 instead of attempting a monolithic encoding. Mapped \
                 circuits are verified row-by-row but built from \
                 per-block-optimal pieces, not proven globally optimal.")
  in
  let prove_flag =
    Arg.(value & opt (some int) None & info [ "prove" ] ~docv:"WORKERS"
           ~doc:"Attack every solver call through the parallel proof \
                 orchestrator with this many workers per instance (see \
                 $(b,mmsynth prove)). Best combined with $(b,-j 1): the \
                 orchestrator parallelizes inside each instance, so batch- \
                 level and instance-level domains compete for cores.")
  in
  let batch_resyn_flag =
    Arg.(value & flag & info [ "resyn" ]
           ~doc:"Run post-mapping resynthesis (see $(b,mmsynth map \
                 --resyn)) on every cover produced by $(b,--map-large); \
                 each optimized schedule is re-verified row-by-row and never \
                 worse than the stitched one.")
  in
  let run exprs pla tables workload arity name timeout batch_arity jobs
      cache_file cache_shards atlas no_npn final no_inc stats limit deadline
      retries fallback inject inject_seed json_stats map_large prove_workers
      batch_resyn =
    let specs =
      match batch_arity with
      | Some n when n >= 1 && n <= 4 -> Ok (Engine.all_functions ~arity:n)
      | Some _ -> Error "batch --sweep must be 1..4"
      | None -> (
        match spec_of_inputs name exprs arity pla tables workload with
        | Ok spec ->
          (* each output is an independent single-output batch member *)
          Ok
            (Array.mapi
               (fun o tt ->
                 Spec.make
                   ~name:(Printf.sprintf "%s.%d" (Spec.name spec) (o + 1))
                   [| tt |])
               (Spec.outputs spec))
        | Error e -> Error e)
    in
    let fault =
      match inject with
      | None -> Ok None
      | Some spec -> (
        match Mm_engine.Fault.parse_spec spec with
        | Ok rules -> Ok (Some (Mm_engine.Fault.create ~seed:inject_seed rules))
        | Error msg -> Error ("--inject: " ^ msg))
    in
    match (specs, fault) with
    | Error msg, _ | _, Error msg -> `Error (false, msg)
    | Ok specs, Ok fault ->
      let specs =
        match limit with
        | Some k when k < Array.length specs -> Array.sub specs 0 k
        | Some _ | None -> specs
      in
      let specs, mapped_specs =
        if map_large then
          ( Array.of_list
              (List.filter (fun s -> Spec.arity s <= 4) (Array.to_list specs)),
            List.filter (fun s -> Spec.arity s > 4) (Array.to_list specs) )
        else (specs, [])
      in
      let cache = open_store ?cache_file ?shards:cache_shards ?atlas () in
      let prove =
        Option.map
          (fun w ->
            let pcfg =
              { Mm_prove.Prove.default with Mm_prove.Prove.workers = w }
            in
            fun spec ~timeout cfg -> Mm_prove.Prove.hook pcfg spec ~timeout cfg)
          prove_workers
      in
      let cfg =
        Engine.config ~timeout_per_call:timeout ?domains:jobs
          ~canonicalize:(not no_npn) ~taps:(taps_of final) ?cache
          ?deadline ~retries ~fallback ?fault ~incremental:(not no_inc)
          ?prove ()
      in
      Printf.printf "batch: %d functions, %d domains%s\n%!"
        (Array.length specs) cfg.Engine.domains
        (if cfg.Engine.canonicalize then ", NPN sharing on" else "");
      let results, summary = Engine.run cfg specs in
      if stats then begin
        let t =
          Table.create
            [ "function"; "class"; "verdict"; "N_R"; "N_L"; "N_VS"; "vars";
              "clauses"; "conflicts"; "time" ]
        in
        Array.iter
          (fun r ->
            let cls =
              match r.Engine.class_rep with
              | Some rep ->
                Printf.sprintf "%04x%s" (Mm_boolfun.Truth_table.to_int rep)
                  (if r.Engine.shared then "*" else "")
              | None -> "-"
            in
            let verdict, att =
              match (r.Engine.provenance, r.Engine.circuit) with
              | Engine.Exact, Some _ -> (
                match r.Engine.report.Synth.best with
                | Some (_, a) -> ("SAT", Some a)
                | None -> ("SAT", None))
              | Engine.From_atlas, Some _ -> ("SAT(atlas)", None)
              | Engine.Via_baseline, Some _ -> ("fallback(b)", None)
              | Engine.Via_heuristic, Some _ -> ("fallback(h)", None)
              | _, None -> (
                match
                  (r.Engine.error,
                   List.rev r.Engine.report.Synth.attempts)
                with
                | Some _, _ -> ("error", None)
                | None, last :: _ ->
                  ((match last.Synth.verdict with
                    | Synth.Timeout -> "timeout"
                    | _ -> "UNSAT"),
                   Some last)
                | None, [] -> ("timeout", None))
            in
            let cell f = match att with None -> "-" | Some a -> f a in
            Table.add_row t
              [ Spec.name r.Engine.spec; cls; verdict;
                cell (fun a -> string_of_int a.Synth.n_rops);
                cell (fun a -> string_of_int a.Synth.n_legs);
                cell (fun a -> string_of_int a.Synth.steps_per_leg);
                cell (fun a -> string_of_int a.Synth.vars);
                cell (fun a -> string_of_int a.Synth.clauses);
                cell (fun a ->
                    string_of_int
                      a.Synth.solver_stats.Mm_sat.Solver.conflicts);
                cell (fun a -> Printf.sprintf "%.3fs" a.Synth.time_s) ])
          results;
        Table.print t;
        print_newline ()
      end;
      Format.printf "%a@." Engine.pp_summary summary;
      if json_stats then
        print_endline
          (Mm_report.Json.to_string_pretty (Engine.stats_to_json summary));
      let fail_lines r =
        match r.Engine.error with
        | None -> None
        | Some (Engine.Crashed { exn; backtrace }) ->
          let rescued = if r.Engine.circuit <> None then " (rescued by fallback)" else "" in
          Some
            (Printf.sprintf "%s: crashed: %s%s%s" (Spec.name r.Engine.spec) exn
               rescued
               (if backtrace = "" then ""
                else "\n    " ^ String.concat "\n    "
                       (String.split_on_char '\n' (String.trim backtrace))))
        | Some (Engine.Verify_failed { row }) ->
          Some
            (Printf.sprintf "%s: decanonicalized circuit wrong on row %d%s"
               (Spec.name r.Engine.spec) row
               (if r.Engine.circuit <> None then " (rescued by fallback)" else ""))
      in
      Array.iter
        (fun r -> Option.iter (Printf.printf "warning: %s\n") (fail_lines r))
        results;
      (* specs diverted by --map-large go through the technology mapper:
         each is a verified (not proven-optimal) composition of library
         blocks, so it counts as answered *)
      let map_failed = ref 0 in
      if mapped_specs <> [] then begin
        let map_cfg =
          Engine.config ~timeout_per_call:(Float.min timeout 0.5) ~max_rops:8
            ~domains:1 ~taps:(taps_of final) ?cache
            ~incremental:(not no_inc) ()
        in
        List.iter
          (fun spec ->
            match Mm_map.Stitch.compile map_cfg spec with
            | r ->
              let c = r.Mm_map.Stitch.stitched.Mm_map.Stitch.circuit in
              let c, resyn_note =
                if not batch_resyn then (c, "")
                else
                  match Mm_resyn.Resyn.run spec c with
                  | t ->
                    ( t.Mm_resyn.Resyn.circuit,
                      Printf.sprintf " (resyn: %d -> %d steps)"
                        t.Mm_resyn.Resyn.stats.Mm_resyn.Resyn.steps_before
                        t.Mm_resyn.Resyn.stats.Mm_resyn.Resyn.steps_after )
                  | exception (Failure msg | Invalid_argument msg) ->
                    (c, Printf.sprintf " (resyn skipped: %s)" msg)
              in
              Printf.printf
                "map: %s (arity %d): verified cover of %d blocks, %d (V) + \
                 %d (R) steps%s\n"
                (Spec.name spec) (Spec.arity spec)
                (List.length r.Mm_map.Stitch.stitched.Mm_map.Stitch.placed)
                (C.steps_per_leg c) (C.n_rops c) resyn_note
            | exception (Failure msg | Invalid_argument msg) ->
              incr map_failed;
              Printf.printf "warning: map: %s: %s\n" (Spec.name spec) msg)
          mapped_specs
      end;
      (* exit codes: 0 = every spec answered (exact circuit, proven UNSAT,
         verified fallback, or verified mapper cover); 3 = budget exhausted
         without fallback; 4 = hard failures (unrescued crash or
         verification failure) *)
      let unsat_proven r =
        r.Engine.error = None
        && r.Engine.report.Synth.attempts <> []
        && not
             (List.exists
                (fun a -> a.Synth.verdict = Synth.Timeout)
                r.Engine.report.Synth.attempts)
      in
      let hard = ref !map_failed and unanswered = ref 0 in
      Array.iter
        (fun r ->
          if r.Engine.circuit = None then
            if r.Engine.error <> None then incr hard
            else if not (unsat_proven r) then incr unanswered)
        results;
      let wide_unanswered =
        Array.exists
          (fun r ->
            r.Engine.circuit = None && Spec.arity r.Engine.spec > 4
            && r.Engine.error = None && not (unsat_proven r))
          results
      in
      if !hard > 0 then begin
        Printf.printf "batch: %d hard failure(s) left unanswered\n" !hard;
        `Ok 4
      end
      else if !unanswered > 0 then begin
        Printf.printf
          "batch: %d spec(s) unanswered within the budget (consider \
           --fallback%s)\n"
          !unanswered
          (if wide_unanswered then
             "; specs wider than 4 inputs exceed the exact-SAT cap — use \
              --map-large or mmsynth map"
           else "");
        `Ok 3
      end
      else `Ok 0
  in
  let exits =
    Cmd.Exit.defaults
    @ [
        Cmd.Exit.info 3
          ~doc:"some specs ran out of budget and no fallback was enabled";
        Cmd.Exit.info 4
          ~doc:"hard failures (crash past retries, or failed verification) \
                left specs unanswered";
      ]
  in
  Cmd.v
    (Cmd.info "batch" ~exits
       ~doc:"Batch synthesis of many functions: NPN class sharing, a \
             persistent result cache, a multicore worker pool, a global \
             deadline with retries and graceful degradation to verified \
             heuristic circuits.")
    Term.(
      ret
        (const run $ exprs $ pla_file $ tables_file $ workload_t $ arity
        $ name_t $ timeout $ batch_arity $ jobs $ cache_file
        $ cache_shards_arg $ atlas_arg $ no_npn $ final_taps $ no_incremental
        $ stats_flag $ limit $ deadline_flag $ retries_flag $ fallback_flag
        $ inject_flag $ inject_seed_flag $ json_stats_flag $ map_large_flag
        $ prove_flag $ batch_resyn_flag))

(* ---- serve / client: resident synthesis daemon ------------------------ *)

module Server = Mm_serve.Server
module Client = Mm_serve.Client
module Wire = Mm_serve.Wire
module Json = Mm_report.Json
module Engine = Mm_engine.Engine

let socket_arg =
  Arg.(value & opt string "/tmp/mmsynth.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket the daemon listens on.")

let fallback_tag =
  Arg.(value & opt (some (enum [ ("none", "none"); ("baseline", "baseline");
                                 ("heuristic", "heuristic") ])) None
       & info [ "fallback" ] ~docv:"KIND"
           ~doc:"Degradation policy: $(b,none), $(b,baseline) or \
                 $(b,heuristic).")

let serve_cmd =
  let tcp =
    Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT"
           ~doc:"Also listen on 127.0.0.1:PORT.")
  in
  let jobs =
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"D"
           ~doc:"Worker domains per synthesis batch.")
  in
  let cache_file =
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"FILE"
           ~doc:"Persistent result cache held open (and warm) by the daemon.")
  in
  let max_pending =
    Arg.(value & opt int 64 & info [ "max-pending" ] ~docv:"N"
           ~doc:"Admission bound: requests beyond N queued jobs are shed \
                 with a typed $(b,overloaded) reply.")
  in
  let max_batch =
    Arg.(value & opt int 16 & info [ "max-batch" ] ~docv:"N"
           ~doc:"Queued jobs dispatched per engine micro-batch (they share \
                 one worker-pool spin-up and NPN-deduplicate).")
  in
  let request_deadline =
    Arg.(value & opt (some float) None
         & info [ "request-deadline" ] ~docv:"SECONDS"
             ~doc:"Default per-request deadline (queue wait + synthesis) \
                   when the request carries none.")
  in
  let drain_grace =
    Arg.(value & opt float 5.0 & info [ "drain-grace" ] ~docv:"SECONDS"
           ~doc:"Seconds to let clients disconnect after a drain empties \
                 the queue.")
  in
  let inject =
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"SPEC"
           ~doc:"Fault injection, e.g. $(b,conn:0.2) to drop connections \
                 (engine stages apply to dispatched batches).")
  in
  let inject_seed =
    Arg.(value & opt int 0 & info [ "inject-seed" ] ~docv:"SEED"
           ~doc:"Seed for the $(b,--inject) plan.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No log lines on stderr.")
  in
  let shard_id =
    Arg.(value & opt (some string) None & info [ "shard-id" ] ~docv:"ID"
           ~doc:"Identity reported in $(b,stats)/$(b,health) snapshots \
                 (defaults to the socket path); set by $(b,mmsynth cluster) \
                 so the router can attribute per-shard metrics.")
  in
  let run socket tcp jobs cache_file cache_shards atlas timeout max_pending
      max_batch request_deadline drain_grace fallback inject inject_seed
      no_inc quiet shard_id =
    let fault =
      match inject with
      | None -> Ok None
      | Some spec -> (
        match Mm_engine.Fault.parse_spec spec with
        | Ok rules -> Ok (Some (Mm_engine.Fault.create ~seed:inject_seed rules))
        | Error msg -> Error ("--inject: " ^ msg))
    in
    match fault with
    | Error msg -> `Error (false, msg)
    | Ok fault ->
      let cache = open_store ?cache_file ?shards:cache_shards ?atlas () in
      let fb =
        match fallback with
        | Some "baseline" -> Engine.Use_baseline
        | Some "heuristic" -> Engine.Use_heuristic
        | Some _ | None -> Engine.No_fallback
      in
      let engine =
        Engine.config ~timeout_per_call:timeout ?domains:jobs ?cache
          ~fallback:fb ?fault ~incremental:(not no_inc) ()
      in
      let log =
        if quiet then None
        else
          Some
            (fun s ->
              Printf.eprintf "mmsynth serve: %s\n%!" s)
      in
      let cfg =
        Server.config ?tcp_port:tcp ~engine ~max_pending ~max_batch
          ?default_deadline:request_deadline ~drain_grace ?fault ?log
          ?shard_id ~socket_path:socket ()
      in
      (match Server.run cfg with
       | Ok () -> `Ok 0
       | Error msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the resident synthesis daemon: warm cache and NPN tables, \
             bounded admission queue with load shedding, micro-batched \
             dispatch, live stats, graceful drain on SIGTERM.")
    Term.(
      ret
        (const run $ socket_arg $ tcp $ jobs $ cache_file $ cache_shards_arg
        $ atlas_arg $ timeout $ max_pending $ max_batch $ request_deadline
        $ drain_grace $ fallback_tag $ inject $ inject_seed $ no_incremental
        $ quiet $ shard_id))

let client_cmd =
  let tcp =
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT"
           ~doc:"Connect over TCP instead of the Unix socket.")
  in
  let stdin_flag =
    Arg.(value & flag & info [ "stdin" ]
           ~doc:"Batch mode: read one truth table (a $(b,2^n)-character \
                 0/1 line) per line from stdin, print one JSON result \
                 line each.")
  in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ] ~doc:"Fetch the daemon's live stats.")
  in
  let health_flag =
    Arg.(value & flag & info [ "health" ] ~doc:"Fetch the health summary.")
  in
  let ping_flag = Arg.(value & flag & info [ "ping" ] ~doc:"Round-trip check.") in
  let shutdown_flag =
    Arg.(value & flag & info [ "shutdown" ]
           ~doc:"Ask the daemon to drain and exit.")
  in
  let deadline =
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS"
           ~doc:"Per-request deadline (queue wait + synthesis).")
  in
  let req_timeout =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Solver budget per SAT call for this request.")
  in
  let retry_budget =
    Arg.(value & opt (some float) None
         & info [ "retry-budget" ] ~docv:"SECONDS"
             ~doc:"Ride out $(b,overloaded) sheds: retry with jittered \
                   backoff honoring the daemon's $(b,retry_after_s) hint \
                   for up to SECONDS total before giving up with exit 5.")
  in
  let retry_tries =
    Arg.(value & opt int 8 & info [ "retry-tries" ] ~docv:"N"
           ~doc:"Attempt cap within the $(b,--retry-budget) window.")
  in
  let addr_of socket tcp =
    match tcp with
    | None -> Ok (Client.Unix_sock socket)
    | Some hp -> (
      match String.rindex_opt hp ':' with
      | None -> Error "--tcp expects HOST:PORT"
      | Some i -> (
        match int_of_string_opt (String.sub hp (i + 1) (String.length hp - i - 1)) with
        | None -> Error "--tcp expects HOST:PORT"
        | Some port -> Ok (Client.Tcp (String.sub hp 0 i, port))))
  in
  (* 0 ok; 1 daemon answered with a non-shed error; 5 shed; 6 transport *)
  let code_of_err (e : Wire.error) =
    match e.Wire.code with
    | Wire.Overloaded | Wire.Unavailable -> 5
    | Wire.Bad_request | Wire.Deadline_exceeded | Wire.Internal -> 1
  in
  let print_reply = function
    | Wire.Result r ->
      print_endline (Json.to_string_pretty r);
      0
    | Wire.Err e ->
      Printf.eprintf "mmsynth client: %s: %s%s\n" (Wire.code_tag e.Wire.code)
        e.Wire.msg
        (match e.Wire.retry_after_s with
         | Some s -> Printf.sprintf " (retry after %.1fs)" s
         | None -> "");
      code_of_err e
  in
  let tt_spec_of_line ~idx line =
    let len = String.length line in
    let rec log2 n acc = if n <= 1 then acc else log2 (n / 2) (acc + 1) in
    let n = log2 len 0 in
    if len < 2 || 1 lsl n <> len then
      Error (Printf.sprintf "line %d: length %d is not a power of two" idx len)
    else
      match Mm_boolfun.Truth_table.of_string n line with
      | tt -> Ok (Spec.make ~name:(Printf.sprintf "stdin.%d" idx) [| tt |])
      | exception Invalid_argument msg | exception Failure msg ->
        Error (Printf.sprintf "line %d: %s" idx msg)
  in
  let run socket tcp exprs pla tables workload arity name stdin_mode stats
      health ping shutdown req_timeout deadline fallback retry_budget
      retry_tries =
    let retry =
      Option.map
        (fun b -> Client.retry ~budget_s:b ~max_tries:retry_tries ())
        retry_budget
    in
    match addr_of socket tcp with
    | Error msg -> `Error (false, msg)
    | Ok addr -> (
      match Client.connect addr with
      | Error msg ->
        Printf.eprintf "mmsynth client: %s\n" msg;
        `Ok 6
      | Ok c ->
        let finish code = Client.close c; `Ok code in
        let one req =
          match Client.request ?retry c req with
          | Error msg ->
            Printf.eprintf "mmsynth client: %s\n" msg;
            6
          | Ok (Wire.Result r) ->
            print_endline (Json.to_string_pretty r);
            0
          | Ok (Wire.Err _ as rep) -> print_reply rep
        in
        if stats then finish (one Wire.Stats)
        else if health then finish (one Wire.Health)
        else if ping then finish (one Wire.Ping)
        else if shutdown then finish (one Wire.Shutdown)
        else if stdin_mode then begin
          let code = ref 0 in
          let bump c = if c > !code then code := c in
          let idx = ref 0 in
          (try
             while true do
               let line = String.trim (input_line stdin) in
               if line <> "" then begin
                 incr idx;
                 match tt_spec_of_line ~idx:!idx line with
                 | Error msg ->
                   Printf.eprintf "mmsynth client: %s\n" msg;
                   bump 1
                 | Ok spec -> (
                   match
                     Client.synth ?timeout:req_timeout ?deadline ?fallback
                       ?retry c spec
                   with
                   | Error msg ->
                     Printf.eprintf "mmsynth client: %s\n" msg;
                     bump 6
                   | Ok (Wire.Result r) -> print_endline (Json.to_string r)
                   | Ok (Wire.Err _ as rep) -> bump (print_reply rep))
               end
             done
           with End_of_file -> ());
          finish !code
        end
        else (
          match spec_of_inputs name exprs arity pla tables workload with
          | Error msg -> Client.close c; `Error (false, msg)
          | Ok spec -> (
            match
              Client.synth ?timeout:req_timeout ?deadline ?fallback ?retry c
                spec
            with
            | Error msg ->
              Printf.eprintf "mmsynth client: %s\n" msg;
              finish 6
            | Ok rep -> finish (print_reply rep))))
  in
  let exits =
    Cmd.Exit.defaults
    @ [
        Cmd.Exit.info 5
          ~doc:"the daemon shed the request (overloaded or draining)";
        Cmd.Exit.info 6 ~doc:"transport error (daemon unreachable or hung up)";
      ]
  in
  Cmd.v
    (Cmd.info "client" ~exits
       ~doc:"Send requests to a running $(b,mmsynth serve) daemon: one \
             synthesis (spec options as for $(b,synth)), a $(b,--stdin) \
             batch, or $(b,--stats)/$(b,--health)/$(b,--ping)/\
             $(b,--shutdown).")
    Term.(
      ret
        (const run $ socket_arg $ tcp $ exprs $ pla_file $ tables_file
        $ workload_t $ arity $ name_t $ stdin_flag $ stats_flag $ health_flag
        $ ping_flag $ shutdown_flag $ req_timeout $ deadline $ fallback_tag
        $ retry_budget $ retry_tries))

(* ---- cluster: supervised shards behind a failover router -------------- *)

let cluster_cmd =
  let module Router = Mm_cluster.Router in
  let module Frontend = Mm_cluster.Frontend in
  let module Supervisor = Mm_cluster.Supervisor in
  let shards_n =
    Arg.(value & opt int 2 & info [ "shards"; "n" ] ~docv:"N"
           ~doc:"Number of shard daemons to spawn and supervise.")
  in
  let router_socket =
    Arg.(value & opt string "/tmp/mmsynth-cluster.sock"
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket the router listens on (same wire \
                   protocol as a single daemon).")
  in
  let shard_dir =
    Arg.(value & opt string "/tmp/mmsynth-cluster"
         & info [ "shard-dir" ] ~docv:"DIR"
             ~doc:"Directory for per-shard sockets (and caches with \
                   $(b,--cache-dir)).")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Give shard $(i,i) its own persistent cache \
                 $(i,DIR)/shard-$(i,i).mmcache (the router partitions by \
                 NPN class, so each shard's cache sees only its slice).")
  in
  let replicas =
    Arg.(value & opt int 2 & info [ "replicas" ] ~docv:"N"
           ~doc:"Distinct shards the router tries per request round.")
  in
  let hedge_after =
    Arg.(value & opt (some float) None & info [ "hedge-after" ] ~docv:"SECONDS"
           ~doc:"Fire a hedged duplicate at the next replica when the \
                 primary is silent this long (first reply wins).")
  in
  let retry_budget =
    Arg.(value & opt float 2.0 & info [ "retry-budget" ] ~docv:"SECONDS"
           ~doc:"Router-side wall budget for failover rounds and \
                 shed-backoff per request.")
  in
  let probe_interval =
    Arg.(value & opt float 0.5 & info [ "probe-interval" ] ~docv:"SECONDS"
           ~doc:"Health-probe period feeding the per-shard circuit \
                 breakers.")
  in
  let max_pending =
    Arg.(value & opt int 64 & info [ "max-pending" ] ~docv:"N"
           ~doc:"Admission bound passed to every shard.")
  in
  let max_batch =
    Arg.(value & opt int 16 & info [ "max-batch" ] ~docv:"N"
           ~doc:"Micro-batch bound passed to every shard.")
  in
  let jobs =
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"D"
           ~doc:"Worker domains per shard.")
  in
  let inject =
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"SPEC"
           ~doc:"Fault plan passed to every shard (e.g. $(b,kill:0.01) for \
                 random abrupt shard deaths the router must ride out).")
  in
  let inject_seed =
    Arg.(value & opt int 0 & info [ "inject-seed" ] ~docv:"SEED"
           ~doc:"Seed for the shards' $(b,--inject) plans (shard $(i,i) \
                 uses SEED+$(i,i)).")
  in
  let chaos_kill_after =
    Arg.(value & opt (some float) None
         & info [ "chaos-kill-after" ] ~docv:"SECONDS"
             ~doc:"SIGKILL one shard this many seconds after boot (the \
                   supervisor restarts it) — smoke-test hook.")
  in
  let chaos_shard =
    Arg.(value & opt int 0 & info [ "chaos-shard" ] ~docv:"I"
           ~doc:"Which shard $(b,--chaos-kill-after) kills.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No log lines on stderr.")
  in
  let run n router_socket shard_dir cache_dir atlas timeout replicas
      hedge_after retry_budget probe_interval max_pending max_batch jobs
      inject inject_seed chaos_kill_after chaos_shard quiet =
    if n < 1 then `Error (false, "--shards must be at least 1")
    else begin
      let log =
        if quiet then None
        else Some (fun s -> Printf.eprintf "mmsynth cluster: %s\n%!" s)
      in
      let logf fmt =
        Printf.ksprintf
          (fun s -> match log with Some f -> f s | None -> ())
          fmt
      in
      let ensure_dir d =
        try Unix.mkdir d 0o755 with
        | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
        | Unix.Unix_error (e, _, _) ->
          failwith (Printf.sprintf "cannot create %s: %s" d
                      (Unix.error_message e))
      in
      match
        ensure_dir shard_dir;
        Option.iter ensure_dir cache_dir
      with
      | exception Failure msg -> `Error (false, msg)
      | () ->
        let exe = Sys.executable_name in
        let shard_socket i = Filename.concat shard_dir
            (Printf.sprintf "shard-%d.sock" i) in
        let spawn_of i =
          let argv =
            [ exe; "serve"; "--socket"; shard_socket i;
              "--shard-id"; Printf.sprintf "shard-%d" i;
              "--max-pending"; string_of_int max_pending;
              "--max-batch"; string_of_int max_batch;
              "--timeout"; string_of_float timeout; "--quiet" ]
            @ (match jobs with
               | Some j -> [ "-j"; string_of_int j ] | None -> [])
            @ (match cache_dir with
               | Some d ->
                 [ "--cache";
                   Filename.concat d (Printf.sprintf "shard-%d.mmcache" i) ]
               | None -> [])
            @ (match atlas with Some a -> [ "--atlas"; a ] | None -> [])
            @ (match inject with
               | Some spec ->
                 [ "--inject"; spec;
                   "--inject-seed"; string_of_int (inject_seed + i) ]
               | None -> [])
          in
          { Supervisor.id = Printf.sprintf "shard-%d" i;
            argv = Array.of_list argv }
        in
        let sup =
          Supervisor.start ?log (List.init n spawn_of)
        in
        (* wait for every shard socket to accept before opening the door *)
        let ready = ref true in
        for i = 0 to n - 1 do
          match Client.wait_ready ~timeout:10.0
                  (Client.Unix_sock (shard_socket i)) with
          | Ok c -> Client.close c
          | Error msg ->
            logf "shard-%d never came up: %s" i msg;
            ready := false
        done;
        if not !ready then begin
          Supervisor.stop sup;
          `Error (false, "not all shards came up")
        end
        else begin
          let infos =
            List.init n (fun i ->
                { Router.id = Printf.sprintf "shard-%d" i;
                  addr = Client.Unix_sock (shard_socket i) })
          in
          let rcfg =
            Router.config ~replicas ?hedge_after_s:hedge_after
              ~retry_budget_s:retry_budget
              ~probe_interval_s:(Some probe_interval) ?log ()
          in
          let router = Router.create rcfg infos in
          match Frontend.start ?log router ~socket_path:router_socket with
          | Error msg ->
            Router.close router; Supervisor.stop sup;
            `Error (false, msg)
          | Ok fe ->
            logf "%d shard(s) up, router on %s" n router_socket;
            let stop_req = ref false in
            let handler = Sys.Signal_handle (fun _ -> stop_req := true) in
            Sys.set_signal Sys.sigterm handler;
            Sys.set_signal Sys.sigint handler;
            (match chaos_kill_after with
             | Some after ->
               ignore
                 (Thread.create
                    (fun () ->
                       Thread.delay after;
                       Supervisor.kill_one sup chaos_shard)
                    ())
             | None -> ());
            while not (!stop_req || Frontend.draining fe) do
              Thread.delay 0.1
            done;
            logf "shutting down";
            Frontend.stop fe;
            Router.close router;
            Supervisor.stop sup;
            `Ok 0
        end
    end
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Spawn and supervise N $(b,serve) shards behind a failover \
             router: consistent-hash routing by NPN class, replica \
             fallback, hedged retries, circuit breakers, crashed shards \
             restarted with backoff. The router socket speaks the same \
             wire protocol as a single daemon.")
    Term.(
      ret
        (const run $ shards_n $ router_socket $ shard_dir $ cache_dir
        $ atlas_arg $ timeout $ replicas $ hedge_after $ retry_budget
        $ probe_interval $ max_pending $ max_batch $ jobs $ inject
        $ inject_seed $ chaos_kill_after $ chaos_shard $ quiet))

(* ---- line-array report, shared by map (line target) and resyn ---------- *)

(* The report [map] (line target) and [resyn] share on a finished
   line-array circuit: the [resyn: ] line when resynthesis ran, the
   row-by-row simulator check, and the JSON artifact that [mmsynth resyn]
   reads back, with [extra] members after the spec header. Returns the
   failing rows and the artifact. *)
let line_report ?(extra = []) spec c (resyn : Mm_resyn.Resyn.stats option) =
  let module Resyn = Mm_resyn.Resyn in
  let module Artifact = Mm_resyn.Artifact in
  Option.iter
    (fun (s : Resyn.stats) ->
      Printf.printf
        "resyn: %d -> %d steps; %d merged, %d dead, %d V-step(s) compacted, \
         %d pass(es)%s [%.2fs]\n"
        s.Resyn.steps_before s.Resyn.steps_after s.Resyn.sweep_merged
        s.Resyn.dce_removed s.Resyn.v_steps_saved s.Resyn.passes
        (if s.Resyn.fixed_point then ", fixed point" else "")
        s.Resyn.wall_s)
    resyn;
  let failures = Schedule.verify (Schedule.plan c) spec in
  let rows = 1 lsl Spec.arity spec in
  Printf.printf "simulator validation: %d/%d rows correct\n"
    (rows - List.length failures) rows;
  let resyn_json (s : Resyn.stats) =
    Json.Obj
      [ ("passes", Json.Int s.Resyn.passes);
        ("fixed_point", Json.Bool s.Resyn.fixed_point);
        ("rejected", Json.Int s.Resyn.rejected);
        ("sweep_merged", Json.Int s.Resyn.sweep_merged);
        ("dce_removed", Json.Int s.Resyn.dce_removed);
        ("v_steps_saved", Json.Int s.Resyn.v_steps_saved);
        ("steps_before", Json.Int s.Resyn.steps_before);
        ("steps_after", Json.Int s.Resyn.steps_after) ]
  in
  ( failures,
    Json.Obj
      ([ ("spec", Json.String (Spec.name spec));
         ("arity", Json.Int (Spec.arity spec));
         ("outputs", Json.Int (Spec.output_count spec)) ]
      @ extra
      @ [ ( "circuit",
            Json.Obj
              [ ("legs", Json.Int (C.n_legs c));
                ("steps_per_leg", Json.Int (C.steps_per_leg c));
                ("rops", Json.Int (C.n_rops c));
                ("total_steps", Json.Int (C.n_steps c));
                ("devices", Json.Int (C.n_devices c)) ] );
          ("resyn", Option.fold ~none:Json.Null ~some:resyn_json resyn);
          ("verified", Json.Bool (failures = []));
          ("circuit_ir", Artifact.circuit_to_json c);
          ("spec_tables", Artifact.spec_to_json spec) ]) )

(* ---- map: cut-based technology mapping onto SAT-optimal blocks --------- *)

let map_cmd =
  let module Cache = Mm_engine.Cache in
  let module Resyn = Mm_resyn.Resyn in
  let module Stitch = Mm_map.Stitch in
  let module Blocklib = Mm_map.Blocklib in
  let module Mapper = Mm_map.Mapper in
  let module Xsched = Mm_map.Xsched in
  let module Xstitch = Mm_map.Xstitch in
  let module Table = Mm_report.Table in
  let k_arg =
    Arg.(value & opt int 4 & info [ "k" ] ~docv:"K"
           ~doc:"Maximum cut width (2-4): every library block sees at most \
                 K leaves.")
  in
  let cut_limit =
    Arg.(value & opt int 8 & info [ "cut-limit" ] ~docv:"N"
           ~doc:"Priority cuts kept per AIG node (larger = better covers, \
                 slower).")
  in
  let passes =
    Arg.(value & opt int 3 & info [ "passes" ] ~docv:"N"
           ~doc:"Area-recovery refinement passes over the cover.")
  in
  let cache_file =
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"FILE"
           ~doc:"Persistent library cache: block probes hit across runs \
                 (shared format with $(b,batch)).")
  in
  let effort =
    Arg.(value & opt int 2 & info [ "effort" ] ~docv:"LEVEL"
           ~doc:"Library-probe budget: $(b,1) = 50ms/call with shallow \
                 sweeps, $(b,2) = 0.5s, $(b,3) = 5s uncapped. Probes that \
                 expire degrade to verified QMC\xe2\x86\x92NOR fallback blocks, so \
                 the mapped circuit is correct at any effort.")
  in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print the per-block provenance table.")
  in
  let target_arg =
    Arg.(value & opt (enum [ ("line", `Line); ("xbar", `Xbar) ]) `Line
         & info [ "target" ] ~docv:"TARGET"
             ~doc:"Backend: $(b,line) serializes the cover onto one line \
                   array; $(b,xbar) places blocks across crossbar rows and \
                   schedules cycle-parallel MAGIC NORs, shared broadcast \
                   V-cycles and explicit peripheral transfer cycles.")
  in
  let rows_arg =
    Arg.(value & opt int 16 & info [ "rows" ] ~docv:"R"
           ~doc:"Crossbar rows available to the placer (xbar target).")
  in
  let ports_arg =
    Arg.(value & opt int 4 & info [ "ports" ] ~docv:"P"
           ~doc:"Peripheral transfers per transfer cycle (xbar target).")
  in
  let no_polish =
    Arg.(value & flag & info [ "no-polish" ]
           ~doc:"Skip the SAT window polish over the greedy schedule \
                 (xbar target).")
  in
  let resyn_flag =
    Arg.(value & flag & info [ "resyn" ]
           ~doc:"Post-mapping resynthesis of the stitched schedule: \
                 semantic sweeping, dead-code elimination and \
                 shared-BE-rail leg compaction, to a fixed point; every \
                 change is re-verified against the spec (line target \
                 only).")
  in
  let resyn_passes_arg =
    Arg.(value & opt int 4 & info [ "resyn-passes" ] ~docv:"N"
           ~doc:"Cleanup passes before giving up on a fixed point \
                 (--resyn).")
  in
  let run exprs pla tables workload arity name k cut_limit passes cache_file
      cache_shards atlas effort stats json dot target rows ports no_polish
      resyn resyn_passes =
    match spec_of_inputs name exprs arity pla tables workload with
    | Error msg -> `Error (false, msg)
    | Ok spec ->
      if k < 2 || k > 4 then `Error (false, "--k must be 2..4")
      else if effort < 1 || effort > 3 then
        `Error (false, "--effort must be 1..3")
      else if resyn && target = `Xbar then
        `Error (false, "--resyn applies to --target line")
      else begin
        let timeout_per_call, max_rops =
          match effort with
          | 1 -> (0.05, Some 5)
          | 2 -> (0.5, Some 8)
          | _ -> (5.0, None)
        in
        let cache = open_store ?cache_file ?shards:cache_shards ?atlas () in
        let cfg =
          Engine.config ~timeout_per_call ?max_rops ~domains:1
            ~taps:E.Final_only ?cache ()
        in
        match Stitch.compile ~k ~cut_limit ~passes cfg spec with
        | exception (Invalid_argument msg | Failure msg) -> `Error (false, msg)
        | r ->
        let print_blocks placed =
          let t =
            Table.create
              [ "block"; "leaves"; "kind"; "source"; "optimal"; "N_L";
                "N_VS"; "N_R" ]
          in
          List.iter
            (fun (p : Stitch.placed) ->
              Table.add_row t
                [ Printf.sprintf "n%d" p.Stitch.root;
                  String.concat ","
                    (List.map string_of_int
                       (Array.to_list p.Stitch.leaves));
                  (match p.Stitch.kind with
                   | Blocklib.Mixed -> "mixed"
                   | Blocklib.R_only -> "r-only");
                  (if p.Stitch.exact then "SAT" else "fallback");
                  (if p.Stitch.optimal then "yes" else "no");
                  string_of_int p.Stitch.legs;
                  string_of_int p.Stitch.steps;
                  string_of_int p.Stitch.rops ])
            placed;
          Table.print t;
          print_newline ()
        in
        let block_json (p : Stitch.placed) =
          Json.Obj
            [ ("root", Json.Int p.Stitch.root);
              ( "leaves",
                Json.List
                  (List.map (fun l -> Json.Int l)
                     (Array.to_list p.Stitch.leaves)) );
              ( "kind",
                Json.String
                  (match p.Stitch.kind with
                   | Blocklib.Mixed -> "mixed"
                   | Blocklib.R_only -> "r-only") );
              ("exact", Json.Bool p.Stitch.exact);
              ("optimal", Json.Bool p.Stitch.optimal);
              ("legs", Json.Int p.Stitch.legs);
              ("steps", Json.Int p.Stitch.steps);
              ("rops", Json.Int p.Stitch.rops) ]
        in
        match target with
        | `Xbar ->
          if rows < 1 then `Error (false, "--rows must be >= 1")
          else if ports < 1 then `Error (false, "--ports must be >= 1")
          else begin
            match
              Xstitch.compile ~k ~cut_limit ~passes ~rows ~ports
                ~polish:(not no_polish) cfg spec
            with
            | exception (Invalid_argument msg | Failure msg) ->
              `Error (false, msg)
            | xr ->
              Option.iter Cache.flush cache;
              let xst = xr.Xstitch.stitch in
              let sc = xr.Xstitch.sched in
              let p = sc.Xsched.place in
              let n_rows_spec = 1 lsl Spec.arity spec in
              Printf.printf
                "aig (balanced): %d inputs, %d AND nodes; cover: %d blocks \
                 (%d exact, %d fallback), critical-path depth %d\n"
                xst.Stitch.aig_inputs xst.Stitch.aig_ands
                (List.length xst.Stitch.stitched.Stitch.placed)
                xst.Stitch.lib_exact xst.Stitch.lib_fallbacks
                xst.Stitch.dag.Mapper.depth;
              Printf.printf
                "placement: %d rows x %d cols, %d transfer(s), %d \
                 inverter(s)\n"
                xr.Xstitch.rows_used xr.Xstitch.cols_used
                xr.Xstitch.transfers
                (Array.length p.Mm_map.Place.invs);
              Printf.printf
                "schedule: %d cycles (%d V + %d R + %d T) + %d readout, \
                 polish -%d\n\n"
                xr.Xstitch.cycles sc.Xsched.v_cycles sc.Xsched.r_cycles
                sc.Xsched.t_cycles xr.Xstitch.readout sc.Xsched.polish_gain;
              if stats then print_blocks xst.Stitch.stitched.Stitch.placed;
              (* zero-trust: replay the schedule on the crossbar simulator
                 for every input row *)
              let failures = Xstitch.verify sc spec in
              Printf.printf "simulator validation: %d/%d rows correct\n"
                (n_rows_spec - List.length failures)
                n_rows_spec;
              (* and cross-check the two backends row by row *)
              let plan = Schedule.plan r.Stitch.stitched.Stitch.circuit in
              let disagree = ref [] in
              for input = n_rows_spec - 1 downto 0 do
                let line = Schedule.execute plan ~input () in
                let xrow = Xstitch.execute sc ~input () in
                if
                  Xstitch.word_of line.Schedule.outputs
                  <> Xstitch.word_of xrow.Xstitch.outputs
                then disagree := input :: !disagree
              done;
              Printf.printf "cross-check vs 1D backend: %d/%d rows agree\n"
                (n_rows_spec - List.length !disagree)
                n_rows_spec;
              if json then begin
                let module Place = Mm_map.Place in
                let cycle_json i cyc =
                  let typ, ops =
                    match cyc with
                    | Xsched.C_v set ->
                      ( "V",
                        List.map
                          (fun (s, st) ->
                            Json.Obj
                              [ ("slot", Json.Int s);
                                ("step", Json.Int st);
                                ( "row",
                                  Json.Int p.Place.slots.(s).Place.row ) ])
                          set )
                    | Xsched.C_r refs ->
                      ( "R",
                        List.map
                          (function
                            | Xsched.Gate (s, j) ->
                              Json.Obj
                                [ ("slot", Json.Int s);
                                  ("rop", Json.Int j);
                                  ( "row",
                                    Json.Int p.Place.slots.(s).Place.row ) ]
                            | Xsched.Inverter iv ->
                              Json.Obj
                                [ ("inverter", Json.Int iv);
                                  ( "row",
                                    Json.Int
                                      p.Place.invs.(iv).Place.i_out
                                        .Place.row ) ])
                          refs )
                    | Xsched.C_t ixs ->
                      ( "T",
                        List.map
                          (fun ix ->
                            let x = p.Place.xfers.(ix) in
                            Json.Obj
                              [ ("transfer", Json.Int ix);
                                ( "src_row",
                                  Json.Int x.Place.x_src.Place.row );
                                ( "dst_row",
                                  Json.Int x.Place.x_dst.Place.row ) ])
                          ixs )
                  in
                  Json.Obj
                    [ ("cycle", Json.Int i);
                      ("type", Json.String typ);
                      ("ops", Json.List ops) ]
                in
                print_endline
                  (Json.to_string_pretty
                     (Json.Obj
                        [ ("spec", Json.String (Spec.name spec));
                          ("arity", Json.Int (Spec.arity spec));
                          ("outputs", Json.Int (Spec.output_count spec));
                          ("target", Json.String "xbar");
                          ( "aig",
                            Json.Obj
                              [ ("inputs", Json.Int xst.Stitch.aig_inputs);
                                ("ands", Json.Int xst.Stitch.aig_ands);
                                ("balanced", Json.Bool true) ] );
                          ( "block_depth",
                            Json.Int xst.Stitch.dag.Mapper.depth );
                          ("rows", Json.Int rows);
                          ("ports", Json.Int ports);
                          ("rows_used", Json.Int xr.Xstitch.rows_used);
                          ("cols_used", Json.Int xr.Xstitch.cols_used);
                          ("cycles", Json.Int xr.Xstitch.cycles);
                          ("v_cycles", Json.Int sc.Xsched.v_cycles);
                          ("r_cycles", Json.Int sc.Xsched.r_cycles);
                          ("t_cycles", Json.Int sc.Xsched.t_cycles);
                          ("transfers", Json.Int xr.Xstitch.transfers);
                          ("readout", Json.Int xr.Xstitch.readout);
                          ("polish_gain", Json.Int sc.Xsched.polish_gain);
                          ("verified", Json.Bool (failures = []));
                          ( "agrees_with_line",
                            Json.Bool (!disagree = []) );
                          ( "blocks",
                            Json.List
                              (List.map block_json
                                 xst.Stitch.stitched.Stitch.placed) );
                          ( "schedule",
                            Json.List
                              (List.mapi cycle_json
                                 (Array.to_list sc.Xsched.cycles)) ) ]))
              end;
              if failures = [] && !disagree = [] then `Ok 0
              else
                `Error
                  (false, "crossbar schedule failed simulator validation")
          end
        | `Line -> begin
          let st = r.Stitch.stitched in
          match
            if resyn then
              Some (Resyn.run ~max_passes:resyn_passes spec st.Stitch.circuit)
            else None
          with
          | exception (Invalid_argument msg | Failure msg) ->
            `Error (false, "resyn: " ^ msg)
          | resyn_t ->
            Option.iter Cache.flush cache;
            let c =
              match resyn_t with
              | Some t -> t.Resyn.circuit
              | None -> st.Stitch.circuit
            in
            Printf.printf
              "aig: %d inputs, %d AND nodes; cover: %d blocks (%d exact, %d \
               fallback), %d stitch inverter(s) (%d shared)\n"
              r.Stitch.aig_inputs r.Stitch.aig_ands
              (List.length st.Stitch.placed)
              r.Stitch.lib_exact r.Stitch.lib_fallbacks st.Stitch.inverters
              st.Stitch.shared_inverters;
            Printf.printf
              "library: %d lookups, %d memo hits; block DAG critical-path \
               depth %d\n\n"
              r.Stitch.lib_lookups r.Stitch.lib_memo_hits
              r.Stitch.dag.Mapper.depth;
            if stats then print_blocks st.Stitch.placed;
            print_circuit ~json:false ~dot c;
            let failures, artifact =
              line_report spec c
                (Option.map (fun (t : Resyn.t) -> t.Resyn.stats) resyn_t)
                ~extra:
                  [ ( "aig",
                      Json.Obj
                        [ ("inputs", Json.Int r.Stitch.aig_inputs);
                          ("ands", Json.Int r.Stitch.aig_ands) ] );
                    ( "library",
                      Json.Obj
                        [ ("lookups", Json.Int r.Stitch.lib_lookups);
                          ("memo_hits", Json.Int r.Stitch.lib_memo_hits);
                          ("exact", Json.Int r.Stitch.lib_exact);
                          ("fallbacks", Json.Int r.Stitch.lib_fallbacks) ] );
                    ("inverters", Json.Int st.Stitch.inverters);
                    ("shared_inverters", Json.Int st.Stitch.shared_inverters);
                    ("block_depth", Json.Int r.Stitch.dag.Mapper.depth);
                    ( "blocks",
                      Json.List (List.map block_json st.Stitch.placed) ) ]
            in
            if json then print_endline (Json.to_string_pretty artifact);
            if failures = [] then `Ok 0
            else `Error (false, "schedule simulation disagrees with the spec")
          end
      end
  in
  Cmd.v
    (Cmd.info "map"
       ~doc:"Compile a function of any width onto a library of SAT-optimal \
             mixed-mode blocks: AIG construction, priority-cut enumeration \
             (width <= 4), NPN-canonicalized library probes, DAG-aware \
             area-flow covering, and stitching onto one verified line-array \
             schedule.")
    Term.(
      ret
        (const run $ exprs $ pla_file $ tables_file $ workload_t $ arity
        $ name_t $ k_arg $ cut_limit $ passes $ cache_file $ cache_shards_arg
        $ atlas_arg $ effort $ stats_flag $ json_flag $ dot_out $ target_arg
        $ rows_arg $ ports_arg $ no_polish $ resyn_flag $ resyn_passes_arg))

(* ---- resyn: re-optimize a previously emitted map artifact -------------- *)

let resyn_cmd =
  let module Resyn = Mm_resyn.Resyn in
  let module Artifact = Mm_resyn.Artifact in
  let artifact_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"ARTIFACT"
           ~doc:"A $(b,map --json) artifact. The human-readable report may \
                 precede the JSON object; parsing starts at the first \
                 '{'.")
  in
  let passes_arg =
    Arg.(value & opt int 4 & info [ "resyn-passes" ] ~docv:"N"
           ~doc:"Cleanup passes before giving up on a fixed point.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Write the re-optimized artifact JSON to FILE (same shape \
                 as $(b,map --json), so it can be re-fed to this command).")
  in
  let run artifact passes json out =
    let text = In_channel.with_open_bin artifact In_channel.input_all in
    match String.index_opt text '{' with
    | None -> `Error (false, artifact ^ ": no JSON object found")
    | Some i -> (
      match Json.of_string (String.sub text i (String.length text - i)) with
      | Error msg -> `Error (false, artifact ^ ": " ^ msg)
      | Ok root -> (
        match (Json.member "circuit_ir" root, Json.member "spec_tables" root) with
        | None, _ | _, None ->
          `Error
            ( false,
              artifact
              ^ ": not a resynthesizable artifact (missing circuit_ir / \
                 spec_tables — emit it with map --json)" )
        | Some cj, Some sj -> (
          match (Artifact.circuit_of_json cj, Artifact.spec_of_json sj) with
          | Error msg, _ | _, Error msg -> `Error (false, msg)
          | Ok c0, Ok spec -> (
            match Resyn.run ~max_passes:passes spec c0 with
            | exception (Invalid_argument msg | Failure msg) ->
              `Error (false, msg)
            | t ->
              let failures, artifact_json =
                line_report spec t.Resyn.circuit (Some t.Resyn.stats)
              in
              (match out with
              | Some path ->
                Out_channel.with_open_bin path (fun oc ->
                    output_string oc (Json.to_string_pretty artifact_json);
                    output_char oc '\n')
              | None -> ());
              if json then print_endline (Json.to_string_pretty artifact_json);
              if failures = [] then `Ok 0
              else
                `Error (false, "schedule simulation disagrees with the spec")))))
  in
  Cmd.v
    (Cmd.info "resyn"
       ~doc:"Re-optimize a previously emitted $(b,map --json) artifact: \
             semantic sweeping, dead-code elimination and shared-BE-rail \
             leg compaction over the committed schedule, without re-running \
             the mapper. The result is re-verified row-by-row before it is \
             reported.")
    Term.(ret (const run $ artifact_arg $ passes_arg $ json_flag $ out_arg))

(* ---- cache info / gc --------------------------------------------------- *)

let cache_cmd =
  let module Cache = Mm_engine.Cache in
  let cache_path =
    Arg.(required & opt (some string) None & info [ "cache" ] ~docv:"PATH"
           ~doc:"The cache file (legacy single-file layout) or sharded \
                 overlay directory to inspect.")
  in
  let status_string = function
    | Cache.Fresh -> "missing"
    | Cache.Loaded _ -> "ok"
    | Cache.Invalid_version _ -> "invalid-version"
    | Cache.Corrupt _ -> "corrupt"
    | Cache.Salvaged { kept; dropped; _ } ->
      Printf.sprintf "salvageable (%d intact, >=%d damaged)" kept dropped
    | Cache.Sharded_load _ -> "sharded"
  in
  let status_ok = function
    | Cache.Fresh | Cache.Loaded _ -> true
    | Cache.Invalid_version _ | Cache.Corrupt _ | Cache.Salvaged _
    | Cache.Sharded_load _ -> false
  in
  let file_info_json path (i : Cache.info) =
    Json.Obj
      [
        ("path", Json.String path);
        ( "size_bytes",
          match i.Cache.size_bytes with
          | None -> Json.Null
          | Some n -> Json.Int n );
        ( "format_version",
          match i.Cache.version with None -> Json.Null | Some v -> Json.Int v );
        ("status", Json.String (status_string i.Cache.status));
        ("entries", Json.Int i.Cache.entries);
        ( "shard",
          match i.Cache.shard with
          | None -> Json.Null
          | Some (idx, of_k) ->
            Json.Obj [ ("index", Json.Int idx); ("of", Json.Int of_k) ] );
        ( "corrupt_siblings",
          Json.List (List.map (fun p -> Json.String p) i.Cache.corrupt_siblings)
        );
      ]
  in
  (* quarantine files inside a sharded overlay directory *)
  let dir_quarantine dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Array.to_list names
      |> List.filter_map (fun name ->
             if contains name ".mmcache.corrupt" then
               Some (Filename.concat dir name)
             else None)
      |> List.sort compare
  in
  let info_cmd =
    let run path =
      if Sys.file_exists path && Sys.is_directory path then begin
        (* sharded overlay: iterate the shards and aggregate *)
        let shards = Cache.shard_files path in
        let infos =
          List.map (fun (idx, of_k, p) -> (idx, of_k, p, Cache.inspect p)) shards
        in
        let entries =
          List.fold_left (fun acc (_, _, _, i) -> acc + i.Cache.entries) 0 infos
        in
        let bytes =
          List.fold_left
            (fun acc (_, _, _, i) ->
              acc + Option.value ~default:0 i.Cache.size_bytes)
            0 infos
        in
        let damaged =
          List.filter (fun (_, _, _, i) -> not (status_ok i.Cache.status)) infos
        in
        let shard_count =
          List.fold_left (fun acc (_, of_k, _) -> max acc of_k) 0 shards
        in
        let quarantine = dir_quarantine path in
        print_endline
          (Json.to_string_pretty
             (Json.Obj
                [
                  ("path", Json.String path);
                  ("layout", Json.String "sharded-overlay");
                  ("format_version", Json.Int Cache.shard_format_version);
                  ("shards", Json.Int shard_count);
                  ("shard_files", Json.Int (List.length shards));
                  ("entries", Json.Int entries);
                  ("size_bytes", Json.Int bytes);
                  ("damaged_shards", Json.Int (List.length damaged));
                  ( "quarantine",
                    Json.List (List.map (fun p -> Json.String p) quarantine) );
                  ( "per_shard",
                    Json.List
                      (List.map (fun (_, _, p, i) -> file_info_json p i) infos)
                  );
                ]));
        if damaged = [] && quarantine = [] then `Ok 0 else `Ok 3
      end
      else begin
        let i = Cache.inspect path in
        print_endline (Json.to_string_pretty (file_info_json path i));
        (* non-zero when the file needs attention, so scripts can gate on it *)
        if status_ok i.Cache.status && i.Cache.corrupt_siblings = [] then `Ok 0
        else `Ok 3
      end
    in
    Cmd.v
      (Cmd.info "info"
         ~exits:
           (Cmd.Exit.defaults
           @ [ Cmd.Exit.info 3
                 ~doc:"the cache is damaged or quarantine files exist" ])
         ~doc:"Read-only report on a cache: size, format version, intact \
               entry count, and any $(b,.corrupt) quarantine siblings. A \
               directory is treated as a sharded overlay and reported \
               per shard with aggregate totals; a file is reported in the \
               legacy single-file layout (its on-disk format version is \
               included, so v3 caches from older builds are identified). \
               Never modifies anything — safe against a live daemon's \
               cache.")
      Term.(ret (const run $ cache_path))
  in
  let gc_cmd =
    let archive =
      Arg.(value & opt (some string) None & info [ "archive" ] ~docv:"DIR"
             ~doc:"Move quarantine files into DIR instead of deleting them.")
    in
    let run path archive =
      let victims =
        if Sys.file_exists path && Sys.is_directory path then
          dir_quarantine path
        else Cache.quarantined_siblings path
      in
      if victims = [] then begin
        print_endline "no quarantine files";
        `Ok 0
      end
      else begin
        let failures = ref 0 in
        List.iter
          (fun v ->
            match archive with
            | Some dir -> (
              let dest = Filename.concat dir (Filename.basename v) in
              match
                (if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
                Sys.rename v dest
              with
              | () -> Printf.printf "archived %s -> %s\n" v dest
              | exception Sys_error msg ->
                Printf.eprintf "mmsynth cache gc: %s\n" msg;
                incr failures)
            | None -> (
              match Sys.remove v with
              | () -> Printf.printf "deleted %s\n" v
              | exception Sys_error msg ->
                Printf.eprintf "mmsynth cache gc: %s\n" msg;
                incr failures))
          victims;
        if !failures > 0 then `Error (false, "some quarantine files survived")
        else `Ok 0
      end
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Delete (or $(b,--archive) into a directory) the \
               $(b,<cache>.corrupt) quarantine files left by damaged-cache \
               recovery.")
      Term.(ret (const run $ cache_path $ archive))
  in
  Cmd.group
    (Cmd.info "cache" ~doc:"Inspect and clean persistent result caches.")
    [ info_cmd; gc_cmd ]

(* ---- atlas build / info / verify --------------------------------------- *)

let atlas_cmd =
  let atlas_path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"The atlas artifact.")
  in
  let mode_json = function
    | Atlas.Mixed -> "mixed"
    | Atlas.R_only -> "r-only"
  in
  let build_cmd =
    let max_n =
      Arg.(value & opt int 3 & info [ "max-n" ] ~docv:"N"
             ~doc:"Enumerate every NPN class of arity 1..N (1-4). N=4 is \
                   the paper's full 222-class universe; the default 3 \
                   (2+4+14 classes) builds in seconds.")
    in
    let effort =
      Arg.(value & opt int 2 & info [ "effort" ] ~docv:"LEVEL"
             ~doc:"$(b,1) = verified heuristic circuits, no SAT; $(b,2) = \
                   exact minimization within $(b,--timeout) per call; \
                   $(b,3) = 4x budget, keeping the UNSAT-ladder optimality \
                   certificates as provenance metadata.")
    in
    let jobs =
      Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"D"
             ~doc:"Worker domains (default: cores - 1).")
    in
    let timeout =
      Arg.(value & opt float 10.0 & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Solver budget per SAT call at effort 2 (effort 3 runs \
                   4x).")
    in
    let no_resume =
      Arg.(value & flag & info [ "no-resume" ]
             ~doc:"Rebuild from scratch instead of reusing the records an \
                   earlier (possibly interrupted or lower-effort) build \
                   already settled.")
    in
    let modes =
      Arg.(value
           & opt (enum [ ("both", [ Atlas.Mixed; Atlas.R_only ]);
                         ("mixed", [ Atlas.Mixed ]);
                         ("r-only", [ Atlas.R_only ]) ])
               [ Atlas.Mixed; Atlas.R_only ]
           & info [ "mode" ] ~docv:"MODE"
               ~doc:"Which synthesis modes to enumerate: $(b,mixed), \
                     $(b,r-only) or $(b,both) (default).")
    in
    let rop =
      Arg.(value
           & opt (enum [ ("nor", Mm_core.Rop.Nor); ("nimp", Mm_core.Rop.Nimp) ])
               Mm_core.Rop.Nor
           & info [ "rop" ] ~docv:"KIND"
               ~doc:"Stateful R-op kind: $(b,nor) (default) or $(b,nimp). \
                     Note effort 1 has no heuristic for nimp.")
    in
    let cover =
      Arg.(value & opt_all string [] & info [ "cover" ] ~docv:"WORKLOAD"
             ~doc:"Also cover the NPN classes of this built-in workload's \
                   outputs (arity <= 4; see $(b,--workload) under \
                   $(b,synth)). Repeatable — lets a small atlas cover \
                   chosen 4-input classes without enumerating all 222.")
    in
    let cover_expr =
      Arg.(value & opt_all string [] & info [ "cover-expr" ] ~docv:"EXPR"
             ~doc:"Also cover the NPN class of this Boolean expression \
                   (arity <= 4; same syntax as $(b,-e)). Repeatable.")
    in
    let prove_workers =
      Arg.(value & opt (some int) None & info [ "prove" ] ~docv:"WORKERS"
             ~doc:"After the sweep, re-attack every goal still covered only \
                   by a degraded record (tier-1 fallback, or missing proofs \
                   for the requested effort) through the parallel proof \
                   orchestrator with this many workers per instance (see \
                   $(b,mmsynth prove)). Upgraded records are counted as \
                   re-proved.")
    in
    let run path max_n effort jobs timeout no_resume modes rop final cover
        cover_exprs prove_workers =
      if max_n < 1 || max_n > 4 then `Error (false, "--max-n must be 1..4")
      else if effort < 1 || effort > 3 then
        `Error (false, "--effort must be 1..3")
      else begin
        let cover_tts = ref [] and cover_errs = ref [] in
        List.iter
          (fun w ->
            match workload_of_name w with
            | Error msg -> cover_errs := msg :: !cover_errs
            | Ok spec ->
              Array.iter
                (fun tt ->
                  if Mm_boolfun.Truth_table.arity tt <= 4 then
                    cover_tts := tt :: !cover_tts
                  else
                    Printf.eprintf
                      "warning: --cover %s: output wider than 4 inputs \
                       skipped (atlas classes stop at n=4)\n"
                      w)
                (Spec.outputs spec))
          cover;
        List.iter
          (fun e ->
            match Expr.parse_exn e with
            | parsed -> (
              let spec = Expr.spec ~name:"cover" [ parsed ] in
              if Spec.arity spec <= 4 then
                Array.iter
                  (fun tt -> cover_tts := tt :: !cover_tts)
                  (Spec.outputs spec)
              else
                Printf.eprintf
                  "warning: --cover-expr %S: wider than 4 inputs, skipped\n" e)
            | exception Invalid_argument msg ->
              cover_errs := Printf.sprintf "--cover-expr %S: %s" e msg
                            :: !cover_errs)
          cover_exprs;
        match !cover_errs with
        | msg :: _ -> `Error (false, msg)
        | [] ->
          let goals =
            Atlas.universe ~modes ~rop_kind:rop ~taps:(taps_of final)
              ~include_tts:!cover_tts ~max_n ()
          in
          Printf.printf "atlas build: %d goals at effort %d -> %s\n%!"
            (List.length goals) effort path;
          let prove =
            Option.map
              (fun w ->
                let pcfg =
                  { Mm_prove.Prove.default with Mm_prove.Prove.workers = w }
                in
                fun spec ~timeout cfg ->
                  Mm_prove.Prove.hook pcfg spec ~timeout cfg)
              prove_workers
          in
          (match
             Atlas.build ~effort ?domains:jobs ~timeout_per_call:timeout
               ~resume:(not no_resume)
               ~progress:(fun s -> Printf.printf "  %s\n%!" s)
               ?prove ~path goals
           with
           | Ok st ->
             Printf.printf
               "atlas build: %d goals: %d built, %d reused, %d re-proved, \
                %d failed in %.1fs\n"
               st.Atlas.total st.Atlas.built st.Atlas.reused
               st.Atlas.reproved st.Atlas.failed st.Atlas.wall_s;
             if st.Atlas.failed > 0 then `Ok 3 else `Ok 0
           | Error e ->
             `Error
               (false,
                Format.asprintf "%s: %a (use --no-resume to rebuild)" path
                  Atlas.pp_error e))
      end
    in
    Cmd.v
      (Cmd.info "build"
         ~exits:
           (Cmd.Exit.defaults
           @ [ Cmd.Exit.info 3 ~doc:"some goals found no circuit at any tier" ])
         ~doc:"Enumerate the NPN class universe offline and persist the \
               checksummed read-only artifact. Resumable: an interrupted or \
               lower-effort build is continued, not restarted; the file is \
               flushed atomically after every chunk.")
      Term.(
        ret
          (const run $ atlas_path $ max_n $ effort $ jobs $ timeout
          $ no_resume $ modes $ rop $ final_taps $ cover $ cover_expr
          $ prove_workers))
  in
  let info_cmd =
    let run path =
      match Atlas.info path with
      | Error e -> `Error (false, Format.asprintf "%s: %a" path Atlas.pp_error e)
      | Ok i ->
        print_endline
          (Json.to_string_pretty
             (Json.Obj
                [ ("path", Json.String path);
                  ("format_version", Json.Int i.Atlas.i_version);
                  ("records", Json.Int i.Atlas.i_records);
                  ("size_bytes", Json.Int i.Atlas.i_bytes);
                  ( "by_arity",
                    Json.Obj
                      (List.map
                         (fun (n, c) -> (string_of_int n, Json.Int c))
                         i.Atlas.i_by_arity) );
                  ( "by_mode",
                    Json.Obj
                      (List.map
                         (fun (m, c) -> (mode_json m, Json.Int c))
                         i.Atlas.i_by_mode) );
                  ( "by_effort",
                    Json.Obj
                      (List.map
                         (fun (e, c) -> (string_of_int e, Json.Int c))
                         i.Atlas.i_by_effort) );
                  ("rops_exact", Json.Int i.Atlas.i_rops_exact);
                  ("both_exact", Json.Int i.Atlas.i_both_exact);
                  ("certificates", Json.Int i.Atlas.i_certificates);
                  ( "damage",
                    match i.Atlas.i_damage with
                    | None -> Json.Null
                    | Some (dropped, torn) ->
                      Json.Obj
                        [ ("dropped_records", Json.Int dropped);
                          ("torn_tail", Json.Bool torn) ] ) ]));
        if i.Atlas.i_damage = None then `Ok 0 else `Ok 3
    in
    Cmd.v
      (Cmd.info "info"
         ~exits:
           (Cmd.Exit.defaults
           @ [ Cmd.Exit.info 3 ~doc:"the atlas is damaged" ])
         ~doc:"Read-only JSON summary of an atlas artifact: record counts \
               by arity, mode and effort tier, proof coverage, certificate \
               counts, and any detected damage (tolerant — a damaged file \
               is still summarized, with exit 3).")
      Term.(ret (const run $ atlas_path))
  in
  let verify_cmd =
    let run path =
      match Atlas.verify path with
      | Ok n ->
        Printf.printf "atlas verify: %s: %d records OK\n" path n;
        `Ok 0
      | Error issues ->
        List.iter
          (fun i -> Format.eprintf "atlas verify: %a@." Atlas.pp_issue i)
          issues;
        Format.eprintf "atlas verify: %s: %d problem(s)@." path
          (List.length issues);
        `Ok 3
    in
    Cmd.v
      (Cmd.info "verify"
         ~exits:
           (Cmd.Exit.defaults
           @ [ Cmd.Exit.info 3 ~doc:"the atlas failed verification" ])
         ~doc:"Deep re-verification: header, per-record checksums and \
               framing, then every stored circuit re-simulated against its \
               target on all rows with the stored metrics cross-checked. \
               Any damaged byte exits nonzero.")
      Term.(ret (const run $ atlas_path))
  in
  Cmd.group
    (Cmd.info "atlas"
       ~doc:"Build, inspect and verify the precomputed NPN block atlas \
             served by $(b,--atlas) on $(b,batch), $(b,serve) and \
             $(b,map).")
    [ build_cmd; info_cmd; verify_cmd ]

let main =
  let doc = "optimal synthesis of memristive mixed-mode circuits" in
  Cmd.group (Cmd.info "mmsynth" ~version:"1.0.0" ~doc)
    [ synth_cmd; prove_cmd; check_cmd; baseline_cmd; simulate_cmd; batch_cmd;
      map_cmd; resyn_cmd; serve_cmd; client_cmd; cluster_cmd; cache_cmd;
      atlas_cmd ]

let () = exit (Cmd.eval' main)
