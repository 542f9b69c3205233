(* mmsynth: command-line front end for the mixed-mode synthesis library.

     mmsynth synth -e "x1 ^ x2" -e "x1 & x2" --minimize
     mmsynth synth -e "x1 & x2 | x3" --rops 0 --legs 1 --steps 3 --dot out.dot
     mmsynth check -e "x1 ^ x2"            # V-op realizability
     mmsynth baseline -e "x1 ^ x2 ^ x3"    # QMC -> NOR-NOR gate count
     mmsynth simulate -e "x1 & x2" --rops 1 --legs 2 --steps 2 --input 3
     mmsynth batch --sweep 3 --cache mm3.cache -j 4   # whole function space

   One driver layer: the spec, the engine configuration and the fault plan
   are terms declared once below and shared by the subcommands; the terms
   refuse a command line that cannot be acted on before any work starts,
   and every subcommand reports its outcome through one exit table. *)

open Cmdliner

module Expr = Mm_boolfun.Expr
module Spec = Mm_boolfun.Spec
module Arith = Mm_boolfun.Arith
module C = Mm_core.Circuit
module E = Mm_core.Encode
module Synth = Mm_core.Synth
module Schedule = Mm_core.Schedule
module Engine = Mm_engine.Engine
module Cache = Mm_engine.Cache
module Fault = Mm_engine.Fault
module Atlas = Mm_atlas.Atlas
module Json = Mm_report.Json
module Table = Mm_report.Table

(* ---- the exit table ---------------------------------------------------- *)

(* Status 124 is kept for command lines that cannot be acted on: every
   [`Error] in this file fires while the command line is checked, before the
   command solves, simulates or loads anything. A command that has started
   work ends with a status below. *)
let exit_no_answer = 3
let exit_check_failed = 4

let exits =
  [ Cmd.Exit.info 0
      ~doc:"the command answered: a verified circuit, or UNSAT where the \
            command asks whether a circuit exists ($(b,synth) at fixed \
            dimensions, $(b,batch)).";
    Cmd.Exit.info 1
      ~doc:"$(b,client) only: the daemon answered with an error other than \
            a shed.";
    Cmd.Exit.info exit_no_answer
      ~doc:"no answer: the budget ran out, or the command needs a circuit \
            and none exists at the requested dimensions, or an input file \
            is damaged or unreadable.";
    Cmd.Exit.info exit_check_failed
      ~doc:"a check failed: a circuit disagrees with its spec on the \
            simulator or with the other backend, a job crashed past its \
            retries, quarantine files could not be removed, or a daemon or \
            shard never came up.";
    Cmd.Exit.info 5
      ~doc:"$(b,client) only: the daemon shed the request (overloaded or \
            draining).";
    Cmd.Exit.info 6
      ~doc:"$(b,client) only: transport error (daemon unreachable or hung \
            up).";
    Cmd.Exit.info Cmd.Exit.cli_error
      ~doc:"a command line that cannot be acted on, refused before any \
            work.";
    Cmd.Exit.info Cmd.Exit.internal_error
      ~doc:"an uncaught exception (a bug)." ]

let cmd_info name ~doc = Cmd.info name ~exits ~doc

(* A failure found after work began: one [mmsynth:] line on stderr, in the
   form of a refused command line, and [status] from the table. *)
let fail status fmt =
  Printf.ksprintf
    (fun msg ->
      flush stdout;
      prerr_endline ("mmsynth: " ^ msg);
      `Ok status)
    fmt

(* ---- bounded counts ----------------------------------------------------- *)

(* Count options are checked against their bounds by their term, so a value
   out of range is refused with one line instead of reaching a library
   guard. (A failing converter would make cmdliner add its usage block.) *)
let out_of_bounds ?(hi = max_int) ~lo name n =
  if n >= lo && n <= hi then None
  else
    let flag = (if String.length name = 1 then "-" else "--") ^ name in
    Some
      (if hi = max_int then Printf.sprintf "%s must be >= %d" flag lo
       else Printf.sprintf "%s must be %d..%d" flag lo hi)

let count ?hi ~lo ?(aliases = []) name ~docv ~doc default =
  let check n =
    match out_of_bounds ?hi ~lo name n with
    | None -> `Ok n
    | Some msg -> `Error (false, msg)
  in
  let arg = Arg.(value & opt int default & info (name :: aliases) ~docv ~doc) in
  Term.(ret (const check $ arg))

let count_opt ?hi ~lo name ~docv ~doc =
  let check v =
    match Option.bind v (out_of_bounds ?hi ~lo name) with
    | None -> `Ok v
    | Some msg -> `Error (false, msg)
  in
  let arg = Arg.(value & opt (some int) None & info [ name ] ~docv ~doc) in
  Term.(ret (const check $ arg))

(* ---- the spec term ------------------------------------------------------ *)

(* Truth tables stop at 24 inputs. *)
let max_arity = 24

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
  let named () =
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
  match named () with
  | Some spec -> Ok spec
  | None ->
    Error
      (Printf.sprintf
         "unknown workload %S (try adderN, majorityN, parityN, cmpN, cmp3_N, \
          mulN, mux21, mux41, andor4, table2, full_adder)"
         s)
  | exception (Invalid_argument _ | Failure _) ->
    Error
      (Printf.sprintf "workload %S: size out of range (specs need 1..%d inputs)"
         s max_arity)

let out_of_range n = n < 1 || n > max_arity

(* build the spec from -e expressions, a --pla/--tables file, or a named
   --workload; exactly one source is given *)
let read_spec name exprs arity pla tables workload =
  let name = Option.value name ~default:"cli" in
  let sources =
    List.length
      (List.filter Fun.id
         [ exprs <> []; pla <> None; tables <> None; workload <> None ])
  in
  if sources > 1 then Error "give exactly one of -e, --pla, --tables, --workload"
  else
    match workload, exprs, pla, tables with
    | Some w, _, _, _ -> workload_of_name w
    | None, (_ :: _), _, _ -> (
      match List.map Expr.parse_exn exprs with
      | parsed -> (
        let used = List.fold_left (fun m e -> max m (Expr.max_var e)) 1 parsed in
        match arity with
        | Some n when out_of_range n ->
          Error (Printf.sprintf "--arity %d is outside 1..%d" n max_arity)
        | Some n when n < used ->
          Error
            (Printf.sprintf "--arity %d is below x%d, used by the expressions"
               n used)
        | Some n -> Ok (Expr.spec ~name ~n parsed)
        | None when out_of_range used ->
          Error (Printf.sprintf "x%d is beyond the %d-input limit" used max_arity)
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

(* Only the spec term and [atlas build --cover] build specs, so no later
   stage sees an arity it cannot handle or an exception from building the
   tables. *)
let spec_of_inputs name exprs arity pla tables workload =
  match read_spec name exprs arity pla tables workload with
  | exception Invalid_argument msg -> Error msg
  | Ok spec when out_of_range (Spec.arity spec) ->
    Error
      (Printf.sprintf "the specification has %d inputs; supported: 1..%d"
         (Spec.arity spec) max_arity)
  | r -> r

(* The checked spec of [-e], [--pla], [--tables] or [--workload] (with
   [--arity] and [--name]), or [None] when no source is given. *)
let spec_t =
  let exprs =
    Arg.(value & opt_all string [] & info [ "e"; "expr" ] ~docv:"EXPR"
           ~doc:"Output function as a Boolean expression over x1, x2, ... \
                 (operators: ~ & | ^, or the paper's * and +). Repeatable: \
                 one per output. Alternatively load a spec with --pla or \
                 --tables.")
  in
  let pla_file =
    Arg.(value & opt (some file) None & info [ "pla" ] ~docv:"FILE"
           ~doc:"Load the specification from a Berkeley-PLA file.")
  in
  let tables_file =
    Arg.(value & opt (some file) None & info [ "tables" ] ~docv:"FILE"
           ~doc:"Load the specification from a truth-table file (one \
                 2^n-character 0/1 line per output).")
  in
  let arity =
    Arg.(value & opt (some int) None & info [ "n"; "arity" ] ~docv:"N"
           ~doc:"Force the number of inputs: 1..24 and at least the largest \
                 variable used (default: the largest variable used).")
  in
  let workload =
    Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"NAME"
           ~doc:"Built-in benchmark spec: $(b,adderN) (N-bit ripple adder, \
                 2N+1 inputs), $(b,majorityN), $(b,parityN), $(b,cmpN), \
                 $(b,cmp3_N) (full 3-output comparator), $(b,mulN), \
                 $(b,mux21), $(b,mux41), $(b,andor4), $(b,table2), \
                 $(b,full_adder).")
  in
  let spec_name =
    Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME"
           ~doc:"Name for the specification.")
  in
  let check name exprs arity pla tables workload =
    if exprs = [] && pla = None && tables = None && workload = None then `Ok None
    else
      match spec_of_inputs name exprs arity pla tables workload with
      | Ok spec -> `Ok (Some spec)
      | Error msg -> `Error (false, msg)
  in
  Term.(
    ret
      (const check $ spec_name $ exprs $ arity $ pla_file $ tables_file
      $ workload))

let no_spec =
  "no specification: use -e EXPR, --pla FILE, --tables FILE or --workload NAME"

(* The spec of a command that cannot run without one. *)
let required_spec_t =
  let need = function Some spec -> `Ok spec | None -> `Error (false, no_spec) in
  Term.(ret (const need $ spec_t))

(* ---- options shared by several subcommands ------------------------------ *)

let timeout_t =
  Arg.(value & opt float 60.0 & info [ "timeout" ] ~docv:"SECONDS"
         ~doc:"Solver budget per SAT call.")

let rops_t =
  count_opt ~lo:0 "rops" ~docv:"N_R" ~doc:"Number of stateful R-ops (NOR gates)."

let legs_t =
  count_opt ~lo:0 "legs" ~docv:"N_L"
    ~doc:"Number of V-legs (default: N_R + #outputs)."

let steps_t =
  count_opt ~lo:0 "steps" ~docv:"N_VS" ~doc:"V-op steps per leg (default: arity + 2)."

let final_taps_t =
  Arg.(value & flag & info [ "final-taps" ]
         ~doc:"Restrict R-op inputs to leg-final values (directly \
               schedulable; the paper's formula allows intermediate taps), \
               fallback circuits included.")

let dot_t = Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
                   ~doc:"Write the circuit as Graphviz dot.")

let json_t = Arg.(value & flag & info [ "json" ] ~doc:"Print the circuit as JSON.")

let jobs_t =
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"D"
         ~doc:"Worker domains (default: cores - 1; 1 = sequential): per run \
               for $(b,batch) and $(b,atlas build), per synthesis batch for \
               $(b,serve), per shard for $(b,cluster).")

let quiet_t =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No log lines on stderr.")

let max_pending_t =
  Arg.(value & opt int 64 & info [ "max-pending" ] ~docv:"N"
         ~doc:"Admission bound: requests beyond N queued jobs are shed with \
               a typed $(b,overloaded) reply ($(b,cluster) passes it to \
               every shard).")

let max_batch_t =
  Arg.(value & opt int 16 & info [ "max-batch" ] ~docv:"N"
         ~doc:"Queued jobs dispatched per engine micro-batch: they share one \
               worker-pool spin-up and NPN-deduplicate ($(b,cluster) passes \
               it to every shard).")

let resyn_passes_t =
  Arg.(value & opt int 4 & info [ "resyn-passes" ] ~docv:"N"
         ~doc:"Resynthesis cleanup passes before giving up on a fixed point \
               ($(b,map) with $(b,--resyn), and $(b,resyn)).")

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

(* Replay [c] on the line-array simulator for every input row and print the
   tally; the rows it gets wrong. *)
let simulator_validation spec c =
  let failures = Schedule.verify (Schedule.plan c) spec in
  let rows = 1 lsl Spec.arity spec in
  Printf.printf "simulator validation: %d/%d rows correct\n"
    (rows - List.length failures) rows;
  failures

let checked failures =
  if failures = [] then `Ok 0
  else
    fail exit_check_failed "schedule simulation disagrees with the spec on %d row(s)"
      (List.length failures)

(* ---- synth / check / baseline / simulate -------------------------------- *)

let synth_cmd =
  let minimize_flag =
    Arg.(value & flag & info [ "minimize" ]
           ~doc:"Run the paper's optimality loop: smallest N_R, then smallest \
                 N_VS.")
  in
  let r_only =
    Arg.(value & flag & info [ "r-only" ]
           ~doc:"Synthesize with stateful R-ops only (no V-legs).")
  in
  let no_incremental =
    Arg.(value & flag & info [ "no-incremental" ]
           ~doc:"Disable the incremental assumption-ladder sweep and solve \
                 every budget point on a fresh solver (the monolithic \
                 differential-testing oracle; slower).")
  in
  let run spec timeout rops legs steps minimize r_only final no_inc json dot =
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
      | None -> fail exit_no_answer "no circuit found within the budget"
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
      let cfg =
        E.config ~taps:(taps_of final) ~n_legs ~steps_per_leg ~n_rops ()
      in
      let a = Synth.solve_instance ~timeout cfg spec in
      Format.printf "%a@.@." Synth.pp_attempt a;
      match a.Synth.verdict with
      | Synth.Sat c ->
        print_circuit ~json ~dot c;
        checked (simulator_validation spec c)
      | Synth.Unsat ->
        Printf.printf "UNSAT: no circuit with these dimensions (optimality certificate)\n";
        `Ok 0
      | Synth.Timeout -> fail exit_no_answer "solver budget exhausted"
    end
  in
  Cmd.v
    (cmd_info "synth" ~doc:"Synthesize a mixed-mode memristive circuit via SAT.")
    Term.(
      ret
        (const run $ required_spec_t $ timeout_t $ rops_t $ legs_t $ steps_t
        $ minimize_flag $ r_only $ final_taps_t $ no_incremental $ json_t
        $ dot_t))

let check_cmd =
  let run spec =
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
    (cmd_info "check"
       ~doc:"Check whether each output is realizable by V-ops alone (n <= 4).")
    Term.(ret (const run $ required_spec_t))

let baseline_cmd =
  let run spec =
    let c = Mm_core.Baseline.nor_network spec in
    Format.printf "%a@." C.pp c;
    Printf.printf
      "QMC -> NOR-NOR baseline: %d NOR gates, %d devices, %d steps\n"
      (C.n_rops c) (C.n_devices c) (C.n_steps c);
    0
  in
  Cmd.v
    (cmd_info "baseline"
       ~doc:"Gate-oriented baseline: Quine-McCluskey cover mapped to 2-input NORs.")
    Term.(const run $ required_spec_t)

let simulate_cmd =
  let input =
    count_opt ~lo:0 "input" ~docv:"ROW"
      ~doc:"Input row to trace, 0..2^n-1 (default: verify all rows)."
  in
  let run spec timeout rops legs steps final input =
    let rows = 1 lsl Spec.arity spec in
    match input with
    | Some row when row >= rows ->
      `Error
        (false,
         Printf.sprintf "--input %d is outside 0..%d, the rows of the spec" row
           (rows - 1))
    | _ -> (
      let n_rops = Option.value rops ~default:1 in
      let n_legs = Option.value legs ~default:(Synth.default_legs spec ~n_rops) in
      let steps_per_leg = Option.value steps ~default:(Spec.arity spec + 2) in
      let cfg = E.config ~taps:(taps_of final) ~n_legs ~steps_per_leg ~n_rops () in
      let a = Synth.solve_instance ~timeout cfg spec in
      match a.Synth.verdict with
      | Synth.Sat c -> (
        match input with
        | Some row ->
          let r = Schedule.execute (Schedule.plan c) ~input:row () in
          Format.printf "%a@." Mm_device.Waveform.pp r.Schedule.waveform;
          Printf.printf "outputs:";
          Array.iteri
            (fun o b -> Printf.printf " out%d=%d" (o + 1) (if b then 1 else 0))
            r.Schedule.outputs;
          print_newline ();
          `Ok 0
        | None -> checked (simulator_validation spec c))
      | Synth.Unsat -> fail exit_no_answer "UNSAT at these dimensions"
      | Synth.Timeout -> fail exit_no_answer "solver budget exhausted")
  in
  Cmd.v
    (cmd_info "simulate"
       ~doc:"Synthesize, then execute on the behavioral line-array simulator.")
    Term.(
      ret
        (const run $ required_spec_t $ timeout_t $ rops_t $ legs_t $ steps_t
        $ final_taps_t $ input))

(* ---- the two-tier store: atlas tier + overlay, shared by batch / serve /
   map ------------------------------------------------------------------- *)

let atlas_t =
  Arg.(value & opt (some string) None & info [ "atlas" ] ~docv:"FILE"
         ~doc:"Read-only NPN block atlas attached as the immutable front \
               tier of the result cache: covered whole-function requests \
               (arity <= 4) are answered from it with zero solver calls. A \
               damaged atlas is refused with a warning and the run degrades \
               to overlay-only operation.")

(* Why [path] cannot hold a cache or atlas file. Both are rewritten as a
   temporary file beside [path] renamed over it, so [path] must be a
   regular file or absent, in a directory that exists and can be
   written. *)
let record_path_problem path =
  let dir = Filename.dirname path in
  let writable_dir () =
    match Unix.access dir [ Unix.W_OK ] with
    | () -> None
    | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
      Some (Printf.sprintf "directory %s does not exist" dir)
    | exception Unix.Unix_error (e, _, _) ->
      Some (Printf.sprintf "cannot write in %s: %s" dir (Unix.error_message e))
  in
  match (Unix.stat path).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> writable_dir ()
  | exception Unix.Unix_error (e, _, _) -> Some (Unix.error_message e)
  | Unix.S_REG -> writable_dir ()
  | Unix.S_DIR -> Some "is a directory"
  | Unix.S_CHR | Unix.S_BLK | Unix.S_LNK | Unix.S_FIFO | Unix.S_SOCK ->
    Some "not a regular file"

(* The result store of batch, serve and map: the mutable overlay (a cache
   file, or — when only an atlas is given — memory-only so the atlas has a
   cache to attach to) with the atlas attached as its front tier. The term
   refuses a cache path that cannot hold a cache file while the command
   line is parsed, and yields the opener, so nothing is loaded before a
   command has checked its own arguments. Damaged atlases are never
   served: warn and run overlay-only. *)
let store_t =
  let cache_file =
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"FILE"
           ~doc:"Persistent result cache file, shared by $(b,batch), \
                 $(b,serve) and $(b,map): hits skip the SAT solver and \
                 survive across runs. A directory, or a file in a directory \
                 that does not exist, is refused.")
  in
  let open_store cache_file atlas () =
    let cache =
      match cache_file, atlas with
      | Some path, _ -> Some (Cache.create ~path ())
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
  in
  let check cache_file atlas =
    match cache_file with
    | Some path -> (
      match record_path_problem path with
      | Some why -> `Error (false, Printf.sprintf "--cache %s: %s" path why)
      | None -> `Ok (open_store cache_file atlas))
    | None -> `Ok (open_store cache_file atlas)
  in
  Term.(ret (const check $ cache_file $ atlas_t))

(* ---- the engine term, shared by batch and serve -------------------------- *)

let fallback_t =
  Arg.(value
       & opt
           (some
              (enum
                 [ ("none", Engine.No_fallback);
                   ("baseline", Engine.Use_baseline);
                   ("heuristic", Engine.Use_heuristic) ]))
           None
       & info [ "fallback" ] ~docv:"KIND"
           ~doc:"When an instance exhausts its budget or crashes past its \
                 retries, emit a verified non-optimal circuit instead of \
                 dropping the spec: $(b,baseline) (QMC->NOR network) or \
                 $(b,heuristic) (Shannon decomposition, or the baseline \
                 when its circuit breaks $(b,--final-taps)); $(b,none) \
                 drops it (the default of $(b,batch) and $(b,serve)). A \
                 fallback always uses NOR R-ops. For \
                 $(b,client), the policy asked of the daemon for this \
                 request (default: the daemon's own).")

(* The fault plan is parsed with the command line, so a bad plan is refused
   before any work; its text is kept for [cluster], which passes it on to
   its shards. *)
let inject_t =
  let text =
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"SPEC"
           ~doc:"Deterministic fault injection for robustness testing: \
                 comma-separated STAGE:RATE pairs, e.g. \
                 $(b,worker:0.3,solver:0.1). Engine stages: worker, solver, \
                 cache-read, cache-write, verify; serve stages: conn (drop \
                 connections), kill (abrupt daemon death), partition \
                 (refuse connections). $(b,cluster) passes the plan to every \
                 shard.")
  in
  let parse = function
    | None -> `Ok None
    | Some spec -> (
      match Fault.parse_spec spec with
      | Ok rules -> `Ok (Some (spec, rules))
      | Error msg -> `Error (false, "--inject: " ^ msg))
  in
  Term.(ret (const parse $ text))

let inject_seed_t =
  Arg.(value & opt int 0 & info [ "inject-seed" ] ~docv:"SEED"
         ~doc:"Seed for the $(b,--inject) plan (same seed, same faults; \
               $(b,cluster) gives shard $(i,i) SEED+$(i,i)).")

type engine_opts = {
  timeout : float;
  jobs : int option;
  fallback : Engine.degrade;
  fault : Fault.t option;
  open_store : unit -> Cache.t option;
}

let engine_t =
  let make timeout jobs fallback inject seed open_store =
    { timeout; jobs;
      fallback = Option.value fallback ~default:Engine.No_fallback;
      fault = Option.map (fun (_, rules) -> Fault.create ~seed rules) inject;
      open_store }
  in
  Term.(
    const make $ timeout_t $ jobs_t $ fallback_t $ inject_t $ inject_seed_t
    $ store_t)

(* The engine configuration of [batch] and [serve]; opens the store. *)
let engine_config ?taps ?deadline ?retries o =
  Engine.config ~timeout_per_call:o.timeout ?domains:o.jobs ?taps
    ?cache:(o.open_store ()) ?deadline ?retries ~fallback:o.fallback
    ?fault:o.fault ()

(* ---- batch: NPN-canonicalizing, cached, multicore sweep ---------------- *)

let batch_cmd =
  let sweep =
    count_opt ~lo:1 ~hi:4 "sweep" ~docv:"N"
      ~doc:"Sweep all $(b,2^2^N) single-output functions of N inputs (1-4; \
            the 4-input space is 65 536 functions in 222 NPN classes)."
  in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print the per-function solver statistics table.")
  in
  let limit =
    count_opt ~lo:0 "limit" ~docv:"K" ~doc:"Only the first K functions of the sweep."
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
  let json_stats_flag =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Also print the run summary as JSON (the shared \
                 $(b,mmsynth-stats-v5) schema used by the serve daemon's \
                 stats endpoint and the benches).")
  in
  let print_stats results =
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
        let last () =
          match List.rev r.Engine.report.Synth.attempts with
          | a :: _ -> Some a
          | [] -> None
        in
        let verdict, att =
          match (Engine.outcome r, r.Engine.provenance) with
          | Engine.Sat, Engine.From_atlas -> ("SAT(atlas)", None)
          | Engine.Sat, _ -> ("SAT", Option.map snd r.Engine.report.Synth.best)
          | Engine.Fallback, Engine.Via_baseline -> ("fallback(b)", None)
          | Engine.Fallback, _ -> ("fallback(h)", None)
          | Engine.Failed, _ -> ("error", None)
          | Engine.Timeout, _ -> ("timeout", last ())
          | Engine.Unsat, _ -> ("UNSAT", last ())
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
                string_of_int a.Synth.solver_stats.Mm_sat.Solver.conflicts);
            cell (fun a -> Printf.sprintf "%.3fs" a.Synth.time_s) ])
      results;
    Table.print t;
    print_newline ()
  in
  let fail_line r =
    let rescued = if r.Engine.circuit <> None then " (rescued by fallback)" else "" in
    match r.Engine.error with
    | None -> None
    | Some (Engine.Crashed { exn; backtrace }) ->
      Some
        (Printf.sprintf "%s: crashed: %s%s%s" (Spec.name r.Engine.spec) exn
           rescued
           (if backtrace = "" then ""
            else "\n    " ^ String.concat "\n    "
                   (String.split_on_char '\n' (String.trim backtrace))))
    | Some (Engine.Verify_failed { row }) ->
      Some
        (Printf.sprintf "%s: decanonicalized circuit wrong on row %d%s"
           (Spec.name r.Engine.spec) row rescued)
  in
  let run spec sweep engine final stats limit deadline retries json_stats =
    let specs =
      match sweep, spec with
      | Some _, Some _ ->
        Error "--sweep synthesizes a whole function space; it takes no spec"
      | Some n, None -> Ok (Engine.all_functions ~arity:n)
      | None, Some spec ->
        (* each output is an independent single-output batch member *)
        Ok
          (Array.mapi
             (fun o tt ->
               Spec.make
                 ~name:(Printf.sprintf "%s.%d" (Spec.name spec) (o + 1))
                 [| tt |])
             (Spec.outputs spec))
      | None, None -> Error no_spec
    in
    match specs with
    | Error msg -> `Error (false, msg)
    | Ok specs ->
      let specs =
        match limit with
        | Some k when k < Array.length specs -> Array.sub specs 0 k
        | Some _ | None -> specs
      in
      let cfg = engine_config ~taps:(taps_of final) ?deadline ~retries engine in
      Printf.printf "batch: %d functions, %d domains, NPN sharing on\n%!"
        (Array.length specs) cfg.Engine.domains;
      let results, summary = Engine.run cfg specs in
      if stats then print_stats results;
      Format.printf "%a@." Engine.pp_summary summary;
      if json_stats then
        print_endline
          (Json.to_string_pretty (Engine.stats_to_json summary));
      Array.iter
        (fun r -> Option.iter (Printf.printf "warning: %s\n") (fail_line r))
        results;
      (* answered: an exact circuit, proven UNSAT or a verified fallback *)
      let with_outcome o =
        List.filter (fun r -> Engine.outcome r = o) (Array.to_list results)
      in
      let hard = with_outcome Engine.Failed
      and budget = with_outcome Engine.Timeout in
      if hard <> [] then begin
        Printf.printf "batch: %d hard failure(s) left unanswered\n"
          (List.length hard);
        `Ok exit_check_failed
      end
      else if budget <> [] then begin
        Printf.printf
          "batch: %d spec(s) unanswered within the budget (consider \
           --fallback%s)\n"
          (List.length budget)
          (if List.exists (fun r -> Spec.arity r.Engine.spec > 4) budget then
             "; specs wider than 4 inputs exceed the exact-SAT cap — use \
              mmsynth map"
           else "");
        `Ok exit_no_answer
      end
      else `Ok 0
  in
  Cmd.v
    (cmd_info "batch"
       ~doc:"Batch synthesis of many functions: NPN class sharing, a \
             persistent result cache, a multicore worker pool, a global \
             deadline with retries and graceful degradation to verified \
             heuristic circuits.")
    Term.(
      ret
        (const run $ spec_t $ sweep $ engine_t $ final_taps_t $ stats_flag
        $ limit $ deadline_flag $ retries_flag $ json_stats_flag))

(* ---- serve / client: resident synthesis daemon ------------------------ *)

module Server = Mm_serve.Server
module Client = Mm_serve.Client
module Wire = Mm_serve.Wire

let socket_t =
  Arg.(value & opt string "/tmp/mmsynth.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket the daemon listens on.")

(* A socket path a new listener may bind: a live listener behind it refuses
   the command line before any work (a stale socket file is removed). *)
let free_socket_t socket =
  let check path =
    match Server.free_socket_path path with
    | Ok () -> `Ok path
    | Error msg -> `Error (false, msg)
  in
  Term.(ret (const check $ socket))

let serve_cmd =
  let tcp =
    Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT"
           ~doc:"Also listen on 127.0.0.1:PORT.")
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
  let shard_id =
    Arg.(value & opt (some string) None & info [ "shard-id" ] ~docv:"ID"
           ~doc:"Identity reported in $(b,stats)/$(b,health) snapshots \
                 (defaults to the socket path); set by $(b,mmsynth cluster) \
                 so the router can attribute per-shard metrics.")
  in
  let run socket tcp engine max_pending max_batch request_deadline
      drain_grace quiet shard_id =
    let log =
      if quiet then None
      else Some (fun s -> Printf.eprintf "mmsynth serve: %s\n%!" s)
    in
    let cfg =
      Server.config ?tcp_port:tcp ~engine:(engine_config engine) ~max_pending
        ~max_batch ?default_deadline:request_deadline ~drain_grace
        ?fault:engine.fault ?log ?shard_id ~socket_path:socket ()
    in
    match Server.run cfg with
    | Ok () -> `Ok 0
    | Error msg -> fail exit_check_failed "%s" msg
  in
  Cmd.v
    (cmd_info "serve"
       ~doc:"Run the resident synthesis daemon: warm cache and NPN tables, \
             bounded admission queue with load shedding, micro-batched \
             dispatch, live stats, graceful drain on SIGTERM.")
    Term.(
      ret
        (const run $ free_socket_t socket_t $ tcp $ engine_t $ max_pending_t
        $ max_batch_t $ request_deadline $ drain_grace $ quiet_t $ shard_id))

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
  let wire_fallback = function
    | Engine.No_fallback -> "none"
    | Engine.Use_baseline -> "baseline"
    | Engine.Use_heuristic -> "heuristic"
  in
  let run socket tcp spec stdin_mode stats health ping shutdown req_timeout
      deadline fallback retry_budget retry_tries =
    let fallback = Option.map wire_fallback fallback in
    let retry =
      Option.map
        (fun b -> Client.retry ~budget_s:b ~max_tries:retry_tries ())
        retry_budget
    in
    let control =
      List.assoc_opt true
        [ (stats, Wire.Stats); (health, Wire.Health); (ping, Wire.Ping);
          (shutdown, Wire.Shutdown) ]
    in
    match addr_of socket tcp with
    | Error msg -> `Error (false, msg)
    | Ok _ when control = None && (not stdin_mode) && spec = None ->
      `Error (false, no_spec)
    | Ok addr -> (
      match Client.connect addr with
      | Error msg ->
        Printf.eprintf "mmsynth client: %s\n" msg;
        `Ok 6
      | Ok c ->
        let finish code = Client.close c; `Ok code in
        let synth spec =
          Client.synth ?timeout:req_timeout ?deadline ?fallback ?retry c spec
        in
        (* a transport failure is status 6 *)
        let transport r =
          Result.map_error
            (fun msg -> Printf.eprintf "mmsynth client: %s\n" msg; 6)
            r
        in
        let reply r =
          match transport r with Error code -> code | Ok rep -> print_reply rep
        in
        match control, spec with
        | Some req, _ -> finish (reply (Client.request ?retry c req))
        | None, Some spec when not stdin_mode -> finish (reply (synth spec))
        | None, _ ->
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
                   match transport (synth spec) with
                   | Error code -> bump code
                   | Ok (Wire.Result r) -> print_endline (Json.to_string r)
                   | Ok (Wire.Err _ as rep) -> bump (print_reply rep))
               end
             done
           with End_of_file -> ());
          finish !code)
  in
  Cmd.v
    (cmd_info "client"
       ~doc:"Send requests to a running $(b,mmsynth serve) daemon: one \
             synthesis (spec options as for $(b,synth)), a $(b,--stdin) \
             batch, or $(b,--stats)/$(b,--health)/$(b,--ping)/\
             $(b,--shutdown).")
    Term.(
      ret
        (const run $ socket_t $ tcp $ spec_t $ stdin_flag $ stats_flag
        $ health_flag $ ping_flag $ shutdown_flag $ req_timeout $ deadline
        $ fallback_t $ retry_budget $ retry_tries))

(* ---- cluster: supervised shards behind a failover router -------------- *)

let cluster_cmd =
  let module Router = Mm_cluster.Router in
  let module Supervisor = Mm_cluster.Supervisor in
  let shards_n =
    count ~lo:1 ~aliases:[ "n" ] "shards" ~docv:"N"
      ~doc:"Number of shard daemons to spawn and supervise." 2
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
    count ~lo:1 "replicas" ~docv:"N"
      ~doc:"Distinct shards the router tries per request round." 2
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
  let chaos_kill_after =
    Arg.(value & opt (some float) None
         & info [ "chaos-kill-after" ] ~docv:"SECONDS"
             ~doc:"SIGKILL one shard this many seconds after boot (the \
                   supervisor restarts it) — smoke-test hook.")
  in
  let chaos_shard =
    Arg.(value & opt int 0 & info [ "chaos-shard" ] ~docv:"I"
           ~doc:"Which shard $(b,--chaos-kill-after) kills: 0..N-1.")
  in
  let run n router_socket shard_dir cache_dir atlas timeout replicas
      retry_budget probe_interval max_pending max_batch jobs inject
      inject_seed chaos_kill_after chaos_shard quiet =
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
      Option.iter failwith
        (out_of_bounds ~lo:0 ~hi:(n - 1) "chaos-shard" chaos_shard);
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
             | Some (spec, _) ->
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
        fail exit_check_failed "not all shards came up"
      end
      else begin
        let router =
          Router.create
            (Router.config ~replicas ~retry_budget_s:retry_budget
               ~probe_interval_s:(Some probe_interval) ?log ())
            (List.init n (fun i ->
                 { Router.id = Printf.sprintf "shard-%d" i;
                   addr = Client.Unix_sock (shard_socket i) }))
        in
        logf "%d shard(s) up" n;
        Option.iter
          (fun after ->
            ignore
              (Thread.create
                 (fun () ->
                   Thread.delay after;
                   Supervisor.kill_one sup chaos_shard)
                 ()))
          chaos_kill_after;
        (* the router is a daemon like [serve]: SIGTERM/SIGINT or a wire
           shutdown drains it, then the shards are stopped *)
        let served =
          Server.run ~handlers:(Router.handlers router)
            (Server.config ?log ~socket_path:router_socket ())
        in
        Router.close router;
        Supervisor.stop sup;
        match served with
        | Ok () -> `Ok 0
        | Error msg -> fail exit_check_failed "%s" msg
      end
  in
  Cmd.v
    (cmd_info "cluster"
       ~doc:"Spawn and supervise N $(b,serve) shards behind a failover \
             router: consistent-hash routing by NPN class, replica \
             fallback, circuit breakers, crashed shards restarted with \
             backoff. The router is served by the same daemon core as \
             $(b,serve) and speaks the same wire protocol.")
    Term.(
      ret
        (const run $ shards_n $ free_socket_t router_socket $ shard_dir
        $ cache_dir $ atlas_t $ timeout_t $ replicas $ retry_budget
        $ probe_interval $ max_pending_t $ max_batch_t $ jobs_t $ inject_t
        $ inject_seed_t $ chaos_kill_after $ chaos_shard $ quiet_t))

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
  let failures = simulator_validation spec c in
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
  let module Resyn = Mm_resyn.Resyn in
  let module Stitch = Mm_map.Stitch in
  let module Blocklib = Mm_map.Blocklib in
  let module Mapper = Mm_map.Mapper in
  let module Xsched = Mm_map.Xsched in
  let module Xstitch = Mm_map.Xstitch in
  let k_arg =
    count ~lo:2 ~hi:4 "k" ~docv:"K"
      ~doc:"Maximum cut width (2-4): every library block sees at most K \
            leaves."
      4
  in
  let cut_limit =
    count ~lo:1 "cut-limit" ~docv:"N"
      ~doc:"Priority cuts kept per AIG node (larger = better covers, \
            slower)."
      8
  in
  let passes =
    count ~lo:1 "passes" ~docv:"N"
      ~doc:"Area-recovery refinement passes over the cover." 3
  in
  let effort =
    count ~lo:1 ~hi:3 "effort" ~docv:"LEVEL"
      ~doc:"Library-probe budget: $(b,1) = 50ms/call with shallow sweeps, \
            $(b,2) = 0.5s, $(b,3) = 5s uncapped. Probes that expire degrade \
            to verified QMC\xe2\x86\x92NOR fallback blocks, so the mapped \
            circuit is correct at any effort."
      2
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
    count ~lo:1 "rows" ~docv:"R"
      ~doc:"Crossbar rows available to the placer (xbar target)." 16
  in
  let ports_arg =
    count ~lo:1 "ports" ~docv:"P"
      ~doc:"Peripheral transfers per transfer cycle (xbar target)." 4
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
  let print_blocks placed =
    let t =
      Table.create
        [ "block"; "leaves"; "kind"; "source"; "optimal"; "N_L"; "N_VS"; "N_R" ]
    in
    List.iter
      (fun (p : Stitch.placed) ->
        Table.add_row t
          [ Printf.sprintf "n%d" p.Stitch.root;
            String.concat ","
              (List.map string_of_int (Array.to_list p.Stitch.leaves));
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
            (List.map (fun l -> Json.Int l) (Array.to_list p.Stitch.leaves)) );
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
  let xbar_report ~stats ~json ~rows ~ports spec (xr : Xstitch.result) =
    let xst = xr.Xstitch.stitch in
    let sc = xr.Xstitch.sched in
    let p = sc.Xsched.place in
    let n_rows_spec = 1 lsl Spec.arity spec in
    Printf.printf
      "aig (balanced): %d inputs, %d AND nodes; cover: %d blocks (%d exact, \
       %d fallback), critical-path depth %d\n"
      xst.Stitch.aig_inputs xst.Stitch.aig_ands
      (List.length xst.Stitch.stitched.Stitch.placed)
      xst.Stitch.lib_exact xst.Stitch.lib_fallbacks xst.Stitch.dag.Mapper.depth;
    Printf.printf "placement: %d rows x %d cols, %d transfer(s), %d inverter(s)\n"
      xr.Xstitch.rows_used xr.Xstitch.cols_used xr.Xstitch.transfers
      (Array.length p.Mm_map.Place.invs);
    Printf.printf
      "schedule: %d cycles (%d V + %d R + %d T) + %d readout, polish -%d\n\n"
      xr.Xstitch.cycles sc.Xsched.v_cycles sc.Xsched.r_cycles
      sc.Xsched.t_cycles xr.Xstitch.readout sc.Xsched.polish_gain;
    if stats then print_blocks xst.Stitch.stitched.Stitch.placed;
    (* zero-trust: replay the schedule on the crossbar simulator for every
       input row *)
    let failures = Xstitch.verify sc spec in
    Printf.printf "simulator validation: %d/%d rows correct\n"
      (n_rows_spec - List.length failures)
      n_rows_spec;
    (* and cross-check it row by row against the 1D lowering of the same
       cover *)
    let plan = Schedule.plan xst.Stitch.stitched.Stitch.circuit in
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
                      ("row", Json.Int p.Place.slots.(s).Place.row) ])
                set )
          | Xsched.C_r refs ->
            ( "R",
              List.map
                (function
                  | Xsched.Gate (s, j) ->
                    Json.Obj
                      [ ("slot", Json.Int s);
                        ("rop", Json.Int j);
                        ("row", Json.Int p.Place.slots.(s).Place.row) ]
                  | Xsched.Inverter iv ->
                    Json.Obj
                      [ ("inverter", Json.Int iv);
                        ( "row",
                          Json.Int p.Place.invs.(iv).Place.i_out.Place.row ) ])
                refs )
          | Xsched.C_t ixs ->
            ( "T",
              List.map
                (fun ix ->
                  let x = p.Place.xfers.(ix) in
                  Json.Obj
                    [ ("transfer", Json.Int ix);
                      ("src_row", Json.Int x.Place.x_src.Place.row);
                      ("dst_row", Json.Int x.Place.x_dst.Place.row) ])
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
                ("block_depth", Json.Int xst.Stitch.dag.Mapper.depth);
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
                ("agrees_with_line", Json.Bool (!disagree = []));
                ( "blocks",
                  Json.List
                    (List.map block_json xst.Stitch.stitched.Stitch.placed) );
                ( "schedule",
                  Json.List
                    (List.mapi cycle_json (Array.to_list sc.Xsched.cycles)) ) ]))
    end;
    if failures <> [] then
      fail exit_check_failed "crossbar schedule failed simulator validation"
    else if !disagree <> [] then
      fail exit_check_failed "crossbar schedule disagrees with the 1D backend"
    else `Ok 0
  in
  let line_target ~stats ~dot ~json spec (r : Stitch.result)
      (resyn_t : Resyn.t option) =
    let st = r.Stitch.stitched in
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
      "library: %d lookups, %d memo hits; block DAG critical-path depth %d\n\n"
      r.Stitch.lib_lookups r.Stitch.lib_memo_hits r.Stitch.dag.Mapper.depth;
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
            ("blocks", Json.List (List.map block_json st.Stitch.placed)) ]
    in
    if json then print_endline (Json.to_string_pretty artifact);
    checked failures
  in
  let run spec k cut_limit passes open_store effort stats json dot target rows
      ports no_polish resyn resyn_passes =
    if resyn && target = `Xbar then
      `Error (false, "--resyn applies to --target line")
    else begin
      let timeout_per_call, max_rops =
        match effort with
        | 1 -> (0.05, Some 5)
        | 2 -> (0.5, Some 8)
        | _ -> (5.0, None)
      in
      let cache = open_store () in
      let cfg =
        Engine.config ~timeout_per_call ?max_rops ~domains:1
          ~taps:E.Final_only ?cache ()
      in
      let compile () =
        match target with
        | `Xbar ->
          `Xbar
            (Xstitch.compile ~k ~cut_limit ~passes ~rows ~ports
               ~polish:(not no_polish) cfg spec)
        | `Line ->
          let r = Stitch.compile ~k ~cut_limit ~passes cfg spec in
          `Line
            ( r,
              if resyn then
                Some
                  (Resyn.run ~max_passes:resyn_passes spec
                     r.Stitch.stitched.Stitch.circuit)
              else None )
      in
      (* the options are checked, so what the compilers raise is a failed
         internal check: a stitched, scheduled or resynthesized circuit that
         does not verify *)
      match compile () with
      | exception (Invalid_argument msg | Failure msg) ->
        fail exit_check_failed "%s" msg
      | `Xbar xr ->
        Option.iter Cache.flush cache;
        xbar_report ~stats ~json ~rows ~ports spec xr
      | `Line (r, resyn_t) ->
        Option.iter Cache.flush cache;
        line_target ~stats ~dot ~json spec r resyn_t
    end
  in
  Cmd.v
    (cmd_info "map"
       ~doc:"Compile a function of any width onto a library of SAT-optimal \
             mixed-mode blocks: AIG construction, priority-cut enumeration \
             (width <= 4), NPN-canonicalized library probes, DAG-aware \
             area-flow covering, and stitching onto one verified line-array \
             schedule.")
    Term.(
      ret
        (const run $ required_spec_t $ k_arg $ cut_limit $ passes $ store_t
        $ effort $ stats_flag $ json_t $ dot_t $ target_arg $ rows_arg
        $ ports_arg $ no_polish $ resyn_flag $ resyn_passes_t))

(* ---- resyn: re-optimize a previously emitted map artifact -------------- *)

let resyn_cmd =
  let module Resyn = Mm_resyn.Resyn in
  let module Artifact = Mm_resyn.Artifact in
  (* the artifact is read with the command line: a file that is not a
     resynthesizable artifact is a command line that cannot be acted on *)
  let artifact_t =
    let path =
      Arg.(required & pos 0 (some file) None & info [] ~docv:"ARTIFACT"
             ~doc:"A $(b,map --json) artifact. The human-readable report \
                   may precede the JSON object; parsing starts at the first \
                   '{'.")
    in
    let read artifact =
      let text = In_channel.with_open_bin artifact In_channel.input_all in
      match String.index_opt text '{' with
      | None -> `Error (false, artifact ^ ": no JSON object found")
      | Some i -> (
        match Json.of_string (String.sub text i (String.length text - i)) with
        | Error msg -> `Error (false, artifact ^ ": " ^ msg)
        | Ok root -> (
          match
            (Json.member "circuit_ir" root, Json.member "spec_tables" root)
          with
          | None, _ | _, None ->
            `Error
              ( false,
                artifact
                ^ ": not a resynthesizable artifact (missing circuit_ir / \
                   spec_tables — emit it with map --json)" )
          | Some cj, Some sj -> (
            match (Artifact.circuit_of_json cj, Artifact.spec_of_json sj) with
            | Error msg, _ | _, Error msg -> `Error (false, msg)
            | Ok c0, Ok spec -> `Ok (spec, c0))))
    in
    Term.(ret (const read $ path))
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Write the re-optimized artifact JSON to FILE (same shape \
                 as $(b,map --json), so it can be re-fed to this command).")
  in
  let run (spec, c0) passes json out =
    match Resyn.run ~max_passes:passes spec c0 with
    | exception (Invalid_argument msg | Failure msg) ->
      fail exit_check_failed "%s" msg
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
      checked failures
  in
  Cmd.v
    (cmd_info "resyn"
       ~doc:"Re-optimize a previously emitted $(b,map --json) artifact: \
             semantic sweeping, dead-code elimination and shared-BE-rail \
             leg compaction over the committed schedule, without re-running \
             the mapper. The result is re-verified row-by-row before it is \
             reported.")
    Term.(ret (const run $ artifact_t $ resyn_passes_t $ json_t $ out_arg))

(* ---- cache info / gc --------------------------------------------------- *)

let cache_cmd =
  let cache_path =
    Arg.(required & opt (some string) None & info [ "cache" ] ~docv:"FILE"
           ~doc:"The cache file to inspect.")
  in
  let status_string = function
    | Cache.Fresh -> "missing"
    | Cache.Loaded _ -> "ok"
    | Cache.Invalid_version _ -> "invalid-version"
    | Cache.Corrupt _ -> "corrupt"
    | Cache.Salvaged { kept; dropped; _ } ->
      Printf.sprintf "salvageable (%d intact, >=%d damaged)" kept dropped
    | Cache.Unreadable reason -> Printf.sprintf "unreadable (%s)" reason
  in
  let info_cmd =
    let run path =
      let i = Cache.inspect path in
      print_endline
        (Json.to_string_pretty
           (Json.Obj
              [
                ("path", Json.String path);
                ( "size_bytes",
                  match i.Cache.size_bytes with
                  | None -> Json.Null
                  | Some n -> Json.Int n );
                ( "format_version",
                  match i.Cache.version with
                  | None -> Json.Null
                  | Some v -> Json.Int v );
                ("status", Json.String (status_string i.Cache.status));
                ("entries", Json.Int i.Cache.entries);
                ( "corrupt_siblings",
                  Json.List
                    (List.map (fun p -> Json.String p) i.Cache.corrupt_siblings)
                );
              ]));
      (* non-zero when the file needs attention, so scripts can gate on it *)
      match (i.Cache.status, i.Cache.corrupt_siblings) with
      | (Cache.Fresh | Cache.Loaded _), [] -> 0
      | _ -> exit_no_answer
    in
    Cmd.v
      (cmd_info "info"
         ~doc:"Read-only report on a cache file: size, format version, \
               intact entry count, and any $(b,.corrupt) quarantine \
               siblings. The on-disk format version is reported when the \
               header is readable, so files from other builds are \
               identified. Never modifies anything — safe against a live \
               daemon's cache. Exits 3 when the cache is damaged or \
               quarantine files exist.")
      Term.(const run $ cache_path)
  in
  let gc_cmd =
    let archive =
      Arg.(value & opt (some string) None & info [ "archive" ] ~docv:"DIR"
             ~doc:"Move quarantine files into DIR instead of deleting them.")
    in
    let run path archive =
      let victims = Cache.quarantined_siblings path in
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
        if !failures > 0 then
          fail exit_check_failed "some quarantine files survived"
        else `Ok 0
      end
    in
    Cmd.v
      (cmd_info "gc"
         ~doc:"Delete (or $(b,--archive) into a directory) the \
               $(b,<cache>.corrupt) quarantine files left by damaged-cache \
               recovery.")
      Term.(ret (const run $ cache_path $ archive))
  in
  Cmd.group
    (cmd_info "cache" ~doc:"Inspect and clean persistent result caches.")
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
      count ~lo:1 ~hi:4 "max-n" ~docv:"N"
        ~doc:"Enumerate every NPN class of arity 1..N (1-4). N=4 is the \
              paper's full 222-class universe; the default 3 (2+4+14 \
              classes) builds in seconds."
        3
    in
    let effort =
      count ~lo:1 ~hi:3 "effort" ~docv:"LEVEL"
        ~doc:"$(b,1) = verified heuristic circuits, no SAT; $(b,2) = exact \
              minimization within $(b,--timeout) per call; $(b,3) = 4x \
              budget, keeping the UNSAT-ladder optimality certificates as \
              provenance metadata."
        2
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
    let run path max_n effort jobs timeout no_resume modes rop final cover
        cover_exprs =
      match record_path_problem path with
      | Some why -> `Error (false, Printf.sprintf "%s: %s" path why)
      | None -> begin
        let cover_tts = ref [] and cover_errs = ref [] in
        List.iter
          (fun w ->
            match spec_of_inputs None [] None None None (Some w) with
            | Error msg ->
              cover_errs := Printf.sprintf "--cover %s: %s" w msg :: !cover_errs
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
            (* test the width before building: a table wider than the
               truth-table limit cannot be built at all *)
            match Expr.parse_exn e with
            | parsed when Expr.max_var parsed <= 4 ->
              Array.iter
                (fun tt -> cover_tts := tt :: !cover_tts)
                (Spec.outputs (Expr.spec ~name:"cover" [ parsed ]))
            | _ ->
              Printf.eprintf
                "warning: --cover-expr %S: wider than 4 inputs, skipped\n" e
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
          (match
             Atlas.build ~effort ?domains:jobs ~timeout_per_call:timeout
               ~resume:(not no_resume)
               ~progress:(fun s -> Printf.printf "  %s\n%!" s)
               ~path goals
           with
           | Ok st ->
             Printf.printf
               "atlas build: %d goals: %d built, %d reused, %d failed in \
                %.1fs\n"
               st.Atlas.total st.Atlas.built st.Atlas.reused st.Atlas.failed
               st.Atlas.wall_s;
             if st.Atlas.failed > 0 then `Ok exit_no_answer else `Ok 0
           | Error e ->
             fail exit_no_answer "%s"
               (Format.asprintf "%s: %a (use --no-resume to rebuild)" path
                  Atlas.pp_error e))
      end
    in
    Cmd.v
      (cmd_info "build"
         ~doc:"Enumerate the NPN class universe offline and persist the \
               checksummed read-only artifact. Resumable: an interrupted or \
               lower-effort build is continued, not restarted; the file is \
               flushed atomically after every chunk. Exits 3 when some \
               goals found no circuit at any tier.")
      Term.(
        ret
          (const run $ atlas_path $ max_n $ effort $ jobs_t $ timeout
          $ no_resume $ modes $ rop $ final_taps_t $ cover $ cover_expr))
  in
  let info_cmd =
    let run path =
      match Atlas.info path with
      | Error e ->
        fail exit_no_answer "%s" (Format.asprintf "%s: %a" path Atlas.pp_error e)
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
        if i.Atlas.i_damage = None then `Ok 0 else `Ok exit_no_answer
    in
    Cmd.v
      (cmd_info "info"
         ~doc:"Read-only JSON summary of an atlas artifact: record counts \
               by arity, mode and effort tier, proof coverage, certificate \
               counts, and any detected damage (tolerant — a damaged file \
               is still summarized, with exit 3; an unreadable header exits \
               3 with no summary).")
      Term.(ret (const run $ atlas_path))
  in
  let verify_cmd =
    let run path =
      match Atlas.verify path with
      | Ok n ->
        Printf.printf "atlas verify: %s: %d records OK\n" path n;
        0
      | Error issues ->
        List.iter
          (fun i -> Format.eprintf "atlas verify: %a@." Atlas.pp_issue i)
          issues;
        Format.eprintf "atlas verify: %s: %d problem(s)@." path
          (List.length issues);
        exit_no_answer
    in
    Cmd.v
      (cmd_info "verify"
         ~doc:"Deep re-verification: header, per-record checksums and \
               framing, then every stored circuit re-simulated against its \
               target on all rows with the stored metrics cross-checked. \
               Any damaged byte exits 3.")
      Term.(const run $ atlas_path)
  in
  Cmd.group
    (cmd_info "atlas"
       ~doc:"Build, inspect and verify the precomputed NPN block atlas \
             served by $(b,--atlas) on $(b,batch), $(b,serve) and \
             $(b,map).")
    [ build_cmd; info_cmd; verify_cmd ]

let main =
  let doc = "optimal synthesis of memristive mixed-mode circuits" in
  Cmd.group (Cmd.info "mmsynth" ~version:"1.0.0" ~exits ~doc)
    [ synth_cmd; check_cmd; baseline_cmd; simulate_cmd; batch_cmd;
      map_cmd; resyn_cmd; serve_cmd; client_cmd; cluster_cmd; cache_cmd;
      atlas_cmd ]

let () = exit (Cmd.eval' main)
