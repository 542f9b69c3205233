module Cache = Mm_engine.Cache
module Pool = Mm_engine.Pool
module Synth = Mm_core.Synth
module E = Mm_core.Encode
module Spec = Mm_boolfun.Spec
module Tt = Mm_boolfun.Truth_table

let tmp_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mm_cache_test_%d_%d.cache" (Unix.getpid ()) !counter)

let spec_of v = Spec.make ~name:"t" [| Tt.of_int 2 v |]

let cfg_of ?(n_rops = 1) () = E.config ~n_legs:2 ~steps_per_leg:2 ~n_rops ()

(* a real attempt to cache (SAT, carries a circuit) *)
let sat_attempt =
  lazy
    (let a = Synth.solve_instance ~timeout:30. (cfg_of ()) (spec_of 0b0110) in
     (match a.Synth.verdict with
      | Synth.Sat _ -> ()
      | _ -> failwith "expected SAT for xor2 at N_R=1");
     a)

let timeout_attempt budget =
  { (Lazy.force sat_attempt) with Synth.verdict = Synth.Timeout;
    time_s = budget }

let unsat_attempt =
  { (Lazy.force sat_attempt) with Synth.verdict = Synth.Unsat }

let check_verdict msg expected = function
  | None -> Alcotest.failf "%s: expected a hit" msg
  | Some a ->
    let tag = function
      | Synth.Sat _ -> "sat"
      | Synth.Unsat -> "unsat"
      | Synth.Timeout -> "timeout"
    in
    Alcotest.(check string) msg expected (tag a.Synth.verdict)

let test_roundtrip () =
  let path = tmp_path () in
  let c = Cache.create ~path () in
  Alcotest.(check bool) "fresh" true (Cache.load_result c = Cache.Fresh);
  let k_sat = Cache.key (cfg_of ()) (spec_of 0b0110) in
  let k_unsat = Cache.key (cfg_of ~n_rops:0 ()) (spec_of 0b0110) in
  Cache.add c ~timeout:30. k_sat (Lazy.force sat_attempt);
  Cache.add c ~timeout:30. k_unsat unsat_attempt;
  Cache.flush c;
  (* reopen and probe *)
  let c2 = Cache.create ~path () in
  (match Cache.load_result c2 with
   | Cache.Loaded 2 -> ()
   | _ -> Alcotest.fail "expected Loaded 2");
  check_verdict "sat survives" "sat" (Cache.find c2 ~timeout:30. k_sat);
  check_verdict "unsat survives" "unsat" (Cache.find c2 ~timeout:30. k_unsat);
  (* a SAT entry must decode to a circuit that still realizes the spec *)
  (match Cache.find c2 ~timeout:30. k_sat with
   | Some { Synth.verdict = Synth.Sat circuit; _ } ->
     Alcotest.(check bool) "circuit verifies" true
       (Mm_core.Circuit.realizes circuit (spec_of 0b0110) = Ok ())
   | _ -> Alcotest.fail "expected SAT entry");
  let counters = Cache.counters c2 in
  Alcotest.(check int) "hits" 3 counters.Cache.hits;
  Alcotest.(check int) "entries" 2 counters.Cache.entries;
  Sys.remove path

let test_miss_and_stale () =
  let c = Cache.create () in
  let k = Cache.key (cfg_of ()) (spec_of 0b0001) in
  Alcotest.(check bool) "miss" true (Cache.find c ~timeout:10. k = None);
  (* timeout entries only satisfy requests with budgets <= their own *)
  Cache.add c ~timeout:5. k (timeout_attempt 5.);
  check_verdict "same budget hits" "timeout" (Cache.find c ~timeout:5. k);
  check_verdict "smaller budget hits" "timeout" (Cache.find c ~timeout:1. k);
  Alcotest.(check bool) "bigger budget is stale" true
    (Cache.find c ~timeout:60. k = None);
  let counters = Cache.counters c in
  Alcotest.(check int) "1 miss" 1 counters.Cache.misses;
  Alcotest.(check int) "2 hits" 2 counters.Cache.hits;
  Alcotest.(check int) "1 stale" 1 counters.Cache.stale;
  Cache.reset_counters c;
  Alcotest.(check int) "reset" 0 (Cache.counters c).Cache.hits

(* A file at [version] other than the current one is refused and moved
   aside, and the cache starts empty. *)
let check_version_quarantined version =
  let path = tmp_path () in
  let c = Cache.create ~path () in
  Cache.add c ~timeout:30. "k" unsat_attempt;
  Cache.save_with_version c version;
  let c2 = Cache.create ~path () in
  let q =
    match Cache.load_result c2 with
    | Cache.Invalid_version { version = v; quarantined } ->
      Alcotest.(check int) "reported version" version v;
      quarantined
    | _ -> Alcotest.fail "expected Invalid_version"
  in
  (match q with
   | Some q ->
     Alcotest.(check bool) "quarantine file exists" true (Sys.file_exists q);
     Alcotest.(check bool) "bad file moved aside" false (Sys.file_exists path);
     Sys.remove q
   | None -> Alcotest.fail "wrong-version file should be quarantined");
  Alcotest.(check int) "starts empty" 0 (Cache.counters c2).Cache.entries;
  Alcotest.(check bool) "probe misses" true
    (Cache.find c2 ~timeout:30. "k" = None)

let test_version_mismatch () = check_version_quarantined (Cache.format_version + 1)

(* v5 and v6 files hold attempts whose solver stats still carry a
   clause-sharing counter: unmarshalling them with the current layout
   would misread every record. *)
let test_older_layouts_quarantined () =
  check_version_quarantined 5;
  check_version_quarantined 6

let test_corrupt_file () =
  let path = tmp_path () in
  let oc = open_out_bin path in
  output_string oc "this is not a cache file at all";
  close_out oc;
  let c = Cache.create ~path () in
  let q =
    match Cache.load_result c with
    | Cache.Corrupt { quarantined = Some q } -> q
    | Cache.Corrupt { quarantined = None } ->
      Alcotest.fail "corrupt file should be quarantined"
    | _ -> Alcotest.fail "expected Corrupt"
  in
  Alcotest.(check bool) "quarantine holds the original bytes" true
    (Sys.file_exists q);
  Alcotest.(check bool) "bad file moved aside" false (Sys.file_exists path);
  Alcotest.(check int) "empty" 0 (Cache.counters c).Cache.entries;
  (* flushing recreates a clean file at the original path *)
  Cache.add c ~timeout:30. "k" unsat_attempt;
  Cache.flush c;
  let c2 = Cache.create ~path () in
  Alcotest.(check bool) "repaired" true (Cache.load_result c2 = Cache.Loaded 1);
  Sys.remove path;
  Sys.remove q

(* a flush writes only when the overlay changed: a flush with nothing
   added leaves the file itself (its inode) in place, a flush after an add
   replaces it through the temp-file rename *)
let test_flush_only_when_changed () =
  let path = tmp_path () in
  let inode () = (Unix.stat path).Unix.st_ino in
  let c = Cache.create ~path () in
  Cache.add c ~timeout:30. "a" unsat_attempt;
  Cache.flush c;
  let written = inode () in
  (* hold the written file open so a rewrite cannot reuse its inode *)
  let held = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let c2 = Cache.create ~path () in
  Alcotest.(check bool) "reloaded" true (Cache.load_result c2 = Cache.Loaded 1);
  ignore (Cache.find c2 ~timeout:30. "a");
  Cache.flush c2;
  Cache.flush c;
  Alcotest.(check int) "unchanged overlay, file left alone" written (inode ());
  Cache.add c2 ~timeout:30. "b" unsat_attempt;
  Cache.flush c2;
  Alcotest.(check bool) "a flush after add replaces the file" true
    (inode () <> written);
  Alcotest.(check bool) "with both entries" true
    (Cache.load_result (Cache.create ~path ()) = Cache.Loaded 2);
  Unix.close held;
  Sys.remove path

(* a flush torn mid-write (here: the file cut mid-record) must salvage the
   valid prefix, quarantine the damaged file, and never raise *)
let test_truncated_file () =
  let path = tmp_path () in
  let c = Cache.create ~path () in
  let n = 20 in
  for i = 0 to n - 1 do
    Cache.add c ~timeout:30. (Printf.sprintf "k%d" i) unsat_attempt
  done;
  Cache.flush c;
  let len = (Unix.stat path).Unix.st_size in
  Unix.truncate path (len - 10);
  let c2 = Cache.create ~path () in
  (match Cache.load_result c2 with
   | Cache.Salvaged { kept; dropped; quarantined = Some q } ->
     Alcotest.(check bool) "most entries salvaged" true
       (kept >= 1 && kept < n);
     Alcotest.(check bool) "loss is reported" true (dropped >= 1);
     Alcotest.(check bool) "quarantined" true (Sys.file_exists q);
     Alcotest.(check bool) "bad file moved aside" false (Sys.file_exists path);
     Alcotest.(check int) "salvaged entries usable" kept
       (Cache.counters c2).Cache.entries;
     Sys.remove q
   | l -> Alcotest.failf "expected Salvaged, got %s" (Format.asprintf "%a" Cache.pp_load l))

(* flipped bytes inside the payload region: the per-record checksum must
   catch them; damaged records are dropped, the rest salvaged *)
let test_flipped_payload_bytes () =
  let path = tmp_path () in
  let c = Cache.create ~path () in
  let n = 30 in
  for i = 0 to n - 1 do
    Cache.add c ~timeout:30. (Printf.sprintf "k%d" i) unsat_attempt
  done;
  Cache.flush c;
  Mm_engine.Fault.corrupt_file ~seed:5 path;
  let c2 = Cache.create ~path () in
  (match Cache.load_result c2 with
   | Cache.Salvaged { kept; dropped; quarantined = Some q } ->
     Alcotest.(check bool) "some records dropped" true (dropped >= 1);
     Alcotest.(check bool) "no invented entries" true (kept <= n);
     Alcotest.(check int) "table matches salvage count" kept
       (Cache.counters c2).Cache.entries;
     (* every surviving entry must still probe correctly *)
     for i = 0 to n - 1 do
       match Cache.find c2 ~timeout:30. (Printf.sprintf "k%d" i) with
       | None -> ()
       | Some a ->
         Alcotest.(check bool)
           (Printf.sprintf "k%d verdict intact" i)
           true
           (a.Synth.verdict = Synth.Unsat)
     done;
     Alcotest.(check bool) "quarantined" true (Sys.file_exists q);
     Sys.remove q
   | l ->
     Alcotest.failf "expected Salvaged, got %s"
       (Format.asprintf "%a" Cache.pp_load l))

(* atomic tmp-file + rename writes mean a reader racing a flush always
   sees a complete file: no load may ever report damage, let alone raise *)
let test_flush_during_load () =
  let path = tmp_path () in
  let seed = Cache.create ~path () in
  for i = 0 to 9 do
    Cache.add seed ~timeout:30. (Printf.sprintf "s%d" i) unsat_attempt
  done;
  Cache.flush seed;
  let rounds = 30 in
  let jobs =
    Array.init 4 (fun w () ->
        if w < 2 then
          (* writers: flush a growing table over and over *)
          let c = Cache.create ~path () in
          for i = 0 to rounds - 1 do
            Cache.add c ~timeout:30. (Printf.sprintf "w%d-%d" w i) unsat_attempt;
            Cache.flush c
          done
        else
          (* readers: load concurrently; any damage report is a failure *)
          for _ = 0 to rounds - 1 do
            let c = Cache.create ~path () in
            match Cache.load_result c with
            | Cache.Loaded _ -> ()
            | Cache.Fresh -> ()  (* only before the first flush lands *)
            | l ->
              failwith
                (Format.asprintf "reader saw a damaged file: %a" Cache.pp_load l)
          done)
  in
  let outcomes = Pool.run ~domains:4 jobs in
  Array.iter
    (fun o ->
      match o with
      | Ok () -> ()
      | Error e -> Alcotest.failf "crashed: %s" e.Pool.exn)
    outcomes;
  Sys.remove path

(* pool workers hammering one path: every interleaving of the atomic
   temp-file + rename writes must leave a complete, loadable file *)
let test_concurrent_writers () =
  let path = tmp_path () in
  let writers = 6 and per_writer = 40 in
  let jobs =
    Array.init writers (fun w () ->
        let c = Cache.create ~path () in
        for i = 0 to per_writer - 1 do
          Cache.add c ~timeout:30.
            (Printf.sprintf "w%d-%d" w i)
            unsat_attempt;
          Cache.flush c
        done)
  in
  let outcomes = Pool.run ~domains:4 jobs in
  Array.iter
    (fun o ->
      match o with
      | Ok () -> ()
      | Error e -> Alcotest.failf "writer crashed: %s" e.Pool.exn)
    outcomes;
  let c = Cache.create ~path () in
  (match Cache.load_result c with
   | Cache.Loaded n ->
     (* last completed flush wins; it held that writer's full batch *)
     Alcotest.(check bool) "a complete batch survived" true (n >= per_writer)
   | _ -> Alcotest.fail "file unreadable after concurrent writes");
  Sys.remove path

let () =
  Alcotest.run "cache"
    [
      ( "cache",
        [
          Alcotest.test_case "round-trip persistence" `Quick test_roundtrip;
          Alcotest.test_case "miss and stale budgets" `Quick test_miss_and_stale;
          Alcotest.test_case "version mismatch invalidates" `Quick
            test_version_mismatch;
          Alcotest.test_case "v5/v6 files quarantined" `Quick
            test_older_layouts_quarantined;
          Alcotest.test_case "corrupt file invalidates" `Quick test_corrupt_file;
          Alcotest.test_case "flush only when changed" `Quick
            test_flush_only_when_changed;
          Alcotest.test_case "truncated file salvages prefix" `Quick
            test_truncated_file;
          Alcotest.test_case "flipped payload bytes dropped" `Quick
            test_flipped_payload_bytes;
          Alcotest.test_case "flush during load" `Quick test_flush_during_load;
          Alcotest.test_case "concurrent writers" `Quick test_concurrent_writers;
        ] );
    ]
