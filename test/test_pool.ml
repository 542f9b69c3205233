module Pool = Mm_engine.Pool

let test_submission_order () =
  (* jobs finish out of order (earlier jobs sleep longer); results must
     still land in submission order *)
  let n = 16 in
  let jobs =
    Array.init n (fun i () ->
        Unix.sleepf (0.002 *. float_of_int (n - i));
        i * i)
  in
  let out = Pool.run ~domains:4 jobs in
  Array.iteri
    (fun i o ->
      match o with
      | Ok v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * i) v
      | Error e -> Alcotest.failf "job %d crashed: %s" i e.Pool.exn)
    out

let test_crash_isolation () =
  let jobs =
    [|
      (fun () -> 1);
      (fun () -> failwith "boom");
      (fun () -> 3);
      (fun () -> raise Not_found);
      (fun () -> 5);
    |]
  in
  let out = Pool.run ~domains:3 jobs in
  let ok i =
    match out.(i) with
    | Ok v -> v
    | Error e -> Alcotest.failf "job %d: %s" i e.Pool.exn
  in
  Alcotest.(check int) "job 0" 1 (ok 0);
  Alcotest.(check int) "job 2" 3 (ok 2);
  Alcotest.(check int) "job 4" 5 (ok 4);
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  (match out.(1) with
   | Error e ->
     Alcotest.(check bool) "failure text carries the exception" true
       (contains e.Pool.exn "boom")
   | Ok _ -> Alcotest.fail "job 1 should have crashed");
  match out.(3) with
  | Error e ->
    Alcotest.(check bool) "typed error names the exception" true
      (contains e.Pool.exn "Not_found")
  | Ok _ -> Alcotest.fail "job 3 should have crashed"

(* a crash deep in a call chain must surface the raise site, not just the
   exception text — the backtrace travels inside the typed error *)
let test_backtrace_captured () =
  let rec deep n = if n = 0 then failwith "bottom" else 1 + deep (n - 1) in
  let out = Pool.run ~domains:1 [| (fun () -> deep 5) |] in
  match out.(0) with
  | Ok _ -> Alcotest.fail "job should have crashed"
  | Error e ->
    Alcotest.(check bool) "exception text present" true
      (let contains s sub =
         let n = String.length s and m = String.length sub in
         let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
         go 0
       in
       contains e.Pool.exn "bottom");
    (* recording is enabled by [run]; on this dev profile the trace is
       non-empty and mentions the raising call chain *)
    Alcotest.(check bool) "backtrace captured" true
      (String.length e.Pool.backtrace > 0)

let test_sequential_path () =
  (* domains = 1 must not spawn and still produce identical results *)
  let jobs = Array.init 8 (fun i () -> i + 100) in
  let out = Pool.run ~domains:1 jobs in
  Array.iteri
    (fun i o ->
      match o with
      | Ok v -> Alcotest.(check int) "value" (i + 100) v
      | Error e -> Alcotest.fail e.Pool.exn)
    out

let test_more_domains_than_jobs () =
  let out = Pool.run ~domains:16 [| (fun () -> 42) |] in
  match out.(0) with
  | Ok v -> Alcotest.(check int) "single job" 42 v
  | Error e -> Alcotest.fail e.Pool.exn

let test_empty () =
  Alcotest.(check int) "no jobs" 0 (Array.length (Pool.run [||]))

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "submission-order results" `Quick
            test_submission_order;
          Alcotest.test_case "crash isolation" `Quick test_crash_isolation;
          Alcotest.test_case "backtrace captured" `Quick
            test_backtrace_captured;
          Alcotest.test_case "sequential path" `Quick test_sequential_path;
          Alcotest.test_case "more domains than jobs" `Quick
            test_more_domains_than_jobs;
          Alcotest.test_case "empty batch" `Quick test_empty;
        ] );
    ]
