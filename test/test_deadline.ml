(* Deadline manager edge cases: degenerate pending counts, claims after
   expiry, and the early-finisher inheritance that lets later claimants
   absorb time left on the table. *)

module Deadline = Mm_engine.Deadline

let test_unbounded () =
  let d = Deadline.create ~pending:4 ~default_per_call:2.5 () in
  Alcotest.(check (option (float 1e-9))) "claim = default" (Some 2.5)
    (Deadline.claim d);
  Alcotest.(check (option (float 1e-9))) "remaining unbounded" None
    (Deadline.remaining d);
  Alcotest.(check bool) "never expires" false (Deadline.expired d);
  (* finishing everything (and more) must not break later claims *)
  for _ = 1 to 6 do Deadline.finish d done;
  Alcotest.(check (option (float 1e-9))) "claim after overdrain" (Some 2.5)
    (Deadline.claim d)

let test_zero_pending () =
  (* pending:0 is a degenerate batch; claims must neither divide by zero
     nor grant more than the wall budget *)
  let d = Deadline.create ~wall:1.0 ~pending:0 ~default_per_call:10.0 () in
  (match Deadline.claim d with
   | None -> Alcotest.fail "zero-pending claim refused"
   | Some b ->
     Alcotest.(check bool) "budget positive" true (b > 0.);
     Alcotest.(check bool) "budget within wall" true (b <= 1.0));
  Deadline.finish d;
  Deadline.finish d;
  match Deadline.claim d with
  | None -> Alcotest.fail "claim after over-finish refused"
  | Some b -> Alcotest.(check bool) "still within wall" true (b <= 1.0)

let test_claim_after_expiry () =
  let d = Deadline.create ~wall:0.02 ~pending:3 ~default_per_call:5.0 () in
  Unix.sleepf 0.05;
  Alcotest.(check bool) "expired" true (Deadline.expired d);
  (match Deadline.remaining d with
   | Some r -> Alcotest.(check bool) "remaining negative" true (r <= 0.)
   | None -> Alcotest.fail "bounded manager lost its deadline");
  Alcotest.(check (option (float 1e-9))) "claim refused" None (Deadline.claim d)

let test_tiny_budget_refused () =
  (* a share below the useful minimum is refused outright rather than
     launching a solver call that cannot finish *)
  let d = Deadline.create ~wall:0.005 ~pending:1 ~default_per_call:5.0 () in
  Alcotest.(check (option (float 1e-9))) "doomed claim refused" None
    (Deadline.claim d)

let test_early_finisher_inheritance () =
  (* three claimants, each finishing (nearly) instantly: every later
     claimant divides almost the same remaining time by fewer pending
     jobs, so granted budgets must not decrease *)
  let d = Deadline.create ~wall:3.0 ~pending:3 ~default_per_call:60.0 () in
  let claim_next () =
    match Deadline.claim d with
    | Some b -> b
    | None -> Alcotest.fail "claim refused with time remaining"
  in
  let rem () =
    match Deadline.remaining d with
    | Some r -> r
    | None -> Alcotest.fail "bounded manager lost its deadline"
  in
  let r0 = rem () in
  let c1 = claim_next () in
  Deadline.finish d;
  let r1 = rem () in
  let c2 = claim_next () in
  Deadline.finish d;
  let r2 = rem () in
  let c3 = claim_next () in
  Deadline.finish d;
  let r3 = rem () in
  (* wall-clock remaining only ever shrinks *)
  Alcotest.(check bool) "remaining monotone" true (r0 >= r1 && r1 >= r2 && r2 >= r3);
  (* instant finishers leave their share to later claimants: c1 ~ 3/3,
     c2 ~ 3/2, c3 ~ 3/1 (small epsilon for the clock ticking between calls) *)
  let eps = 0.05 in
  Alcotest.(check bool) "c2 inherits c1's unused time" true (c2 >= c1 -. eps);
  Alcotest.(check bool) "c3 inherits again" true (c3 >= c2 -. eps);
  Alcotest.(check bool) "c1 is a third of the wall" true
    (c1 <= 3.0 /. 3. +. eps && c1 >= 3.0 /. 3. -. (3. *. eps));
  Alcotest.(check bool) "c3 approaches the full remaining wall" true
    (c3 >= 3.0 -. (3. *. eps) && c3 <= 3.0 +. eps)

let () =
  Alcotest.run "deadline"
    [
      ( "edge-cases",
        [
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "zero pending" `Quick test_zero_pending;
          Alcotest.test_case "claim after expiry" `Quick test_claim_after_expiry;
          Alcotest.test_case "tiny budget refused" `Quick
            test_tiny_budget_refused;
          Alcotest.test_case "early-finisher inheritance" `Quick
            test_early_finisher_inheritance;
        ] );
    ]
