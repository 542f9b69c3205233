(* The serve layer: wire protocol round trips, framing, the latency
   histogram, and a live daemon exercised end-to-end over a real Unix
   socket — including overload shedding, injected connection drops,
   per-request deadlines and graceful drain. *)

module Server = Mm_serve.Server
module Client = Mm_serve.Client
module Wire = Mm_serve.Wire
module Stats = Mm_serve.Stats
module Json = Mm_report.Json
module Engine = Mm_engine.Engine
module Fault = Mm_engine.Fault
module Spec = Mm_boolfun.Spec
module Tt = Mm_boolfun.Truth_table

let spec_of ?(name = "t") n v = Spec.make ~name [| Tt.of_int n v |]
let xor2 = spec_of ~name:"xor2" 2 0b0110

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mmserve-%d-%d.sock" (Unix.getpid ()) !n)

let with_server ?fault ?engine ?max_pending ?max_batch ?default_deadline
    ?(drain_grace = 0.3) f =
  let engine =
    match engine with Some e -> e | None -> Engine.config ~domains:1 ()
  in
  let sock = fresh_socket () in
  let cfg =
    Server.config ?fault ~engine ?max_pending ?max_batch ?default_deadline
      ~drain_grace ~socket_path:sock ()
  in
  match Server.start cfg with
  | Error msg -> Alcotest.failf "server start: %s" msg
  | Ok t ->
    Fun.protect
      ~finally:(fun () -> if not (Server.stopped t) then Server.stop t)
      (fun () -> f sock t)

let connect sock =
  match Client.wait_ready (Client.Unix_sock sock) with
  | Ok c -> c
  | Error msg -> Alcotest.failf "connect: %s" msg

let get_str k j = Json.get Json.to_str k j
let get_int k j = Json.get Json.to_int k j

(* [path] down nested objects, e.g. [["engine"; "atlas"]]. *)
let rec get_path path j =
  match path with
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (get_path rest)

let stat_int path t =
  Option.bind (get_path path (Server.stats_json t)) Json.to_int

(* An engine whose warm cache carries the shipped atlas, which answers
   every 3-input function and leaves most 4-input ones to the solver. *)
let atlas_engine ?fault () =
  let atlas =
    match Mm_atlas.Atlas.load "../examples/atlas-tier1.mmatlas" with
    | Ok a -> a
    | Error e -> Alcotest.failf "atlas: %a" Mm_atlas.Atlas.pp_error e
  in
  let cache = Mm_engine.Cache.create () in
  Mm_atlas.Atlas.attach atlas cache;
  Engine.config ~domains:1 ~cache ?fault ()

(* A 4-input function outside the shipped atlas whose solve takes well
   over 0.3 s. *)
let slow_miss = spec_of ~name:"miss066b" 4 0x066b

let result_of name = function
  | Ok (Wire.Result r) -> r
  | Ok (Wire.Err e) ->
    Alcotest.failf "%s refused (%s): %s" name (Wire.code_tag e.Wire.code)
      e.Wire.msg
  | Error msg -> Alcotest.failf "%s: %s" name msg

(* Block until the stats counter at [path] reaches [n]. *)
let await t path n =
  while Option.value (stat_int path t) ~default:0 < n do
    Thread.delay 0.005
  done

(* ---- wire protocol --------------------------------------------------- *)

let test_request_roundtrip () =
  let params =
    { Wire.timeout = Some 2.5; deadline = Some 10.; fallback = Some "baseline" }
  in
  let req = Wire.Synth { spec = xor2; params } in
  let j = Wire.request_to_json ~id:7 req in
  let j' =
    match Json.of_string (Json.to_string j) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "reparse: %s" msg
  in
  match Wire.request_of_json j' with
  | Error (_, msg) -> Alcotest.failf "request_of_json: %s" msg
  | Ok (id, Wire.Synth { spec; params = p }) ->
    Alcotest.(check int) "id" 7 id;
    Alcotest.(check bool) "spec" true (Spec.equal spec xor2);
    Alcotest.(check (option (float 1e-9))) "timeout" (Some 2.5) p.Wire.timeout;
    Alcotest.(check (option (float 1e-9))) "deadline" (Some 10.) p.Wire.deadline;
    Alcotest.(check (option string)) "fallback" (Some "baseline") p.Wire.fallback
  | Ok _ -> Alcotest.fail "wrong op"

let test_request_validation () =
  let bad j =
    match Wire.request_of_json j with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "accepted invalid request"
  in
  (* wrong protocol version *)
  bad
    (Json.Obj
       [ ("v", Json.Int 99); ("id", Json.Int 1); ("op", Json.String "ping") ]);
  (* missing version *)
  bad (Json.Obj [ ("id", Json.Int 1); ("op", Json.String "ping") ]);
  (* unknown op *)
  bad
    (Json.Obj
       [ ("v", Json.Int 1); ("id", Json.Int 1); ("op", Json.String "nope") ]);
  (* synth without spec *)
  bad
    (Json.Obj
       [ ("v", Json.Int 1); ("id", Json.Int 1); ("op", Json.String "synth") ]);
  (* arity out of range *)
  bad
    (Json.Obj
       [
         ("v", Json.Int 1);
         ("id", Json.Int 1);
         ("op", Json.String "synth");
         ( "spec",
           Json.Obj
             [
               ("arity", Json.Int 40);
               ("outputs", Json.List [ Json.String "01" ]);
             ] );
       ])

let test_error_roundtrip () =
  let e =
    { Wire.code = Wire.Overloaded; msg = "queue full"; retry_after_s = Some 1.5 }
  in
  let j =
    match Json.of_string (Json.to_string (Wire.error_json ~id:3 e)) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "reparse: %s" msg
  in
  match Wire.reply_of_json j with
  | Ok (3, Wire.Err e') ->
    Alcotest.(check string) "code" "overloaded" (Wire.code_tag e'.Wire.code);
    Alcotest.(check string) "msg" "queue full" e'.Wire.msg;
    Alcotest.(check (option (float 1e-9)))
      "retry" (Some 1.5) e'.Wire.retry_after_s
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error msg -> Alcotest.failf "reply_of_json: %s" msg

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
    (fun () ->
      let payload = "{\"v\":1,\"op\":\"ping\",\"id\":42}" in
      (match Wire.write_frame a payload with
       | Ok () -> ()
       | Error e -> Alcotest.failf "write: %s" (Wire.pp_io_error e));
      (match Wire.read_frame b with
       | Ok got -> Alcotest.(check string) "payload" payload got
       | Error e -> Alcotest.failf "read: %s" (Wire.pp_io_error e));
      (* several frames back to back survive intact *)
      List.iter
        (fun p ->
          match Wire.write_frame a p with
          | Ok () -> ()
          | Error e -> Alcotest.failf "write: %s" (Wire.pp_io_error e))
        [ "x"; String.make 100_000 'y'; "z" ];
      List.iter
        (fun expect ->
          match Wire.read_frame b with
          | Ok got -> Alcotest.(check string) "frame" expect got
          | Error e -> Alcotest.failf "read: %s" (Wire.pp_io_error e))
        [ "x"; String.make 100_000 'y'; "z" ];
      (* oversize frames are refused before touching the socket *)
      (match Wire.write_frame a (String.make (Wire.max_frame + 1) 'q') with
       | Error (Wire.Too_large _) -> ()
       | Ok () | Error _ -> Alcotest.fail "oversize frame accepted");
      (* peer hangup reads as Closed *)
      Unix.close a;
      match Wire.read_frame b with
      | Error Wire.Closed -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Closed after hangup")

let test_hist () =
  let h = Stats.Hist.create () in
  Alcotest.(check (float 0.)) "empty p50" 0. (Stats.Hist.percentile h 0.5);
  for _ = 1 to 90 do Stats.Hist.observe h 0.001 done;
  for _ = 1 to 10 do Stats.Hist.observe h 0.5 done;
  Alcotest.(check int) "count" 100 (Stats.Hist.count h);
  let p50 = Stats.Hist.percentile h 0.5 in
  (* the percentile is the bucket's upper bound: never below the true
     value, at most one bucket ratio (10^(1/6) ~ 1.47) above it *)
  Alcotest.(check bool) "p50 >= true value" true (p50 >= 0.001);
  Alcotest.(check bool) "p50 within a bucket" true (p50 <= 0.001 *. 1.5);
  let p99 = Stats.Hist.percentile h 0.99 in
  Alcotest.(check bool) "p99 reaches the slow tail" true (p99 >= 0.5);
  Alcotest.(check (float 1e-9)) "max" 0.5 (Stats.Hist.max_seen h);
  Alcotest.(check bool) "p100 clamps to max" true
    (Stats.Hist.percentile h 1.0 <= Stats.Hist.max_seen h)

(* ---- live daemon ----------------------------------------------------- *)

let test_end_to_end () =
  with_server (fun sock t ->
      let c = connect sock in
      (match Client.ping c with
       | Ok (Wire.Result r) ->
         Alcotest.(check (option bool)) "pong" (Some true)
           (Json.get Json.to_bool "pong" r)
       | Ok (Wire.Err e) -> Alcotest.failf "ping refused: %s" e.Wire.msg
       | Error msg -> Alcotest.failf "ping: %s" msg);
      (match Client.synth c xor2 with
       | Ok (Wire.Result r) ->
         Alcotest.(check (option string)) "verdict" (Some "sat")
           (get_str "verdict" r);
         Alcotest.(check (option string)) "provenance" (Some "exact")
           (get_str "provenance" r);
         Alcotest.(check bool) "circuit present" true
           (match Json.member "circuit" r with
            | Some (Json.Obj _) -> true
            | _ -> false)
       | Ok (Wire.Err e) -> Alcotest.failf "synth refused: %s" e.Wire.msg
       | Error msg -> Alcotest.failf "synth: %s" msg);
      (match Client.health c with
       | Ok (Wire.Result r) ->
         Alcotest.(check (option string)) "health" (Some "ok")
           (get_str "status" r)
       | Ok (Wire.Err e) -> Alcotest.failf "health refused: %s" e.Wire.msg
       | Error msg -> Alcotest.failf "health: %s" msg);
      (match Client.stats c with
       | Ok (Wire.Result r) ->
         Alcotest.(check (option string)) "stats schema"
           (Some "mmsynth-serve-stats-v7") (get_str "schema" r);
         Alcotest.(check bool) "shard identity present" true
           (get_str "shard" r <> None);
         Alcotest.(check bool) "synth counted" true
           (match Json.member "requests" r with
            | Some reqs -> get_int "synth" reqs = Some 1
            | None -> false);
         Alcotest.(check bool) "engine summary embedded" true
           (match Json.member "engine" r with
            | Some e -> get_str "schema" e = Some "mmsynth-stats-v5"
            | None -> false)
       | Ok (Wire.Err e) -> Alcotest.failf "stats refused: %s" e.Wire.msg
       | Error msg -> Alcotest.failf "stats: %s" msg);
      (* a second identical request is answered from the warm cache *)
      (match Client.synth c xor2 with
       | Ok (Wire.Result r) ->
         Alcotest.(check (option string)) "verdict 2" (Some "sat")
           (get_str "verdict" r)
       | Ok (Wire.Err e) -> Alcotest.failf "synth 2 refused: %s" e.Wire.msg
       | Error msg -> Alcotest.failf "synth 2: %s" msg);
      (* shutdown over the wire: ok reply first, then the daemon drains *)
      (match Client.shutdown c with
       | Ok (Wire.Result _) -> ()
       | Ok (Wire.Err e) -> Alcotest.failf "shutdown refused: %s" e.Wire.msg
       | Error msg -> Alcotest.failf "shutdown: %s" msg);
      Client.close c;
      Server.wait t;
      Alcotest.(check bool) "stopped" true (Server.stopped t);
      Alcotest.(check bool) "socket removed" false (Sys.file_exists sock))

let test_overload_shedding () =
  (* one slow job at a time (worker delay, batch size 1) and a queue of
     one: a burst of six concurrent requests must shed most of the burst
     with typed overloaded replies while the daemon keeps serving *)
  let engine =
    Engine.config ~domains:1
      ~fault:
        (Fault.create ~seed:11 [ Fault.rule Fault.Worker 1.0 (Fault.Delay 0.6) ])
      ()
  in
  with_server ~engine ~max_pending:1 ~max_batch:1 (fun sock t ->
      let outcomes = Array.make 6 `Pending in
      let worker i () =
        match Client.wait_ready (Client.Unix_sock sock) with
        | Error _ -> outcomes.(i) <- `Transport
        | Ok c ->
          (match Client.synth c (spec_of ~name:(Printf.sprintf "f%d" i) 2 i) with
           | Ok (Wire.Result _) -> outcomes.(i) <- `Answered
           | Ok (Wire.Err e) -> outcomes.(i) <- `Refused e.Wire.code
           | Error _ -> outcomes.(i) <- `Transport);
          Client.close c
      in
      let threads = Array.init 6 (fun i -> Thread.create (worker i) ()) in
      Array.iter Thread.join threads;
      let count p = Array.to_list outcomes |> List.filter p |> List.length in
      let answered = count (fun o -> o = `Answered) in
      let shed = count (fun o -> o = `Refused Wire.Overloaded) in
      Alcotest.(check bool) "some answered" true (answered >= 1);
      Alcotest.(check bool) "some shed" true (shed >= 1);
      Alcotest.(check int) "no transport failures" 0 (count (fun o -> o = `Transport));
      (* the daemon survived the burst *)
      let c = connect sock in
      (match Client.ping c with
       | Ok (Wire.Result _) -> ()
       | Ok (Wire.Err e) -> Alcotest.failf "ping after burst: %s" e.Wire.msg
       | Error msg -> Alcotest.failf "ping after burst: %s" msg);
      Client.close c;
      (* the shed replies are visible in the live stats *)
      match Json.member "replies" (Server.stats_json t) with
      | Some replies ->
        Alcotest.(check bool) "overloaded counted" true
          (match get_int "overloaded" replies with
           | Some n -> n >= shed
           | None -> false)
      | None -> Alcotest.fail "stats without replies section")

let test_conn_drop_injection () =
  (* first connection is killed mid-request by the fault plan; the daemon
     neither crashes nor stops serving the second connection *)
  let fault =
    Fault.create ~seed:5 [ Fault.rule ~only:"conn1/" Fault.Conn 1.0 Fault.Crash ]
  in
  with_server ~fault (fun sock t ->
      let c1 = connect sock in
      (match Client.ping c1 with
       | Error _ -> ()  (* dropped without a reply, as injected *)
       | Ok _ -> Alcotest.fail "conn1 should have been dropped");
      Client.close c1;
      let c2 = connect sock in
      (match Client.synth c2 xor2 with
       | Ok (Wire.Result r) ->
         Alcotest.(check (option string)) "conn2 verdict" (Some "sat")
           (get_str "verdict" r)
       | Ok (Wire.Err e) -> Alcotest.failf "conn2 refused: %s" e.Wire.msg
       | Error msg -> Alcotest.failf "conn2: %s" msg);
      Client.close c2;
      match Json.member "connections" (Server.stats_json t) with
      | Some conns ->
        Alcotest.(check bool) "drop counted" true
          (match get_int "dropped" conns with Some n -> n >= 1 | None -> false)
      | None -> Alcotest.fail "stats without connections section")

let test_deadline_exceeded () =
  (* a request whose deadline passes while it queues behind a slow job is
     answered with the typed error, without running the solver *)
  let engine =
    Engine.config ~domains:1
      ~fault:
        (Fault.create ~seed:7 [ Fault.rule Fault.Worker 1.0 (Fault.Delay 0.5) ])
      ()
  in
  with_server ~engine ~max_batch:1 ~max_pending:8 (fun sock _t ->
      let slow_done = ref `Pending in
      let slow =
        Thread.create
          (fun () ->
            let c = connect sock in
            (match Client.synth c (spec_of ~name:"slow" 2 0b0110) with
             | Ok (Wire.Result _) -> slow_done := `Answered
             | Ok (Wire.Err _) -> slow_done := `Refused
             | Error _ -> slow_done := `Transport);
            Client.close c)
          ()
      in
      Thread.delay 0.1;  (* let the slow job reach the dispatcher first *)
      let c = connect sock in
      (match Client.synth ~deadline:0.2 c (spec_of ~name:"hurried" 2 0b1001) with
       | Ok (Wire.Err e) ->
         Alcotest.(check string) "code" "deadline_exceeded"
           (Wire.code_tag e.Wire.code)
       | Ok (Wire.Result _) -> Alcotest.fail "deadline ignored"
       | Error msg -> Alcotest.failf "transport: %s" msg);
      Client.close c;
      Thread.join slow;
      Alcotest.(check bool) "slow request still answered" true
        (!slow_done = `Answered))

let test_own_budget_in_batch () =
  (* a default-params request micro-batched behind a request with a
     starvation timeout keeps its own budget: both queue while a delayed
     job holds the dispatcher, then leave the queue in one batch *)
  let engine =
    Engine.config ~domains:1
      ~fault:
        (Fault.create ~seed:13
           [ Fault.rule ~only:"job0/" Fault.Worker 1.0 (Fault.Delay 0.4) ])
      ()
  in
  with_server ~engine (fun sock _t ->
      let ask ?timeout name () =
        let c = connect sock in
        let reply = Client.synth ?timeout c (spec_of ~name 3 0x18) in
        Client.close c;
        match reply with
        | Ok (Wire.Result r) -> r
        | Ok (Wire.Err e) -> Alcotest.failf "%s refused: %s" name e.Wire.msg
        | Error msg -> Alcotest.failf "%s: %s" name msg
      in
      let blocker = Thread.create (fun () -> ignore (ask "blocker" ())) () in
      Thread.delay 0.1;  (* the blocker's batch now holds the dispatcher *)
      let starved = ref Json.Null and default = ref Json.Null in
      let threads =
        [ Thread.create (fun () -> starved := ask ~timeout:1e-9 "starved" ()) ();
          Thread.create (fun () -> default := ask "default" ()) () ]
      in
      List.iter Thread.join (blocker :: threads);
      Alcotest.(check (option string)) "default request verdict" (Some "sat")
        (get_str "verdict" !default);
      Alcotest.(check (option bool)) "default request optimal" (Some true)
        (Json.get Json.to_bool "optimal" !default);
      Alcotest.(check (option bool)) "starved request not optimal" (Some false)
        (Json.get Json.to_bool "optimal" !starved))

let test_default_deadline_batches () =
  (* under a daemon-wide default deadline, default-params requests that
     queue together still share one engine call: the blocker's batch and
     one batch for both queued requests *)
  let engine =
    Engine.config ~domains:1
      ~fault:
        (Fault.create ~seed:17
           [ Fault.rule ~only:"job0/" Fault.Worker 1.0 (Fault.Delay 0.5) ])
      ()
  in
  with_server ~engine ~default_deadline:30. (fun sock t ->
      let ask v () =
        let c = connect sock in
        let reply = Client.synth c (spec_of ~name:(string_of_int v) 3 v) in
        Client.close c;
        match reply with
        | Ok (Wire.Result r) ->
          Alcotest.(check (option string)) "verdict" (Some "sat")
            (get_str "verdict" r)
        | Ok (Wire.Err e) -> Alcotest.failf "%d refused: %s" v e.Wire.msg
        | Error msg -> Alcotest.failf "%d: %s" v msg
      in
      let blocker = Thread.create (ask 0x18) () in
      Thread.delay 0.15;  (* the blocker's batch now holds the dispatcher *)
      let queued = List.map (fun v -> Thread.create (ask v) ()) [ 0x96; 0xe8 ] in
      List.iter Thread.join (blocker :: queued);
      Alcotest.(check (option int)) "engine calls" (Some 2)
        (get_int "batches" (Server.stats_json t)))

let test_drain_refuses_new_work () =
  with_server ~drain_grace:1.0 (fun sock t ->
      let c = connect sock in
      (* make sure the connection is fully established and served *)
      (match Client.ping c with
       | Ok _ -> ()
       | Error msg -> Alcotest.failf "ping: %s" msg);
      Server.request_drain t;
      Alcotest.(check bool) "draining" true (Server.draining t);
      (match Client.synth c xor2 with
       | Ok (Wire.Err e) ->
         Alcotest.(check string) "code" "unavailable" (Wire.code_tag e.Wire.code)
       | Ok (Wire.Result _) -> Alcotest.fail "admitted during drain"
       | Error msg -> Alcotest.failf "transport during drain: %s" msg);
      Client.close c;
      Server.wait t;
      Alcotest.(check bool) "stopped" true (Server.stopped t);
      Alcotest.(check bool) "socket removed" false (Sys.file_exists sock))

let test_stale_socket_replaced () =
  (* a socket file left by a dead daemon must not block a restart *)
  let sock = fresh_socket () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX sock);
  Unix.close fd;  (* bound then closed: the path remains, nobody listens *)
  Alcotest.(check bool) "stale file exists" true (Sys.file_exists sock);
  let cfg =
    Server.config ~engine:(Engine.config ~domains:1 ()) ~socket_path:sock ()
  in
  (match Server.start cfg with
   | Error msg -> Alcotest.failf "start over stale socket: %s" msg
   | Ok t ->
     let c = connect sock in
     (match Client.ping c with
      | Ok (Wire.Result _) -> ()
      | Ok (Wire.Err e) -> Alcotest.failf "ping: %s" e.Wire.msg
      | Error msg -> Alcotest.failf "ping: %s" msg);
     Client.close c;
     Server.stop t);
  (* and a live daemon refuses a second daemon on the same path *)
  let cfg2 =
    Server.config ~engine:(Engine.config ~domains:1 ()) ~socket_path:sock ()
  in
  match Server.start cfg2 with
  | Ok t2 ->
    (* first daemon is gone, so this must succeed; now a third must not *)
    let cfg3 =
      Server.config ~engine:(Engine.config ~domains:1 ()) ~socket_path:sock ()
    in
    (match Server.start cfg3 with
     | Ok t3 -> Server.stop t3; Server.stop t2;
       Alcotest.fail "two daemons accepted the same socket"
     | Error _ -> Server.stop t2)
  | Error msg -> Alcotest.failf "restart: %s" msg

let test_delay_not_stalling () =
  (* an injected per-request Delay must slow only its own reply: other
     requests pipelined on the same connection are handled concurrently
     and answer within their own time, not queued behind the sleeper *)
  let fault =
    Fault.create ~seed:3 [ Fault.rule Fault.Conn 1.0 (Fault.Delay 0.6) ]
  in
  with_server ~fault (fun sock _t ->
      let c = connect sock in
      let n = 4 in
      let done_at = Array.make n 0. in
      let t0 = Unix.gettimeofday () in
      let threads =
        Array.init n (fun i ->
            Thread.create
              (fun () ->
                (match Client.ping c with
                 | Ok (Wire.Result _) -> ()
                 | Ok (Wire.Err e) -> Alcotest.failf "ping %d: %s" i e.Wire.msg
                 | Error msg -> Alcotest.failf "ping %d: %s" i msg);
                done_at.(i) <- Unix.gettimeofday () -. t0)
              ())
      in
      Array.iter Thread.join threads;
      let slowest = Array.fold_left Float.max 0. done_at in
      (* serial handling would need n * 0.6 s; concurrent handlers pay the
         0.6 s once (generous bound for slow CI) *)
      Alcotest.(check bool)
        (Printf.sprintf "pipelined delayed requests overlap (%.2fs)" slowest)
        true
        (slowest < 0.6 *. float_of_int n -. 0.5);
      Client.close c)

let test_wire_fuzz () =
  (* random truncations and mutations of valid frames: every byte storm
     must end in a typed bad_request or a dropped connection — never a
     daemon crash or hang *)
  with_server (fun sock _t ->
      let rng = Mm_device.Rng.create 99 in
      let valid_payload id =
        Json.to_string
          (Wire.request_to_json ~id (Wire.Synth { spec = xor2; params = Wire.no_params }))
      in
      let raw_connect () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        fd
      in
      let sends = ref 0 and timeouts = ref [] in
      let send_raw bytes =
        let fd = raw_connect () in
        (try
           let n = String.length bytes in
           let rec go off =
             if off < n then go (off + Unix.write_substring fd bytes off (n - off))
           in
           go 0;
           (* half-close: a frame cut short ends at EOF for the daemon *)
           Unix.shutdown fd Unix.SHUTDOWN_SEND
         with Unix.Unix_error _ -> ());
        (* a typed reply, EOF or a reset — the bounded wait must not fire *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
        let buf = Bytes.create 4096 in
        incr sends;
        (match Unix.read fd buf 0 4096 with
         | _ -> ()
         | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
           timeouts := !sends :: !timeouts
         | exception Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      in
      let frame payload =
        let n = String.length payload in
        let b = Buffer.create (4 + n) in
        Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
        Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
        Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
        Buffer.add_char b (Char.chr (n land 0xff));
        Buffer.add_string b payload;
        Buffer.contents b
      in
      (* hand-picked edge cases *)
      send_raw "";  (* connect and hang up *)
      send_raw "\x00";  (* truncated length prefix *)
      send_raw "\xff\xff\xff\xff";  (* absurd length *)
      send_raw (frame "");  (* empty payload *)
      send_raw (frame "not json at all");
      send_raw (frame "{\"v\":1,\"id\":1}");  (* no op *)
      send_raw (frame "{\"v\":99,\"id\":1,\"op\":\"ping\"}");  (* bad version *)
      (let f = frame (valid_payload 1) in
       send_raw (String.sub f 0 (String.length f - 3)) (* truncated payload *));
      (* randomized: truncate or mutate a valid frame *)
      for i = 2 to 41 do
        let f = frame (valid_payload i) in
        let f =
          if Mm_device.Rng.bool rng then
            String.sub f 0 (Mm_device.Rng.int rng (String.length f))
          else begin
            let b = Bytes.of_string f in
            for _ = 0 to Mm_device.Rng.int rng 8 do
              Bytes.set b
                (Mm_device.Rng.int rng (Bytes.length b))
                (Char.chr (Mm_device.Rng.int rng 256))
            done;
            Bytes.to_string b
          end
        in
        send_raw f
      done;
      Alcotest.(check int) "raw sends" 48 !sends;
      Alcotest.(check (list int)) "sends left waiting for the daemon" []
        (List.rev !timeouts);
      (* the daemon survived all of it and still answers cleanly *)
      let c = connect sock in
      (match Client.synth c xor2 with
       | Ok (Wire.Result r) ->
         Alcotest.(check (option string)) "verdict after fuzz" (Some "sat")
           (get_str "verdict" r)
       | Ok (Wire.Err e) -> Alcotest.failf "refused after fuzz: %s" e.Wire.msg
       | Error msg -> Alcotest.failf "dead after fuzz: %s" msg);
      Client.close c)

(* ---- answers on the connection's reader ------------------------------- *)

let test_hit_beside_miss () =
  (* client A's solve holds the dispatcher; client B's atlas hit, sent
     after A's request was read, is answered first: it never waits for the
     dispatcher. Only the order is asserted — on one domain the solver
     holds the runtime lock between ticks. *)
  with_server ~engine:(atlas_engine ()) (fun sock t ->
      let order = ref [] and m = Mutex.create () in
      let ask who spec () =
        let c = connect sock in
        let reply = Client.synth c spec in
        Mutex.protect m (fun () -> order := who :: !order);
        Client.close c;
        result_of who reply
      in
      let a = ref Json.Null in
      let a_thread = Thread.create (fun () -> a := ask "A" slow_miss ()) () in
      (* A's solve has started: its first ladder point is in the cache *)
      await t [ "cache_entries" ] 1;
      let b = ask "B" (spec_of ~name:"parity3" 3 0x96) () in
      Thread.join a_thread;
      Alcotest.(check (option string)) "A solved" (Some "exact")
        (get_str "provenance" !a);
      Alcotest.(check (option string)) "B from the atlas" (Some "atlas")
        (get_str "provenance" b);
      Alcotest.(check (list string)) "B's reply arrives before A's" [ "B"; "A" ]
        (List.rev !order))

let test_inline_bypasses_admission () =
  (* a queue of one, held full: A's miss holds the dispatcher and C's miss
     (the same function, not yet solved) fills the queue, so D's miss is
     shed — but atlas hits are answered *)
  with_server ~engine:(atlas_engine ()) ~max_pending:1 ~max_batch:1
    (fun sock t ->
      let send spec reply () =
        let c = connect sock in
        reply := Client.synth c spec;
        Client.close c
      in
      let a = ref (Error "not sent") and c_reply = ref (Error "not sent") in
      let a_thread = Thread.create (send slow_miss a) () in
      (* A's solve has started: its first ladder point is in the cache *)
      await t [ "cache_entries" ] 1;
      let c_thread = Thread.create (send slow_miss c_reply) () in
      await t [ "queue_depth" ] 1;
      let c = connect sock in
      (match Client.synth c (spec_of ~name:"miss1698" 4 0x1698) with
       | Ok (Wire.Err e) ->
         Alcotest.(check string) "D shed" "overloaded"
           (Wire.code_tag e.Wire.code)
       | Ok (Wire.Result _) -> Alcotest.fail "D admitted past a full queue"
       | Error msg -> Alcotest.failf "D: %s" msg);
      List.iter
        (fun v ->
          let r = result_of "hit" (Client.synth c (spec_of 3 v)) in
          Alcotest.(check (option string))
            (Printf.sprintf "%02x from the atlas" v)
            (Some "atlas") (get_str "provenance" r))
        [ 0x96; 0xe8; 0x18; 0x01 ];
      Client.close c;
      List.iter Thread.join [ a_thread; c_thread ];
      List.iter
        (fun (name, reply) ->
          Alcotest.(check (option string)) (name ^ " solved") (Some "exact")
            (get_str "provenance" (result_of name reply)))
        [ ("A", !a); ("C", !c_reply) ];
      Alcotest.(check (option int)) "hits answered inline" (Some 4)
        (stat_int [ "inline" ] t))

let test_paths_agree () =
  (* the same request answered on the reader and through the dispatcher
     carries the same verdict, provenance and optimality: atlas hits
     against a daemon whose engine fault plan (one that never fires) keeps
     every synth on the dispatcher, and overlay hits against the queued
     solves that warmed them *)
  let fields r =
    ( get_str "verdict" r,
      get_str "provenance" r,
      Json.get Json.to_bool "optimal" r,
      (get_int "n_rops" r, get_int "n_steps" r) )
  in
  let specs vs =
    List.map (fun v -> spec_of ~name:(Printf.sprintf "f%02x" v) 3 v) vs
  in
  let ask sock specs =
    let c = connect sock in
    let replies =
      List.map (fun s -> result_of (Spec.name s) (Client.synth c s)) specs
    in
    Client.close c;
    replies
  in
  let same specs inline queued =
    List.iter2
      (fun s (a, b) ->
        Alcotest.(check bool)
          (Spec.name s ^ ": same answer on either path")
          true (fields a = fields b))
      specs (List.combine inline queued)
  in
  let counts t = (stat_int [ "inline" ] t, stat_int [ "batches" ] t) in
  let never = Fault.create ~seed:2 [ Fault.rule Fault.Worker 0. Fault.Crash ] in
  let all = specs (List.init 256 Fun.id) in
  with_server ~engine:(atlas_engine ()) (fun sock t ->
      with_server ~engine:(atlas_engine ~fault:never ()) (fun sock' t' ->
          same all (ask sock all) (ask sock' all);
          Alcotest.(check (pair (option int) (option int))) "atlas hits inline"
            (Some 256, Some 0) (counts t);
          Alcotest.(check (pair (option int) (option int))) "under a fault plan"
            (Some 0, Some 256) (counts t')));
  (* five NPN classes: each first request is a queued solve *)
  let five = specs [ 0x00; 0x01; 0x16; 0x96; 0xe8 ] in
  let overlay = Mm_engine.Cache.create () in
  let engine = Engine.config ~domains:1 ~cache:overlay () in
  with_server ~engine (fun sock t ->
      let queued = ask sock five in
      same five (ask sock five) queued;
      Alcotest.(check (pair (option int) (option int))) "overlay hits inline"
        (Some 5, Some 5) (counts t))

let test_gone_deadline_inline () =
  (* a deadline already at or below zero is refused as the dispatcher
     would refuse it, even for an atlas hit *)
  with_server ~engine:(atlas_engine ()) (fun sock t ->
      let c = connect sock in
      List.iter
        (fun d ->
          match Client.synth ~deadline:d c (spec_of 3 0x96) with
          | Ok (Wire.Err e) ->
            Alcotest.(check string) (Printf.sprintf "deadline %g" d)
              "deadline_exceeded" (Wire.code_tag e.Wire.code)
          | Ok (Wire.Result _) -> Alcotest.failf "deadline %g ignored" d
          | Error msg -> Alcotest.failf "transport: %s" msg)
        [ 0.; -1. ];
      ignore
        (result_of "a live deadline"
           (Client.synth ~deadline:10. c (spec_of 3 0x96)));
      Client.close c;
      Alcotest.(check (option int)) "refusals counted" (Some 2)
        (stat_int [ "replies"; "deadline_exceeded" ] t))

let test_drain_refuses_hits () =
  with_server ~engine:(atlas_engine ()) ~drain_grace:1.0 (fun sock t ->
      let c = connect sock in
      ignore (result_of "before the drain" (Client.synth c (spec_of 3 0x96)));
      Server.request_drain t;
      (match Client.synth c (spec_of 3 0xe8) with
       | Ok (Wire.Err e) ->
         Alcotest.(check string) "code" "unavailable"
           (Wire.code_tag e.Wire.code)
       | Ok (Wire.Result _) -> Alcotest.fail "atlas hit answered during drain"
       | Error msg -> Alcotest.failf "transport during drain: %s" msg);
      Client.close c;
      Server.wait t;
      Alcotest.(check bool) "stopped" true (Server.stopped t))

let test_inline_exception () =
  (* an atlas whose lookup raises: the frame is answered [internal] and the
     connection keeps serving *)
  let cache = Mm_engine.Cache.create () in
  Mm_engine.Cache.set_atlas cache (fun _ ->
      failwith "broken atlas");
  with_server ~engine:(Engine.config ~domains:1 ~cache ()) (fun sock _t ->
      let c = connect sock in
      let internal () =
        match Client.synth c (spec_of 3 0x96) with
        | Ok (Wire.Err e) ->
          Alcotest.(check string) "code" "internal" (Wire.code_tag e.Wire.code)
        | Ok (Wire.Result _) -> Alcotest.fail "a broken atlas answered"
        | Error msg -> Alcotest.failf "connection lost: %s" msg
      in
      internal ();
      (match Client.ping c with
       | Ok (Wire.Result _) -> ()
       | Ok (Wire.Err e) -> Alcotest.failf "ping: %s" e.Wire.msg
       | Error msg -> Alcotest.failf "connection lost after internal: %s" msg);
      internal ();
      Client.close c)

let test_inline_stats () =
  with_server ~engine:(atlas_engine ()) (fun sock t ->
      let c = connect sock in
      List.iter
        (fun v -> ignore (result_of "hit" (Client.synth c (spec_of 3 v))))
        [ 0x96; 0xe8; 0x18 ];
      Client.close c;
      List.iter
        (fun (path, want) ->
          Alcotest.(check (option int)) (String.concat "." path) (Some want)
            (stat_int path t))
        [ ([ "requests"; "synth" ], 3);
          ([ "replies"; "ok" ], 3);
          ([ "inline" ], 3);
          ([ "batches" ], 0);
          ([ "engine"; "functions" ], 3);
          ([ "engine"; "atlas" ], 3);
          ([ "engine"; "sat" ], 0);
          ([ "engine"; "solver_calls" ], 0);
          ([ "engine"; "cache"; "atlas_hits" ], 3);
          ([ "latency"; "queue_wait"; "count" ], 3);
          ([ "latency"; "synth"; "count" ], 3);
          ([ "latency"; "total"; "count" ], 3) ];
      Alcotest.(check (option (float 0.))) "no queue wait" (Some 0.)
        (Option.bind
           (get_path [ "latency"; "queue_wait"; "max_s" ] (Server.stats_json t))
           Json.to_float))

let test_write_all_then_read () =
  (* a raw client writes thousands of atlas-hit frames before it reads a
     single reply: the daemon keeps reading while its replies back up, so
     both sides finish. A reader blocked in a write would stop reading, and
     the client would block in its own writes. *)
  with_server ~engine:(atlas_engine ()) (fun sock t ->
      let n = 4000 in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (* a stalled exchange fails the test instead of hanging it; closing
         the socket lets the daemon's blocked writes fail, so it drains *)
      Fun.protect ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock);
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.;
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      for id = 1 to n do
        let req =
          Wire.Synth { spec = spec_of 3 (id land 0xff); params = Wire.no_params }
        in
        match Wire.write_frame fd (Json.to_string (Wire.request_to_json ~id req)) with
        | Ok () -> ()
        | Error e ->
          Alcotest.failf "frame %d not written: %s" id (Wire.pp_io_error e)
      done;
      let answered = Array.make (n + 1) false in
      for _ = 1 to n do
        match Wire.read_frame fd with
        | Error e -> Alcotest.failf "reply: %s" (Wire.pp_io_error e)
        | Ok payload -> (
          match Result.bind (Json.of_string payload) Wire.reply_of_json with
          | Ok (id, Wire.Result r)
            when id >= 1 && id <= n && get_str "provenance" r = Some "atlas" ->
            answered.(id) <- true
          | _ -> Alcotest.failf "unexpected reply: %s" payload)
      done;
      Alcotest.(check int) "every frame answered once" n
        (Array.fold_left (fun k b -> k + Bool.to_int b) 0 answered);
      Alcotest.(check (option int)) "all inline" (Some n) (stat_int [ "inline" ] t))

let test_overlap_keeps_batch_counts () =
  (* atlas hits answered while a dispatched batch runs on the same cache
     leave that batch's cache counts whole: each engine summary counts its
     own probes, so the daemon's totals keep their identities — one overlay
     probe per solver attempt, one atlas hit per atlas answer *)
  with_server ~engine:(atlas_engine ()) (fun sock t ->
      let a = ref (Error "not sent") in
      let a_thread =
        Thread.create
          (fun () ->
            let c = connect sock in
            a := Client.synth c slow_miss;
            Client.close c)
          ()
      in
      (* A's solve has started: its first ladder point is in the cache *)
      await t [ "cache_entries" ] 1;
      let c = connect sock in
      let hit v = ignore (result_of "hit" (Client.synth c (spec_of 3 v))) in
      hit 0x96;
      Alcotest.(check (option int)) "the batch still runs" (Some 0)
        (stat_int [ "batches" ] t);
      List.iter hit [ 0xe8; 0x18; 0x01 ];
      Client.close c;
      Thread.join a_thread;
      ignore (result_of "A" !a);
      let get path = Option.value (stat_int path t) ~default:(-1) in
      Alcotest.(check int) "atlas hits" 4 (get [ "engine"; "cache"; "atlas_hits" ]);
      Alcotest.(check int) "atlas answers" 4 (get [ "engine"; "atlas" ]);
      Alcotest.(check int) "one overlay probe per solver attempt"
        (get [ "engine"; "solver_calls" ])
        (get [ "engine"; "cache"; "hits" ]
        + get [ "engine"; "cache"; "misses" ]
        + get [ "engine"; "cache"; "stale" ]))

(* The [Threads:] count of this process, where /proc gives one. *)
let threads_now () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
    List.find_map
      (fun l -> Scanf.sscanf_opt l "Threads: %d" Fun.id)
      (String.split_on_char '\n' status)

(* A raw connection to [sock], closed after [f] (a stalled exchange then
   fails the test instead of hanging it). *)
let with_raw_socket sock f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  f fd

let send_frame fd id req =
  match Wire.write_frame fd (Json.to_string (Wire.request_to_json ~id req)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "frame %d not written: %s" id (Wire.pp_io_error e)

let recv_reply fd =
  match Wire.read_frame fd with
  | Error e -> Alcotest.failf "reply: %s" (Wire.pp_io_error e)
  | Ok payload -> (
    match Result.bind (Json.of_string payload) Wire.reply_of_json with
    | Ok reply -> reply
    | Error msg -> Alcotest.failf "reply %s: %s" payload msg)

let test_backlog_cap () =
  (* a raw client writes atlas-hit frames and never reads: once its replies
     back up past the daemon's cap, the daemon drops the connection, counts
     the drop once, and still serves a second connection *)
  with_server ~engine:(atlas_engine ()) (fun sock t ->
      let dropped () = stat_int [ "connections"; "dropped" ] t in
      let before = dropped () in
      (* replies of about 0.5 KB each: twice the frames that fill the
         daemon's 8 MiB cap, all read by a daemon that queues every reply *)
      let limit = 32_000 in
      let sent =
        with_raw_socket sock (fun fd ->
            let rec send id =
              if id > limit then id
              else
                let req =
                  Wire.Synth
                    { spec = spec_of 3 (id land 0xff); params = Wire.no_params }
                in
                match
                  Wire.write_frame fd
                    (Json.to_string (Wire.request_to_json ~id req))
                with
                | Ok () -> send (id + 1)
                | Error _ -> id (* the daemon shut the connection down *)
            in
            send 1)
      in
      Alcotest.(check bool)
        (Printf.sprintf "writes refused after %d frames" sent)
        true (sent <= limit);
      Alcotest.(check (option int)) "dropped once"
        (Option.map succ before) (dropped ());
      let c = connect sock in
      (match Client.ping c with
       | Ok (Wire.Result _) -> ()
       | Ok (Wire.Err e) -> Alcotest.failf "ping: %s" e.Wire.msg
       | Error msg -> Alcotest.failf "second connection: %s" msg);
      Client.close c)

let test_queued_misses_hold_no_thread () =
  (* misses pipelined on one connection behind a busy dispatcher wait in
     the queue as jobs, not as threads: only the connection's reader is
     new *)
  with_server ~engine:(atlas_engine ()) (fun sock t ->
      let a = ref (Error "not sent") in
      let a_thread =
        Thread.create
          (fun () ->
            let c = connect sock in
            a := Client.synth c slow_miss;
            Client.close c)
          ()
      in
      (* A's solve has started: its first ladder point is in the cache *)
      await t [ "cache_entries" ] 1;
      let before = threads_now () in
      let n = 24 in
      with_raw_socket sock (fun fd ->
          for id = 1 to n do
            send_frame fd id
              (Wire.Synth { spec = slow_miss; params = Wire.no_params })
          done;
          (* bounded by A's solve, which must still hold the dispatcher *)
          let rec queued () =
            if Option.value (stat_int [ "queue_depth" ] t) ~default:0 < n then
              if stat_int [ "batches" ] t = Some 0 then begin
                Thread.delay 0.005;
                queued ()
              end
              else Alcotest.fail "A's solve ended before the misses queued"
          in
          queued ();
          (match (before, threads_now ()) with
           | Some before, Some after ->
             Alcotest.(check bool)
               (Printf.sprintf "threads %d -> %d with %d misses queued" before
                  after n)
               true (after - before < 4)
           | _ -> ());
          let answered = Array.make (n + 1) 0 in
          for _ = 1 to n do
            match recv_reply fd with
            | id, Wire.Result r when id >= 1 && id <= n ->
              Alcotest.(check (option string)) "verdict" (Some "sat")
                (get_str "verdict" r);
              answered.(id) <- answered.(id) + 1
            | id, _ -> Alcotest.failf "unexpected reply to frame %d" id
          done;
          Alcotest.(check bool) "every miss answered once" true
            (Array.for_all (( = ) 1) (Array.sub answered 1 n)));
      Thread.join a_thread;
      ignore (result_of "A" !a))

let test_first_answer_wins () =
  (* a [synth] that answers twice and then raises: the first answer is the
     frame's reply, and the connection keeps serving *)
  let sock = fresh_socket () in
  let handlers =
    { Server.synth =
        (fun _ _ answer ->
          answer (Wire.Result (Json.Obj [ ("answer", Json.Int 1) ]));
          answer (Wire.Result (Json.Obj [ ("answer", Json.Int 2) ]));
          failwith "after two answers");
      stats = (fun () -> Json.Obj []);
      health = (fun () -> []) }
  in
  match
    Server.start ~handlers
      (Server.config ~drain_grace:0.2 ~socket_path:sock ())
  with
  | Error msg -> Alcotest.failf "server start: %s" msg
  | Ok t ->
    Fun.protect ~finally:(fun () -> Server.stop t) @@ fun () ->
    with_raw_socket sock (fun fd ->
        send_frame fd 1 (Wire.Synth { spec = xor2; params = Wire.no_params });
        (match recv_reply fd with
         | 1, Wire.Result r ->
           Alcotest.(check (option int)) "the first answer" (Some 1)
             (get_int "answer" r)
         | id, _ -> Alcotest.failf "frame %d: not the first answer" id);
        (* replies to one connection leave in the order they are written,
           so a second answer would arrive before the pong *)
        send_frame fd 2 Wire.Ping;
        match recv_reply fd with
        | 2, Wire.Result r ->
          Alcotest.(check (option bool)) "pong" (Some true)
            (Json.get Json.to_bool "pong" r)
        | id, _ -> Alcotest.failf "frame %d answered again" id)

let test_retry_overloaded () =
  (* a hand-rolled mini daemon that sheds twice with a retry hint and then
     answers: [?retry] must ride out the sheds instead of surfacing them *)
  let sock = fresh_socket () in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX sock);
  Unix.listen lfd 4;
  let sheds = ref 0 in
  let server =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept lfd in
        let rec serve () =
          match Wire.read_frame fd with
          | Error _ -> ()
          | Ok payload ->
            let id =
              match Json.of_string payload with
              | Ok j -> Option.value ~default:0 (Json.get Json.to_int "id" j)
              | Error _ -> 0
            in
            let reply =
              if !sheds < 2 then begin
                incr sheds;
                Wire.error_json ~id
                  { Wire.code = Wire.Overloaded; msg = "busy";
                    retry_after_s = Some 0.02 }
              end
              else Wire.ok_json ~id (Json.Obj [ ("pong", Json.Bool true) ])
            in
            ignore (Wire.write_frame fd (Json.to_string reply));
            serve ()
        in
        serve ();
        (try Unix.close fd with Unix.Unix_error _ -> ()))
      ()
  in
  let c = connect sock in
  (* without retry: the shed surfaces as a typed refusal *)
  (match Client.ping c with
   | Ok (Wire.Err e) ->
     Alcotest.(check string) "typed shed" "overloaded" (Wire.code_tag e.Wire.code)
   | Ok (Wire.Result _) -> Alcotest.fail "expected a shed"
   | Error msg -> Alcotest.failf "transport: %s" msg);
  (* with retry: the hinted backoff rides out the remaining shed *)
  let t0 = Unix.gettimeofday () in
  (match Client.request ~retry:(Client.retry ~budget_s:2.0 ()) c Wire.Ping with
   | Ok (Wire.Result r) ->
     Alcotest.(check (option bool)) "answered after backoff" (Some true)
       (Json.get Json.to_bool "pong" r)
   | Ok (Wire.Err e) -> Alcotest.failf "still refused: %s" e.Wire.msg
   | Error msg -> Alcotest.failf "transport: %s" msg);
  Alcotest.(check bool) "backoff actually waited" true
    (Unix.gettimeofday () -. t0 >= 0.01);
  Alcotest.(check int) "two sheds served" 2 !sheds;
  Client.close c;
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (try Thread.join server with _ -> ());
  try Sys.remove sock with Sys_error _ -> ()

let () =
  Alcotest.run "serve"
    [
      ( "wire",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "request validation" `Quick test_request_validation;
          Alcotest.test_case "error roundtrip" `Quick test_error_roundtrip;
          Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
        ] );
      ("stats", [ Alcotest.test_case "histogram" `Quick test_hist ]);
      ( "daemon",
        [
          Alcotest.test_case "end to end" `Quick test_end_to_end;
          Alcotest.test_case "overload shedding" `Quick test_overload_shedding;
          Alcotest.test_case "conn drop injection" `Quick test_conn_drop_injection;
          Alcotest.test_case "deadline exceeded" `Quick test_deadline_exceeded;
          Alcotest.test_case "own budget inside a micro-batch" `Quick
            test_own_budget_in_batch;
          Alcotest.test_case "default deadline still batches" `Quick
            test_default_deadline_batches;
          Alcotest.test_case "drain refuses new work" `Quick
            test_drain_refuses_new_work;
          Alcotest.test_case "stale socket replaced" `Quick
            test_stale_socket_replaced;
          Alcotest.test_case "delay does not stall pipelined requests" `Quick
            test_delay_not_stalling;
          Alcotest.test_case "wire fuzz never kills the daemon" `Quick
            test_wire_fuzz;
          Alcotest.test_case "client retries overloaded" `Quick
            test_retry_overloaded;
        ] );
      ( "inline",
        [
          Alcotest.test_case "hit answered while a miss holds the dispatcher"
            `Quick test_hit_beside_miss;
          Alcotest.test_case "inline answers bypass admission" `Quick
            test_inline_bypasses_admission;
          Alcotest.test_case "inline and dispatched replies agree" `Quick
            test_paths_agree;
          Alcotest.test_case "gone deadline still refused" `Quick
            test_gone_deadline_inline;
          Alcotest.test_case "drain refuses atlas hits" `Quick
            test_drain_refuses_hits;
          Alcotest.test_case "exception answers internal" `Quick
            test_inline_exception;
          Alcotest.test_case "stats count inline answers" `Quick
            test_inline_stats;
          Alcotest.test_case "client that writes before it reads" `Quick
            test_write_all_then_read;
          Alcotest.test_case "client that never reads is dropped" `Quick
            test_backlog_cap;
          Alcotest.test_case "overlapping batch keeps its cache counts" `Quick
            test_overlap_keeps_batch_counts;
        ] );
      ( "answer",
        [
          Alcotest.test_case "queued misses hold no thread" `Quick
            test_queued_misses_hold_no_thread;
          Alcotest.test_case "first answer wins" `Quick test_first_answer_wins;
        ] );
    ]
