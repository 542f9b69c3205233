(* The cluster layer: consistent-hash ring determinism and NPN-class
   folding, the circuit-breaker state machine on a fake clock, and a live
   router over real in-process shards — replica failover around an
   abruptly killed shard, breaker quarantine and recovery, one shared
   connection per shard, and the router served as a wire daemon by the
   serve layer's daemon core, with its cluster attribution. *)

module Ring = Mm_cluster.Ring
module Breaker = Mm_cluster.Breaker
module Router = Mm_cluster.Router
module Server = Mm_serve.Server
module Client = Mm_serve.Client
module Wire = Mm_serve.Wire
module Json = Mm_report.Json
module Engine = Mm_engine.Engine
module Npn = Mm_engine.Npn
module Spec = Mm_boolfun.Spec
module Tt = Mm_boolfun.Truth_table

let spec_of ?(name = "t") n v = Spec.make ~name [| Tt.of_int n v |]
let xor2 = spec_of ~name:"xor2" 2 0b0110

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mmcluster-%d-%d.sock" (Unix.getpid ()) !n)

(* ---- ring ------------------------------------------------------------ *)

let test_ring_npn_key () =
  (* NPN-equivalent functions route identically: xor and xnor share a
     class, so they must share a key (and therefore a shard) *)
  let k_xor = Ring.key_of_spec (spec_of 2 0b0110) in
  let k_xnor = Ring.key_of_spec (spec_of 2 0b1001) in
  Alcotest.(check string) "xor/xnor fold to one key" k_xor k_xnor;
  let k_and = Ring.key_of_spec (spec_of 2 0b1000) in
  Alcotest.(check bool) "distinct classes get distinct keys" true
    (k_and <> k_xor);
  (* multi-output specs still get a deterministic key *)
  let wide = Spec.make ~name:"w" [| Tt.of_int 2 0b0110; Tt.of_int 2 0b1000 |] in
  Alcotest.(check string) "raw key is stable" (Ring.key_of_spec wide)
    (Ring.key_of_spec wide)

let test_ring_order () =
  let r = Ring.create 4 in
  let r' = Ring.create 4 in
  let keys = List.init 64 (fun i -> Printf.sprintf "key-%d" i) in
  List.iter
    (fun k ->
      let o = Ring.order r k in
      Alcotest.(check (list int))
        (Printf.sprintf "order deterministic for %s" k) o (Ring.order r' k);
      Alcotest.(check int) "all shards present" 4 (List.length o);
      Alcotest.(check (list int)) "a permutation of 0..3" [ 0; 1; 2; 3 ]
        (List.sort compare o);
      Alcotest.(check int) "primary heads the order" (Ring.primary r k)
        (List.hd o))
    keys;
  (* every shard owns a reasonable slice of the 4-input NPN classes *)
  let counts = Array.make 4 0 in
  List.iter
    (fun rep ->
      let spec = Spec.make ~name:"c" [| rep |] in
      let s = Ring.primary r (Ring.key_of_spec spec) in
      counts.(s) <- counts.(s) + 1)
    (Npn.class_reps 4);
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d owns some classes (%d)" i n)
        true (n > 0))
    counts

(* ---- breaker --------------------------------------------------------- *)

let test_breaker () =
  let b = Breaker.create (Breaker.config ~fail_threshold:3 ~cooldown_s:1.0 ()) in
  Alcotest.(check bool) "starts closed" true (Breaker.allow b ~now:0.0);
  Breaker.failure b ~now:0.1;
  Breaker.failure b ~now:0.2;
  Alcotest.(check bool) "two failures stay closed" true
    (Breaker.allow b ~now:0.3);
  Breaker.failure b ~now:0.3;
  Alcotest.(check bool) "third failure trips" false (Breaker.allow b ~now:0.4);
  Alcotest.(check int) "one trip" 1 (Breaker.trips b);
  Alcotest.(check bool) "still open inside cooldown" false
    (Breaker.allow b ~now:1.2);
  (* cooldown elapsed: half-open admits a probe *)
  Alcotest.(check bool) "half-open after cooldown" true
    (Breaker.allow b ~now:1.4);
  Alcotest.(check string) "state tag" "half-open"
    (Breaker.state_tag (Breaker.state b ~now:1.4));
  (* failed probe re-opens for a fresh cooldown *)
  Breaker.failure b ~now:1.5;
  Alcotest.(check bool) "probe failure re-opens" false
    (Breaker.allow b ~now:2.0);
  Alcotest.(check bool) "fresh cooldown from the probe failure" true
    (Breaker.allow b ~now:2.6);
  (* successful probe closes and resets the failure count *)
  Breaker.success b;
  Alcotest.(check string) "closed again" "closed"
    (Breaker.state_tag (Breaker.state b ~now:2.7));
  Breaker.failure b ~now:2.8;
  Breaker.failure b ~now:2.9;
  Alcotest.(check bool) "failure count was reset" true
    (Breaker.allow b ~now:3.0)

(* ---- live router ----------------------------------------------------- *)

let boot_shard i sock =
  let cfg =
    Server.config
      ~engine:(Engine.config ~domains:1 ())
      ~shard_id:(Printf.sprintf "shard-%d" i)
      ~socket_path:sock ()
  in
  match Server.start cfg with
  | Ok t -> t
  | Error msg -> Alcotest.failf "shard %d: %s" i msg

let with_cluster ?(n = 3) ?(rcfg = fun () -> Router.config ()) f =
  let socks = Array.init n (fun _ -> fresh_socket ()) in
  let servers = Array.init n (fun i -> boot_shard i socks.(i)) in
  let router =
    Router.create (rcfg ())
      (List.init n (fun i ->
           { Router.id = Printf.sprintf "shard-%d" i;
             addr = Client.Unix_sock socks.(i) }))
  in
  Fun.protect
    ~finally:(fun () ->
      Router.close router;
      Array.iter
        (fun s -> if not (Server.stopped s) then Server.stop s)
        servers)
    (fun () -> f socks servers router)

let shard_field stats shard_id field =
  match Json.member "shards" stats with
  | Some (Json.List shards) ->
    List.find_map
      (fun s ->
        if Json.get Json.to_str "id" s = Some shard_id then
          Json.member field s
        else None)
      shards
  | _ -> None

let test_router_basic () =
  with_cluster
    ~rcfg:(fun () -> Router.config ~probe_interval_s:None ())
    (fun _socks _servers router ->
      match Router.synth router xor2 with
      | Ok o ->
        (match o.Router.reply with
         | Wire.Result r ->
           Alcotest.(check (option string)) "verdict" (Some "sat")
             (Json.get Json.to_str "verdict" r)
         | Wire.Err e -> Alcotest.failf "refused: %s" e.Wire.msg);
        Alcotest.(check bool) "no failover on a healthy cluster" false
          o.Router.failover;
        Alcotest.(check bool) "answering shard attributed" true
          (o.Router.shard <> "")
      | Error msg -> Alcotest.failf "synth: %s" msg)

let test_router_failover_on_kill () =
  with_cluster
    ~rcfg:(fun () ->
      Router.config ~replicas:2 ~retry_budget_s:2.0 ~probe_interval_s:None
        ~breaker:(Breaker.config ~fail_threshold:3 ~cooldown_s:30.0 ())
        ())
    (fun _socks servers router ->
      (* kill one shard abruptly: no drain, listeners gone *)
      Server.die servers.(0);
      Server.wait servers.(0);
      (* every request keyed anywhere must still be answered; those whose
         primary was shard-0 fail over *)
      let failovers = ref 0 in
      for i = 0 to 31 do
        match
          Router.request router ~key:(Printf.sprintf "k%d" i) Wire.Ping
        with
        | Ok o ->
          if o.Router.failover then incr failovers;
          Alcotest.(check bool)
            (Printf.sprintf "k%d answered by a live shard" i)
            true
            (o.Router.shard <> "shard-0")
        | Error msg -> Alcotest.failf "k%d unanswered: %s" i msg
      done;
      Alcotest.(check bool) "some keys failed over" true (!failovers > 0);
      let stats = Router.stats_json router in
      Alcotest.(check (option string)) "stats schema"
        (Some "mmsynth-cluster-stats-v2")
        (Json.get Json.to_str "schema" stats);
      (match shard_field stats "shard-0" "failed" with
       | Some (Json.Int n) ->
         Alcotest.(check bool) "dead shard accumulated failures" true (n >= 3)
       | _ -> Alcotest.fail "no failure count for shard-0");
      match shard_field stats "shard-0" "breaker" with
      | Some (Json.String st) ->
        Alcotest.(check string) "breaker quarantined the dead shard" "open" st
      | _ -> Alcotest.fail "no breaker state for shard-0")

let test_router_recovery () =
  with_cluster
    ~rcfg:(fun () ->
      Router.config ~replicas:2 ~probe_interval_s:None
        ~breaker:(Breaker.config ~fail_threshold:2 ~cooldown_s:0.1 ())
        ())
    (fun socks servers router ->
      Server.die servers.(1);
      Server.wait servers.(1);
      (* trip the breaker on the dead shard *)
      for i = 0 to 15 do
        ignore (Router.request router ~key:(Printf.sprintf "r%d" i) Wire.Ping)
      done;
      (match shard_field (Router.stats_json router) "shard-1" "breaker" with
       | Some (Json.String "open") -> ()
       | Some (Json.String st) -> Alcotest.failf "breaker %s, wanted open" st
       | _ -> Alcotest.fail "no breaker state");
      (* restart the shard on the same socket, let the cooldown pass, and
         probe: the breaker must re-admit it *)
      servers.(1) <- boot_shard 1 socks.(1);
      Thread.delay 0.15;
      Router.probe_once router;
      (match shard_field (Router.stats_json router) "shard-1" "breaker" with
       | Some (Json.String "closed") -> ()
       | Some (Json.String st) -> Alcotest.failf "breaker %s after recovery" st
       | _ -> Alcotest.fail "no breaker state after recovery");
      (* and traffic flows to it again *)
      let answered_by_1 = ref false in
      for i = 0 to 31 do
        match
          Router.request router ~key:(Printf.sprintf "r%d" i) Wire.Ping
        with
        | Ok o -> if o.Router.shard = "shard-1" then answered_by_1 := true
        | Error msg -> Alcotest.failf "r%d after recovery: %s" i msg
      done;
      Alcotest.(check bool) "recovered shard serves again" true !answered_by_1)

let test_router_all_dead () =
  with_cluster ~n:2
    ~rcfg:(fun () ->
      Router.config ~retry_budget_s:0.3 ~probe_interval_s:None ())
    (fun _socks servers router ->
      Array.iter (fun s -> Server.die s; Server.wait s) servers;
      match Router.request router ~key:"doom" Wire.Ping with
      | Error _ -> ()  (* no shard answered: transport-level failure *)
      | Ok o ->
        Alcotest.failf "answered by %s after total outage" o.Router.shard)

(* concurrent first requests race to dial a cold shard: they must share
   one pipelined connection, not open one each. Each burst races a fresh
   router's first dial. *)
let test_router_one_connection () =
  with_cluster ~n:1
    ~rcfg:(fun () -> Router.config ~probe_interval_s:None ())
    (fun socks servers _router ->
      let bursts = 8 in
      for b = 1 to bursts do
        let router =
          Router.create
            (Router.config ~probe_interval_s:None ())
            [ { Router.id = "shard-0"; addr = Client.Unix_sock socks.(0) } ]
        in
        Fun.protect ~finally:(fun () -> Router.close router) (fun () ->
            let oks = Atomic.make 0 in
            (* every thread waits at the gate, so all eight find the shard
               cold *)
            let gate = Mutex.create () and opened = Condition.create () in
            let waiting = ref 0 in
            let threads =
              Array.init 8 (fun i ->
                  Thread.create
                    (fun () ->
                      Mutex.protect gate (fun () ->
                          incr waiting;
                          Condition.broadcast opened;
                          while !waiting < 8 do
                            Condition.wait opened gate
                          done);
                      match
                        Router.synth router
                          (spec_of ~name:(Printf.sprintf "p%d" i) 2 (i * 3))
                      with
                      | Ok { Router.reply = Wire.Result _; _ } -> Atomic.incr oks
                      | Ok { Router.reply = Wire.Err e; _ } ->
                        Alcotest.failf "burst %d, synth %d refused: %s" b i
                          e.Wire.msg
                      | Error msg -> Alcotest.failf "burst %d, synth %d: %s" b i msg)
                    ())
            in
            Array.iter Thread.join threads;
            Alcotest.(check int) (Printf.sprintf "burst %d answered" b) 8
              (Atomic.get oks))
      done;
      match Json.member "connections" (Server.stats_json servers.(0)) with
      | Some conns ->
        Alcotest.(check (option int)) "one accepted shard connection per router"
          (Some bursts) (Json.get Json.to_int "accepted" conns)
      | None -> Alcotest.fail "shard stats without connections")

(* ---- the router as a daemon ------------------------------------------ *)

(* The router served by the daemon core, as [mmsynth cluster] serves it. *)
let start_router router sock =
  Server.start ~handlers:(Router.handlers router)
    (Server.config ~drain_grace:0.2 ~socket_path:sock ())

let test_frontend () =
  with_cluster ~n:2
    ~rcfg:(fun () -> Router.config ~probe_interval_s:None ())
    (fun _socks _servers router ->
      let fsock = fresh_socket () in
      match start_router router fsock with
      | Error msg -> Alcotest.failf "router daemon: %s" msg
      | Ok fe ->
        Fun.protect ~finally:(fun () -> Server.stop fe)
          (fun () ->
            let c =
              match Client.wait_ready (Client.Unix_sock fsock) with
              | Ok c -> c
              | Error msg -> Alcotest.failf "connect: %s" msg
            in
            (match Client.synth c xor2 with
             | Ok (Wire.Result r) ->
               Alcotest.(check (option string)) "verdict" (Some "sat")
                 (Json.get Json.to_str "verdict" r);
               (match Json.member "cluster" r with
                | Some cl ->
                  Alcotest.(check bool) "shard attributed" true
                    (Json.get Json.to_str "shard" cl <> None);
                  Alcotest.(check bool) "failover flag present" true
                    (Json.get Json.to_bool "failover" cl <> None)
                | None -> Alcotest.fail "no cluster attribution")
             | Ok (Wire.Err e) -> Alcotest.failf "synth refused: %s" e.Wire.msg
             | Error msg -> Alcotest.failf "synth: %s" msg);
            (match Client.stats c with
             | Ok (Wire.Result r) ->
               Alcotest.(check (option string)) "cluster stats schema"
                 (Some "mmsynth-cluster-stats-v2")
                 (Json.get Json.to_str "schema" r)
             | Ok (Wire.Err e) -> Alcotest.failf "stats: %s" e.Wire.msg
             | Error msg -> Alcotest.failf "stats: %s" msg);
            (match Client.health c with
             | Ok (Wire.Result r) ->
               Alcotest.(check (option string)) "router role" (Some "router")
                 (Json.get Json.to_str "role" r)
             | Ok (Wire.Err e) -> Alcotest.failf "health: %s" e.Wire.msg
             | Error msg -> Alcotest.failf "health: %s" msg);
            (match Client.shutdown c with
             | Ok (Wire.Result _) -> ()
             | Ok (Wire.Err e) -> Alcotest.failf "shutdown: %s" e.Wire.msg
             | Error msg -> Alcotest.failf "shutdown: %s" msg);
            Client.close c;
            Alcotest.(check bool) "frontend draining after wire shutdown" true
              (Server.draining fe)))

(* a second router must not take over a live listener's socket, while a
   stale socket file (nothing listening) is still replaced *)
let test_frontend_live_socket () =
  with_cluster ~n:1
    ~rcfg:(fun () -> Router.config ~probe_interval_s:None ())
    (fun _socks _servers router ->
      let fsock = fresh_socket () in
      let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind listener (Unix.ADDR_UNIX fsock);
      Unix.listen listener 4;
      let inode () = (Unix.stat fsock).Unix.st_ino in
      let before = inode () in
      (match start_router router fsock with
       | Ok fe ->
         Server.stop fe;
         Alcotest.fail "took over a live socket"
       | Error _ -> ());
      Alcotest.(check bool) "live socket file kept" true
        (Sys.file_exists fsock && inode () = before);
      let reachable what =
        let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (match Unix.connect probe (Unix.ADDR_UNIX fsock) with
         | () -> ()
         | exception Unix.Unix_error (e, _, _) ->
           Alcotest.failf "%s unreachable: %s" what (Unix.error_message e));
        Unix.close probe
      in
      reachable "live listener";
      Unix.close listener;
      match start_router router fsock with
      | Error msg -> Alcotest.failf "stale socket not replaced: %s" msg
      | Ok fe ->
        Fun.protect ~finally:(fun () -> Server.stop fe) (fun () ->
            reachable "router on the replaced socket"))

(* stopping the router closes a connection that sends nothing more: the
   client reads EOF instead of waiting on a socket nobody serves *)
let test_router_stop_closes_idle () =
  with_cluster ~n:1
    ~rcfg:(fun () -> Router.config ~probe_interval_s:None ())
    (fun _socks _servers router ->
      let fsock = fresh_socket () in
      match start_router router fsock with
      | Error msg -> Alcotest.failf "router daemon: %s" msg
      | Ok fe ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
            Unix.connect fd (Unix.ADDR_UNIX fsock);
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
            (* one round trip, so the router has accepted the connection *)
            (match
               Result.bind
                 (Wire.write_frame fd
                    (Json.to_string (Wire.request_to_json ~id:1 Wire.Ping)))
                 (fun () -> Wire.read_frame fd)
             with
             | Ok _ -> ()
             | Error e -> Alcotest.failf "ping: %s" (Wire.pp_io_error e));
            Server.stop fe;
            match Unix.read fd (Bytes.create 16) 0 16 with
            | 0 -> ()
            | n -> Alcotest.failf "read %d bytes from a stopped router" n
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              Alcotest.fail "idle connection left open after stop"
            | exception Unix.Unix_error (e, _, _) ->
              Alcotest.failf "read: %s" (Unix.error_message e)))

let () =
  Alcotest.run "cluster"
    [
      ( "ring",
        [
          Alcotest.test_case "npn class folding" `Quick test_ring_npn_key;
          Alcotest.test_case "deterministic failover order" `Quick
            test_ring_order;
        ] );
      ("breaker", [ Alcotest.test_case "state machine" `Quick test_breaker ]);
      ( "router",
        [
          Alcotest.test_case "routes and attributes" `Quick test_router_basic;
          Alcotest.test_case "failover around a killed shard" `Quick
            test_router_failover_on_kill;
          Alcotest.test_case "breaker recovery after restart" `Quick
            test_router_recovery;
          Alcotest.test_case "total outage surfaces as error" `Quick
            test_router_all_dead;
          Alcotest.test_case "concurrent requests share one shard connection"
            `Quick test_router_one_connection;
        ] );
      ( "frontend",
        [
          Alcotest.test_case "wire front-end" `Quick test_frontend;
          Alcotest.test_case "live socket refused, stale replaced" `Quick
            test_frontend_live_socket;
          Alcotest.test_case "stop closes idle router connections" `Quick
            test_router_stop_closes_idle;
        ] );
    ]
