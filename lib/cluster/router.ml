module Json = Mm_report.Json
module Spec = Mm_boolfun.Spec
module Wire = Mm_serve.Wire
module Client = Mm_serve.Client
module Server = Mm_serve.Server
module Rng = Mm_device.Rng

type shard_info = { id : string; addr : Client.addr }

type config = {
  replicas : int;
  retry_budget_s : float;
  breaker : Breaker.config;
  probe_interval_s : float option;
  seed : int;
  log : (string -> unit) option;
}

let config ?(replicas = 2) ?(retry_budget_s = 2.0)
    ?(breaker = Breaker.config ()) ?(probe_interval_s = Some 0.5) ?(seed = 0)
    ?log () =
  {
    replicas = max 1 replicas;
    retry_budget_s = max 0.0 retry_budget_s;
    breaker;
    probe_interval_s;
    seed;
    log;
  }

(* Backoff rounds before a request gives up, and the wait for one shard
   reply (a synth can sit in the shard's queue behind a batch). *)
let max_rounds = 4
let reply_timeout_s = 30.0

type shard_state = {
  info : shard_info;
  dial : Mutex.t;  (* guards [conn] *)
  mutable conn : Client.t option;  (* one pipelined connection *)
  breaker : Breaker.t;
  mutable n_req : int;
  mutable n_ok : int;
  mutable n_shed : int;
  mutable n_fail : int;  (* transport errors + unavailable *)
}

type t = {
  cfg : config;
  ring : Ring.t;
  shards : shard_state array;
  m : Mutex.t;  (* breakers, counters, rng *)
  rng : Rng.t;
  mutable failovers : int;
  mutable backoffs : int;
  mutable served_ok : int;
  mutable served_err : int;
  mutable served_fail : int;
  mutable probe_stop : bool;
  mutable prober : Thread.t option;
}

type outcome = {
  reply : Wire.reply;
  shard : string;
  failover : bool;
  attempts : int;
}

let logf t fmt =
  Printf.ksprintf
    (fun s -> match t.cfg.log with Some f -> f s | None -> ())
    fmt

let now () = Unix.gettimeofday ()

let shard_id t idx = t.shards.(idx).info.id

(* ---- shard connections ---------------------------------------------- *)

(* The shard's connection, dialled on first use. Dialling holds the
   shard's mutex, so requests racing to a cold shard share one dial; a
   dead connection is closed and replaced. *)
let conn s =
  Mutex.protect s.dial (fun () ->
      match s.conn with
      | Some c when Client.alive c -> Ok c
      | stale -> (
        Option.iter Client.close stale;
        s.conn <- None;
        match Client.connect ~read_timeout:reply_timeout_s s.info.addr with
        | Ok c ->
          s.conn <- Some c;
          Ok c
        | Error _ as e -> e))

(* One request to one shard. A connection that dies under the request
   (the shard restarted, an idle reset) is re-dialled once. *)
let send s req =
  let rec go redial =
    match conn s with
    | Error msg -> Error msg
    | Ok c -> (
      match Client.request c req with
      | Error _ when redial && not (Client.alive c) -> go false
      | r -> r)
  in
  go true

(* ---- probing ------------------------------------------------------- *)

let probe_once t =
  Array.iter
    (fun s ->
      match send s Wire.Ping with
      | Ok _ -> Mutex.protect t.m (fun () -> Breaker.success s.breaker)
      | Error _ ->
          Mutex.protect t.m (fun () -> Breaker.failure s.breaker ~now:(now ())))
    t.shards

let probe_loop t interval () =
  while not (Mutex.protect t.m (fun () -> t.probe_stop)) do
    probe_once t;
    (* sleep in short slices so close doesn't wait a whole interval *)
    let until = now () +. interval in
    let stop = ref false in
    while (not !stop) && now () < until do
      Thread.delay (Float.min 0.05 (Float.max 0.001 (until -. now ())));
      if Mutex.protect t.m (fun () -> t.probe_stop) then stop := true
    done
  done

(* ---- lifecycle ----------------------------------------------------- *)

let create (cfg : config) infos =
  if infos = [] then invalid_arg "Router.create: need at least one shard";
  let shards =
    Array.of_list
      (List.map
         (fun info ->
           {
             info;
             dial = Mutex.create ();
             conn = None;
             breaker = Breaker.create cfg.breaker;
             n_req = 0;
             n_ok = 0;
             n_shed = 0;
             n_fail = 0;
           })
         infos)
  in
  let t =
    {
      cfg;
      ring = Ring.create (Array.length shards);
      shards;
      m = Mutex.create ();
      rng = Rng.create (cfg.seed lxor 0x524f5554);
      failovers = 0;
      backoffs = 0;
      served_ok = 0;
      served_err = 0;
      served_fail = 0;
      probe_stop = false;
      prober = None;
    }
  in
  (match cfg.probe_interval_s with
  | Some iv when iv > 0.0 ->
      t.prober <- Some (Thread.create (probe_loop t iv) ())
  | _ -> ());
  t

let close t =
  Mutex.protect t.m (fun () -> t.probe_stop <- true);
  (match t.prober with Some th -> Thread.join th | None -> ());
  t.prober <- None;
  Array.iter
    (fun s ->
      Mutex.protect s.dial (fun () ->
          Option.iter Client.close s.conn;
          s.conn <- None))
    t.shards

(* ---- dispatch ------------------------------------------------------ *)

type verdict =
  | Good of Wire.reply  (* success, or a typed error worth returning as-is *)
  | Shed of float option  (* overloaded + retry hint: backpressure *)
  | Down of string  (* transport failure or draining shard: fail over *)

let classify = function
  | Ok (Wire.Result _ as r) -> Good r
  | Ok (Wire.Err e as r) -> (
      match e.Wire.code with
      | Wire.Overloaded -> Shed e.Wire.retry_after_s
      | Wire.Unavailable -> Down ("shard unavailable: " ^ e.Wire.msg)
      | Wire.Bad_request | Wire.Deadline_exceeded | Wire.Internal ->
          (* Deterministic refusals: the same request would fail on every
             replica, so answer the caller instead of burning the budget. *)
          Good r)
  | Error msg -> Down msg

let attempt t idx req =
  let s = t.shards.(idx) in
  Mutex.protect t.m (fun () -> s.n_req <- s.n_req + 1);
  let v = classify (send s req) in
  Mutex.protect t.m (fun () ->
      match v with
      | Good (Wire.Result _) ->
          s.n_ok <- s.n_ok + 1;
          Breaker.success s.breaker
      | Good (Wire.Err _) -> Breaker.success s.breaker  (* alive, refused *)
      | Shed _ ->
          s.n_shed <- s.n_shed + 1;
          Breaker.success s.breaker  (* shedding is backpressure, not death *)
      | Down _ ->
          s.n_fail <- s.n_fail + 1;
          Breaker.failure s.breaker ~now:(now ()));
  v

(* Candidates for one round: ring order for [key], restricted to shards
   whose breaker admits traffic, truncated to [replicas]. When every
   breaker is open we degrade gracefully — route through the quarantine
   rather than refuse outright (a request is also the cheapest probe). *)
let candidates t key =
  let order = Ring.order t.ring key in
  let tnow = now () in
  let allowed =
    Mutex.protect t.m (fun () ->
        List.filter
          (fun i -> Breaker.allow t.shards.(i).breaker ~now:tnow)
          order)
  in
  let pick = if allowed = [] then order else allowed in
  List.filteri (fun i _ -> i < t.cfg.replicas) pick

let request t ~key req =
  let primary = Ring.primary t.ring key in
  let deadline = now () +. t.cfg.retry_budget_s in
  let attempts = ref 0 in
  let finish idx reply =
    let failover = idx <> primary in
    Mutex.protect t.m (fun () ->
        if failover then t.failovers <- t.failovers + 1;
        match reply with
        | Wire.Result _ -> t.served_ok <- t.served_ok + 1
        | Wire.Err _ -> t.served_err <- t.served_err + 1);
    Ok { reply; shard = shard_id t idx; failover; attempts = !attempts }
  in
  let rec round n last =
    let hint = ref None in
    let rec try_cands cands last =
      match cands with
      | [] ->
          (* Round exhausted. Sheds are transient — back off and go again
             if budget remains; pure transport failure retries too (a
             shard may be restarting under the supervisor). *)
          let remaining = deadline -. now () in
          if remaining <= 0.0 || n + 1 >= max_rounds then give_up last
          else begin
            let sleep =
              Mutex.protect t.m (fun () ->
                  t.backoffs <- t.backoffs + 1;
                  Client.backoff t.rng ~hint:!hint ~attempt:n ~remaining)
            in
            Thread.delay sleep;
            round (n + 1) last
          end
      | idx :: rest -> (
          incr attempts;
          match attempt t idx req with
          | Good reply -> finish idx reply
          | Shed h ->
              (match (h, !hint) with
              | Some h, Some h0 -> hint := Some (Float.max h h0)
              | Some h, None -> hint := Some h
              | None, _ -> ());
              try_cands rest
                (Ok
                   (Wire.Err
                      {
                        Wire.code = Wire.Overloaded;
                        msg = "all replicas shedding";
                        retry_after_s = h;
                      }))
          | Down msg ->
              logf t "shard %s down for key %s: %s" (shard_id t idx) key msg;
              try_cands rest (Error msg))
    in
    try_cands (candidates t key) last
  and give_up last =
    match last with
    | Ok (Wire.Err _ as r) ->
        Mutex.protect t.m (fun () -> t.served_err <- t.served_err + 1);
        Ok { reply = r; shard = ""; failover = true; attempts = !attempts }
    | Ok (Wire.Result _ as r) ->
        (* unreachable: successes return via [finish] *)
        finish primary r
    | Error msg ->
        Mutex.protect t.m (fun () -> t.served_fail <- t.served_fail + 1);
        Error
          (Printf.sprintf "no shard answered after %d attempts: %s" !attempts
             msg)
  in
  round 0 (Error "no shards available")

let synth ?(params = Wire.no_params) t spec =
  request t ~key:(Ring.key_of_spec spec) (Wire.Synth { spec; params })

(* ---- introspection ------------------------------------------------- *)

let shard_stats_json t =
  let tnow = now () in
  Mutex.protect t.m (fun () ->
      Json.List
        (Array.to_list
           (Array.map
              (fun s ->
                Json.Obj
                  [
                    ("id", Json.String s.info.id);
                    ("addr", Json.String (Client.pp_addr s.info.addr));
                    ( "breaker",
                      Json.String
                        (Breaker.state_tag (Breaker.state s.breaker ~now:tnow))
                    );
                    ("trips", Json.Int (Breaker.trips s.breaker));
                    ("requests", Json.Int s.n_req);
                    ("ok", Json.Int s.n_ok);
                    ("shed", Json.Int s.n_shed);
                    ("failed", Json.Int s.n_fail);
                  ])
              t.shards)))

let stats_json t =
  let shards = shard_stats_json t in
  Mutex.protect t.m (fun () ->
      Json.Obj
        [
          ("schema", Json.String "mmsynth-cluster-stats-v2");
          ("n_shards", Json.Int (Array.length t.shards));
          ("replicas", Json.Int t.cfg.replicas);
          ("served_ok", Json.Int t.served_ok);
          ("served_err", Json.Int t.served_err);
          ("served_fail", Json.Int t.served_fail);
          ("failovers", Json.Int t.failovers);
          ("backoffs", Json.Int t.backoffs);
          ("shards", shards);
        ])

(* ---- the router as a daemon ---------------------------------------- *)

(* A routed answer carries who answered and whether the cluster had to
   work for it. *)
let attributed (o : outcome) = function
  | Json.Obj fields ->
      Json.Obj
        (fields
        @ [
            ( "cluster",
              Json.Obj
                [
                  ("shard", Json.String o.shard);
                  ("failover", Json.Bool o.failover);
                  ("attempts", Json.Int o.attempts);
                ] );
          ])
  | j -> j

(* A routed request's reply: the shard's, attributed; [unavailable] when no
   shard answered. *)
let routed t spec params =
  match synth ~params t spec with
  | Ok ({ reply = Wire.Result j; _ } as o) -> Wire.Result (attributed o j)
  | Ok { reply; _ } -> reply
  | Error msg ->
      Wire.Err
        {
          Wire.code = Wire.Unavailable;
          msg = "cluster: " ^ msg;
          retry_after_s = Some 0.25;
        }
  | exception e ->
      Wire.Err
        {
          Wire.code = Wire.Internal;
          msg = Printexc.to_string e;
          retry_after_s = None;
        }

let handlers t =
  {
    (* a shard round trip blocks, so each request runs in a thread of its
       own, which answers *)
    Server.synth =
      (fun spec params answer ->
        ignore (Thread.create (fun () -> answer (routed t spec params)) ()));
    stats = (fun () -> stats_json t);
    health =
      (fun () ->
        [ ("role", Json.String "router");
          ("n_shards", Json.Int (Array.length t.shards)) ]);
  }
