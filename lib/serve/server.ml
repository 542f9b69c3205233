module Engine = Mm_engine.Engine
module Cache = Mm_engine.Cache
module Fault = Mm_engine.Fault
module Npn = Mm_engine.Npn
module Json = Mm_report.Json
module Spec = Mm_boolfun.Spec
module Tt = Mm_boolfun.Truth_table
module Circuit = Mm_core.Circuit

type config = {
  socket_path : string;
  tcp_port : int option;
  engine : Engine.config;
  max_pending : int;
  max_batch : int;
  default_deadline : float option;
  drain_grace : float;
  fault : Fault.t option;
  log : (string -> unit) option;
  shard_id : string option;
}

let config ?tcp_port ?(engine = Engine.config ()) ?(max_pending = 64)
    ?(max_batch = 16) ?default_deadline ?(drain_grace = 5.0) ?fault ?log
    ?shard_id ~socket_path () =
  {
    socket_path;
    tcp_port;
    engine;
    max_pending = max 1 max_pending;
    max_batch = max 1 max_batch;
    default_deadline;
    drain_grace = Float.max 0. drain_grace;
    fault;
    log;
    shard_id;
  }

type handlers = {
  synth : Spec.t -> Wire.synth_params -> (Wire.reply -> unit) -> unit;
  stats : unit -> Json.t;
  health : unit -> (string * Json.t) list;
}

type job = {
  spec : Spec.t;
  params : Wire.synth_params;
  enqueued_at : float;
  answer : Wire.reply -> unit;
}

type t = {
  cfg : config;
  custom : handlers option;  (* [None]: the engine's queue and dispatcher *)
  stats : Stats.t;
  m : Mutex.t;
  work : Condition.t;  (* queue became non-empty, or the daemon stopped *)
  drain : Condition.t;  (* a drain began, or the daemon stopped *)
  queue : job Queue.t;
  mutable running : job list;  (* the dispatcher's micro-batch *)
  mutable draining : bool;
  mutable stopped : bool;
  mutable conns : int;
  inflight : int Atomic.t;  (* frames read and not yet answered *)
  mutable next_conn : int;
  mutable conn_threads : Thread.t list;
  (* self-pipes: written once, never drained, so every select sees them *)
  drain_r : Unix.file_descr;
  drain_w : Unix.file_descr;
  close_r : Unix.file_descr;
  close_w : Unix.file_descr;
  listeners : Unix.file_descr list;
  mutable listeners_closed : bool;
  mutable accept_threads : Thread.t list;
  mutable dispatcher : Thread.t option;
}

let log t fmt =
  Printf.ksprintf
    (fun s -> match t.cfg.log with Some f -> f s | None -> ())
    fmt

let draining t = Mutex.protect t.m (fun () -> t.draining)
let stopped t = Mutex.protect t.m (fun () -> t.stopped)
let shard_id t = Option.value t.cfg.shard_id ~default:t.cfg.socket_path

let request_drain t =
  let fresh =
    Mutex.protect t.m (fun () ->
        if t.draining then false
        else begin
          t.draining <- true;
          Condition.broadcast t.drain;
          true
        end)
  in
  if fresh then begin
    log t "drain requested";
    ignore (Unix.write t.drain_w (Bytes.of_string "d") 0 1)
  end

(* Close the listening sockets exactly once (die and wait both want them
   gone; closing an fd twice could hit an unrelated reused descriptor). *)
let close_listeners t =
  let fds =
    Mutex.protect t.m (fun () ->
        if t.listeners_closed then []
        else begin
          t.listeners_closed <- true;
          t.listeners
        end)
  in
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds;
  if fds <> [] then
    try Sys.remove t.cfg.socket_path with Sys_error _ -> ()

let unavailable msg =
  Wire.Err { Wire.code = Wire.Unavailable; msg; retry_after_s = None }

(* Mark the daemon stopped and tell every thread: the dispatcher stops,
   readers stop reading, and the queued jobs and the running micro-batch
   are answered [unavailable] (a job the batch answers later keeps that
   first answer). [true] for the call that did it. *)
let halt t =
  let abandoned =
    Mutex.protect t.m (fun () ->
        if t.stopped then None
        else begin
          t.draining <- true;
          t.stopped <- true;
          let jobs = List.of_seq (Queue.to_seq t.queue) @ t.running in
          Queue.clear t.queue;
          Condition.broadcast t.work;
          Condition.broadcast t.drain;
          Some jobs
        end)
  in
  match abandoned with
  | None -> false
  | Some jobs ->
    ignore (Unix.write t.drain_w (Bytes.of_string "d") 0 1);
    ignore (Unix.write t.close_w (Bytes.of_string "c") 0 1);
    List.iter (fun (j : job) -> j.answer (unavailable "daemon stopped")) jobs;
    true

(* Abrupt death — the simulated shard crash. No drain: queued and running
   jobs are answered [unavailable], listeners close immediately, and every
   thread is told to exit. Used by the fault plan's [Kill] action and by
   the storm harness to kill a shard mid-run. *)
let die t =
  if halt t then begin
    log t "killed (abrupt, no drain)";
    close_listeners t
  end

(* ---- the engine's verbs: admission queue and dispatcher ---------------- *)

let result_json ~(r : Engine.job_result) ~queue_wait ~synth_s =
  let metrics =
    match r.Engine.circuit with
    | None -> []
    | Some c ->
      [
        ("n_rops", Json.Int (Circuit.n_rops c));
        ("n_steps", Json.Int (Circuit.n_steps c));
        ("n_devices", Json.Int (Circuit.n_devices c));
      ]
  in
  Json.Obj
    ([
       ("spec", Json.String (Spec.name r.Engine.spec));
       ( "verdict",
         Json.String
           (match Engine.outcome r with
            | Engine.Sat -> "sat"
            | Engine.Unsat -> "unsat"
            | Engine.Timeout -> "timeout"
            | Engine.Fallback -> "fallback"
            | Engine.Failed -> "error") );
       ( "provenance",
         Json.String
           (match r.Engine.provenance with
            | Engine.Exact -> "exact"
            | Engine.From_atlas -> "atlas"
            | Engine.Via_baseline -> "baseline"
            | Engine.Via_heuristic -> "heuristic") );
       ("atlas", Json.Bool (r.Engine.provenance = Engine.From_atlas));
       ("optimal", Json.Bool r.Engine.optimal);
       ("shared", Json.Bool r.Engine.shared);
       ( "class",
         match r.Engine.class_rep with
         | None -> Json.Null
         | Some rep -> Json.String (Printf.sprintf "%04x" (Tt.to_int rep)) );
       ( "circuit",
         match r.Engine.circuit with
         | None -> Json.Null
         | Some c -> Mm_core.Emit.json c );
       ( "error",
         match r.Engine.error with
         | None -> Json.Null
         | Some (Engine.Crashed { exn; _ }) -> Json.String exn
         | Some (Engine.Verify_failed { row }) ->
           Json.String (Printf.sprintf "verification failed on row %d" row) );
       ("queue_wait_s", Json.Float queue_wait);
       ("synth_s", Json.Float synth_s);
     ]
    @ metrics)

let degrade_of_tag = function
  | Some "baseline" -> Some Engine.Use_baseline
  | Some "heuristic" -> Some Engine.Use_heuristic
  | Some "none" -> Some Engine.No_fallback
  | Some _ | None -> None

(* A request's effective parameters: its fallback, its per-call timeout
   capped at the daemon's, and its deadline, else the daemon's default. *)
let effective t (p : Wire.synth_params) =
  let engine = t.cfg.engine in
  ( Option.value (degrade_of_tag p.Wire.fallback)
      ~default:engine.Engine.fallback,
    (match p.Wire.timeout with
     | Some tmo -> Float.min tmo engine.Engine.timeout_per_call
     | None -> engine.Engine.timeout_per_call),
    match p.Wire.deadline with
    | Some d -> Some d
    | None -> t.cfg.default_deadline )

let deadline_exceeded ~waited =
  Wire.Err
    { Wire.code = Wire.Deadline_exceeded;
      msg = Printf.sprintf "deadline passed after %.3fs in queue" waited;
      retry_after_s = None }

(* Run one micro-batch: answer jobs whose deadline already passed while
   queued, and hand the rest to Engine.run in groups that share their
   effective parameters — fallback, per-call timeout (the request's, capped
   at the daemon's) and requested deadline — so no request runs under a
   neighbour's smaller timeout or shorter deadline. Requests with default
   parameters form one group. A group's deadline runs to the soonest expiry
   among its members, and its jobs are answered as soon as it ends. *)
let process_batch t jobs =
  let now = Unix.gettimeofday () in
  let expired, runnable =
    List.partition
      (fun (j : job) ->
        match effective t j.params with
        | _, _, Some d -> now -. j.enqueued_at >= d
        | _, _, None -> false)
      jobs
  in
  List.iter
    (fun (j : job) ->
      Stats.observe_queue_wait t.stats (now -. j.enqueued_at);
      j.answer (deadline_exceeded ~waited:(now -. j.enqueued_at)))
    expired;
  let groups = Hashtbl.create 4 in
  List.iter
    (fun (j : job) ->
      let params = effective t j.params in
      Hashtbl.replace groups params
        (j :: Option.value (Hashtbl.find_opt groups params) ~default:[]))
    runnable;
  Hashtbl.iter
    (fun (fallback, timeout_per_call, deadline) group ->
      let group = Array.of_list (List.rev group) in
      let start = Unix.gettimeofday () in
      let first =
        Array.fold_left (fun acc (j : job) -> Float.min acc j.enqueued_at)
          Float.infinity group
      in
      let cfg =
        { t.cfg.engine with
          Engine.timeout_per_call;
          fallback;
          deadline = Option.map (fun d -> first +. d -. start) deadline }
      in
      let specs = Array.map (fun (j : job) -> j.spec) group in
      (match Engine.run cfg specs with
       | results, summary ->
         Stats.note_batch t.stats summary;
         Array.iteri
           (fun i (j : job) ->
             Stats.observe_queue_wait t.stats (start -. j.enqueued_at);
             Stats.observe_synth t.stats summary.Engine.wall_s;
             j.answer
               (Wire.Result
                  (result_json ~r:results.(i)
                     ~queue_wait:(start -. j.enqueued_at)
                     ~synth_s:summary.Engine.wall_s)))
           group
       | exception e ->
         let msg = Printexc.to_string e in
         log t "engine batch failed: %s" msg;
         Array.iter
           (fun (j : job) ->
             j.answer
               (Wire.Err
                  { Wire.code = Wire.Internal; msg; retry_after_s = None }))
           group))
    groups

(* Batches the queue until the daemon stops. A drain needs nothing from
   here: the transport waits until every admitted request is answered. *)
let dispatcher_loop t =
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.stopped do
      Condition.wait t.work t.m
    done;
    if t.stopped then Mutex.unlock t.m
    else begin
      let batch = ref [] in
      while (not (Queue.is_empty t.queue)) && List.length !batch < t.cfg.max_batch
      do
        batch := Queue.pop t.queue :: !batch
      done;
      let batch = List.rev !batch in
      t.running <- batch;
      Mutex.unlock t.m;
      process_batch t batch;
      Mutex.protect t.m (fun () -> t.running <- []);
      loop ()
    end
  in
  loop ()

(* Admission: a full queue sheds the job [overloaded], a stopped daemon
   refuses it; otherwise the dispatcher answers it. *)
let admit t (job : job) =
  let refusal =
    Mutex.protect t.m (fun () ->
        if Queue.length t.queue >= t.cfg.max_pending then
          Some
            (Wire.Err
               { Wire.code = Wire.Overloaded;
                 msg = Printf.sprintf "pending queue full (%d jobs)" t.cfg.max_pending;
                 retry_after_s = Some 1.0 })
        else if t.stopped then Some (unavailable "daemon stopped")
        else begin
          Queue.push job t.queue;
          Condition.signal t.work;
          None
        end)
  in
  Option.iter job.answer refusal

(* The engine's [synth], on the connection's reader: a request whose
   deadline is already gone is refused as the dispatcher would refuse it,
   and one that [Engine.lookup] resolves without a solver (an atlas or
   overlay hit under the request's effective parameters) is answered at
   once, with no queue wait. Anything else is admitted to the queue. *)
let engine_synth t spec params answer =
  match effective t params with
  | _, _, Some d when d <= 0. ->
    Stats.observe_queue_wait t.stats 0.;
    answer (deadline_exceeded ~waited:0.)
  | fallback, timeout_per_call, deadline -> (
    match
      Engine.lookup
        { t.cfg.engine with Engine.timeout_per_call; fallback; deadline }
        spec
    with
    | Some (r, summary) ->
      Stats.note_inline t.stats summary;
      answer
        (Wire.Result
           (result_json ~r ~queue_wait:0. ~synth_s:summary.Engine.wall_s))
    | None ->
      admit t { spec; params; enqueued_at = Unix.gettimeofday (); answer })

let engine_stats t =
  let queue_depth, conns, draining =
    Mutex.protect t.m (fun () -> (Queue.length t.queue, t.conns, t.draining))
  in
  Stats.snapshot t.stats ~shard:(shard_id t) ~queue_depth ~active_conns:conns
    ~draining
    ~cache_entries:
      (Option.map
         (fun c -> (Cache.counters c).Cache.entries)
         t.cfg.engine.Engine.cache)

(* The verbs this daemon answers: the caller's, else the engine's. *)
let handlers t =
  match t.custom with
  | Some h -> h
  | None ->
    {
      synth = engine_synth t;
      stats = (fun () -> engine_stats t);
      health =
        (fun () ->
          [ ("queue_depth",
             Json.Int (Mutex.protect t.m (fun () -> Queue.length t.queue))) ]);
    }

let stats_json t = (handlers t).stats ()

(* ---- transport: frames in, replies out --------------------------------- *)

let op_tag = function
  | Wire.Synth _ -> "synth"
  | Wire.Stats -> "stats"
  | Wire.Health -> "health"
  | Wire.Ping -> "ping"
  | Wire.Shutdown -> "shutdown"

(* A reply frame, plus its error code when it is an error. *)
type reply = Json.t * Wire.error_code option

(* Decode one frame and answer it through [answer]: [ping], [health],
   [stats], [shutdown] and a frame that does not decode at once, a [synth]
   through the handlers' [synth], at once or later. An exception answers
   the frame [internal] and leaves the connection open. A [shutdown] starts
   the drain before its reply is written: the frame is still in flight, so
   the drain cannot close the connection under it. *)
let serve_frame t payload (answer : reply -> unit) =
  let decoded =
    match Json.of_string payload with
    | Error msg -> Error (0, msg)
    | Ok j -> Wire.request_of_json j
  in
  match decoded with
  | Error (id, msg) ->
    answer
      ( Wire.error_json ~id
          { Wire.code = Wire.Bad_request; msg; retry_after_s = None },
        Some Wire.Bad_request )
  | Ok (id, req) -> (
    let h = handlers t in
    let reply = function
      | Wire.Result r -> answer (Wire.ok_json ~id r, None)
      | Wire.Err e -> answer (Wire.error_json ~id e, Some e.Wire.code)
    in
    let ok j = reply (Wire.Result j) in
    Stats.note_request t.stats ~op:(op_tag req);
    try
      match req with
      | Wire.Ping -> ok (Json.Obj [ ("pong", Json.Bool true) ])
      | Wire.Stats -> ok (h.stats ())
      | Wire.Health ->
        ok
          (Json.Obj
             ([ ( "status",
                  Json.String (if draining t then "draining" else "ok") );
                ("shard", Json.String (shard_id t));
                ("protocol_version", Json.Int Wire.protocol_version);
                ("uptime_s", Json.Float (Stats.uptime_s t.stats)) ]
             @ h.health ()))
      | Wire.Shutdown ->
        request_drain t;
        ok (Json.Obj [ ("draining", Json.Bool true) ])
      | Wire.Synth _ when draining t -> reply (unavailable "daemon is draining")
      | Wire.Synth { spec; params } -> h.synth spec params reply
    with e ->
      reply
        (Wire.Err
           { Wire.code = Wire.Internal; msg = Printexc.to_string e;
             retry_after_s = None }))

(* Whether a write to [fd] would find room at once. A reply frame is a few
   KiB; a socket polls writable only with far more free than that. *)
let writable fd =
  match Unix.select [] [ fd ] [] 0. with
  | _, [], _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> false

(* [f] for its first call only. *)
let once f =
  let called = Atomic.make false in
  fun x -> if Atomic.compare_and_set called false true then f x

(* The most reply bytes one connection's backlog holds. A client that writes
   4,000 frames before it reads a reply backs up about 2 MB of them. *)
let max_backlog_bytes = 8 * 1024 * 1024

(* One reader thread per connection. It reads each frame and serves it with
   the frame's answer, a continuation that any thread may call, at once or
   later; only its first call is written. Replies are matched by frame id,
   not by order, so a pipelined client keeps several requests in flight on
   one connection, and neither a queued synthesis nor an injected
   [Fault.Delay] (served in a thread of its own after its sleep) stalls the
   frames behind it. Every answer takes one path: it is written at once
   while the socket has room and no earlier reply waits; otherwise it joins
   the connection's backlog, which one writer thread drains. So no thread
   that answers blocks in a write, and a client that writes many frames
   before it reads any reply is still read. A failed write drops the
   connection: a frame cut short leaves the stream without a boundary to
   resume from. So does a backlog past [max_backlog_bytes], the mark of a
   client that writes and never reads: its replies would otherwise grow
   the daemon's memory without bound. A dropped connection's replies are
   discarded, and count as written. Each frame counts as in flight, for
   the drain, from the moment it is read until its reply is written. The
   reader closes the fd only once every frame it read is answered and its
   reply written (a write to a closed-and-reused descriptor could hit an
   unrelated socket). *)
let conn_loop t fd conn_id =
  let reqs = ref 0 in
  let m = Mutex.create () in
  (* guards [pending], [backlog], [queued] and [writing] *)
  let pending = ref 0 in  (* frames read whose reply is not yet written *)
  let settled = Condition.create () in  (* [pending] dropped to 0 *)
  let backlog = Queue.create () in  (* replies waiting for the writer *)
  let queued = ref 0 in  (* bytes in [backlog] *)
  let writing = ref false in  (* a writer thread drains [backlog] *)
  let broken = Atomic.make false in  (* the connection was dropped *)
  let drop () =
    if Atomic.compare_and_set broken false true then begin
      Stats.note_conn_dropped t.stats;
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    end
  in
  (* One thread writes at a time: one that holds [m] while no writer runs,
     else the writer. *)
  let put payload =
    if not (Atomic.get broken) then
      match Wire.write_frame fd payload with
      | Ok () -> ()
      | Error _ -> drop ()
  in
  let written () =
    Atomic.decr t.inflight;
    decr pending;
    if !pending = 0 then Condition.broadcast settled
  in
  let rec drain () =
    let next =
      Mutex.protect m (fun () ->
          let next = Queue.take_opt backlog in
          (match next with
           | Some payload -> queued := !queued - String.length payload
           | None -> writing := false);
          next)
    in
    match next with
    | Some payload ->
      put payload;
      Mutex.protect m written;
      drain ()
    | None -> ()
  in
  let answer t0 ((response, err) : reply) =
    (match err with
     | None -> Stats.note_reply_ok t.stats
     | Some code -> Stats.note_reply_err t.stats code);
    Stats.observe_total t.stats (Unix.gettimeofday () -. t0);
    let payload = Json.to_string response in
    let start_writer =
      Mutex.protect m (fun () ->
          if Atomic.get broken then begin
            written ();
            false
          end
          else if (not !writing) && writable fd then begin
            put payload;
            written ();
            false
          end
          else if !queued + String.length payload > max_backlog_bytes then begin
            drop ();
            Queue.iter (fun _ -> written ()) backlog;
            Queue.clear backlog;
            queued := 0;
            written ();
            false
          end
          else begin
            Queue.push payload backlog;
            queued := !queued + String.length payload;
            let idle = not !writing in
            writing := true;
            idle
          end)
    in
    if start_writer then ignore (Thread.create drain ())
  in
  let rec loop () =
    match Unix.select [ fd; t.close_r ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()
    | ready, _, _ ->
      if List.mem t.close_r ready then ()
      else (
        match Wire.read_frame fd with
        | Error _ -> ()  (* client hung up or sent garbage framing *)
        | Ok payload -> (
          incr reqs;
          let key () = Printf.sprintf "conn%d/req%d" conn_id !reqs in
          let injected =
            match t.cfg.fault with
            | None -> None
            | Some f -> Fault.decide f ~stage:Fault.Conn ~key:(key ())
          in
          match injected with
          | Some (Fault.Crash | Fault.Refuse) ->
            (* injected connection drop: vanish without a reply *)
            log t "conn%d: injected drop at %s" conn_id (key ());
            Stats.note_conn_dropped t.stats
          | Some Fault.Kill ->
            (* injected shard crash: the whole daemon dies, abruptly *)
            log t "conn%d: injected shard kill at %s" conn_id (key ());
            die t
          | (Some (Fault.Delay _ | Fault.Unknown_result) | None) as inj ->
            let reply = once (answer (Unix.gettimeofday ())) in
            Atomic.incr t.inflight;
            Mutex.protect m (fun () -> incr pending);
            (match inj with
             | Some (Fault.Delay s) ->
               ignore
                 (Thread.create
                    (fun () ->
                      Unix.sleepf s;
                      serve_frame t payload reply)
                    ())
             | _ -> serve_frame t payload reply);
            loop ()))
  in
  (try loop () with _ -> ());
  Mutex.protect m (fun () ->
      while !pending > 0 do
        Condition.wait settled m
      done);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.protect t.m (fun () -> t.conns <- t.conns - 1)

let accept_loop t lfd =
  let rec loop () =
    match Unix.select [ lfd; t.drain_r ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()
    | ready, _, _ ->
      if List.mem t.drain_r ready then ()
      else (
        match Unix.accept lfd with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | exception Unix.Unix_error _ -> if draining t then () else loop ()
        | fd, _ ->
          let conn_id =
            Mutex.protect t.m (fun () ->
                t.next_conn <- t.next_conn + 1;
                t.next_conn)
          in
          let refused =
            match t.cfg.fault with
            | None -> false
            | Some f ->
              Fault.decide f ~stage:Fault.Conn
                ~key:(Printf.sprintf "accept/conn%d" conn_id)
              = Some Fault.Refuse
          in
          if refused then begin
            (* injected partition: the shard is unreachable — close before
               reading a single frame, as a dead network path would *)
            log t "conn%d: injected partition (refused at accept)" conn_id;
            Stats.note_conn_dropped t.stats;
            (try Unix.close fd with Unix.Unix_error _ -> ());
            loop ()
          end
          else begin
            (* cap mid-frame stalls so a wedged client cannot pin a thread *)
            (try
               Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
               Unix.setsockopt_float fd Unix.SO_SNDTIMEO 30.
             with Unix.Unix_error _ -> ());
            Stats.note_conn_accepted t.stats;
            Mutex.protect t.m (fun () -> t.conns <- t.conns + 1);
            let th = Thread.create (fun () -> conn_loop t fd conn_id) () in
            Mutex.protect t.m (fun () ->
                t.conn_threads <- th :: t.conn_threads);
            loop ()
          end)
  in
  loop ()

(* ---- lifecycle ------------------------------------------------------- *)

(* A stale socket file (daemon died without cleanup) is replaced; a live
   one (something accepts connections) is an address conflict. *)
let free_socket_path path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then Error (Printf.sprintf "%s: a daemon is already listening" path)
    else begin
      (try Sys.remove path with Sys_error _ -> ());
      Ok ()
    end
  end
  else Ok ()

let start ?handlers cfg =
  (* a dropped client must surface as EPIPE on write, not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match free_socket_path cfg.socket_path with
  | Error _ as e -> e
  | Ok () -> (
    match
      let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.bind lfd (Unix.ADDR_UNIX cfg.socket_path)
       with e -> (try Unix.close lfd with _ -> ()); raise e);
      Unix.listen lfd 64;
      let listeners =
        match cfg.tcp_port with
        | None -> [ lfd ]
        | Some port ->
          let tfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.setsockopt tfd Unix.SO_REUSEADDR true;
          (try
             Unix.bind tfd
               (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
             Unix.listen tfd 64
           with e ->
             (try Unix.close tfd with _ -> ());
             (try Unix.close lfd with _ -> ());
             (try Sys.remove cfg.socket_path with Sys_error _ -> ());
             raise e);
          [ lfd; tfd ]
      in
      let drain_r, drain_w = Unix.pipe () in
      let close_r, close_w = Unix.pipe () in
      let t =
        {
          cfg;
          custom = handlers;
          stats = Stats.create ();
          m = Mutex.create ();
          work = Condition.create ();
          drain = Condition.create ();
          queue = Queue.create ();
          running = [];
          draining = false;
          stopped = false;
          conns = 0;
          inflight = Atomic.make 0;
          next_conn = 0;
          conn_threads = [];
          drain_r;
          drain_w;
          close_r;
          close_w;
          listeners;
          listeners_closed = false;
          accept_threads = [];
          dispatcher = None;
        }
      in
      if handlers = None then begin
        (* warm the NPN tables so the first request pays nothing *)
        ignore (Npn.canon (Tt.of_int 4 0x1ee1));
        ignore (Npn.canon (Tt.of_int 3 0x96));
        t.dispatcher <- Some (Thread.create dispatcher_loop t)
      end;
      t.accept_threads <-
        List.map (fun lfd -> Thread.create (accept_loop t) lfd) listeners;
      log t "listening on %s%s" cfg.socket_path
        (match cfg.tcp_port with
         | None -> ""
         | Some p -> Printf.sprintf " and 127.0.0.1:%d" p);
      t
    with
    | t -> Ok t
    | exception Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e)))

(* The drain: once it is requested, every frame already read is answered;
   then connected clients get [drain_grace] seconds to hang up before the
   rest are closed. [settle] polls, as nothing signals a count dropping. *)
let wait t =
  let settle cond = while Mutex.protect t.m cond do Thread.delay 0.02 done in
  Mutex.protect t.m (fun () ->
      while not t.draining do
        Condition.wait t.drain t.m
      done);
  settle (fun () -> Atomic.get t.inflight > 0 && not t.stopped);
  let t0 = Unix.gettimeofday () in
  settle (fun () ->
      t.conns > 0 && (not t.stopped)
      && Unix.gettimeofday () -. t0 < t.cfg.drain_grace);
  if halt t then begin
    Option.iter Cache.flush t.cfg.engine.Engine.cache;
    log t "drained"
  end;
  Option.iter Thread.join t.dispatcher;
  List.iter Thread.join t.accept_threads;
  let conn_threads = Mutex.protect t.m (fun () -> t.conn_threads) in
  List.iter Thread.join conn_threads;
  close_listeners t;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ t.drain_r; t.drain_w; t.close_r; t.close_w ]

let stop t =
  request_drain t;
  wait t

let run ?handlers cfg =
  let term = Atomic.make false in
  let install s =
    try Sys.set_signal s (Sys.Signal_handle (fun _ -> Atomic.set term true))
    with Invalid_argument _ | Sys_error _ -> ()
  in
  install Sys.sigterm;
  install Sys.sigint;
  match start ?handlers cfg with
  | Error _ as e -> e
  | Ok t ->
    (* signal handlers only set a flag (async-signal-safe); this loop turns
       the flag into a drain from a normal thread context *)
    while not (draining t) do
      if Atomic.get term then request_drain t else Thread.delay 0.1
    done;
    wait t;
    Ok ()
