module Json = Mm_report.Json
module Wire = Mm_serve.Wire

type t = {
  router : Router.t;
  fd : Unix.file_descr;
  socket_path : string;
  m : Mutex.t;
  cv : Condition.t;
  mutable stopping : bool;
  mutable conns : int;
  mutable accept_thread : Thread.t option;
  log : (string -> unit) option;
}

let logf t fmt =
  Printf.ksprintf (fun s -> match t.log with Some f -> f s | None -> ()) fmt

let stopping t = Mutex.protect t.m (fun () -> t.stopping)
let draining = stopping

(* Tag the shard attribution onto a successful result so a caller can see
   who answered and whether the cluster had to work for it. *)
let tag_result (o : Router.outcome) j =
  let cluster =
    Json.Obj
      [
        ("shard", Json.String o.shard);
        ("failover", Json.Bool o.failover);
        ("hedged", Json.Bool o.hedged);
        ("attempts", Json.Int o.attempts);
      ]
  in
  match j with
  | Json.Obj fields -> Json.Obj (fields @ [ ("cluster", cluster) ])
  | other -> Json.Obj [ ("result", other); ("cluster", cluster) ]

let handle_request t id req =
  match req with
  | Wire.Synth { spec; params } -> (
      match Router.synth ~params t.router spec with
      | Ok o -> (
          match o.reply with
          | Wire.Result j -> Wire.ok_json ~id (tag_result o j)
          | Wire.Err e -> Wire.error_json ~id e)
      | Error msg ->
          Wire.error_json ~id
            {
              Wire.code = Wire.Unavailable;
              msg = "cluster: " ^ msg;
              retry_after_s = Some 0.25;
            })
  | Wire.Stats -> Wire.ok_json ~id (Router.stats_json t.router)
  | Wire.Health ->
      Wire.ok_json ~id
        (Json.Obj
           [
             ("role", Json.String "router");
             ("status", Json.String (if stopping t then "draining" else "ok"));
             ("n_shards", Json.Int (Router.n_shards t.router));
           ])
  | Wire.Ping -> Wire.ok_json ~id (Json.Obj [ ("pong", Json.Bool true) ])
  | Wire.Shutdown ->
      Mutex.protect t.m (fun () -> t.stopping <- true);
      Wire.ok_json ~id (Json.Obj [ ("draining", Json.Bool true) ])

let conn_loop t fd () =
  let wm = Mutex.create () in
  let im = Mutex.create () in
  let icv = Condition.create () in
  let inflight = ref 0 in
  let handle payload () =
    let reply_json =
      match Json.of_string payload with
      | Error msg ->
          Wire.error_json ~id:0
            { Wire.code = Wire.Bad_request; msg; retry_after_s = None }
      | Ok j -> (
          match Wire.request_of_json j with
          | Error (id, msg) ->
              Wire.error_json ~id
                { Wire.code = Wire.Bad_request; msg; retry_after_s = None }
          | Ok (id, req) -> handle_request t id req)
    in
    ignore
      (Mutex.protect wm (fun () ->
           Wire.write_frame fd (Json.to_string reply_json)));
    Mutex.protect im (fun () ->
        decr inflight;
        Condition.broadcast icv)
  in
  let rec loop () =
    if stopping t then ()
    else
      match Wire.read_frame fd with
      | Error _ -> ()
      | Ok payload ->
          Mutex.protect im (fun () -> incr inflight);
          (* Per-frame handler thread: a synth riding the retry budget
             must not stall a pipelined ping behind it. *)
          ignore (Thread.create (handle payload) ());
          loop ()
  in
  loop ();
  Mutex.lock im;
  while !inflight > 0 do
    Condition.wait icv im
  done;
  Mutex.unlock im;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.protect t.m (fun () ->
      t.conns <- t.conns - 1;
      Condition.broadcast t.cv)

let accept_loop t () =
  while not (stopping t) do
    (* select with a timeout so Shutdown is noticed without a last client *)
    match Unix.select [ t.fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept t.fd with
        | exception Unix.Unix_error _ -> ()
        | fd, _ ->
            if stopping t then (try Unix.close fd with Unix.Unix_error _ -> ())
            else begin
              Mutex.protect t.m (fun () -> t.conns <- t.conns + 1);
              ignore (Thread.create (conn_loop t fd) ())
            end)
    | exception Unix.Unix_error _ -> ()
  done;
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.socket_path with Unix.Unix_error _ -> ())

let start ?log router ~socket_path =
  let bound () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    try
      Unix.bind fd (Unix.ADDR_UNIX socket_path);
      Unix.listen fd 64;
      Ok fd
    with Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot bind router socket %s: %s" socket_path
           (Unix.error_message e))
  in
  match Result.bind (Mm_serve.Server.free_socket_path socket_path) bound with
  | Error _ as e -> e
  | Ok fd ->
      let t =
        {
          router;
          fd;
          socket_path;
          m = Mutex.create ();
          cv = Condition.create ();
          stopping = false;
          conns = 0;
          accept_thread = None;
          log;
        }
      in
      t.accept_thread <- Some (Thread.create (accept_loop t) ());
      logf t "router listening on %s" socket_path;
      Ok t

let request_stop t = Mutex.protect t.m (fun () -> t.stopping <- true)

let wait t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  t.accept_thread <- None;
  (* conn threads exit on their next read (clients see EOF on close) *)
  Mutex.lock t.m;
  let deadline = Unix.gettimeofday () +. 2.0 in
  while t.conns > 0 && Unix.gettimeofday () < deadline do
    Mutex.unlock t.m;
    Thread.delay 0.02;
    Mutex.lock t.m
  done;
  Mutex.unlock t.m

let stop t =
  request_stop t;
  wait t
