module Json = Mm_report.Json
module Spec = Mm_boolfun.Spec
module Rng = Mm_device.Rng

type addr = Unix_sock of string | Tcp of string * int

let pp_addr = function
  | Unix_sock p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

(* ---- one pipelined connection ---------------------------------------- *)

(* A waiter parked until its id-matched reply (or a timeout / transport
   death) fills [outcome]. The slot stays in [pending] until its waiter
   removes it, so a reply that arrives after the waiter timed out is
   discarded silently instead of tripping the id-match check. *)
type slot = { mutable outcome : (Wire.reply, string) result option;
              issued_at : float }

type t = {
  fd : Unix.file_descr;
  wm : Mutex.t;  (* one frame write at a time *)
  m : Mutex.t;  (* pending table + liveness *)
  cv : Condition.t;
  pending : (int, slot) Hashtbl.t;
  read_timeout : float;
  mutable next_id : int;
  mutable dead : string option;
  mutable closing : bool;
  mutable reader : Thread.t option;
}

(* Transport death: every parked waiter gets the same error, present and
   future requests refuse immediately. *)
let fail_all t msg =
  Mutex.protect t.m (fun () ->
      if t.dead = None then t.dead <- Some msg;
      Hashtbl.iter
        (fun _ s -> if s.outcome = None then s.outcome <- Some (Error msg))
        t.pending;
      Condition.broadcast t.cv)

let sweep_timeouts t =
  let now = Unix.gettimeofday () in
  Mutex.protect t.m (fun () ->
      let fired = ref false in
      Hashtbl.iter
        (fun _ s ->
          if s.outcome = None && now -. s.issued_at >= t.read_timeout then begin
            s.outcome <-
              Some
                (Error
                   (Printf.sprintf "no reply within %.1fs" t.read_timeout));
            fired := true
          end)
        t.pending;
      if !fired then Condition.broadcast t.cv)

let dispatch t resp =
  match Json.of_string resp with
  | Error msg -> Some (Printf.sprintf "bad reply JSON: %s" msg)
  | Ok j -> (
    match Wire.reply_of_json j with
    | Error msg -> Some (Printf.sprintf "bad reply: %s" msg)
    | Ok (rid, reply) ->
      Mutex.protect t.m (fun () ->
          match Hashtbl.find_opt t.pending rid with
          | Some s when s.outcome = None ->
            s.outcome <- Some (Ok reply);
            Condition.broadcast t.cv
          | Some _ | None ->
            (* reply to a request whose waiter already timed out (or an id
               we never issued — the daemon answers unparseable frames
               with id 0): drop it, the stream itself is still healthy *)
            ());
      None)

(* The demultiplexer: one thread per connection pulls frames off the wire
   and fills waiter slots by frame id. It ticks (0.25 s select) so
   per-reply timeouts fire and [close] is prompt even when the daemon
   never answers. *)
let reader_loop t =
  let rec loop () =
    if Mutex.protect t.m (fun () -> t.closing || t.dead <> None) then ()
    else
      match Unix.select [ t.fd ] [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (e, _, _) ->
        fail_all t (Unix.error_message e)
      | [], _, _ ->
        sweep_timeouts t;
        loop ()
      | _ :: _, _, _ -> (
        match Wire.read_frame t.fd with
        | Error e -> fail_all t (Wire.pp_io_error e)
        | Ok resp -> (
          match dispatch t resp with
          | Some msg -> fail_all t msg
          | None ->
            sweep_timeouts t;
            loop ()))
  in
  loop ()

let connect ?(read_timeout = 60.) addr =
  (* A write racing the peer's hangup must surface as EPIPE -> Closed ->
     Error, not kill the whole process (routers hold connections to
     shards that die abruptly, by design). *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let mk () =
    match addr with
    | Unix_sock path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (fd, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
      let ip =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (fd, Unix.ADDR_INET (ip, port))
  in
  match mk () with
  | exception (Unix.Unix_error (e, _, _)) ->
    Error (Unix.error_message e)
  | exception Failure msg -> Error msg
  | fd, sockaddr -> (
    match Unix.connect fd sockaddr with
    | () ->
      let t =
        {
          fd;
          wm = Mutex.create ();
          m = Mutex.create ();
          cv = Condition.create ();
          pending = Hashtbl.create 8;
          read_timeout = Float.max 0.1 read_timeout;
          next_id = 0;
          dead = None;
          closing = false;
          reader = None;
        }
      in
      t.reader <- Some (Thread.create reader_loop t);
      Ok t
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "connect %s: %s" (pp_addr addr)
           (Unix.error_message e)))

let close t =
  let first =
    Mutex.protect t.m (fun () ->
        if t.closing then false
        else begin
          t.closing <- true;
          Condition.broadcast t.cv;
          true
        end)
  in
  if first then begin
    (* shutdown (not close) wakes a reader blocked mid-read with EOF *)
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (match t.reader with
     | Some th -> ( try Thread.join th with _ -> ())
     | None -> ());
    fail_all t "client closed";
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let alive t = Mutex.protect t.m (fun () -> t.dead = None && not t.closing)

let wait_ready ?(timeout = 5.) addr =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match connect addr with
    | Ok _ as ok -> ok
    | Error msg ->
      if Unix.gettimeofday () -. t0 >= timeout then
        Error (Printf.sprintf "daemon not ready after %.1fs: %s" timeout msg)
      else begin
        Thread.delay 0.05;
        go ()
      end
  in
  go ()

(* Pipelined request: register a slot, write the frame (only the write is
   serialized), park until the reader fills the slot. Any number of
   threads may have requests in flight on the same connection. *)
let request_once t req =
  let slot = { outcome = None; issued_at = Unix.gettimeofday () } in
  let registered =
    Mutex.protect t.m (fun () ->
        match t.dead with
        | Some msg -> Error msg
        | None ->
          if t.closing then Error "client closed"
          else begin
            t.next_id <- t.next_id + 1;
            Hashtbl.replace t.pending t.next_id slot;
            Ok t.next_id
          end)
  in
  match registered with
  | Error msg -> Error msg
  | Ok id -> (
    let payload = Json.to_string (Wire.request_to_json ~id req) in
    match Mutex.protect t.wm (fun () -> Wire.write_frame t.fd payload) with
    | Error e ->
      let msg = Wire.pp_io_error e in
      Mutex.protect t.m (fun () -> Hashtbl.remove t.pending id);
      fail_all t msg;
      Error msg
    | Ok () ->
      Mutex.lock t.m;
      while slot.outcome = None do
        Condition.wait t.cv t.m
      done;
      Hashtbl.remove t.pending id;
      Mutex.unlock t.m;
      (match slot.outcome with
       | Some r -> r
       | None -> Error "impossible: empty slot after wakeup"))

(* ---- retry policy for shed replies ------------------------------------ *)

type retry = { budget_s : float; max_tries : int; seed : int }

let retry ?(budget_s = 2.0) ?(max_tries = 8) ?(seed = 0) () =
  { budget_s = Float.max 0. budget_s; max_tries = max 1 max_tries; seed }

(* The pause before retry [attempt] (0-based): the server's [retry_after_s]
   hint (50 ms when absent) doubled per attempt, jittered in [0.5, 1.5),
   and never past the remaining budget. *)
let backoff rng ~hint ~attempt ~remaining =
  let hint = match hint with Some s when s > 0. -> s | _ -> 0.05 in
  Float.min remaining (hint *. (2. ** float_of_int attempt) *. (0.5 +. Rng.float rng))

(* Retry [overloaded] refusals after {!backoff}. Every other outcome —
   success, other errors, transport failure — returns immediately: only
   the typed "try again later" is worth trying again. *)
let with_retry retry f =
  let t0 = Unix.gettimeofday () in
  let rng = Rng.create (retry.seed lxor 0x52455452) in
  let rec go attempt =
    let r = f () in
    match r with
    | Ok (Wire.Err { Wire.code = Wire.Overloaded; retry_after_s; _ }) ->
      let remaining = retry.budget_s -. (Unix.gettimeofday () -. t0) in
      if attempt + 1 >= retry.max_tries || remaining <= 0. then r
      else begin
        Thread.delay (backoff rng ~hint:retry_after_s ~attempt ~remaining);
        go (attempt + 1)
      end
    | r -> r
  in
  go 0

let request ?retry:r t req =
  match r with
  | None -> request_once t req
  | Some r -> with_retry r (fun () -> request_once t req)

let synth ?timeout ?deadline ?fallback ?retry t spec =
  request ?retry t
    (Wire.Synth { spec; params = { Wire.timeout; deadline; fallback } })

let stats t = request t Wire.Stats
let health t = request t Wire.Health
let ping t = request t Wire.Ping
let shutdown t = request t Wire.Shutdown
