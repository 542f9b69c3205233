type spawn = { id : string; argv : string array }

type proc = {
  spec : spawn;
  mutable pid : int;  (* 0 = not running *)
  mutable restarts : int;
  mutable next_start : float;  (* earliest restart time (backoff) *)
}

type t = {
  m : Mutex.t;
  procs : proc array;
  restart_base_s : float;
  restart_cap_s : float;
  mutable stopping : bool;
  mutable thread : Thread.t option;
  log : (string -> unit) option;
}

let logf t fmt =
  Printf.ksprintf (fun s -> match t.log with Some f -> f s | None -> ()) fmt

let now () = Unix.gettimeofday ()

let spawn_proc t p =
  let argv = p.spec.argv in
  let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr in
  p.pid <- pid;
  logf t "shard %s: started pid %d%s" p.spec.id pid
    (if p.restarts > 0 then Printf.sprintf " (restart #%d)" p.restarts else "")

(* Reap exits and restart crashed shards with exponential backoff.
   Called under t.m. *)
let poll_locked t =
  Array.iter
    (fun p ->
      if p.pid > 0 then begin
        match Unix.waitpid [ Unix.WNOHANG ] p.pid with
        | 0, _ -> ()
        | _, status ->
            let why =
              match status with
              | Unix.WEXITED c -> Printf.sprintf "exit %d" c
              | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
              | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s
            in
            logf t "shard %s: pid %d died (%s)" p.spec.id p.pid why;
            p.pid <- 0;
            if not t.stopping then begin
              let delay =
                Float.min t.restart_cap_s
                  (t.restart_base_s *. (2.0 ** float_of_int p.restarts))
              in
              p.restarts <- p.restarts + 1;
              p.next_start <- now () +. delay
            end
        | exception Unix.Unix_error _ -> p.pid <- 0
      end
      else if (not t.stopping) && p.restarts > 0 && now () >= p.next_start
      then
        match spawn_proc t p with
        | () -> ()
        | exception Unix.Unix_error (e, _, _) ->
            logf t "shard %s: restart failed: %s" p.spec.id
              (Unix.error_message e);
            p.next_start <- now () +. t.restart_cap_s)
    t.procs

let supervise_loop t () =
  while not (Mutex.protect t.m (fun () -> t.stopping)) do
    Mutex.protect t.m (fun () -> poll_locked t);
    Thread.delay 0.1
  done

let start ?(restart_base_s = 0.2) ?(restart_cap_s = 5.0) ?log specs =
  if specs = [] then invalid_arg "Supervisor.start: no shards";
  let t =
    {
      m = Mutex.create ();
      procs =
        Array.of_list
          (List.map
             (fun spec -> { spec; pid = 0; restarts = 0; next_start = 0.0 })
             specs);
      restart_base_s;
      restart_cap_s;
      stopping = false;
      thread = None;
      log;
    }
  in
  Mutex.protect t.m (fun () -> Array.iter (fun p -> spawn_proc t p) t.procs);
  t.thread <- Some (Thread.create (supervise_loop t) ());
  t

let restarts t =
  Mutex.protect t.m (fun () ->
      Array.fold_left (fun n p -> n + p.restarts) 0 t.procs)

(* Chaos: SIGKILL one shard — no drain, no warning. The supervise loop
   notices and restarts it with backoff; the router must ride it out. *)
let kill_one t i =
  Mutex.protect t.m (fun () ->
      if i < 0 || i >= Array.length t.procs then ()
      else
        let p = t.procs.(i) in
        if p.pid > 0 then begin
          logf t "chaos: SIGKILL shard %s (pid %d)" p.spec.id p.pid;
          try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ()
        end)

let stop ?(term_grace_s = 5.0) t =
  Mutex.protect t.m (fun () -> t.stopping <- true);
  (match t.thread with Some th -> Thread.join th | None -> ());
  t.thread <- None;
  Mutex.protect t.m (fun () ->
      Array.iter
        (fun p ->
          if p.pid > 0 then
            try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ())
        t.procs);
  let deadline = now () +. term_grace_s in
  let all_dead () =
    Mutex.protect t.m (fun () ->
        Array.for_all
          (fun p ->
            if p.pid = 0 then true
            else
              match Unix.waitpid [ Unix.WNOHANG ] p.pid with
              | 0, _ -> false
              | _, _ -> p.pid <- 0; true
              | exception Unix.Unix_error _ -> p.pid <- 0; true)
          t.procs)
  in
  while (not (all_dead ())) && now () < deadline do
    Thread.delay 0.05
  done;
  (* escalate: anything still alive gets SIGKILL + blocking reap *)
  Mutex.protect t.m (fun () ->
      Array.iter
        (fun p ->
          if p.pid > 0 then begin
            (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
            p.pid <- 0
          end)
        t.procs)
