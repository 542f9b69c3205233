type error = { exn : string; backtrace : string }

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

let run_job job =
  try Ok (job ())
  with e ->
    (* capture at the handler, before any other code can clobber it *)
    let backtrace = Printexc.get_backtrace () in
    Error { exn = Printexc.to_string e; backtrace }

let run ?domains jobs =
  Printexc.record_backtrace true;
  let n = Array.length jobs in
  let domains =
    max 1 (min (match domains with Some d -> d | None -> default_domains ()) n)
  in
  if n = 0 then [||]
  else if domains = 1 then Array.map run_job jobs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (run_job jobs.(i));
          loop ()
        end
      in
      loop ()
    in
    let workers = Array.init (domains - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join workers;
    Array.map
      (function
        | Some r -> r
        | None -> failwith "Pool.run: job slot never filled (pool bug)")
      results
  end
