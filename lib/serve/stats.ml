module Json = Mm_report.Json
module Engine = Mm_engine.Engine

module Hist = struct
  (* Geometric buckets: bucket i covers [b0 * r^i, b0 * r^(i+1)) with
     b0 = 1e-6 s and r = 10^(1/6), so 6 buckets per decade and 60 buckets
     reach 10^4 s. Percentiles report the bucket's upper bound — at most
     one ratio (~47%) above the true value, never below it. *)
  let n_buckets = 60
  let b0 = 1e-6
  let per_decade = 6.

  type t = {
    counts : int array;
    mutable total : int;
    mutable sum : float;
    mutable max_seen : float;
  }

  let create () =
    { counts = Array.make n_buckets 0; total = 0; sum = 0.; max_seen = 0. }

  let index x =
    if x <= b0 then 0
    else
      let i = int_of_float (Float.floor (Float.log10 (x /. b0) *. per_decade)) in
      if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

  let observe t x =
    let x = Float.max 0. x in
    t.counts.(index x) <- t.counts.(index x) + 1;
    t.total <- t.total + 1;
    t.sum <- t.sum +. x;
    if x > t.max_seen then t.max_seen <- x

  let count t = t.total

  let bound i = b0 *. (10. ** (float_of_int (i + 1) /. per_decade))

  let percentile t p =
    if t.total = 0 then 0.
    else begin
      let rank =
        Float.max 1. (Float.round (p *. float_of_int t.total))
      in
      let rec go i cum =
        if i >= n_buckets then t.max_seen
        else
          let cum = cum + t.counts.(i) in
          if float_of_int cum >= rank then Float.min (bound i) t.max_seen
          else go (i + 1) cum
      in
      go 0 0
    end

  let mean t = if t.total = 0 then 0. else t.sum /. float_of_int t.total
  let max_seen t = t.max_seen

  let to_json t =
    Json.Obj
      [
        ("count", Json.Int t.total);
        ("mean_s", Json.Float (mean t));
        ("p50_s", Json.Float (percentile t 0.50));
        ("p95_s", Json.Float (percentile t 0.95));
        ("p99_s", Json.Float (percentile t 0.99));
        ("max_s", Json.Float t.max_seen);
      ]
end

type t = {
  started_at : float;
  m : Mutex.t;
  requests : (string, int) Hashtbl.t;  (* per op tag *)
  mutable ok : int;
  errors : (string, int) Hashtbl.t;  (* per error-code tag *)
  mutable conns_accepted : int;
  mutable conns_dropped : int;
  mutable batches : int;
  mutable inline : int;
  mutable engine : Engine.summary;
  queue_wait : Hist.t;
  synth : Hist.t;
  total : Hist.t;
}

let create () =
  {
    started_at = Unix.gettimeofday ();
    m = Mutex.create ();
    requests = Hashtbl.create 8;
    ok = 0;
    errors = Hashtbl.create 8;
    conns_accepted = 0;
    conns_dropped = 0;
    batches = 0;
    inline = 0;
    engine = Engine.empty_summary;
    queue_wait = Hist.create ();
    synth = Hist.create ();
    total = Hist.create ();
  }

let uptime_s t = Unix.gettimeofday () -. t.started_at

let bump tbl k =
  Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0)

let note_request t ~op = Mutex.protect t.m (fun () -> bump t.requests op)
let note_reply_ok t = Mutex.protect t.m (fun () -> t.ok <- t.ok + 1)

let note_reply_err t code =
  Mutex.protect t.m (fun () -> bump t.errors (Wire.code_tag code))

let note_conn_accepted t =
  Mutex.protect t.m (fun () -> t.conns_accepted <- t.conns_accepted + 1)

let note_conn_dropped t =
  Mutex.protect t.m (fun () -> t.conns_dropped <- t.conns_dropped + 1)

let note_batch t summary =
  Mutex.protect t.m (fun () ->
      t.batches <- t.batches + 1;
      t.engine <- Engine.add_summary t.engine summary)

let note_inline t summary =
  Mutex.protect t.m (fun () ->
      t.inline <- t.inline + 1;
      t.engine <- Engine.add_summary t.engine summary;
      Hist.observe t.queue_wait 0.;
      Hist.observe t.synth summary.Engine.wall_s)

let observe_queue_wait t x =
  Mutex.protect t.m (fun () -> Hist.observe t.queue_wait x)

let observe_synth t x = Mutex.protect t.m (fun () -> Hist.observe t.synth x)
let observe_total t x = Mutex.protect t.m (fun () -> Hist.observe t.total x)

let snapshot t ~shard ~queue_depth ~active_conns ~draining ~cache_entries =
  Mutex.protect t.m (fun () ->
      let tbl_json tbl =
        Json.Obj
          (List.sort compare
             (Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) tbl []))
      in
      Json.Obj
        [
          (* v5: embedded engine summary moved to mmsynth-stats-v4
             (restarts + imported_clauses); v6: to mmsynth-stats-v5
             (imported_clauses removed); v7: [inline] answers *)
          ("schema", Json.String "mmsynth-serve-stats-v7");
          ("shard", Json.String shard);
          ("protocol_version", Json.Int Wire.protocol_version);
          ("uptime_s", Json.Float (uptime_s t));
          ("draining", Json.Bool draining);
          ("queue_depth", Json.Int queue_depth);
          ( "connections",
            Json.Obj
              [
                ("accepted", Json.Int t.conns_accepted);
                ("active", Json.Int active_conns);
                ("dropped", Json.Int t.conns_dropped);
              ] );
          ("requests", tbl_json t.requests);
          ( "replies",
            Json.Obj
              (("ok", Json.Int t.ok)
               ::
               (match tbl_json t.errors with
                | Json.Obj kvs -> kvs
                | _ -> [])) );
          ("batches", Json.Int t.batches);
          ("inline", Json.Int t.inline);
          ("engine", Engine.stats_to_json t.engine);
          ( "cache_entries",
            match cache_entries with None -> Json.Null | Some n -> Json.Int n );
          ( "latency",
            Json.Obj
              [
                ("queue_wait", Hist.to_json t.queue_wait);
                ("synth", Hist.to_json t.synth);
                ("total", Hist.to_json t.total);
              ] );
        ])
