(* Workload [serve]: an in-process [mmsynth serve] daemon answering
   single-output 3-input functions from the shipped atlas, driven by one
   client connection in a closed loop (each request waits for its reply,
   as [mmsynth client] does). No SAT runs on this path: the work is the
   wire protocol, the per-frame threads and dispatcher (Mm_serve),
   Engine.run, Npn and the atlas. *)

module Tt = Mm_boolfun.Truth_table
module Spec = Mm_boolfun.Spec
module Npn = Mm_engine.Npn
module Engine = Mm_engine.Engine
module Cache = Mm_engine.Cache
module Atlas = Mm_atlas.Atlas
module Circuit = Mm_core.Circuit
module Server = Mm_serve.Server
module Client = Mm_serve.Client
module Wire = Mm_serve.Wire
module Artifact = Mm_resyn.Artifact
module Json = Mm_report.Json
open Util

let atlas_path = "examples/atlas-tier1.mmatlas"

(* A pass sends [perms_per_pass] seeded permutations of all 256 3-input
   functions, so every pass covers the whole space the same number of
   times and its counts do not depend on the seed. *)
let perms_per_pass = 16
let setup_reps = 5

let spec_of v = Spec.make ~name:(Printf.sprintf "f%02x" v) [| Tt.of_int 3 v |]
let specs = Array.init 256 spec_of

let stream ~seed =
  let st = Util.rng seed in
  Array.concat (List.init perms_per_pass (fun _ -> Util.shuffle st (Array.init 256 Fun.id)))

type daemon = {
  atlas : Atlas.t;
  cache : Cache.t;
  engine : Engine.config;
  server : Server.t;
  client : Client.t;
}

let fail_on = function Ok x -> x | Error msg -> failwith msg

(* [mmsynth serve --atlas examples/atlas-tier1.mmatlas] with every other
   flag at its default, started in this process; the client connects
   directly (no readiness polling). Warm-up requests, one per function,
   belong to set-up. *)
let start () =
  if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
  let socket = Printf.sprintf ".perfbench/serve-%d.sock" (Unix.getpid ()) in
  let atlas =
    match Atlas.load atlas_path with
    | Ok a -> a
    | Error e -> failwith (Format.asprintf "%s: %a" atlas_path Atlas.pp_error e)
  in
  let cache = Cache.create () in
  Atlas.attach atlas cache;
  let engine = Engine.config ~cache () in
  let server = fail_on (Server.start (Server.config ~engine ~socket_path:socket ())) in
  let client = fail_on (Client.connect (Client.Unix_sock socket)) in
  Array.iter (fun s -> ignore (Client.synth client s)) specs;
  { atlas; cache; engine; server; client }

let stop d =
  Client.close d.client;
  Server.stop d.server

(* What the daemon answered for one request, as far as the checks need. *)
type answer = {
  provenance : string;
  n_rops : int;
  n_steps : int;
  circuit : Json.t;
}

let answer_of = function
  | Ok (Wire.Result j) -> (
    let str k = Option.bind (Json.member k j) Json.to_str in
    let int k = Option.bind (Json.member k j) Json.to_int in
    match (str "provenance", int "n_rops", int "n_steps", Json.member "circuit" j) with
    | Some provenance, Some n_rops, Some n_steps, Some circuit ->
      Ok { provenance; n_rops; n_steps; circuit }
    | _ -> Error "reply lacks provenance, n_rops, n_steps or circuit")
  | Ok (Wire.Err e) -> Error (Wire.code_tag e.Wire.code ^ ": " ^ e.Wire.msg)
  | Error msg -> Error ("lost: " ^ msg)

type outcome = { fn : int; latency : float; reply : (Wire.reply, string) result }

(* One closed-loop pass: send, wait for the reply, send the next. *)
let request d fn =
  let t0 = now () in
  let reply = Client.synth d.client specs.(fn) in
  { fn; latency = now () -. t0; reply }

let pass d stream = Array.map (request d) stream

(* In-process reference answers: Engine.run on the daemon's own engine
   configuration and cache, one function at a time. *)
let reference d =
  Array.map
    (fun s ->
      let r, _ = Engine.run d.engine [| s |] in
      r.(0))
    specs

(* Line-array cycles of one evaluation of the answer: one per V-step, one
   per R-op and one readout per output. *)
let cycles_of (r : Engine.job_result) =
  match r.Engine.circuit with
  | Some c -> Circuit.n_steps c + Circuit.n_outputs c
  | None -> 0

let check_pass refs outcomes =
  let verified = Hashtbl.create 256 in
  let problem o =
    let r = refs.(o.fn) in
    match answer_of o.reply with
    | Error msg -> Some msg
    | Ok a -> (
      let ref_c = Option.get r.Engine.circuit in
      if a.provenance <> "atlas" then Some ("provenance " ^ a.provenance)
      else if (a.n_rops, a.n_steps) <> (Circuit.n_rops ref_c, Circuit.n_steps ref_c)
      then Some "n_rops/n_steps differ from the in-process Engine.run answer"
      else
        (* the served circuit itself must realize the function; identical
           replies are parsed once *)
        let key = (o.fn, Json.to_string a.circuit) in
        if Hashtbl.mem verified key then None
        else
          match Artifact.circuit_of_json a.circuit with
          | Error msg -> Some ("circuit: " ^ msg)
          | Ok c when Circuit.realizes c specs.(o.fn) = Ok () ->
            Hashtbl.add verified key ();
            None
          | Ok _ -> Some "served circuit does not realize the function")
  in
  let problems =
    Array.to_list outcomes
    |> List.filter_map (fun o ->
           Option.map (fun m -> Printf.sprintf "request for f%02x: %s" o.fn m) (problem o))
  in
  let steps = ref 0 and cycles = ref 0 in
  Array.iter
    (fun o ->
      match answer_of o.reply with
      | Ok a ->
        steps := !steps + a.n_steps;
        cycles := !cycles + cycles_of refs.(o.fn)
      | Error _ -> ())
    outcomes;
  ( List.length problems,
    problems,
    [ ("requests", Array.length outcomes); ("steps_total", !steps);
      ("cycles_total", !cycles) ] )

let reference_problems refs =
  Array.to_list refs
  |> List.filter_map (fun (r : Engine.job_result) ->
         if r.Engine.provenance = Engine.From_atlas && r.Engine.circuit <> None then None
         else Some (Spec.name r.Engine.spec ^ ": in-process Engine.run did not answer from the atlas"))

(* Attribution-only calls for every request of the traced pass: the
   in-process Engine.run (with its Npn.canon and Atlas.find parts timed
   alone too) and the wire encode/decode of the same payloads. *)
let attribute d outcomes =
  Array.iteri
    (fun op o ->
      let spec = specs.(o.fn) and f = Tt.of_int 3 o.fn in
      Trace.span ~op ~aux:true "engine" (fun () -> ignore (Engine.run d.engine [| spec |]));
      Trace.span ~op ~aux:true "npn" (fun () -> ignore (Npn.canon f));
      Trace.span ~op ~aux:true "atlas" (fun () ->
          ignore
            (Atlas.find d.atlas ~mode:Atlas.Mixed ~rop_kind:d.engine.Engine.rop_kind
               ~taps:d.engine.Engine.taps f));
      Trace.span ~op ~aux:true "wire" (fun () ->
          let req = Wire.Synth { spec; params = Wire.no_params } in
          (match Json.of_string (Json.to_string (Wire.request_to_json ~id:op req)) with
           | Ok j -> ignore (Wire.request_of_json j)
           | Error _ -> ());
          match o.reply with
          | Ok (Wire.Result r) -> (
            match Json.of_string (Json.to_string (Wire.ok_json ~id:op r)) with
            | Ok j -> ignore (Wire.reply_of_json j)
            | Error _ -> ())
          | Ok (Wire.Err _) | Error _ -> ()))
    outcomes

let run ~seed ~seconds ~trace ~trace_out =
  let setups =
    List.init setup_reps (fun i ->
        let d, dt = time start in
        if i < setup_reps - 1 then stop d;
        (d, dt))
  in
  let d = fst (List.nth setups (setup_reps - 1)) in
  let setup_s = median (List.map snd setups) in
  let stream = stream ~seed in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  if not trace then begin
    (* the reference answers are computed after the first pass, outside
       every timed interval *)
    let refs = lazy (reference d) in
    let passes =
      repeat_passes ~seconds
        ~digest:(fun os ->
          let ms = Array.map (fun o -> 1000. *. o.latency) os in
          (check_pass (Lazy.force refs) os, (quantile_a 0.5 ms, quantile_a 0.9 ms)))
        (fun () -> pass d stream)
    in
    let refs = Lazy.force refs in
    let checked = List.map (fun ((c, _), _) -> c) passes in
    let peak_rss = peak_rss_mb () in
    (* each pass's latency percentiles, then their median over the passes:
       a disturbance of the host during fewer than half the passes does not
       move them *)
    let pass_pct f = median (List.map (fun ((_, q), _) -> f q) passes) in
    let walls = List.map snd passes in
    let _, _, counts = List.hd checked in
    let count k = float_of_int (List.assoc k counts) in
    { attempted = Array.length stream * List.length passes;
      failed = List.fold_left (fun acc (f, _, _) -> acc + f) 0 checked;
      problems =
        reference_problems refs
        @ List.concat_map (fun (_, p, _) -> p) checked
        @ check_counts (List.map (fun (_, _, c) -> c) checked);
      counts;
      info =
        [ ("pass_walls_s", Json.List (List.map (fun w -> Json.Float w) walls));
          ("pass_p50_ms", Json.List (List.map (fun ((_, (a, _)), _) -> Json.Float a) passes));
          ("pass_p90_ms", Json.List (List.map (fun ((_, (_, b)), _) -> Json.Float b) passes)) ];
      metrics =
        [ metric "setup_s" "s" setup_s;
          metric "wall_s" "s" (median walls);
          metric "p50_ms" "ms" (pass_pct fst);
          metric "p90_ms" "ms" (pass_pct snd);
          metric "peak_rss_mb" "MiB" peak_rss;
          metric "steps_total" "count" (count "steps_total");
          metric "cycles_total" "count" (count "cycles_total") ] }
  end
  else begin
    let plain, plain_wall = time (fun () -> pass d stream) in
    Trace.reset ();
    let atlas_hits = ref 0 and cache_hits = ref 0 in
    let traced, traced_wall =
      time (fun () ->
          Trace.span "pass" (fun () ->
              Array.mapi
                (fun op fn ->
                  let o = request d fn in
                  Trace.add_measured ~op "serve.request" ~dur:o.latency;
                  (* Engine.run resets the cache counters per batch, so
                     after a reply they hold that request's batch only *)
                  let c = Cache.counters d.cache in
                  atlas_hits := !atlas_hits + c.Cache.atlas_hits;
                  cache_hits := !cache_hits + c.Cache.hits;
                  o)
                stream))
    in
    attribute d traced;
    Trace.write_chrome ~path:trace_out
      ~meta:(Json.Obj [ ("workload", Json.String "serve"); ("seed", Json.Int seed) ]);
    let refs = reference d in
    let f1, p1, c1 = check_pass refs plain and f2, p2, c2 = check_pass refs traced in
    let round_trips = Trace.total_time "serve.request" in
    let aux = Trace.total_time ~aux:true in
    { attempted = Array.length plain + Array.length traced;
      failed = f1 + f2;
      problems =
        reference_problems refs @ p1 @ p2
        @ List.map (fun m -> "traced pass: " ^ m) (check_counts [ c1; c2 ]);
      counts = c2;
      info = [];
      metrics =
        Layers.report ~traced_wall ~plain_wall ~attributed:round_trips
          [ ("engine.s", aux "engine");
            ("npn.s", aux "npn");
            ("atlas.s", aux "atlas");
            ("wire.s", aux "wire");
            ("server.rest_s", round_trips -. aux "engine" -. aux "wire");
            ("atlas.hits", float_of_int !atlas_hits);
            ("cache.hits", float_of_int !cache_hits) ] }
  end
