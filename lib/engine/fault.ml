module Rng = Mm_device.Rng

type stage = Worker | Solver | Cache_read | Cache_write | Verify | Conn

type action = Crash | Delay of float | Unknown_result | Kill | Refuse

type rule = { stage : stage; rate : float; action : action; only : string option }

type t = { seed : int; rules : rule list }

exception Injected of string

let stage_tag = function
  | Worker -> "worker"
  | Solver -> "solver"
  | Cache_read -> "cache-read"
  | Cache_write -> "cache-write"
  | Verify -> "verify"
  | Conn -> "conn"

let rule ?only stage rate action =
  { stage; rate = Float.min 1. (Float.max 0. rate); action; only }

let create ~seed rules = { seed; rules }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* One decision per (seed, stage, rule index, key): hash the coordinates
   into a splitmix64 seed and draw a single uniform. Pure — no stream is
   shared between call sites, so worker scheduling cannot perturb it. *)
let fires t ~stage ~key i (r : rule) =
  r.stage = stage
  && (match r.only with None -> true | Some sub -> contains key sub)
  && r.rate > 0.
  && (r.rate >= 1.
     ||
     let h = Hashtbl.hash (stage_tag stage, key, i) in
     Rng.float (Rng.create (t.seed lxor (h * 0x9e3779b9))) < r.rate)

let decide t ~stage ~key =
  let rec go i = function
    | [] -> None
    | r :: rest -> if fires t ~stage ~key i r then Some r.action else go (i + 1) rest
  in
  go 0 t.rules

let guard plan ~stage ~key f =
  match plan with
  | None -> f ()
  | Some t -> (
    match decide t ~stage ~key with
    | Some Crash ->
      raise
        (Injected (Printf.sprintf "injected crash at %s (%s)" (stage_tag stage) key))
    | Some (Delay s) ->
      Unix.sleepf s;
      f ()
    (* Kill/Refuse are serve-layer verdicts: inside an engine stage they
       have no sensible meaning, so they pass through like no fault *)
    | Some (Unknown_result | Kill | Refuse) | None -> f ())

let forced_unknown plan ~stage ~key =
  match plan with
  | None -> false
  | Some t -> decide t ~stage ~key = Some Unknown_result

let corrupt_file ?(seed = 0) ?(offset = 64) path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let buf = Bytes.create len in
  really_input ic buf 0 len;
  close_in ic;
  let start = min offset (max 0 (len - 1)) in
  if len > start then begin
    let rng = Rng.create (seed lxor 0x5bd1e995) in
    for _ = 1 to 8 do
      let i = start + Rng.int rng (len - start) in
      Bytes.set buf i (Char.chr (Char.code (Bytes.get buf i) lxor 0xff))
    done;
    let oc = open_out_bin path in
    output_bytes oc buf;
    close_out oc
  end

let parse_spec s =
  let parse_one part =
    match String.split_on_char ':' (String.trim part) with
    | [ stage; rate ] -> (
      match float_of_string_opt rate with
      | None -> Error (Printf.sprintf "bad rate %S in %S" rate part)
      | Some rate -> (
        match stage with
        | "worker" -> Ok (rule Worker rate Crash)
        | "solver" -> Ok (rule Solver rate Unknown_result)
        | "cache-read" -> Ok (rule Cache_read rate Crash)
        | "cache-write" -> Ok (rule Cache_write rate Crash)
        | "verify" -> Ok (rule Verify rate Crash)
        | "conn" -> Ok (rule Conn rate Crash)
        | "kill" -> Ok (rule Conn rate Kill)
        | "partition" -> Ok (rule Conn rate Refuse)
        | _ ->
          Error
            (Printf.sprintf
               "unknown stage %S \
                (worker|solver|cache-read|cache-write|verify|conn|kill|\
                 partition)"
               stage)))
    | _ -> Error (Printf.sprintf "expected stage:rate, got %S" part)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
      match parse_one p with Ok r -> go (r :: acc) rest | Error _ as e -> e)
  in
  go [] (String.split_on_char ',' s)
