(* Shared helpers: monotonic clock, order statistics, process facts and the
   result record every workload returns. *)

module Json = Mm_report.Json

(* CLOCK_MONOTONIC, in seconds. [Unix.gettimeofday] follows wall-clock
   adjustments, so no benchmark time is taken from it. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks ([q] in [0, 1]). *)
let quantile_a q a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile q xs = quantile_a q (Array.of_list xs)
let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs

(* Peak resident set size of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> nan
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
      else scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Jiffies the hypervisor stole from this machine's CPUs, and all CPU
   jiffies, from the first line of /proc/stat. *)
let cpu_jiffies () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields when List.length fields >= 8 ->
      let v = List.filteri (fun i _ -> i < 8) (List.map int_of_string fields) in
      (List.nth v 7, List.fold_left ( + ) 0 v)
    | _ -> (0, 0))
  | None -> (0, 0)

let rng seed = Random.State.make [| 0x6d6d; seed |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The commit of the checkout when it is a git work tree, read from
   [.git] directly so no subprocess is started; ["none"] outside one and
   ["unknown"] when the branch's ref is packed. *)
let git_rev () =
  match String.trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "none"
  | head -> (
    match String.split_on_char ' ' head with
    | [ "ref:"; name ] -> (
      try String.trim (read_file (Filename.concat ".git" name))
      with Sys_error _ -> "unknown")
    | _ -> head)

(* Online CPUs of the machine (the process itself may be pinned to fewer,
   which [Domain.recommended_domain_count] reports). *)
let online_cpus () =
  read_file "/proc/cpuinfo" |> String.split_on_char '\n'
  |> List.filter (fun l -> String.starts_with ~prefix:"processor" l)
  |> List.length

let host_json () =
  Json.Obj
    [ ("nproc", Json.Int (online_cpus ()));
      ("cpus_usable", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("git_rev", Json.String (git_rev ())) ]

(* What one benchmark process reports. [counts] are the per-pass
   deterministic counts: every pass of a run, and every run of one seed,
   must reproduce them exactly. *)
type metric = { name : string; value : float; unit_ : string }

type report = {
  attempted : int;
  failed : int;
  problems : string list;  (** why the run is not correct, if it is not *)
  metrics : metric list;
  counts : (string * int) list;
  info : (string * Json.t) list;  (** run facts printed beside the result *)
}

let metric name unit_ value = { name; value; unit_ }

(* Every pass must reproduce the counts of the first one. *)
let check_counts passes =
  match passes with
  | [] | [ _ ] -> []
  | first :: rest ->
    List.concat_map
      (fun other ->
        List.filter_map
          (fun (k, v) ->
            match List.assoc_opt k other with
            | Some v' when v' = v -> None
            | Some v' ->
              Some (Printf.sprintf "count %s: %d on one pass, %d on another" k v v')
            | None -> Some (Printf.sprintf "count %s missing on a pass" k))
          first)
      rest

(* Run [pass] at least once and again while another pass is expected to
   fit in [seconds] (the projection uses the slowest pass so far). Each
   pass's output is reduced by [digest] outside the timed interval, so a
   run keeps no more than one pass's raw output alive. Returns each pass's
   digest and wall time. *)
let repeat_passes ~seconds ~digest pass =
  let t0 = now () in
  let rec go acc slowest =
    let r, dt = time pass in
    let acc = (digest r, dt) :: acc in
    let slowest = Float.max slowest dt in
    if now () -. t0 +. slowest <= seconds then go acc slowest
    else List.rev acc
  in
  go [] 0.
