(* perfbench: the repository's benchmark.

     perfbench --workload minimize|compile|serve --seed N --seconds S
               --trace 0|1 [--trace-out FILE]
     perfbench gen-answers > perfbench/minimize_answers.txt

   With --trace 0 a run times the workload untraced and prints its
   end-to-end metrics; with --trace 1 it runs one untraced and one traced
   pass, writes the spans as Chrome trace-event JSON and prints the
   per-layer metrics. The last line of standard output is the result:
   {"correct", "attempted", "failed", "metrics"}; the line before it
   carries the host, the seed and the run's deterministic counts. *)

module Json = Mm_report.Json

let usage () =
  prerr_endline
    "usage: perfbench --workload minimize|compile|serve --seed N --seconds S \
     --trace 0|1 [--trace-out FILE]\n       perfbench gen-answers";
  exit 2

let workloads =
  [ ("minimize", Minimize.run); ("compile", Compile.run); ("serve", Serve.run) ]

let main args =
  let rec parse acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload = get "workload" and seed = int "seed" and seconds = int "seconds" in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let run = match List.assoc_opt workload workloads with Some r -> r | None -> usage () in
  let trace_out =
    match List.assoc_opt "trace-out" opts with
    | Some f -> f
    | None -> Printf.sprintf ".perfbench/trace-%s-seed%d.json" workload seed
  in
  let steal0, total0 = Util.cpu_jiffies () in
  let r = run ~seed ~seconds:(float_of_int seconds) ~trace ~trace_out in
  let steal1, total1 = Util.cpu_jiffies () in
  (* share of the machine's CPU time the hypervisor took during the run:
     the main cause of run-to-run spread on a shared virtual machine *)
  let steal_pct =
    if total1 > total0 then
      100. *. float_of_int (steal1 - steal0) /. float_of_int (total1 - total0)
    else 0.
  in
  let correct = r.Util.failed = 0 && r.Util.problems = [] in
  List.iteri
    (fun i p -> if i < 20 then Printf.eprintf "perfbench: %s\n" p)
    r.Util.problems;
  let context =
    Json.Obj
      ([ ("workload", Json.String workload);
         ("seed", Json.Int seed);
         ("seconds", Json.Int seconds);
         ("trace", Json.Bool trace);
         ("host", Util.host_json ());
         ("host_steal_pct", Json.Float steal_pct);
         ("counts", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.Util.counts)) ]
      @ (if trace then [ ("trace_file", Json.String trace_out) ] else [])
      @ r.Util.info)
  in
  print_endline (Json.to_string (Json.Obj [ ("context", context) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int r.Util.attempted);
            ("failed", Json.Int r.Util.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (m : Util.metric) ->
                     ( m.Util.name,
                       Json.Obj
                         [ ("value", Json.Float m.Util.value);
                           ("unit", Json.String m.Util.unit_) ] ))
                   r.Util.metrics) ) ]))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "gen-answers" ] -> Minimize.gen_answers ()
  | args -> main args
