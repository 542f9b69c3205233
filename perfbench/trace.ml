(* Span recorder for the traced run.

   Spans are recorded from the benchmark's own code, around its calls into
   each layer's public functions, on the one thread that drives the
   workload: they nest in call order, so a span's parent is the innermost
   span open when it starts. Each span carries the id of the operation
   (function, spec or request) it belongs to and whether it is
   attribution-only — a call made solely to split a layer's time, which is
   kept out of the traced wall. Everything stays in memory until
   [write_chrome]. *)

module Json = Mm_report.Json

type span = {
  id : int;
  name : string;
  op : int;  (** operation id, -1 when the span belongs to none *)
  parent : int;  (** -1 for a root span *)
  aux : bool;  (** attribution-only *)
  start : float;
  mutable stop : float;
  mutable child_s : float;  (** summed durations of direct children *)
  mutable args : (string * Json.t) list;
}

let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let origin = ref 0.

let reset () =
  spans := [];
  stack := [];
  next_id := 0;
  origin := Util.now ()

let make ~op ~aux name start =
  let parent = match !stack with p :: _ -> p.id | [] -> -1 in
  let op = match (op, !stack) with -1, p :: _ -> p.op | _ -> op in
  let aux = aux || (match !stack with p :: _ -> p.aux | [] -> false) in
  let s =
    { id = !next_id; name; op; parent; aux; start; stop = start; child_s = 0.;
      args = [] }
  in
  incr next_id;
  s

let close s stop =
  s.stop <- stop;
  (match !stack with
   | p :: _ -> p.child_s <- p.child_s +. (stop -. s.start)
   | [] -> ());
  spans := s :: !spans

(* [begin_span]/[end_span] bracket a span whose ends are in different
   callbacks (a solve point opens in the lookup hook and closes in the
   store hook). *)
let begin_span ?(op = -1) ?(aux = false) name =
  let s = make ~op ~aux name (Util.now ()) in
  stack := s :: !stack

let end_span name =
  match !stack with
  | s :: rest when s.name = name ->
    stack := rest;
    close s (Util.now ())
  | _ -> invalid_arg ("Trace.end_span: " ^ name ^ " is not the open span")

let span ?op ?aux name f =
  begin_span ?op ?aux name;
  match f () with
  | r ->
    end_span name;
    r
  | exception e ->
    end_span name;
    raise e

(* Brackets a layer call in a span, or just makes the call, so one code
   path serves both the timed and the traced pass. *)
type tracer = { span : 'a. string -> (unit -> 'a) -> 'a }

let off = { span = (fun _ f -> f ()) }
let on = { span = (fun name f -> span name f) }

(* A child of the innermost open span whose interval was measured by the
   layer itself (the solver's own time of a solve point), ending now. *)
let add_measured ?(op = -1) ?(args = []) name ~dur =
  let stop = Util.now () in
  let parent_start = match !stack with p :: _ -> p.start | [] -> stop -. dur in
  let start = Float.max parent_start (stop -. dur) in
  let s = make ~op ~aux:false name start in
  s.args <- args;
  close s stop

let dur s = s.stop -. s.start
let self s = dur s -. s.child_s
let recorded () = List.rev !spans

(* Summed self time of the traced-path spans named [name]. *)
let self_time name =
  List.fold_left
    (fun acc s -> if s.name = name && not s.aux then acc +. self s else acc)
    0. !spans

(* Summed duration of the spans named [name]; [aux] selects
   attribution-only spans instead of traced-path ones. *)
let total_time ?(aux = false) name =
  List.fold_left
    (fun acc s -> if s.name = name && s.aux = aux then acc +. dur s else acc)
    0. !spans

(* Chrome trace-event JSON (complete events, microseconds), which Perfetto
   and chrome://tracing open directly. Attribution-only spans go on a
   thread of their own so they never look nested in the traced path. *)
let write_chrome ~path ~meta =
  let us t = Json.Float ((t -. !origin) *. 1e6) in
  let event s =
    Json.Obj
      [ ("name", Json.String s.name);
        ("cat", Json.String (if s.aux then "attribution" else "traced"));
        ("ph", Json.String "X");
        ("ts", us s.start);
        ("dur", Json.Float (dur s *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int (if s.aux then 2 else 1));
        ( "args",
          Json.Obj
            ([ ("span", Json.Int s.id);
               ("parent", Json.Int s.parent);
               ("op", Json.Int s.op);
               ("self_us", Json.Float (self s *. 1e6)) ]
            @ s.args) ) ]
  in
  let thread_name tid name =
    Json.Obj
      [ ("name", Json.String "thread_name"); ("ph", Json.String "M");
        ("pid", Json.Int 1); ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.String name) ]) ]
  in
  let doc =
    Json.Obj
      [ ( "traceEvents",
          Json.List
            (thread_name 1 "traced path"
            :: thread_name 2 "attribution-only calls"
            :: List.map event (recorded ())) );
        ("displayTimeUnit", Json.String "ms");
        ("otherData", meta) ]
  in
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Json.to_string doc))
