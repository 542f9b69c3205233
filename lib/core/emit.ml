module Literal = Mm_boolfun.Literal
module Json = Mm_report.Json

let to_text c = Format.asprintf "%a" Circuit.pp c

let source_id = function
  | Circuit.From_literal l -> Printf.sprintf "lit_%s" (Literal.to_string l)
  | Circuit.From_leg l -> Printf.sprintf "leg%d" l
  | Circuit.From_vop (l, s) -> Printf.sprintf "vop_%d_%d" l s
  | Circuit.From_rop r -> Printf.sprintf "rop%d" r

let to_dot c =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "digraph mm_circuit {\n  rankdir=LR;\n";
  Array.iteri
    (fun l ops ->
      pr "  subgraph cluster_leg%d {\n    label=\"leg V%d\";\n" l (l + 1);
      Array.iteri
        (fun s { Circuit.te; be } ->
          pr "    vop_%d_%d [shape=box,label=\"V%d.%d\\nTE=%s BE=%s\"];\n" l s
            (l + 1) (s + 1) (Literal.to_string te) (Literal.to_string be))
        ops;
      for s = 1 to Array.length ops - 1 do
        pr "    vop_%d_%d -> vop_%d_%d;\n" l (s - 1) l s
      done;
      pr "  }\n";
      pr "  leg%d [shape=point];\n" l;
      if Array.length ops > 0 then
        pr "  vop_%d_%d -> leg%d;\n" l (Array.length ops - 1) l)
    c.Circuit.legs;
  let edge src dst =
    (match src with
     | Circuit.From_literal l ->
       pr "  lit_%s [shape=plaintext,label=\"%s\"];\n" (Literal.to_string l)
         (Literal.to_string l)
     | Circuit.From_leg _ | Circuit.From_vop _ | Circuit.From_rop _ -> ());
    pr "  %s -> %s;\n" (source_id src) dst
  in
  Array.iteri
    (fun i { Circuit.in1; in2 } ->
      pr "  rop%d [shape=invhouse,label=\"R%d\\n%s\"];\n" i (i + 1)
        (Rop.to_string c.Circuit.rop_kind);
      edge in1 (Printf.sprintf "rop%d" i);
      edge in2 (Printf.sprintf "rop%d" i))
    c.Circuit.rops;
  Array.iteri
    (fun o src ->
      pr "  out%d [shape=doublecircle,label=\"out%d\"];\n" o (o + 1);
      edge src (Printf.sprintf "out%d" o))
    c.Circuit.outputs;
  pr "}\n";
  Buffer.contents buf

let json_source src =
  let obj kind fields = Json.Obj (("kind", Json.String kind) :: fields) in
  match src with
  | Circuit.From_literal l ->
    obj "literal" [ ("name", Json.String (Literal.to_string l)) ]
  | Circuit.From_leg l -> obj "leg" [ ("index", Json.Int l) ]
  | Circuit.From_vop (l, s) -> obj "vop" [ ("leg", Json.Int l); ("step", Json.Int s) ]
  | Circuit.From_rop r -> obj "rop" [ ("index", Json.Int r) ]

let json c =
  let list f a = Json.List (Array.to_list (Array.map f a)) in
  Json.Obj
    [
      ("arity", Json.Int c.Circuit.arity);
      ("rop_kind", Json.String (Rop.to_string c.Circuit.rop_kind));
      ( "legs",
        list
          (list (fun { Circuit.te; be } ->
               Json.Obj
                 [
                   ("te", Json.String (Literal.to_string te));
                   ("be", Json.String (Literal.to_string be));
                 ]))
          c.Circuit.legs );
      ( "rops",
        list
          (fun { Circuit.in1; in2 } ->
            Json.Obj [ ("in1", json_source in1); ("in2", json_source in2) ])
          c.Circuit.rops );
      ("outputs", list json_source c.Circuit.outputs);
    ]

let to_json c = Json.to_string (json c)
