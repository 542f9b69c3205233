(* Byte mutation over the two record-file readers, the result cache and
   the NPN atlas. Every damaged file must end in a typed result: a
   [Cache.load] value from [Cache.create], [Ok] or a typed error from
   [Atlas.load], [Atlas.info] and [Atlas.verify] — never an exception, and
   never an entry that was not written. The mutations are every
   single-byte flip (masks 0x01, 0x80, 0xff) and every truncation over the
   header and the first frames, plus seeded random multi-byte damage over
   the whole file. *)

module Cache = Mm_engine.Cache
module Atlas = Mm_atlas.Atlas
module Synth = Mm_core.Synth
module E = Mm_core.Encode
module Spec = Mm_boolfun.Spec
module Tt = Mm_boolfun.Truth_table

let seed = 20

let tmp_path =
  let counter = ref 0 in
  fun ext ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mm_mutation_%d_%d%s" (Unix.getpid ()) !counter ext)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let remove path = try Sys.remove path with Sys_error _ -> ()

let flip s pos mask =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
  Bytes.to_string b

(* The first [frames] records end here: after the magic comes an 8-byte
   version, then records of a 16-byte digest, an 8-byte big-endian length
   and the payload. A file in another layout spans whole. *)
let span_of ~magic ~frames s =
  let n = String.length s in
  let rec go pos k =
    if k = 0 || pos + 24 > n then min pos n
    else
      let len = String.get_int64_be s (pos + 16) in
      if len < 0L || len > Int64.of_int n then n
      else go (pos + 24 + Int64.to_int len) (k - 1)
  in
  go (String.length magic + 8) frames

(* Every mutation of [s] the test applies, each with a label. *)
let mutations ~span s =
  let flips =
    List.concat_map
      (fun pos ->
        List.map
          (fun mask -> (Printf.sprintf "flip %d^0x%02x" pos mask, flip s pos mask))
          [ 0x01; 0x80; 0xff ])
      (List.init span Fun.id)
  in
  let cuts =
    List.init span (fun len -> (Printf.sprintf "truncate %d" len, String.sub s 0 len))
  in
  let rng = Random.State.make [| seed |] in
  let random =
    List.init 500 (fun i ->
        let b = Bytes.of_string s in
        for _ = 1 to 1 + Random.State.int rng 8 do
          Bytes.set b
            (Random.State.int rng (Bytes.length b))
            (Char.chr (Random.State.int rng 256))
        done;
        let b =
          if Random.State.int rng 4 = 0 then
            Bytes.sub b 0 (Random.State.int rng (Bytes.length b))
          else b
        in
        (Printf.sprintf "random %d" i, Bytes.to_string b))
  in
  flips @ cuts @ random

(* ---- the cache ------------------------------------------------------- *)

let cfg n_rops = E.config ~n_legs:2 ~steps_per_leg:2 ~n_rops ()
let xor2 = Spec.make ~name:"xor2" [| Tt.of_int 2 0b0110 |]

let verdict_tag a =
  match a.Synth.verdict with
  | Synth.Sat _ -> "sat"
  | Synth.Unsat -> "unsat"
  | Synth.Timeout -> "timeout"

(* A small cache file and the verdict stored under each key. *)
let cache_file =
  lazy
    (let path = tmp_path ".cache" in
     let c = Cache.create ~path () in
     let sat = Synth.solve_instance ~timeout:30. (cfg 1) xor2 in
     let entries =
       List.init 6 (fun i ->
           let a =
             if i mod 2 = 0 then sat else { sat with Synth.verdict = Synth.Unsat }
           in
           (Cache.key (cfg (i + 1)) xor2, a))
     in
     List.iter (fun (k, a) -> Cache.add c ~timeout:30. k a) entries;
     Cache.flush c;
     let bytes = read_file path in
     remove path;
     (bytes, List.map (fun (k, a) -> (k, verdict_tag a)) entries))

(* Load [bytes] as a cache: a typed load, only written entries, and every
   damaged file moved aside. *)
let check_cache ~what bytes =
  let _, expected = Lazy.force cache_file in
  let path = tmp_path ".cache" in
  write_file path bytes;
  let c =
    match Cache.create ~path () with
    | c -> c
    | exception e ->
      Alcotest.failf "%s: Cache.create raised %s" what (Printexc.to_string e)
  in
  let quarantined q =
    match q with
    | Some q when Sys.file_exists q && not (Sys.file_exists path) -> ()
    | _ -> Alcotest.failf "%s: damaged cache not quarantined" what
  in
  (match Cache.load_result c with
   | Cache.Loaded _ -> ()
   | Cache.Salvaged { quarantined = q; _ }
   | Cache.Invalid_version { quarantined = q; _ }
   | Cache.Corrupt { quarantined = q } ->
     quarantined q
   | l -> Alcotest.failf "%s: unexpected load %a" what Cache.pp_load l);
  let found =
    List.filter
      (fun (k, tag) ->
        match Cache.find c ~timeout:30. k with
        | None -> false
        | Some a when verdict_tag a = tag -> true
        | Some _ -> Alcotest.failf "%s: %s holds another verdict" what k)
      expected
  in
  if (Cache.counters c).Cache.entries <> List.length found then
    Alcotest.failf "%s: entries that were never written" what;
  List.iter remove (path :: Cache.quarantined_siblings path);
  Cache.load_result c

let test_cache_mutations () =
  let bytes, _ = Lazy.force cache_file in
  let span = span_of ~magic:"MMSYNTH-ENGINE-CACHE" ~frames:3 bytes in
  List.iter
    (fun (what, s) -> ignore (check_cache ~what s))
    (mutations ~span bytes)

(* Bit 0 of byte 23 sits in the version header: once read through
   Marshal, it turned into a gigantic allocation. *)
let test_byte_23_flip () =
  let bytes, _ = Lazy.force cache_file in
  match check_cache ~what:"byte 23" (flip bytes 23 0x01) with
  | Cache.Loaded _ -> Alcotest.fail "a damaged header loaded"
  | _ -> ()

(* magic, a marshalled version, then a marshalled int where a frame
   belongs: the layout files had before the raw header *)
let parent_layout ~magic ~version =
  magic ^ Marshal.to_string (version : int) [] ^ Marshal.to_string 42 []

let test_parent_cache () =
  match
    check_cache ~what:"v7 layout"
      (parent_layout ~magic:"MMSYNTH-ENGINE-CACHE" ~version:7)
  with
  | Cache.Loaded _ -> Alcotest.fail "a v7 file loaded"
  | _ -> ()

(* ---- the atlas ------------------------------------------------------- *)

let atlas_file =
  lazy
    (let path = tmp_path ".mmatlas" in
     match Atlas.build ~effort:1 ~domains:1 ~path (Atlas.universe ~max_n:2 ()) with
     | Ok _ ->
       let bytes = read_file path in
       remove path;
       bytes
     | Error e -> Alcotest.failf "atlas build: %a" Atlas.pp_error e)

let records bytes =
  let path = tmp_path ".mmatlas" in
  write_file path bytes;
  let n =
    match Atlas.load path with
    | Ok t -> Atlas.size t
    | Error e -> Alcotest.failf "clean atlas: %a" Atlas.pp_error e
  in
  remove path;
  n

(* [Atlas.load], [info] and [verify] on [bytes]: [Ok] or a typed error,
   never more records than were written; returns the load result. *)
let check_atlas ~what ~written bytes =
  let path = tmp_path ".mmatlas" in
  write_file path bytes;
  let guard name f =
    match f path with
    | r -> r
    | exception e ->
      Alcotest.failf "%s: %s raised %s" what name (Printexc.to_string e)
  in
  let at_most n =
    if n > written then Alcotest.failf "%s: %d records from %d" what n written
  in
  let load = guard "Atlas.load" Atlas.load in
  (match load with Ok t -> at_most (Atlas.size t) | Error _ -> ());
  (match guard "Atlas.info" Atlas.info with
   | Ok i -> at_most i.Atlas.i_records
   | Error _ -> ());
  (match guard "Atlas.verify" Atlas.verify with
   | Ok n -> at_most n
   | Error [] -> Alcotest.failf "%s: verify failed without an issue" what
   | Error _ -> ());
  remove path;
  load

let test_atlas_mutations () =
  let bytes = Lazy.force atlas_file in
  let written = records bytes in
  let span = span_of ~magic:"MMSYNTH-ATLAS" ~frames:3 bytes in
  List.iter
    (fun (what, s) -> ignore (check_atlas ~what ~written s))
    (mutations ~span bytes)

let test_parent_atlas () =
  let bytes = parent_layout ~magic:"MMSYNTH-ATLAS" ~version:1 in
  let path = tmp_path ".mmatlas" in
  write_file path bytes;
  let refused name = function
    | Ok _ -> Alcotest.failf "%s accepted a v1 atlas" name
    | Error _ -> ()
  in
  refused "Atlas.load" (check_atlas ~what:"v1 layout" ~written:0 bytes);
  refused "Atlas.info" (Atlas.info path);
  refused "Atlas.verify" (Atlas.verify path);
  remove path

let () =
  Alcotest.run "mutation"
    [
      ( "cache",
        [
          Alcotest.test_case "every flip and cut is typed" `Quick
            test_cache_mutations;
          Alcotest.test_case "byte-23 flip" `Quick test_byte_23_flip;
          Alcotest.test_case "v7 layout quarantined" `Quick test_parent_cache;
        ] );
      ( "atlas",
        [
          Alcotest.test_case "every flip and cut is typed" `Quick
            test_atlas_mutations;
          Alcotest.test_case "v1 layout refused" `Quick test_parent_atlas;
        ] );
    ]
