type outcome =
  | Missing
  | Unreadable of string
  | Bad_header
  | Wrong_version of int
  | Read of { kept : int; dropped : int; torn : bool }

let digest_bytes = 16
let int_bytes = 8

(* Writers use small version numbers. A field outside this range is no
   version at all: the marshalled integer that older files carry here
   starts with a byte whose top bit is set. *)
let max_version = 0xffffL

(* Only a regular file is read: a FIFO would block the reader, and a
   directory or device is no record file to salvage. *)
let contents path =
  match (Unix.stat path).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Error Missing
  | exception Unix.Unix_error (e, _, _) ->
    Error (Unreadable (Unix.error_message e))
  | Unix.S_DIR -> Error (Unreadable "is a directory")
  | Unix.S_REG -> (
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> Ok s
    | exception Sys_error msg -> Error (Unreadable msg))
  | Unix.S_CHR | Unix.S_BLK | Unix.S_LNK | Unix.S_FIFO | Unix.S_SOCK ->
    Error (Unreadable "not a regular file")

let frames s pos f =
  let n = String.length s in
  let rec go pos kept dropped =
    if pos = n then Read { kept; dropped; torn = false }
    else if n - pos < digest_bytes + int_bytes then
      Read { kept; dropped; torn = true }
    else
      let body = pos + digest_bytes + int_bytes in
      let len = String.get_int64_be s (pos + digest_bytes) in
      if len < 0L || len > Int64.of_int (n - body) then
        Read { kept; dropped; torn = true }
      else
        let len = Int64.to_int len in
        let next = body + len in
        if Digest.substring s body len <> String.sub s pos digest_bytes then
          go next kept (dropped + 1)
        else
          match Marshal.from_string (String.sub s body len) 0 with
          | v ->
            f v;
            go next (kept + 1) dropped
          | exception (Failure _ | Invalid_argument _) ->
            go next kept (dropped + 1)
  in
  go pos 0 0

let read ~magic ~version path f =
  match contents path with
  | Error outcome -> outcome
  | Ok s ->
    let m = String.length magic in
    if String.length s < m + int_bytes || String.sub s 0 m <> magic then
      Bad_header
    else
      let v = String.get_int64_be s m in
      if v < 0L || v > max_version then Bad_header
      else if Int64.to_int v <> version then Wrong_version (Int64.to_int v)
      else frames s (m + int_bytes) f

let int64_be n =
  let b = Bytes.create int_bytes in
  Bytes.set_int64_be b 0 (Int64.of_int n);
  Bytes.unsafe_to_string b

let tmp_counter = Atomic.make 0

let write ~magic ~version path iter =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  try
    Out_channel.with_open_bin tmp (fun oc ->
        output_string oc magic;
        output_string oc (int64_be version);
        iter (fun v ->
            let payload = Marshal.to_string v [] in
            output_string oc (Digest.string payload);
            output_string oc (int64_be (String.length payload));
            output_string oc payload));
    Sys.rename tmp path
  with Sys_error _ as e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
