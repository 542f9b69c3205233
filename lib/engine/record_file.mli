(** The one on-disk format behind the result cache ({!Cache}) and the NPN
    atlas ([Mm_atlas.Atlas]): a header, then checksummed records.

    {v
      magic      the owner's magic string, raw bytes
      version    8 bytes, big-endian
      record*    until end of file
    each record:
      16 bytes   MD5 digest of the payload
       8 bytes   big-endian payload length
       N bytes   payload = Marshal of the record value
    v}

    Nothing reaches [Marshal] before it is checked: the header is read as
    raw bytes, and a payload is unmarshalled only once its digest matches.
    [Marshal] is not memory-safe on bytes it did not write, so a damaged
    frame must never be decoded. A record whose digest fails is skipped at
    its recorded length (a flipped payload byte leaves the framing intact,
    so the next record may be fine); a length running past the end of the
    file, or a frame cut short, means the framing itself is torn and ends
    the read. Truncation exactly at a record boundary is indistinguishable
    from a shorter valid file.

    Owners keep their own magic, version, record type and policy on damage
    (the cache salvages and quarantines; the atlas refuses). *)

type outcome =
  | Missing  (** nothing at the path *)
  | Unreadable of string
      (** the path exists but is no regular file it can read (a directory,
          a device, no permission): the reason *)
  | Bad_header
      (** shorter than a header, another magic, or a version field no
          writer produces — such as the marshalled version of files written
          before this framing *)
  | Wrong_version of int  (** a well-formed header at another version *)
  | Read of { kept : int; dropped : int; torn : bool }
      (** [kept] records went to the callback; [dropped] failed their
          digest or did not decode; [torn] the framing broke before the end
          of the file *)

(** [read ~magic ~version path f] calls [f] on each intact record of
    [path], in file order, when the header carries [magic] and [version].
    Never raises an I/O error. [f]'s argument must have the type the
    records were written with: as with any use of [Marshal], the version
    number is what ties the two together. *)
val read : magic:string -> version:int -> string -> ('a -> unit) -> outcome

(** [write ~magic ~version path iter] writes every record [iter emit]
    emits to a fresh temporary file beside [path], then renames it over
    [path]: a concurrent reader sees the old file or the new one, never a
    torn one, and the last writer wins. Raises [Sys_error] when [path]
    cannot be written, after removing the temporary file. *)
val write :
  magic:string -> version:int -> string -> (('a -> unit) -> unit) -> unit
