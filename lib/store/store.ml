(** Crash-safe append-only answer log — see the interface. *)

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected — the zlib polynomial)               *)
(* ------------------------------------------------------------------ *)

(* Slicing-by-8 on native ints: [crc_tables] holds eight 256-entry
   tables back to back, table [k] giving the CRC contribution of a byte
   followed by [k] zero bytes, so eight bytes cost two 32-bit loads and
   eight independent lookups instead of eight dependent byte steps.
   Built eagerly: pool workers write through concurrently, and forcing
   one lazy value from two domains at once raises
   [CamlinternalLazy.Undefined]. *)
let crc_tables =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to 2047 do
    let prev = t.(i - 256) in
    t.(i) <- t.(prev land 0xFF) lxor (prev lsr 8)
  done;
  t

let get_u32 buf i = Int32.to_int (Bytes.get_int32_le buf i) land 0xFFFF_FFFF

(* The raw register update: [c] is the pre-inverted state, the result
   is not finalized. Callers have bounds-checked [pos]/[len]. *)
let crc_update c buf ~pos ~len =
  let t = crc_tables in
  let c = ref c and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let x = !c lxor get_u32 buf !i and y = get_u32 buf (!i + 4) in
    c :=
      Array.unsafe_get t (1792 + (x land 0xFF))
      lxor Array.unsafe_get t (1536 + ((x lsr 8) land 0xFF))
      lxor Array.unsafe_get t (1280 + ((x lsr 16) land 0xFF))
      lxor Array.unsafe_get t (1024 + (x lsr 24))
      lxor Array.unsafe_get t (768 + (y land 0xFF))
      lxor Array.unsafe_get t (512 + ((y lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((y lsr 16) land 0xFF))
      lxor Array.unsafe_get t (y lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    let x = !c lxor Char.code (Bytes.unsafe_get buf j) in
    c := Array.unsafe_get t (x land 0xFF) lxor (!c lsr 8)
  done;
  !c

(* [?crc] chains scans: the value is always finalized (xor-out
   applied), so chaining re-inverts on entry. *)
let crc32 ?(crc = 0l) buf ~pos ~len =
  if len <= 0 then crc
  else if pos < 0 || pos > Bytes.length buf - len then
    invalid_arg "index out of bounds"
  else
    let c = lnot (Int32.to_int crc) land 0xFFFF_FFFF in
    Int32.of_int (lnot (crc_update c buf ~pos ~len) land 0xFFFF_FFFF)

(* ------------------------------------------------------------------ *)
(* Record format                                                      *)
(* ------------------------------------------------------------------ *)

(* file   := magic record*
   magic  := "RWSTORE1"                                (8 bytes)
   record := klen:u32le plen:u32le key payload crc:u32le
   crc    := CRC-32 over the length words + key + payload

   The CRC covering the length words matters: a torn write that lands
   mid-length-word would otherwise frame a garbage record whose
   payload bytes happen to checksum. *)

let magic = "RWSTORE1"
let magic_len = String.length magic
let max_key_len = 65535
let max_payload_len = (1 lsl 28) - 1 (* 256 MiB; answers are ~hundreds of bytes *)

let record_size ~klen ~plen = 8 + klen + plen + 4

(* An index entry packs a payload's offset and length into one
   immediate int — the length in the low 28 bits (it is at most
   [max_payload_len]), the offset above them — so the index holds no
   boxed pair per key: 24 bytes less per live record. That pays for a
   side effect of the garbage-free scan below: with no garbage to
   collect during recovery the major GC runs on a later schedule,
   which by itself raised the session-store benchmark's peak RSS by
   about 0.1 MB. The price is a ceiling on the log: every offset must
   stay at most [max_log_bytes], 16 GiB with 63-bit ints. *)
let len_bits = 28
let max_log_bytes = max_int lsr len_bits
let pack ~off ~len = (off lsl len_bits) lor len
let unpack v = (v lsr len_bits, v land max_payload_len)

let check_lengths key payload =
  let klen = String.length key in
  if klen = 0 || klen > max_key_len then
    invalid_arg "Store.add: key empty or over 65535 bytes";
  if String.length payload > max_payload_len then
    invalid_arg "Store.add: payload over 256 MiB"

(* Callers have passed [key] and [payload] through [check_lengths]. *)
let encode_record key payload =
  let klen = String.length key and plen = String.length payload in
  let b = Bytes.create (record_size ~klen ~plen) in
  Bytes.set_int32_le b 0 (Int32.of_int klen);
  Bytes.set_int32_le b 4 (Int32.of_int plen);
  Bytes.blit_string key 0 b 8 klen;
  Bytes.blit_string payload 0 b (8 + klen) plen;
  let crc = crc32 b ~pos:0 ~len:(8 + klen + plen) in
  Bytes.set_int32_le b (8 + klen + plen) crc;
  b

(* ------------------------------------------------------------------ *)
(* Low-level I/O                                                      *)
(* ------------------------------------------------------------------ *)

let really_write fd b =
  let len = Bytes.length b in
  let rec go pos =
    if pos < len then go (pos + Unix.write fd b pos (len - pos))
  in
  go 0

(* Positional read: returns how many bytes were actually available.
   Callers hold whatever lock makes the [lseek]/[read] pair safe on
   the descriptor they pass. *)
let pread fd ~off buf ~len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let rec go pos =
    if pos >= len then pos
    else
      match Unix.read fd buf pos (len - pos) with
      | 0 -> pos
      | n -> go (pos + n)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* The scan shared by recovery and [verify]                           *)
(* ------------------------------------------------------------------ *)

(* One whole-file walk. [on_record key ~payload_off ~plen] is called
   per checksum-valid record, in log order. Returns where and why the
   scan stopped. *)
type scan_stop =
  | Scan_eof  (** clean end of log *)
  | Scan_torn  (** bytes missing: a record's frame runs past EOF *)
  | Scan_bad_crc  (** a whole record is present but its CRC fails *)
  | Scan_bad_frame  (** lengths out of range — framing is garbage *)

(* One sequential pass through a fixed 64 KiB window: an input
   channel, whose buffer (the runtime's IO_BUFFER_SIZE, 65 536 bytes)
   is refilled by one [read] per 64 KiB. Each record is copied out of
   the window into [buf], checksummed there and dropped; only its key
   is kept. [buf] starts small enough for the minor heap and grows
   only for a record larger than itself.

   The window is the channel's rather than a [Bytes] of our own for
   the sake of the serve process's resident set: a 64 KiB [Bytes]
   would sit in the major heap as garbage until a major cycle swept
   it, and [Unix.read] stages its data in a 64 KiB stack array whose
   pages then stay resident. The channel reads straight into its own
   buffer, which is freed when the closed channel is collected. *)
let scan path ~file_size ~on_record =
  In_channel.with_open_bin path @@ fun ic ->
  In_channel.seek ic (Int64.of_int magic_len);
  let buf = ref (Bytes.create 1024) in
  let rec go off records =
    if off >= file_size then (off, records, Scan_eof)
    else if In_channel.really_input ic !buf 0 8 = None then
      (off, records, Scan_torn)
    else
      let klen = Int32.to_int (Bytes.get_int32_le !buf 0) in
      let plen = Int32.to_int (Bytes.get_int32_le !buf 4) in
      if klen <= 0 || klen > max_key_len || plen < 0 || plen > max_payload_len
      then (off, records, Scan_bad_frame)
      else
        let size = record_size ~klen ~plen in
        if off + size > file_size then (off, records, Scan_torn)
        else begin
          if size > Bytes.length !buf then begin
            let grown = Bytes.create (max size (2 * Bytes.length !buf)) in
            Bytes.blit !buf 0 grown 0 8;
            buf := grown
          end;
          let b = !buf and body = 8 + klen + plen in
          if In_channel.really_input ic b 8 (size - 8) = None then
            (off, records, Scan_torn)
          else if
            crc_update 0xFFFF_FFFF b ~pos:0 ~len:body lxor 0xFFFF_FFFF
            <> get_u32 b body
          then (off, records, Scan_bad_crc)
          else begin
            on_record (Bytes.sub_string b 8 klen)
              ~payload_off:(off + 8 + klen) ~plen;
            go (off + size) (records + 1)
          end
        end
  in
  go magic_len 0

(* ------------------------------------------------------------------ *)
(* The store                                                          *)
(* ------------------------------------------------------------------ *)

type t = {
  path : string;
  fsync : bool;
  mutable write_fd : Unix.file_descr;
  mutable read_fd : Unix.file_descr;
  mutable closed : bool;
  (* Lock order (outermost first): append_m → read_m → index_m.
     Appends take append_m (+ index_m briefly); reads take read_m
     (+ index_m briefly) — so a reader never waits on an appender's
     write/fsync, only on the nanosecond-scale index op; compaction
     takes all three and swaps the world atomically under them. *)
  append_m : Mutex.t;
  read_m : Mutex.t;
  index_m : Mutex.t;
  mutable index : (string, int) Hashtbl.t;
      (** key → [pack] (payload offset, len) *)
  mutable tail : int;  (** file size = next append offset *)
  mutable dead : int;
  mutable appends : int;
  mutable probe_hits : int;
  mutable probe_misses : int;
  mutable compactions : int;
  mutable generation : int;
  recovered : int;
  truncated_bytes : int;
}

type open_report = { recovered : int; live : int; truncated_bytes : int }

let check_open t = if t.closed then invalid_arg "Store: used after close"

let open_ ?(fsync = false) path =
  match
    let write_fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
    let read_fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    let file_size = (Unix.fstat read_fd).Unix.st_size in
    if file_size = 0 then begin
      (* A fresh store: stamp the magic before anything else. *)
      really_write write_fd (Bytes.of_string magic);
      if fsync then Unix.fsync write_fd
    end
    else begin
      let hdr = Bytes.create magic_len in
      if
        file_size < magic_len
        || pread read_fd ~off:0 hdr ~len:magic_len < magic_len
        || Bytes.to_string hdr <> magic
      then begin
        Unix.close write_fd;
        Unix.close read_fd;
        failwith (Printf.sprintf "%s: not an rw answer store (bad magic)" path)
      end
    end;
    if file_size > max_log_bytes then begin
      Unix.close write_fd;
      Unix.close read_fd;
      failwith (Printf.sprintf "%s: log over 16 GiB; not supported" path)
    end;
    let file_size = max file_size magic_len in
    let index = Hashtbl.create 1024 in
    let valid_end, recovered, _stop =
      scan path ~file_size ~on_record:(fun key ~payload_off ~plen ->
          Hashtbl.replace index key (pack ~off:payload_off ~len:plen))
    in
    let truncated_bytes = file_size - valid_end in
    if truncated_bytes > 0 then begin
      (* Drop the torn/corrupt tail so the next append starts on a
         whole-record boundary — the recovery contract. *)
      Unix.ftruncate write_fd valid_end;
      if fsync then Unix.fsync write_fd
    end;
    ignore (Unix.lseek write_fd valid_end Unix.SEEK_SET);
    let t =
      {
        path;
        fsync;
        write_fd;
        read_fd;
        closed = false;
        append_m = Mutex.create ();
        read_m = Mutex.create ();
        index_m = Mutex.create ();
        index;
        tail = valid_end;
        dead = recovered - Hashtbl.length index;
        appends = 0;
        probe_hits = 0;
        probe_misses = 0;
        compactions = 0;
        generation = 0;
        recovered;
        truncated_bytes;
      }
    in
    (t, { recovered; live = Hashtbl.length index; truncated_bytes })
  with
  | r -> Ok r
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | exception Failure msg -> Error msg

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.close t.write_fd with Unix.Unix_error _ -> ());
    try Unix.close t.read_fd with Unix.Unix_error _ -> ()
  end

let path t = t.path

let length t =
  check_open t;
  Mutex.protect t.index_m (fun () -> Hashtbl.length t.index)

let mem t key =
  check_open t;
  Mutex.protect t.index_m (fun () -> Hashtbl.mem t.index key)

(* Whether the index already maps [key] to a payload byte-identical
   to [payload]: equal length from the index, then the bytes read back.
   The caller holds [append_m] (so the index cannot move) and [read_m]
   (for the descriptor's [lseek]/[read] pair). *)
let holds t key payload =
  match Mutex.protect t.index_m (fun () -> Hashtbl.find_opt t.index key) with
  | None -> false
  | Some v ->
    let off, len = unpack v in
    len = String.length payload
    &&
    let buf = Bytes.create len in
    pread t.read_fd ~off buf ~len = len
    && String.equal (Bytes.unsafe_to_string buf) payload

let add t key payload =
  check_open t;
  check_lengths key payload;
  Mutex.protect t.append_m (fun () ->
      Rw_prelude.Hook.fire "store.append";
      (* Torn-write injection: leave a strict prefix of the record on
         the file — exactly what a crash mid-append leaves behind —
         without publishing anything in the index. The file is damaged
         from this offset on (recovery will truncate here); the harness
         that armed the point restarts the store before appending
         again. *)
      if Rw_prelude.Hook.trip "store.append.torn" then begin
        let record = encode_record key payload in
        really_write t.write_fd
          (Bytes.sub record 0 (max 1 (Bytes.length record / 2)));
        raise (Rw_prelude.Hook.Injected "store.append.torn")
      end;
      (* A record the index already points at, byte for byte, is not
         written again: every lookup, reopen and compaction would see
         the same bytes either way, and the log stays one record per
         live answer under repeated write-throughs. *)
      if not (Mutex.protect t.read_m (fun () -> holds t key payload)) then begin
        let record = encode_record key payload in
        (* Write (one syscall — no userspace buffer to tear), flush if
           asked, and only then publish in the index: a reader can
           never be pointed at bytes that are not all on the file. *)
        let off = t.tail in
        if off + Bytes.length record > max_log_bytes then
          failwith (t.path ^ ": log full at 16 GiB; compact it");
        really_write t.write_fd record;
        if t.fsync then Unix.fsync t.write_fd;
        Mutex.protect t.index_m (fun () ->
            if Hashtbl.mem t.index key then t.dead <- t.dead + 1;
            Hashtbl.replace t.index key
              (pack ~off:(off + 8 + String.length key)
                 ~len:(String.length payload));
            t.appends <- t.appends + 1;
            t.tail <- off + Bytes.length record)
      end)

let find t key =
  check_open t;
  Mutex.protect t.read_m (fun () ->
      let loc =
        Mutex.protect t.index_m (fun () ->
            let l = Hashtbl.find_opt t.index key in
            (match l with
            | Some _ -> t.probe_hits <- t.probe_hits + 1
            | None -> t.probe_misses <- t.probe_misses + 1);
            l)
      in
      match loc with
      | None -> None
      | Some v ->
        let off, len = unpack v in
        let buf = Bytes.create len in
        (* The scan checksummed this record before indexing it, and
           nothing overwrites log bytes in place, so the read needs no
           re-verification. *)
        if pread t.read_fd ~off buf ~len < len then
          failwith
            (Printf.sprintf "%s: indexed record truncated (offset %d)" t.path
               off)
        else Some (Bytes.unsafe_to_string buf))

let sync t =
  check_open t;
  Mutex.protect t.append_m (fun () ->
      Rw_prelude.Hook.fire "store.sync";
      Unix.fsync t.write_fd)

let compact t =
  check_open t;
  Mutex.protect t.append_m (fun () ->
      Mutex.protect t.read_m (fun () ->
          Mutex.protect t.index_m (fun () ->
              let tmp = t.path ^ ".compact" in
              (* The new generation goes out through an output channel,
                 whose 64 KiB buffer batches the records into one
                 [write] per 64 KiB instead of one per record. Nothing
                 reads the file before the flush and fsync below, so
                 batching changes no crash outcome. *)
              let oc =
                Out_channel.open_gen
                  [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
                  0o644 tmp
              in
              let finally () = Out_channel.close_noerr oc in
              Fun.protect ~finally (fun () ->
                  Out_channel.output_string oc magic;
                  (* Rewrite live entries (log order is irrelevant —
                     every key is unique after shadowing) and remember
                     their new offsets. *)
                  let new_index = Hashtbl.create (Hashtbl.length t.index) in
                  let new_tail = ref magic_len in
                  Hashtbl.iter
                    (fun key v ->
                      let off, len = unpack v in
                      let buf = Bytes.create len in
                      if pread t.read_fd ~off buf ~len < len then
                        failwith
                          (Printf.sprintf
                             "%s: indexed record truncated during compaction"
                             t.path);
                      let record =
                        encode_record key (Bytes.unsafe_to_string buf)
                      in
                      Out_channel.output_bytes oc record;
                      Hashtbl.replace new_index key
                        (pack ~off:(!new_tail + 8 + String.length key) ~len);
                      new_tail := !new_tail + Bytes.length record)
                    t.index;
                  (* The new generation must be durably complete before
                     it replaces the old one. *)
                  Out_channel.flush oc;
                  Unix.fsync (Unix.descr_of_out_channel oc);
                  Unix.rename tmp t.path;
                  (* Best-effort directory fsync so the rename itself
                     survives power loss; not all filesystems allow it. *)
                  (try
                     let dir =
                       Unix.openfile (Filename.dirname t.path)
                         [ Unix.O_RDONLY ] 0
                     in
                     (try Unix.fsync dir with Unix.Unix_error _ -> ());
                     Unix.close dir
                   with Unix.Unix_error _ -> ());
                  (* Swap descriptors onto the new generation. *)
                  let old_w = t.write_fd and old_r = t.read_fd in
                  t.write_fd <-
                    Unix.openfile t.path [ Unix.O_WRONLY ] 0o644;
                  ignore (Unix.lseek t.write_fd !new_tail Unix.SEEK_SET);
                  t.read_fd <- Unix.openfile t.path [ Unix.O_RDONLY ] 0;
                  (try Unix.close old_w with Unix.Unix_error _ -> ());
                  (try Unix.close old_r with Unix.Unix_error _ -> ());
                  t.index <- new_index;
                  t.tail <- !new_tail;
                  t.dead <- 0;
                  t.compactions <- t.compactions + 1;
                  t.generation <- t.generation + 1))))

type stats = {
  path : string;
  live : int;
  dead : int;
  appends : int;
  probe_hits : int;
  probe_misses : int;
  recovered : int;
  truncated_bytes : int;
  compactions : int;
  file_bytes : int;
  generation : int;
}

let stats t =
  check_open t;
  Mutex.protect t.index_m (fun () ->
      {
        path = t.path;
        live = Hashtbl.length t.index;
        dead = t.dead;
        appends = t.appends;
        probe_hits = t.probe_hits;
        probe_misses = t.probe_misses;
        recovered = t.recovered;
        truncated_bytes = t.truncated_bytes;
        compactions = t.compactions;
        file_bytes = t.tail;
        generation = t.generation;
      })

(* ------------------------------------------------------------------ *)
(* Offline inspection                                                 *)
(* ------------------------------------------------------------------ *)

type verify_report = {
  total_records : int;
  live_records : int;
  dead_records : int;
  file_bytes : int;
  valid_prefix_bytes : int;
  checksum_failures : int;
  torn_tail_bytes : int;
}

let verify path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | fd ->
    let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
    Fun.protect ~finally (fun () ->
        let file_size = (Unix.fstat fd).Unix.st_size in
        let hdr = Bytes.create magic_len in
        if
          file_size < magic_len
          || pread fd ~off:0 hdr ~len:magic_len < magic_len
          || Bytes.to_string hdr <> magic
        then Error (Printf.sprintf "%s: not an rw answer store (bad magic)" path)
        else begin
          let seen = Hashtbl.create 1024 in
          let valid_end, total, stop =
            scan path ~file_size
              ~on_record:(fun key ~payload_off:_ ~plen:_ ->
                Hashtbl.replace seen key ())
          in
          Ok
            {
              total_records = total;
              live_records = Hashtbl.length seen;
              dead_records = total - Hashtbl.length seen;
              file_bytes = file_size;
              valid_prefix_bytes = valid_end;
              checksum_failures = (match stop with Scan_bad_crc -> 1 | _ -> 0);
              torn_tail_bytes = file_size - valid_end;
            }
        end)
