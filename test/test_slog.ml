(* Tests for the stable log abstraction (§3.1) and the log directory. *)

module Log = Rs_slog.Stable_log
module Log_dir = Rs_slog.Log_dir
module Store = Rs_storage.Stable_store
module Disk = Rs_storage.Disk

let mk () = (Helpers.seg_log ()).log

let test_write_read () =
  let l = mk () in
  let a0 = Log.write l "first" in
  let a1 = Log.write l "second" in
  Alcotest.(check int) "first entry at offset 0" 0 a0;
  Alcotest.(check bool) "addresses increase" true (a1 > a0);
  Alcotest.(check string) "read 0" "first" (Log.read l a0);
  Alcotest.(check string) "read 1" "second" (Log.read l a1);
  Alcotest.(check int) "count" 2 (Log.entry_count l);
  Alcotest.(check (option int)) "nothing forced" None (Log.get_top l)

let test_force_semantics () =
  let l = mk () in
  let a0 = Log.write l "a" in
  ignore (Log.write l "b");
  let a = Log.force_write l "c" in
  Alcotest.(check (option int)) "top after force" (Some a) (Log.get_top l);
  Alcotest.(check int) "forced count" 3 (Log.forced_count l);
  Alcotest.(check bool) "a forced" true (Log.is_forced l a0);
  let a3 = Log.write l "d" in
  Alcotest.(check bool) "d not forced" false (Log.is_forced l a3);
  Alcotest.(check int) "one force op" 1 (Log.forces l)

let test_read_backward () =
  let l = mk () in
  let addrs = List.map (fun s -> Log.write l s) [ "x"; "y"; "z" ] in
  Log.force l;
  let collected = List.of_seq (Log.read_backward l (List.nth addrs 2)) in
  Alcotest.(check (list (pair int string)))
    "backward order"
    (List.rev (List.map2 (fun a s -> (a, s)) addrs [ "x"; "y"; "z" ]))
    collected;
  (* Backward reading also crosses the forced/pending boundary. *)
  let a3 = Log.write l "w" in
  Alcotest.(check (list string)) "mixed regions" [ "w"; "z"; "y"; "x" ]
    (List.of_seq (Seq.map snd (Log.read_backward l a3)))

let test_crash_loses_unforced () =
  let s = Helpers.seg_log () in
  let l = s.log in
  ignore (Log.force_write l "stable");
  ignore (Log.write l "volatile");
  (* Crash: reopen from the stores alone. *)
  let l' = Helpers.reopen s in
  Alcotest.(check int) "only forced survive" 1 (Log.entry_count l');
  Alcotest.(check string) "survivor" "stable" (Log.read l' 0);
  Alcotest.(check (option int)) "top" (Some 0) (Log.get_top l')

let test_reopen_many_entries () =
  let s = Helpers.seg_log ~page_size:32 () in
  let l = s.log in
  (* Entries larger and smaller than a page, forced in batches. *)
  let payload i = String.make (i * 7 mod 90) (Char.chr (65 + (i mod 26))) in
  let addrs = ref [] in
  for i = 0 to 49 do
    addrs := (i, Log.write l (payload i)) :: !addrs;
    if i mod 7 = 0 then Log.force l
  done;
  Log.force l;
  let l' = Helpers.reopen s in
  Alcotest.(check int) "count" 50 (Log.entry_count l');
  List.iter
    (fun (i, a) ->
      Alcotest.(check string) (Printf.sprintf "entry %d" i) (payload i) (Log.read l' a))
    !addrs;
  (* And the log keeps working after reopen. *)
  let a = Log.force_write l' "more" in
  let l'' = Helpers.reopen s in
  Alcotest.(check string) "appended after reopen" "more" (Log.read l'' a)

let test_crash_mid_force () =
  (* Crash during the force itself, at every physical write of both
     stores it touches (the data page's segment, then the anchor's
     header): the previously forced prefix must survive intact (the
     header write is the atomic commit point). *)
  let crashes = ref 0 in
  List.iter
    (fun (which, store_of) ->
      for crash_at = 0 to 8 do
        let s = Helpers.seg_log ~page_size:32 () in
        ignore (Log.force_write s.log "one");
        ignore (Log.force_write s.log "two");
        let store = store_of s in
        match
          Helpers.crash_nth (Store.is_write store) (crash_at + 1) (fun () ->
              Log.force_write s.log "doomed")
        with
        | _ -> ()
        | exception Disk.Crash ->
            incr crashes;
            Store.recover store;
            let l' = Helpers.reopen s in
            let n = Log.entry_count l' in
            Alcotest.(check bool) (which ^ ": prefix intact") true (n = 2 || n = 3);
            (* Walk backward from the top: the forced prefix reads back. *)
            let entries =
              match Log.get_top l' with
              | None -> []
              | Some top -> List.of_seq (Seq.map snd (Log.read_backward l' top))
            in
            Alcotest.(check (list string)) (which ^ ": prefix content")
              (if n = 3 then [ "doomed"; "two"; "one" ] else [ "two"; "one" ])
              entries
      done)
    [ ("segment", fun s -> Helpers.segment_of s 0); ("anchor", fun s -> Log.store s.log) ];
  (* Three careful puts of two physical writes each: "doomed" straddles
     data pages 0 and 1 of the segment, then the anchor's header. *)
  Alcotest.(check int) "crash points hit" 6 !crashes

let test_metrics () =
  let l = mk () in
  let a = Log.force_write l "abc" in
  ignore (Log.read l a);
  Alcotest.(check int) "entry reads" 1 (Log.entry_reads l);
  Alcotest.(check int) "bytes read" 3 (Log.bytes_read l);
  Alcotest.(check bool) "stream bytes > 0" true (Log.stream_bytes l > 0)

let test_destroy () =
  let l = mk () in
  ignore (Log.force_write l "x");
  Log.destroy l;
  Alcotest.check_raises "destroyed" (Invalid_argument "Stable_log: destroyed handle")
    (fun () -> ignore (Log.read l 0))

let test_log_dir_switch () =
  let dir = Log_dir.create ~page_size:64 () in
  let l0 = Log_dir.current dir in
  ignore (Log.force_write l0 "old-1");
  let l1 = Log_dir.begin_new dir in
  ignore (Log.force_write l1 "new-1");
  Log_dir.switch dir;
  Alcotest.(check string) "current is new" "new-1" (Log.read (Log_dir.current dir) 0);
  (* Old handle is dead. *)
  Alcotest.check_raises "old destroyed" (Invalid_argument "Stable_log: destroyed handle")
    (fun () -> ignore (Log.read l0 0));
  (* Reopen after crash: the new log is current. *)
  let dir' = Log_dir.open_ dir in
  Alcotest.(check string) "after crash" "new-1" (Log.read (Log_dir.current dir') 0)

let test_log_dir_crash_before_switch () =
  let dir = Log_dir.create ~page_size:64 () in
  ignore (Log.force_write (Log_dir.current dir) "committed");
  let pending = Log_dir.begin_new dir in
  ignore (Log.force_write pending "half-built");
  (* Crash before switch: old log must still be current. *)
  let dir' = Log_dir.open_ dir in
  Alcotest.(check string) "old still current" "committed" (Log.read (Log_dir.current dir') 0)

(* Regression: [Log_dir.open_] must mend the anchor it reads, not only
   the root. A crash landing between a slot store's two careful writes
   leaves its replicas diverged; reopening the directory must mend them. *)
let test_log_dir_recovers_slot_stores () =
  let dir = Log_dir.create ~page_size:64 () in
  let log = Log_dir.current dir in
  ignore (Log.force_write log "seed");
  ignore (Log.write log "doomed");
  (* The force's first physical write (data page, replica A) succeeds;
     the second (replica B) tears. *)
  let slot = List.nth (Log_dir.stores dir) 1 in
  (match Helpers.crash_nth (Store.is_write slot) 2 (fun () -> Log.force log) with
  | () -> Alcotest.fail "expected crash"
  | exception Disk.Crash -> ());
  Alcotest.(check bool) "replicas diverged by the crash" true
    (Store.agreement_issues slot <> []);
  let dir' = Log_dir.open_ dir in
  List.iter
    (fun s ->
      Alcotest.(check (list (pair int string))) "all stores agree after open_" []
        (Store.agreement_issues s))
    (Log_dir.stores dir');
  Alcotest.(check string) "forced prefix intact" "seed" (Log.read (Log_dir.current dir') 0)

(* [Log_dir.open_] reads the root and the current anchor, each mirror
   once, and no segment page: a segment pair a crash left diverged stays
   so until the log reads it, and the careful get that does mends it.
   [Log_dir.scrub] mends every pair without the log reading anything. *)
let test_log_dir_open_reads_anchors_only () =
  let diverged () =
    let dir = Log_dir.create ~page_size:64 () in
    let log = Log_dir.current dir in
    ignore (Log.force_write log "seed");
    ignore (Log.write log "doomed");
    let seg = Option.get (Log_dir.segment_store dir (List.hd (Log_dir.segment_ids dir))) in
    (* The force rewrites the tail page: replica A lands, B tears. *)
    (match Helpers.crash_nth (Store.is_write seg) 2 (fun () -> Log.force log) with
    | () -> Alcotest.fail "expected crash"
    | exception Disk.Crash -> ());
    Alcotest.(check bool) "segment replicas diverged by the crash" true
      (Store.agreement_issues seg <> []);
    (dir, seg)
  in
  let dir, seg = diverged () in
  let r0 = Log_dir.physical_reads dir in
  let dir' = Log_dir.open_ dir in
  Alcotest.(check int) "open_ reads the root and one anchor page" 4
    (Log_dir.physical_reads dir' - r0);
  Alcotest.(check bool) "the unread segment is not yet mended" true
    (Store.agreement_issues seg <> []);
  Alcotest.(check string) "forced prefix intact" "seed" (Log.read (Log_dir.current dir') 0);
  Alcotest.(check (list (pair int string))) "the read mended it" [] (Store.agreement_issues seg);
  let dir, _ = diverged () in
  Log_dir.scrub dir;
  List.iter
    (fun s ->
      Alcotest.(check (list (pair int string))) "all stores agree after scrub" []
        (Store.agreement_issues s))
    (Log_dir.stores dir)

(* Hardening: a corrupted length word read back from the store must raise
   [Invalid_argument], never fabricate an entry or walk out of bounds. *)
let test_corrupt_length_word () =
  let s = Helpers.seg_log () in
  let l = s.log in
  let a0 = Log.write l "first-entry" in
  let a1 = Log.write l "second-entry" in
  Log.force l;
  (* Smash the leading length word of entry 0 (stream bytes 0..3, on data
     page 0 = page 1 of the first segment) to a huge value through the
     store, then reopen so reads bypass the volatile page cache. *)
  let store = Helpers.segment_of s 0 in
  let page = Option.get (Store.get store 1) in
  let corrupt = "\xff\xff\xff\xff" ^ String.sub page 4 (String.length page - 4) in
  Store.put store 1 corrupt;
  let l' = Helpers.reopen s in
  Alcotest.check_raises "read rejects the bogus length"
    (Invalid_argument "Stable_log.read: not an entry boundary") (fun () ->
      ignore (Log.read l' a0));
  (* The trailing word of entry 0 backs [prev_addr] from entry 1: corrupt
     it too and the backward walk must stop with the same error. *)
  let page = Option.get (Store.get store 1) in
  let b = Bytes.of_string page in
  Bytes.blit_string "\xff\xff\xff\xff" 0 b (a1 - 4) 4;
  Store.put store 1 (Bytes.to_string b);
  let l'' = Helpers.reopen s in
  Alcotest.check_raises "prev_addr rejects the bogus length"
    (Invalid_argument "Stable_log.prev_addr: not an entry boundary") (fun () ->
      ignore (List.of_seq (Log.read_backward l'' a1)))

(* ---------- Segments ---------- *)

let test_segmented_write_read () =
  let s = Helpers.seg_log ~page_size:32 ~segment_pages:2 () in
  let l = s.log and registry = s.registry in
  (* Entries sized to straddle pages and segment boundaries (64 bytes per
     segment here). *)
  let payload i = String.make (11 + (i * 13 mod 70)) (Char.chr (97 + (i mod 26))) in
  let addrs = List.init 12 (fun i -> (i, Log.write l (payload i))) in
  Log.force l;
  Alcotest.(check bool) "spans several segments" true (List.length (Log.segment_table l) >= 3);
  Alcotest.(check int) "registry matches table" (List.length (Log.segment_table l))
    (Hashtbl.length registry);
  List.iter
    (fun (i, a) ->
      Alcotest.(check string) (Printf.sprintf "entry %d" i) (payload i) (Log.read l a))
    addrs;
  (* Every segment header describes its table slot. *)
  let cap = 2 * 32 in
  List.iter
    (fun (idx, id) ->
      let s = Option.get (Hashtbl.find_opt registry id) in
      let h = Log.decode_segment_header (Option.get (Store.get s 0)) in
      Alcotest.(check int) "header id" id h.Log.seg_id;
      Alcotest.(check int) "header index" idx h.Log.seg_index;
      Alcotest.(check int) "header base" (idx * cap) h.Log.seg_base)
    (Log.segment_table l);
  (* Reopen from the anchor alone: only the header page is read, segments
     resolve through the provider. *)
  let l' = Helpers.reopen s in
  Alcotest.(check int) "count survives" 12 (Log.entry_count l');
  List.iter
    (fun (i, a) ->
      Alcotest.(check string) (Printf.sprintf "reopened %d" i) (payload i) (Log.read l' a))
    addrs

let test_segmented_retire () =
  let s = Helpers.seg_log ~page_size:32 ~segment_pages:2 () in
  let l = s.log and registry = s.registry and released = s.released in
  let addrs = List.init 12 (fun i -> Log.write l (String.make 20 (Char.chr (65 + i)))) in
  Log.force l;
  let before = List.length (Log.segment_table l) in
  (* Retire below the 8th entry: frames are 28 bytes, so entries 0..7
     cover stream bytes 0..223 — segments 0..2 (64 bytes each) die. *)
  let cut = List.nth addrs 8 in
  Log.retire_below l cut;
  Alcotest.(check int) "low water" cut (Log.low_water l);
  Alcotest.(check int) "live bytes" (Log.stream_bytes l - cut) (Log.live_bytes l);
  Alcotest.(check bool) "segments unlinked" true (List.length (Log.segment_table l) < before);
  Alcotest.(check bool) "pages returned" true (!released <> []);
  List.iter
    (fun id ->
      Alcotest.(check bool) "released id not in registry" false (Hashtbl.mem registry id))
    !released;
  (* Dead addresses are unreadable; live ones still read fine. *)
  Alcotest.check_raises "retired address rejected"
    (Invalid_argument "Stable_log.read: address below the low-water mark") (fun () ->
      ignore (Log.read l (List.hd addrs)));
  Alcotest.(check string) "live entry reads" (String.make 20 'I') (Log.read l cut);
  (* The backward walk stops at the mark. *)
  let top = Option.get (Log.get_top l) in
  Alcotest.(check int) "walk covers live suffix" 4
    (List.length (List.of_seq (Log.read_backward l top)));
  (* Retiring the whole forced stream keeps the tail segment: it backs the
     next force's read-modify-write. *)
  Log.retire_below l (Log.end_addr l);
  Alcotest.(check bool) "tail segment survives" true (List.length (Log.segment_table l) = 1);
  Alcotest.(check (option int)) "nothing live to walk" None (Log.get_top l);
  (* And the log keeps appending across the fully-retired boundary. *)
  let a = Log.force_write l "after-retirement" in
  Alcotest.(check string) "append after retirement" "after-retirement" (Log.read l a);
  let l' = Helpers.reopen s in
  Alcotest.(check string) "and survives reopen" "after-retirement" (Log.read l' a)

(* Crash injected at each segment-lifecycle boundary via the fault hook;
   [Log_dir.open_] must recover the forced prefix and sweep any segment
   the crash stranded between allocation and header-link. *)
let test_segment_boundary_crashes () =
  List.iter
    (fun (stage, label, expect_entries) ->
      let dir = Log_dir.create ~page_size:32 ~segment_pages:2 () in
      let log = Log_dir.current dir in
      ignore (Log.force_write log (String.make 40 'a'));
      let live_before = Log_dir.live_segments dir in
      let at_stage = function
        | Log.Segment (Log.Seg_alloc _) -> stage = `Alloc
        | Log.Segment Log.Seg_link -> stage = `Link
        | _ -> false
      in
      let crashed =
        match
          Helpers.crash_nth at_stage 1 (fun () ->
              List.iter (fun _ -> ignore (Log.write log (String.make 40 'b'))) [ 1; 2; 3 ];
              Log.force log)
        with
        | () -> false
        | exception Disk.Crash -> true
      in
      Alcotest.(check bool) (label ^ ": crash fired") true crashed;
      let dir' = Log_dir.open_ dir in
      let log' = Log_dir.current dir' in
      (* Seg_alloc fires before the header write: the interrupted force is
         lost and only the pre-crash prefix survives. Seg_link fires after
         it — the commit point — so there the force is already durable. *)
      Alcotest.(check int) (label ^ ": forced prefix") expect_entries (Log.entry_count log');
      Alcotest.(check string) (label ^ ": survivor") (String.make 40 'a') (Log.read log' 0);
      (* No stranded segments: the pool holds exactly the table's ids. *)
      if stage = `Alloc then
        Alcotest.(check int)
          (label ^ ": stranded segment swept") live_before (Log_dir.live_segments dir');
      Alcotest.(check (list int))
        (label ^ ": registry = table")
        (List.sort compare (List.map snd (Log.segment_table log')))
        (Log_dir.segment_ids dir');
      (* And the survivor keeps working. *)
      ignore (Log.force_write log' "onward"))
    [ (`Alloc, "seg-alloc", 1); (`Link, "seg-link", 4) ]

let test_lru_cache_metrics () =
  (* Entries framed to exactly one 32-byte page each, so reads map 1:1 to
     pages and the eviction order is pinned. *)
  let s = Helpers.seg_log ~page_size:32 () in
  let addrs = List.init 4 (fun i -> Log.write s.log (String.make 24 (Char.chr (65 + i)))) in
  Log.force s.log;
  let l = Helpers.reopen ~cache_pages:2 s in
  let a n = List.nth addrs n in
  (* A miss is a page fetch from the store, so miss counts pin the cache's
     behavior exactly; a single [read] may consult its page several times
     (length word, payload), so hit counts are only checked to grow. *)
  let expect n misses label =
    Alcotest.(check string) (label ^ ": payload") (String.make 24 (Char.chr (65 + n)))
      (Log.read l (a n));
    Alcotest.(check int) (label ^ ": misses") misses (Log.cache_misses l)
  in
  expect 0 1 "cold read fetches page 0";
  let h = Log.cache_hits l in
  expect 0 1 "re-read served from cache";
  Alcotest.(check bool) "re-read registered hits" true (Log.cache_hits l > h);
  expect 1 2 "second page fetched";
  expect 0 2 "page 0 still cached";
  expect 2 3 "third page fetched (evicts LRU page 1)";
  expect 1 4 "page 1 was evicted";
  expect 2 4 "page 2 still cached"

(* Property: entry framing survives any mix of sizes straddling page and
   segment boundaries, reopening after every force, with occasional
   online retirement — the reopened log always reproduces exactly the
   forced prefix above the low-water mark. *)
let test_framing_fuzz () =
  let rng = Rs_util.Rng.create 0xf5a9 in
  for case = 0 to 549 do
    let page_size = 16 + Rs_util.Rng.int rng 49 in
    let s = Helpers.seg_log ~page_size ~segment_pages:(1 + Rs_util.Rng.int rng 3) () in
    let l = ref s.log in
    (* Model: forced prefix, pending suffix, low-water mark. *)
    let forced = ref [] (* newest first *) and pending = ref [] and lw = ref 0 in
    let verify label =
      let live () = List.filter (fun (a, _) -> a >= !lw) !forced in
      (match (Log.get_top !l, live ()) with
      | None, [] -> ()
      | Some top, (a, _) :: _ when top = a ->
          let walked = List.of_seq (Log.read_backward !l top) in
          if walked <> live () then
            Alcotest.failf "case %d (%s): backward walk diverges from model" case label
      | top, liv ->
          Alcotest.failf "case %d (%s): top %s, model %s" case label
            (match top with None -> "none" | Some a -> string_of_int a)
            (match liv with [] -> "empty" | (a, _) :: _ -> string_of_int a));
      Alcotest.(check int)
        (Printf.sprintf "case %d (%s): low water" case label)
        !lw (Log.low_water !l)
    in
    for _op = 0 to 13 + Rs_util.Rng.int rng 10 do
      match Rs_util.Rng.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 | 5 ->
          (* Sizes from empty through several pages (and, with small
             segment_pages, whole segments). *)
          let len = Rs_util.Rng.int rng (3 * page_size) in
          let payload = String.init len (fun i -> Char.chr (32 + ((i + len) mod 90))) in
          let a = Log.write !l payload in
          pending := (a, payload) :: !pending
      | 6 | 7 ->
          Log.force !l;
          forced := !pending @ !forced;
          pending := [];
          (* Reopen after every force: the crash contract in miniature. *)
          l := Helpers.reopen s;
          verify "reopen"
      | 8 ->
          let a = Log.force_write !l "marker" in
          forced := ((a, "marker") :: !pending) @ !forced;
          pending := [];
          verify "force_write"
      | _ ->
          (* Retire at a random forced entry boundary (pending suffix kept:
             the log clamps the mark to the forced stream). *)
          Log.force !l;
          forced := !pending @ !forced;
          pending := [];
          (match !forced with
          | [] -> ()
          | entries ->
              let a, _ = List.nth entries (Rs_util.Rng.int rng (List.length entries)) in
              if a > !lw then begin
                Log.retire_below !l a;
                lw := a
              end);
          verify "retire"
    done;
    Log.force !l;
    forced := !pending @ !forced;
    pending := [];
    l := Helpers.reopen s;
    verify "final"
  done

(* Property: under any sequence of writes, forces, and a final crash, the
   reopened log holds exactly the entries written before the last force,
   in order. *)
let prop_forced_prefix =
  QCheck.Test.make ~name:"reopen = forced prefix" ~count:200
    QCheck.(pair small_nat (list (pair small_nat bool)))
    (fun (page_size, script) ->
      let page_size = 16 + (page_size * 7) in
      let s = Helpers.seg_log ~page_size () in
      let l = s.log in
      let written = ref [] in
      let forced = ref [] in
      List.iteri
        (fun i (len, do_force) ->
          let payload = String.make (len mod 50) (Char.chr (65 + (i mod 26))) in
          ignore (Log.write l payload);
          written := payload :: !written;
          if do_force then begin
            Log.force l;
            forced := !written
          end)
        script;
      let l' = Helpers.reopen s in
      let survived =
        match Log.get_top l' with
        | None -> []
        | Some top -> List.of_seq (Seq.map snd (Log.read_backward l' top))
      in
      survived = !forced)

(* Property: the write path frames every entry straight into the pages it
   is stored on. A random script of [write]/[write_with] (payloads of 0 to
   3 pages) and [force] runs against a reference stream of frames; after
   every step the stored pages are that stream cut into pages, every
   address reads back (forward and backward) whether forced or pending,
   and each force ships exactly the entries written since the last one. *)
let prop_write_path =
  let frame p =
    let w = Bytes.create 4 in
    Bytes.set_int32_le w 0 (Int32.of_int (String.length p));
    Bytes.to_string w ^ p ^ Bytes.to_string w
  in
  QCheck.Test.make ~name:"pages = framed stream, pending or forced" ~count:150
    QCheck.(pair (int_range 16 48) (list_of_size Gen.(0 -- 24) (pair (int_range 0 5) small_nat)))
    (fun (page_size, script) ->
      let s = Helpers.seg_log ~page_size ~segment_pages:2 () in
      let l = s.log in
      let stream = Buffer.create 256 in
      let entries = ref [] (* (addr, payload), newest first *) in
      let forced_len = ref 0 in
      let since_force = ref [] in
      let shipped = ref None in
      Log.set_on_force l (Some (fun b -> shipped := Some b));
      let stored_page p = Store.get (Helpers.segment_of s p) (1 + (p mod 2)) in
      let check () =
        let pages = (!forced_len + page_size - 1) / page_size in
        for p = 0 to pages - 1 do
          let off = p * page_size in
          let expect = Buffer.sub stream off (min page_size (!forced_len - off)) in
          if stored_page p <> Some expect then QCheck.Test.fail_reportf "stored page %d differs" p
        done;
        let oldest_first = List.rev !entries in
        List.iteri
          (fun i (a, payload) ->
            if Log.read l a <> payload then QCheck.Test.fail_reportf "read %d differs" a;
            let back = List.of_seq (Log.read_backward l a) in
            if back <> List.rev (List.filteri (fun j _ -> j <= i) oldest_first) then
              QCheck.Test.fail_reportf "read_backward %d differs" a;
            if List.of_seq (Log.read_forward l a) <> List.filteri (fun j _ -> j >= i) oldest_first
            then QCheck.Test.fail_reportf "read_forward %d differs" a)
          oldest_first;
        Log.end_addr l = Buffer.length stream
      in
      List.for_all
        (fun (op, n) ->
          let len = n * 7 mod ((3 * page_size) + 1) in
          let payload = String.init len (fun i -> Char.chr ((i + len) land 0xFF)) in
          (match op with
          | 0 | 1 ->
              let a = Log.write l payload in
              entries := (a, payload) :: !entries;
              since_force := (a, payload) :: !since_force;
              Buffer.add_string stream (frame payload)
          | 2 | 3 ->
              (* The encoder is reused: each entry must hold only its own
                 bytes. *)
              let a =
                Log.write_with l (fun enc ->
                    Rs_util.Codec.Enc.varint enc len;
                    Rs_util.Codec.Enc.raw enc payload)
              in
              let e = Rs_util.Codec.Enc.create () in
              Rs_util.Codec.Enc.varint e len;
              let payload = Rs_util.Codec.Enc.contents e ^ payload in
              entries := (a, payload) :: !entries;
              since_force := (a, payload) :: !since_force;
              Buffer.add_string stream (frame payload)
          | _ ->
              let base = !forced_len in
              shipped := None;
              Log.force l;
              forced_len := Buffer.length stream;
              (match !shipped with
              | None -> if !since_force <> [] then QCheck.Test.fail_report "force shipped nothing"
              | Some b ->
                  if b.Log.fb_base <> base || b.Log.fb_entries <> List.rev !since_force then
                    QCheck.Test.fail_report "shipped batch differs");
              since_force := []);
          check ())
        script)

let suite =
  [
    Alcotest.test_case "write and read" `Quick test_write_read;
    Alcotest.test_case "force semantics" `Quick test_force_semantics;
    Alcotest.test_case "read backward" `Quick test_read_backward;
    Alcotest.test_case "crash loses unforced tail" `Quick test_crash_loses_unforced;
    Alcotest.test_case "reopen many entries" `Quick test_reopen_many_entries;
    Alcotest.test_case "crash mid force" `Quick test_crash_mid_force;
    Alcotest.test_case "read metrics" `Quick test_metrics;
    Alcotest.test_case "destroy" `Quick test_destroy;
    Alcotest.test_case "log dir switch" `Quick test_log_dir_switch;
    Alcotest.test_case "log dir crash before switch" `Quick test_log_dir_crash_before_switch;
    Alcotest.test_case "log dir open recovers slot stores" `Quick
      test_log_dir_recovers_slot_stores;
    Alcotest.test_case "log dir open reads only root and anchor" `Quick
      test_log_dir_open_reads_anchors_only;
    Alcotest.test_case "corrupt length word rejected" `Quick test_corrupt_length_word;
    Alcotest.test_case "segmented write/read/reopen" `Quick test_segmented_write_read;
    Alcotest.test_case "segmented retirement" `Quick test_segmented_retire;
    Alcotest.test_case "crash at segment boundaries" `Quick test_segment_boundary_crashes;
    Alcotest.test_case "page cache hits and eviction" `Quick test_lru_cache_metrics;
    Alcotest.test_case "framing fuzz (550 cases)" `Quick test_framing_fuzz;
    QCheck_alcotest.to_alcotest prop_forced_prefix;
    QCheck_alcotest.to_alcotest prop_write_path;
  ]
