(* Tests for the simulated disks and the Lampson–Sturgis stable store:
   the atomicity property must hold at every possible crash point. *)

module Disk = Rs_storage.Disk
module Store = Rs_storage.Stable_store
module Rng = Rs_util.Rng
module Fault_hook = Rs_util.Fault_hook

(* The disk stores whatever checksum it is handed; only the stable store
   judges it, so the disk tests write a dummy one. *)
let page data = Disk.Good { data; crc = 0 }
let data_of d p = match Disk.read d p with Disk.Good g -> Some g.data | Disk.Bad -> None

let test_disk_basic () =
  let d = Disk.create ~pages:4 () in
  Alcotest.(check (option string)) "unwritten" None (data_of d 0);
  Disk.write d 0 (page "hello");
  Alcotest.(check (option string)) "written" (Some "hello") (data_of d 0);
  Disk.write d 0 (page "bye");
  Alcotest.(check (option string)) "overwritten" (Some "bye") (data_of d 0);
  Disk.decay d 0;
  Alcotest.(check (option string)) "decayed" None (data_of d 0)

let test_disk_growth () =
  let d = Disk.create ~pages:2 () in
  Disk.write d 100 (page "far");
  Alcotest.(check bool) "grew" true (Disk.pages d >= 101);
  Alcotest.(check (option string)) "read far" (Some "far") (data_of d 100);
  Alcotest.(check (option string)) "beyond end" None (data_of d 100000)

let test_disk_crash () =
  let d = Disk.create ~pages:4 () in
  Disk.write d 1 (page "ok");
  (match
     Helpers.crash_nth (function Disk.Write d' -> d' == d | _ -> false) 2 (fun () ->
         Disk.write d 2 (page "survives");
         Disk.write d 1 (page "torn"))
   with
  | () -> Alcotest.fail "expected crash"
  | exception Disk.Crash -> ());
  Alcotest.(check (option string)) "torn page is bad" None (data_of d 1);
  Alcotest.(check (option string)) "other page survives" (Some "survives") (data_of d 2);
  Alcotest.(check int) "torn count" 1 (Disk.stats d).torn_writes

(* The fault seam's scope guarantee: a hook and a mutation installed with
   [with_*] are gone once the body raises [Disk.Crash] (every injected
   schedule ends that way), a nested install restores the outer one, and
   the next disk write afterwards lands untorn. *)
type Fault_hook.mutation += Probe

let test_fault_hook_scoped () =
  let d = Disk.create ~pages:2 () in
  let crash _ = Fault_hook.Crash in
  let counted = ref 0 in
  let count _ =
    incr counted;
    Fault_hook.Go
  in
  Fault_hook.with_hook count (fun () ->
      Fault_hook.with_mutations [ Probe ] (fun () ->
          (match Fault_hook.with_hook crash (fun () -> Disk.write d 0 (page "torn")) with
          | () -> Alcotest.fail "expected crash"
          | exception Disk.Crash -> ());
          Fault_hook.with_mutations [] (fun () ->
              Alcotest.(check bool) "inner set replaces" false (Fault_hook.mutated Probe));
          Alcotest.(check bool) "outer mutation back" true (Fault_hook.mutated Probe));
      Disk.write d 1 (page "counted"));
  Alcotest.(check int) "outer hook back after the inner crash" 1 !counted;
  (match
     Fault_hook.with_hook crash (fun () ->
         Fault_hook.with_mutations [ Probe ] (fun () -> Disk.write d 0 (page "torn")))
   with
  | () -> Alcotest.fail "expected crash"
  | exception Disk.Crash -> ());
  Alcotest.(check bool) "no hook after the crash" false (Fault_hook.active ());
  Alcotest.(check bool) "no mutation after the crash" false (Fault_hook.mutated Probe);
  Disk.write d 0 (page "after");
  Alcotest.(check (option string)) "next write lands untorn" (Some "after") (data_of d 0);
  Alcotest.(check int) "torn count" 2 (Disk.stats d).torn_writes

let test_store_basic () =
  let s = Store.create ~pages:4 () in
  Alcotest.(check (option string)) "unwritten" None (Store.get s 0);
  Store.put s 0 "alpha";
  Store.put s 1 "beta";
  Alcotest.(check (option string)) "get 0" (Some "alpha") (Store.get s 0);
  Alcotest.(check (option string)) "get 1" (Some "beta") (Store.get s 1);
  Store.put s 0 "gamma";
  Alcotest.(check (option string)) "overwrite" (Some "gamma") (Store.get s 0)

(* The headline property: crash the careful put after every possible
   number of physical writes; after recovery the page must read as either
   the old or the new value — never garbage, never lost. *)
let test_store_atomicity_sweep () =
  for crash_at = 0 to 6 do
    let s = Store.create ~pages:2 () in
    Store.put s 0 "old";
    (match Helpers.crash_nth (Store.is_write s) (crash_at + 1) (fun () -> Store.put s 0 "new") with
    | () -> () (* crash point beyond this put's writes *)
    | exception Disk.Crash -> ());
    Store.recover s;
    match Store.get s 0 with
    | Some "old" | Some "new" -> ()
    | Some other -> Alcotest.failf "crash_at=%d: garbage %S" crash_at other
    | None -> Alcotest.failf "crash_at=%d: value lost" crash_at
  done

let test_store_decay_repair () =
  let rng = Rng.create 42 in
  let s = Store.create ~pages:8 () in
  for p = 0 to 7 do
    Store.put s p (Printf.sprintf "page%d" p)
  done;
  (* Decay many single representatives; recover must repair them all. *)
  for _ = 1 to 50 do
    Store.decay_random_page s rng;
    Store.recover s
  done;
  for p = 0 to 7 do
    Alcotest.(check (option string))
      (Printf.sprintf "page %d intact" p)
      (Some (Printf.sprintf "page%d" p))
      (Store.get s p)
  done

(* A careful get is itself a repair point: decay one replica of a pair
   and the next get must rewrite it from the good copy (bumping the
   stable_store.repairs counter) — so repeated single-replica decay
   never accumulates into a double failure. *)
let test_store_get_read_repair () =
  let repairs () =
    Option.value ~default:0
      (Rs_obs.Metrics.find_counter Rs_obs.Metrics.default "stable_store.repairs")
  in
  let rng = Rng.create 7 in
  let s = Store.create ~pages:8 () in
  for p = 0 to 7 do
    Store.put s p (Printf.sprintf "page%d" p)
  done;
  let before = repairs () in
  for _ = 1 to 50 do
    Store.decay_random_page s rng;
    for p = 0 to 7 do
      Alcotest.(check (option string))
        (Printf.sprintf "page %d readable" p)
        (Some (Printf.sprintf "page%d" p))
        (Store.get s p)
    done
  done;
  Alcotest.(check bool) "get repaired the decayed replicas" true (repairs () > before);
  Alcotest.(check (list (pair int string))) "replicas agree after repair" []
    (Store.agreement_issues s)

(* A crash between the two careful writes leaves both replicas readable
   but divergent — A new, B stale. A careful get must return A (never
   older than B) and mend B in place, counted as a repair. *)
let test_store_get_repairs_divergent_readable () =
  let repairs () =
    Option.value ~default:0
      (Rs_obs.Metrics.find_counter Rs_obs.Metrics.default "stable_store.repairs")
  in
  let s = Store.create ~pages:4 () in
  Store.put s 2 "old";
  let _, b = Store.disks s in
  (* Capture B's intact stale page, update both replicas, then regress
     B — exactly the state a crash between the careful writes leaves
     behind. *)
  let stale = Disk.read b 2 in
  Store.put s 2 "new";
  Disk.write b 2 stale;
  Alcotest.(check bool) "replicas diverge" true (Store.agreement_issues s <> []);
  let before = repairs () in
  Alcotest.(check (option string)) "get returns the newer value" (Some "new")
    (Store.get s 2);
  Alcotest.(check int) "divergence repaired on the spot" (before + 1) (repairs ());
  Alcotest.(check (list (pair int string))) "replicas agree again" []
    (Store.agreement_issues s);
  Alcotest.(check (option string)) "stable afterwards" (Some "new") (Store.get s 2)

(* The careful put verifies by comparing the read-back bytes and checksum
   with the ones it wrote, and careful reads check agreeing replicas'
   checksum once. These shortcuts must leave every physical read, write
   and repair where checking each replica on its own put them. *)
let io () =
  let c name = Option.value ~default:0 (Rs_obs.Metrics.find_counter Rs_obs.Metrics.default name) in
  (c "disk.reads", c "disk.writes", c "stable_store.repairs")

(* A replica whose bytes no longer match the checksum stored beside them. *)
let spoiled data = Disk.Good { data; crc = Int32.to_int (Rs_util.Crc32.string data) lxor 1 }

let check_io name (r0, w0, p0) ~reads ~writes ~repairs =
  let r1, w1, p1 = io () in
  Alcotest.(check (triple int int int))
    (name ^ ": reads, writes, repairs")
    (reads, writes, repairs)
    (r1 - r0, w1 - w0, p1 - p0)

(* Decay is drawn once per read of an existing page from the rng both
   disks share. Pick the first seed whose draws decay exactly the first
   verify re-read of [victim] (A's comes first), so the retry round must
   rewrite that replica alone. *)
let test_store_put_retries_only_failed_replica () =
  List.iter
    (fun (victim, draws) ->
      let rec seed n =
        let r = Rng.create n in
        if List.for_all (fun d -> Rng.bool r 0.5 = d) draws then n else seed (n + 1)
      in
      let s = Store.create ~rng:(Rng.create (seed 1)) ~decay_prob:0.5 ~pages:4 () in
      let a, b = Store.disks s in
      let before = io () in
      Store.put s 1 "payload";
      check_io ("put, " ^ victim ^ " decayed") before ~reads:3 ~writes:3 ~repairs:0;
      Alcotest.(check (pair int int))
        (victim ^ " alone rewritten")
        (if victim = "A" then (2, 1) else (1, 2))
        ((Disk.stats a).writes, (Disk.stats b).writes))
    [ ("A", [ true; false; false ]); ("B", [ false; true; false ]) ]

let test_store_get_divergent_io () =
  let s = Store.create ~pages:4 () in
  Store.put s 2 "old";
  let _, b = Store.disks s in
  let stale = Disk.read b 2 in
  Store.put s 2 "new";
  Disk.write b 2 stale;
  let before = io () in
  Alcotest.(check (option string)) "A wins" (Some "new") (Store.get s 2);
  check_io "divergent get" before ~reads:2 ~writes:1 ~repairs:1;
  let before = io () in
  Alcotest.(check (option string)) "agreeing get" (Some "new") (Store.get s 2);
  check_io "agreeing get" before ~reads:2 ~writes:0 ~repairs:0

let test_store_get_one_sided_io () =
  let s = Store.create ~pages:4 () in
  Store.put s 0 "zero";
  let a, b = Store.disks s in
  let change_bytes disk =
    match Disk.read disk 0 with
    | Disk.Good g -> Disk.write disk 0 (Disk.Good { g with data = "zer0" })
    | Disk.Bad -> Alcotest.fail "replica unreadable before the spoil"
  in
  List.iter
    (fun (name, spoil) ->
      spoil ();
      let before = io () in
      Alcotest.(check (option string)) name (Some "zero") (Store.get s 0);
      check_io name before ~reads:2 ~writes:1 ~repairs:1;
      Alcotest.(check (list (pair int string))) (name ^ ": mended") [] (Store.agreement_issues s))
    [
      ("B decayed", fun () -> Disk.decay b 0);
      ("A decayed", fun () -> Disk.decay a 0);
      ("B fails its checksum", fun () -> Disk.write b 0 (spoiled "zero"));
      ("A fails its checksum", fun () -> Disk.write a 0 (spoiled "not zero"));
      ("B's bytes change under its checksum", fun () -> change_bytes b);
      ("A's bytes change under its checksum", fun () -> change_bytes a);
    ]

let test_store_get_both_bad_io () =
  let s = Store.create ~pages:4 () in
  Store.put s 3 "three";
  let a, b = Store.disks s in
  Disk.decay a 3;
  Disk.write b 3 (spoiled "garbage");
  let before = io () in
  Alcotest.(check (option string)) "both bad" None (Store.get s 3);
  check_io "both bad" before ~reads:2 ~writes:0 ~repairs:0;
  Disk.write a 3 (spoiled "garbage");
  let before = io () in
  Alcotest.(check (option string)) "equal but bad" None (Store.get s 3);
  check_io "equal but bad" before ~reads:2 ~writes:0 ~repairs:0;
  let before = io () in
  Alcotest.(check (option string)) "never written" None (Store.get s 1);
  check_io "never written" before ~reads:2 ~writes:0 ~repairs:0

(* Agreeing replicas hold the string the put was handed: a careful get
   returns that very string, and allocates far less than a copy of the
   1 KiB page (129 words) would. *)
let test_store_get_returns_stored_string () =
  let s = Store.create ~pages:2 () in
  let data = String.make 1024 'p' in
  Store.put s 0 data;
  let before = Gc.minor_words () in
  let got = Store.get s 0 in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "the put's string itself" true
    (match got with Some g -> g == data | None -> false);
  if words > 16. then Alcotest.failf "get allocated %.0f words" words

let test_store_recover_divergent_io () =
  let s = Store.create ~pages:4 () in
  for p = 0 to 3 do
    Store.put s p (Printf.sprintf "v%d" p)
  done;
  let _, b = Store.disks s in
  let stale = Disk.read b 2 in
  Store.put s 2 "v2'";
  Disk.write b 2 stale;
  let before = io () in
  Store.recover s;
  check_io "recover" before ~reads:8 ~writes:1 ~repairs:1;
  Alcotest.(check (list (pair int string))) "recovered replicas agree" []
    (Store.agreement_issues s);
  Alcotest.(check (option string)) "A's value kept" (Some "v2'") (Store.get s 2)

let test_store_crash_between_pages () =
  (* A multi-page update interrupted between logical pages: each page
     individually must be old-or-new. *)
  let s = Store.create ~pages:2 () in
  Store.put s 0 "a0";
  Store.put s 1 "b0";
  (match
     Helpers.crash_nth (Store.is_write s) 4 (fun () ->
         Store.put s 0 "a1";
         Store.put s 1 "b1")
   with
  | () -> ()
  | exception Disk.Crash -> ());
  Store.recover s;
  (match Store.get s 0 with
  | Some "a0" | Some "a1" -> ()
  | v -> Alcotest.failf "page0 bad: %s" (Option.value v ~default:"<none>"));
  match Store.get s 1 with
  | Some "b0" | Some "b1" -> ()
  | v -> Alcotest.failf "page1 bad: %s" (Option.value v ~default:"<none>")

let prop_store_atomic_random =
  QCheck.Test.make ~name:"stable store atomic under random crash points" ~count:200
    QCheck.(pair small_nat (int_bound 20))
    (fun (page, crash_at) ->
      let page = page mod 4 in
      let s = Store.create ~pages:4 () in
      Store.put s page "before";
      let put () = Store.put s page "after" in
      (match Helpers.crash_nth (Store.is_write s) (crash_at + 1) put with
      | () -> ()
      | exception Disk.Crash -> ());
      Store.recover s;
      match Store.get s page with Some "before" | Some "after" -> true | Some _ | None -> false)

let suite =
  [
    Alcotest.test_case "disk basics" `Quick test_disk_basic;
    Alcotest.test_case "disk growth" `Quick test_disk_growth;
    Alcotest.test_case "disk crash injection" `Quick test_disk_crash;
    Alcotest.test_case "fault hook and mutations are scoped" `Quick test_fault_hook_scoped;
    Alcotest.test_case "store basics" `Quick test_store_basic;
    Alcotest.test_case "store atomicity sweep" `Quick test_store_atomicity_sweep;
    Alcotest.test_case "store decay repair" `Quick test_store_decay_repair;
    Alcotest.test_case "store get read-repair" `Quick test_store_get_read_repair;
    Alcotest.test_case "store get repairs divergent replicas" `Quick
      test_store_get_repairs_divergent_readable;
    Alcotest.test_case "store crash between pages" `Quick test_store_crash_between_pages;
    Alcotest.test_case "put retries only the failed replica" `Quick
      test_store_put_retries_only_failed_replica;
    Alcotest.test_case "divergent get I/O" `Quick test_store_get_divergent_io;
    Alcotest.test_case "one-sided get I/O" `Quick test_store_get_one_sided_io;
    Alcotest.test_case "both-bad get I/O" `Quick test_store_get_both_bad_io;
    Alcotest.test_case "get returns the stored string" `Quick
      test_store_get_returns_stored_string;
    Alcotest.test_case "recover divergent I/O" `Quick test_store_recover_divergent_io;
    QCheck_alcotest.to_alcotest prop_store_atomic_random;
  ]
