module Uid = Rs_util.Uid
module Aid = Rs_util.Aid
module Gid = Rs_util.Gid
module Codec = Rs_util.Codec
module Fvalue = Rs_objstore.Fvalue

type otype = Atomic | Mutex

type addr = Rs_slog.Stable_log.addr
type pairs = (Uid.t * addr) list

type t =
  | Data of { uid : Uid.t option; otype : otype; aid : Aid.t option; version : Fvalue.t }
  | Prepared of { aid : Aid.t; pairs : pairs option; prev : addr option }
  | Committed of { aid : Aid.t; prev : addr option }
  | Aborted of { aid : Aid.t; prev : addr option }
  | Committing of { aid : Aid.t; gids : Gid.t list; prev : addr option }
  | Done of { aid : Aid.t; prev : addr option }
  | Base_committed of { uid : Uid.t; version : Fvalue.t; prev : addr option }
  | Prepared_data of { uid : Uid.t; version : Fvalue.t; aid : Aid.t; prev : addr option }
  | Committed_ss of { cssl : pairs; prev : addr option }

let is_outcome = function
  | Data _ -> false
  | Prepared _ | Committed _ | Aborted _ | Committing _ | Done _ | Base_committed _
  | Prepared_data _ | Committed_ss _ ->
      true

(* The tag byte is the first encoded byte and [Data] is tag 0, so bulk
   scanners can discard data entries without decoding their payloads. *)
let is_outcome_at buf ~off ~len = len > 0 && buf.[off] <> '\000'
let is_outcome_raw raw = is_outcome_at raw ~off:0 ~len:(String.length raw)

let prev = function
  | Data _ -> None
  | Prepared { prev; _ }
  | Committed { prev; _ }
  | Aborted { prev; _ }
  | Committing { prev; _ }
  | Done { prev; _ }
  | Base_committed { prev; _ }
  | Prepared_data { prev; _ }
  | Committed_ss { prev; _ } ->
      prev

let with_prev t prev =
  match t with
  | Data _ -> t
  | Prepared r -> Prepared { r with prev }
  | Committed r -> Committed { r with prev }
  | Aborted r -> Aborted { r with prev }
  | Committing r -> Committing { r with prev }
  | Done r -> Done { r with prev }
  | Base_committed r -> Base_committed { r with prev }
  | Prepared_data r -> Prepared_data { r with prev }
  | Committed_ss r -> Committed_ss { r with prev }

(* Encoding helpers *)

let enc_uid e u = Codec.Enc.varint e (Uid.to_int u)
let dec_uid d = Uid.of_int (Codec.Dec.varint d)

let enc_aid e a =
  Codec.Enc.varint e (Gid.to_int (Aid.coordinator a));
  Codec.Enc.varint e (Aid.seq a)

let dec_aid d =
  let g = Gid.of_int (Codec.Dec.varint d) in
  let seq = Codec.Dec.varint d in
  Aid.make ~coordinator:g ~seq

let enc_gid e g = Codec.Enc.varint e (Gid.to_int g)
let dec_gid d = Gid.of_int (Codec.Dec.varint d)
let enc_addr e (a : addr) = Codec.Enc.varint e a
let dec_addr d : addr = Codec.Dec.varint d
let enc_prev e p = Codec.Enc.option enc_addr e p
let dec_prev d = Codec.Dec.option dec_addr d

let enc_otype e = function Atomic -> Codec.Enc.u8 e 0 | Mutex -> Codec.Enc.u8 e 1

let dec_otype d =
  match Codec.Dec.u8 d with
  | 0 -> Atomic
  | 1 -> Mutex
  | n -> raise (Codec.Error (Printf.sprintf "Log_entry: bad otype %d" n))

let enc_pairs e ps = Codec.Enc.list (Codec.Enc.pair enc_uid enc_addr) e ps
let dec_pairs d = Codec.Dec.list (Codec.Dec.pair dec_uid dec_addr) d

let encode_into e t =
  match t with
  | Data { uid; otype; aid; version } ->
      Codec.Enc.u8 e 0;
      Codec.Enc.option enc_uid e uid;
      enc_otype e otype;
      Codec.Enc.option enc_aid e aid;
      Fvalue.encode e version
  | Prepared { aid; pairs; prev } ->
      Codec.Enc.u8 e 1;
      enc_aid e aid;
      Codec.Enc.option enc_pairs e pairs;
      enc_prev e prev
  | Committed { aid; prev } ->
      Codec.Enc.u8 e 2;
      enc_aid e aid;
      enc_prev e prev
  | Aborted { aid; prev } ->
      Codec.Enc.u8 e 3;
      enc_aid e aid;
      enc_prev e prev
  | Committing { aid; gids; prev } ->
      Codec.Enc.u8 e 4;
      enc_aid e aid;
      Codec.Enc.list enc_gid e gids;
      enc_prev e prev
  | Done { aid; prev } ->
      Codec.Enc.u8 e 5;
      enc_aid e aid;
      enc_prev e prev
  | Base_committed { uid; version; prev } ->
      Codec.Enc.u8 e 6;
      enc_uid e uid;
      Fvalue.encode e version;
      enc_prev e prev
  | Prepared_data { uid; version; aid; prev } ->
      Codec.Enc.u8 e 7;
      enc_uid e uid;
      Fvalue.encode e version;
      enc_aid e aid;
      enc_prev e prev
  | Committed_ss { cssl; prev } ->
      Codec.Enc.u8 e 8;
      enc_pairs e cssl;
      enc_prev e prev

let encode t =
  let e = Codec.Enc.create () in
  encode_into e t;
  Codec.Enc.contents e

let write log t = Rs_slog.Stable_log.write_with log (fun e -> encode_into e t)

let decode_at s ~off ~len =
  let d = Codec.Dec.of_string ~off ~len s in
  let t =
    match Codec.Dec.u8 d with
    | 0 ->
        let uid = Codec.Dec.option dec_uid d in
        let otype = dec_otype d in
        let aid = Codec.Dec.option dec_aid d in
        let version = Fvalue.decode d in
        Data { uid; otype; aid; version }
    | 1 ->
        let aid = dec_aid d in
        let pairs = Codec.Dec.option dec_pairs d in
        let prev = dec_prev d in
        Prepared { aid; pairs; prev }
    | 2 ->
        let aid = dec_aid d in
        let prev = dec_prev d in
        Committed { aid; prev }
    | 3 ->
        let aid = dec_aid d in
        let prev = dec_prev d in
        Aborted { aid; prev }
    | 4 ->
        let aid = dec_aid d in
        let gids = Codec.Dec.list dec_gid d in
        let prev = dec_prev d in
        Committing { aid; gids; prev }
    | 5 ->
        let aid = dec_aid d in
        let prev = dec_prev d in
        Done { aid; prev }
    | 6 ->
        let uid = dec_uid d in
        let version = Fvalue.decode d in
        let prev = dec_prev d in
        Base_committed { uid; version; prev }
    | 7 ->
        let uid = dec_uid d in
        let version = Fvalue.decode d in
        let aid = dec_aid d in
        let prev = dec_prev d in
        Prepared_data { uid; version; aid; prev }
    | 8 ->
        let cssl = dec_pairs d in
        let prev = dec_prev d in
        Committed_ss { cssl; prev }
    | n -> raise (Codec.Error (Printf.sprintf "Log_entry: bad tag %d" n))
  in
  Codec.Dec.expect_end d;
  t

let decode s = decode_at s ~off:0 ~len:(String.length s)

let data_of a = function
  | Some (Data { otype; version; _ }) -> (otype, version)
  | Some
      ( Prepared _ | Committed _ | Aborted _ | Committing _ | Done _ | Base_committed _
      | Prepared_data _ | Committed_ss _ )
  | None ->
      failwith (Printf.sprintf "Log_entry.read_data: no data entry at %d" a)

let read_data log a = data_of a (Some (decode (Rs_slog.Stable_log.read log a)))

let pp_prev fmt = function
  | None -> Format.pp_print_string fmt "nil"
  | Some a -> Format.fprintf fmt "L%d" a

let pp_otype fmt = function
  | Atomic -> Format.pp_print_string fmt "at"
  | Mutex -> Format.pp_print_string fmt "mu"

let pp_pairs fmt ps =
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f "; ")
       (fun f (u, a) -> Format.fprintf f "<%a,L%d>" Uid.pp u a))
    ps

let pp fmt = function
  | Data { uid; otype; aid; version } ->
      Format.fprintf fmt "<data%a,%a%a,%a>"
        (fun f -> function None -> () | Some u -> Format.fprintf f ",%a" Uid.pp u)
        uid pp_otype otype
        (fun f -> function None -> () | Some a -> Format.fprintf f ",%a" Aid.pp a)
        aid Fvalue.pp version
  | Prepared { aid; pairs; prev } ->
      Format.fprintf fmt "<prepared,%a%a,%a>" Aid.pp aid
        (fun f -> function None -> () | Some ps -> Format.fprintf f ",%a" pp_pairs ps)
        pairs pp_prev prev
  | Committed { aid; prev } ->
      Format.fprintf fmt "<committed,%a,%a>" Aid.pp aid pp_prev prev
  | Aborted { aid; prev } -> Format.fprintf fmt "<aborted,%a,%a>" Aid.pp aid pp_prev prev
  | Committing { aid; gids; prev } ->
      Format.fprintf fmt "<committing,%a,{%a},%a>" Aid.pp aid
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ",") Gid.pp)
        gids pp_prev prev
  | Done { aid; prev } -> Format.fprintf fmt "<done,%a,%a>" Aid.pp aid pp_prev prev
  | Base_committed { uid; version; prev } ->
      Format.fprintf fmt "<bc,%a,%a,%a>" Uid.pp uid Fvalue.pp version pp_prev prev
  | Prepared_data { uid; version; aid; prev } ->
      Format.fprintf fmt "<pd,%a,%a,%a,%a>" Uid.pp uid Fvalue.pp version Aid.pp aid
        pp_prev prev
  | Committed_ss { cssl; prev } ->
      Format.fprintf fmt "<committed_ss,%a,%a>" pp_pairs cssl pp_prev prev

let equal a b = String.equal (encode a) (encode b)
