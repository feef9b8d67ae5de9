(** Log-entry formats for both log organizations.

    Fig. 3-1 defines the simple-log formats; Fig. 4-1 the hybrid ones. One
    type covers both:
    - a simple-log data entry carries [uid], [otype] and [aid]; a hybrid
      data entry omits [uid]/[aid] (the prepared entry's ⟨uid, log-address⟩
      pairs carry them) but keeps [otype], which compaction needs (§5.1.1);
    - a hybrid [Prepared] entry carries the pair list — the piece of the
      shadowing map distributed over the log — a simple-log one does not;
    - every hybrid outcome entry carries [prev], the backward chain of
      outcome entries; in simple-log entries [prev] is [None]. *)

type otype = Atomic | Mutex

type addr = Rs_slog.Stable_log.addr

type pairs = (Rs_util.Uid.t * addr) list
(** ⟨object uid, log address of its data entry⟩ pairs (§4.2). *)

type t =
  | Data of {
      uid : Rs_util.Uid.t option;
      otype : otype;
      aid : Rs_util.Aid.t option;
      version : Rs_objstore.Fvalue.t;
    }
  | Prepared of { aid : Rs_util.Aid.t; pairs : pairs option; prev : addr option }
  | Committed of { aid : Rs_util.Aid.t; prev : addr option }
  | Aborted of { aid : Rs_util.Aid.t; prev : addr option }
  | Committing of { aid : Rs_util.Aid.t; gids : Rs_util.Gid.t list; prev : addr option }
  | Done of { aid : Rs_util.Aid.t; prev : addr option }
  | Base_committed of {
      uid : Rs_util.Uid.t;
      version : Rs_objstore.Fvalue.t;
      prev : addr option;
    }  (** combined data + prepare + commit for a newly accessible base
           version (§3.3.3.2) *)
  | Prepared_data of {
      uid : Rs_util.Uid.t;
      version : Rs_objstore.Fvalue.t;
      aid : Rs_util.Aid.t;
      prev : addr option;
    }  (** combined data + prepare for another prepared action's current
           version of a newly accessible object (§3.3.3.2) *)
  | Committed_ss of { cssl : pairs; prev : addr option }
      (** checkpoint of the committed stable state (§5.1.1): commit and
          prepare of an anonymous action covering the whole CSSL *)

val is_outcome : t -> bool
(** Everything except [Data] (§3.2: outcome entries are chained in the
    hybrid log; data entries are not). *)

val is_outcome_raw : string -> bool
(** {!is_outcome} on an encoded entry, peeking only the tag byte — lets
    bulk recovery scans discard data entries without decoding them. *)

val is_outcome_at : string -> off:int -> len:int -> bool
(** {!is_outcome_raw} on an encoded entry stored at [buf.[off .. off+len-1]]
    — peeks the tag in place, for scanners that avoid copying frames. *)

val decode_at : string -> off:int -> len:int -> t
(** {!decode} on an encoded entry stored at [buf.[off .. off+len-1]],
    without copying it out first. *)

val prev : t -> addr option
(** The chain pointer of an outcome entry; [None] for [Data]. *)

val with_prev : t -> addr option -> t
(** Replace the chain pointer (identity on [Data]). *)

val encode : t -> string
val decode : string -> t
(** Raises {!Rs_util.Codec.Error} on malformed input. *)

val encode_into : Rs_util.Codec.Enc.t -> t -> unit
(** {!encode} into an existing encoder. *)

val write : Rs_slog.Stable_log.t -> t -> addr
(** Append the entry to the log (buffered), encoding it straight into the
    log's pending pages through {!Rs_slog.Stable_log.write_with}: no
    per-entry string. Returns its address. *)

val read_data : Rs_slog.Stable_log.t -> addr -> otype * Rs_objstore.Fvalue.t
(** The object type and version of the data entry at [addr] — what a
    ⟨uid, address⟩ pair, a CSSL, the MT or a shadow map points at. Raises
    [Failure] if the entry there is not a data entry. *)

val data_of : addr -> t option -> otype * Rs_objstore.Fvalue.t
(** {!read_data} on the entry already decoded from [addr], or on [None]
    when the caller knows no entry there: same result, same [Failure]. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
