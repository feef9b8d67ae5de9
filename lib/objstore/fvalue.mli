(** Flattened object versions: the serializable form produced by the
    incremental copying algorithm (§2.4.3, Fig. 3-4).

    A flattened value is a node table plus a root index. References to
    other {e recoverable} objects appear as {!node.Nuid} leaves; contained
    regular objects are inlined as nodes, and sharing (or cycles) among
    them inside one recoverable object is preserved by node indices —
    exactly the sharing §2.4.3 says must be kept. *)

type node =
  | Nunit
  | Nbool of bool
  | Nint of int
  | Nstr of string
  | Ntup of int array  (** children by node index *)
  | Nuid of Rs_util.Uid.t  (** stable-storage reference to a recoverable object *)
  | Nregular of int  (** an inlined regular object wrapping one child node *)

type t = private { nodes : node array; root : int }

val make : nodes:node array -> root:int -> t
(** Raises [Invalid_argument] if any index (root or child) is out of
    bounds. *)

val uids : t -> Rs_util.Uid.t list
(** Recoverable objects referenced by this version, deduplicated, in first-
    occurrence order — the candidates for the NAOS check (§3.3.3.2). *)

val encode : Rs_util.Codec.Enc.t -> t -> unit
(** The varint node count, each node in index order, then the root
    index. {!Flatten.encode} writes the same bytes straight from a heap
    value. *)

val decode : Rs_util.Codec.Dec.t -> t
(** Raises {!Rs_util.Codec.Error} on malformed input. The node table is
    built without forcing a minor collection, however many nodes it has
    (see {!Rs_util.Vec}). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val of_int : int -> t
(** Convenience: a one-node flattened integer (tests, synthetic data). *)

val of_string : string -> t
