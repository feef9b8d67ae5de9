(** Binary serialization used for log entries and stable-storage records.

    The format is deliberately simple: little-endian fixed-width ints where
    alignment matters, LEB128 varints for counts and small ids, and
    length-prefixed strings. Decoders raise {!Error} (never [Failure] or an
    out-of-bounds exception) on malformed input, so a torn record surfaces
    as a clean decode failure. *)

exception Error of string

(** Encoder: an append-only byte sink. *)
module Enc : sig
  type t

  val create : ?size:int -> unit -> t
  val length : t -> int
  val contents : t -> string

  val clear : t -> unit
  (** Empty the encoder, keeping its storage for reuse. *)

  val blit : t -> int -> bytes -> int -> int -> unit
  (** [blit t src_off dst dst_off len] copies encoded bytes into [dst]
      without materializing them as a string. *)

  val raw : t -> string -> unit
  (** Append bytes verbatim, with no length prefix. *)

  val u8 : t -> int -> unit
  (** Raises [Invalid_argument] if not in [0, 255]. *)

  val u32 : t -> int32 -> unit
  val varint : t -> int -> unit
  (** Zig-zag LEB128; any native [int] roundtrips. *)

  val bool : t -> bool -> unit
  val string : t -> string -> unit
  val option : (t -> 'a -> unit) -> t -> 'a option -> unit
  val list : (t -> 'a -> unit) -> t -> 'a list -> unit
  val array : (t -> 'a -> unit) -> t -> 'a array -> unit
  val pair : (t -> 'a -> unit) -> (t -> 'b -> unit) -> t -> 'a * 'b -> unit
end

(** Decoder: a cursor over a string. *)
module Dec : sig
  type t

  val of_string : ?off:int -> ?len:int -> string -> t
  val remaining : t -> int

  val finished : t -> bool
  (** True when the cursor has consumed its whole range. *)

  val expect_end : t -> unit
  (** Raises {!Error} if input remains: detects trailing garbage. *)

  val u8 : t -> int
  val u32 : t -> int32

  val skip : t -> int -> unit
  (** Advance the cursor without materializing bytes. Raises {!Error} if
      fewer bytes remain. *)

  val varint : t -> int
  val bool : t -> bool
  val string : t -> string
  val option : (t -> 'a) -> t -> 'a option
  val list : (t -> 'a) -> t -> 'a list
  val array : (t -> 'a) -> t -> 'a array
  val pair : (t -> 'a) -> (t -> 'b) -> t -> 'a * 'b
end
