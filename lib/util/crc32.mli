(** CRC-32 (IEEE 802.3 polynomial) used to frame and validate log records
    and stable-storage pages. A torn or decayed page fails its checksum and
    is treated as bad by the careful-read procedure.

    The result is the standard reflected 0xEDB88320 CRC. It is computed in
    C ([crc32_stubs.c]) by one of two kernels, chosen from what the code
    can observe and from nothing a caller sets:
    - on x86-64, when the CPU reports PCLMULQDQ and SSE4.1 (read once, at
      module initialisation), an input of at least 64 bytes has its largest
      multiple of 16 bytes folded with carry-less multiplies;
    - slicing-by-8 over one 8×256 table takes everything else: inputs
      shorter than 64 bytes, the last 0–15 bytes of a folded input, and
      every input on other CPUs and architectures.

    Neither allocates; only the [int32] result is boxed. *)

val string : ?off:int -> ?len:int -> string -> int32
(** [string s] is the CRC-32 of [s] (or of the given substring). Raises
    [Invalid_argument] on out-of-bounds ranges. *)

val bytes : ?off:int -> ?len:int -> bytes -> int32
(** As {!string}, over bytes. *)
