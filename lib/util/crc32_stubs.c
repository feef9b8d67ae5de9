/* CRC-32 (reflected polynomial 0xEDB88320) over an OCaml bytes value.

   Two kernels. On x86-64 with PCLMULQDQ and SSE4.1, the largest multiple
   of 16 bytes of an input of at least 64 bytes is folded with carry-less
   multiplies (Gopal et al., "Fast CRC Computation for Generic Polynomials
   Using PCLMULQDQ Instruction", Intel, 2009). Everything else -- short
   inputs, the tail of up to 15 bytes, other CPUs and other architectures
   -- runs slicing-by-8 over one 8x256 table. The choice depends only on
   the CPU and the input length, read once at initialisation. */

#define CAML_NAME_SPACE
#include <stddef.h>
#include <stdint.h>
#include <caml/mlvalues.h>

/* table[k][n] advances byte n past k further bytes of an 8-byte block. */
static uint32_t table[8][256];

static uint32_t slice8(uint32_t c, const unsigned char *p, size_t n)
{
  while (n >= 8) {
    uint32_t lo = c ^ ((uint32_t)p[0] | (uint32_t)p[1] << 8
                       | (uint32_t)p[2] << 16 | (uint32_t)p[3] << 24);
    uint32_t hi = (uint32_t)p[4] | (uint32_t)p[5] << 8
                  | (uint32_t)p[6] << 16 | (uint32_t)p[7] << 24;
    c = table[7][lo & 0xFF] ^ table[6][(lo >> 8) & 0xFF]
        ^ table[5][(lo >> 16) & 0xFF] ^ table[4][lo >> 24]
        ^ table[3][hi & 0xFF] ^ table[2][(hi >> 8) & 0xFF]
        ^ table[1][(hi >> 16) & 0xFF] ^ table[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n--) c = (c >> 8) ^ table[0][(c ^ *p++) & 0xFF];
  return c;
}

#if defined(__x86_64__)
#include <immintrin.h>

#define CLMUL __attribute__((target("pclmul,sse4.1")))

static int use_fold;

/* Bit-reflected: x^k mod P for k = 4*128+32, 4*128-32 (four-lane fold),
   128+32, 128-32 (one-lane fold) and 64, then P itself and the Barrett
   quotient mu = x^64 / P. */
static const uint64_t k1k2[2] __attribute__((aligned(16))) = { 0x0154442bd4, 0x01c6e41596 };
static const uint64_t k3k4[2] __attribute__((aligned(16))) = { 0x01751997d0, 0x00ccaa009e };
static const uint64_t k5k0[2] __attribute__((aligned(16))) = { 0x0163cd6124, 0 };
static const uint64_t poly[2] __attribute__((aligned(16))) = { 0x01db710641, 0x01f7011641 };

/* Carry x 128 bits forward over the distance k encodes and add next. */
CLMUL static inline __m128i fold(__m128i x, __m128i k, __m128i next)
{
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/* The raw register c over n bytes at p, n >= 64 and a multiple of 16. */
CLMUL static uint32_t clmul_fold(uint32_t c, const unsigned char *p, size_t n)
{
  const __m128i *q = (const __m128i *)p;
  __m128i x1 = _mm_xor_si128(_mm_loadu_si128(q), _mm_cvtsi32_si128((int)c));
  __m128i x2 = _mm_loadu_si128(q + 1);
  __m128i x3 = _mm_loadu_si128(q + 2);
  __m128i x4 = _mm_loadu_si128(q + 3);
  __m128i k = _mm_load_si128((const __m128i *)k1k2);
  q += 4;
  n -= 64;
  while (n >= 64) {
    x1 = fold(x1, k, _mm_loadu_si128(q));
    x2 = fold(x2, k, _mm_loadu_si128(q + 1));
    x3 = fold(x3, k, _mm_loadu_si128(q + 2));
    x4 = fold(x4, k, _mm_loadu_si128(q + 3));
    q += 4;
    n -= 64;
  }
  k = _mm_load_si128((const __m128i *)k3k4);
  x1 = fold(x1, k, x2);
  x1 = fold(x1, k, x3);
  x1 = fold(x1, k, x4);
  for (; n >= 16; n -= 16) x1 = fold(x1, k, _mm_loadu_si128(q++));

  /* 128 -> 64 bits. */
  __m128i mask = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k, 0x10));
  k = _mm_loadl_epi64((const __m128i *)k5k0);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, mask), k, 0x00),
                     _mm_srli_si128(x1, 4));

  /* Barrett reduction to 32 bits. */
  k = _mm_load_si128((const __m128i *)poly);
  __m128i t = _mm_and_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, mask), k, 0x10), mask);
  x1 = _mm_xor_si128(x1, _mm_clmulepi64_si128(t, k, 0x00));
  return (uint32_t)_mm_extract_epi32(x1, 1);
}
#endif

value rs_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int i = 0; i < 8; i++) c = (c & 1) ? 0xEDB88320 ^ (c >> 1) : c >> 1;
    table[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int n = 0; n < 256; n++)
      table[k][n] = (table[k - 1][n] >> 8) ^ table[0][table[k - 1][n] & 0xFF];
#if defined(__x86_64__)
  __builtin_cpu_init();
  use_fold = __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#endif
  return Val_unit;
}

/* The finished CRC of len bytes of b at off; the caller checks bounds. */
intnat rs_crc32_bytes(value b, intnat off, intnat len)
{
  const unsigned char *p = (const unsigned char *)Bytes_val(b) + off;
  size_t n = (size_t)len;
  uint32_t c = 0xFFFFFFFF;
#if defined(__x86_64__)
  if (use_fold && n >= 64) {
    size_t m = n & ~(size_t)15;
    c = clmul_fold(c, p, m);
    p += m;
    n -= m;
  }
#endif
  return (intnat)(slice8(c, p, n) ^ 0xFFFFFFFF);
}

value rs_crc32_bytes_byte(value b, value off, value len)
{
  return Val_long(rs_crc32_bytes(b, Long_val(off), Long_val(len)));
}
