/* Single-pass KPM kernels for CSR and SELL-C-sigma, typed by precision.
 *
 * This file backs repro.sparse.backend.native: it is compiled on first
 * use with `cc -O3 -shared` and loaded through ctypes.  Each kernel is a
 * genuinely fused single traversal of the matrix stream — the augmented
 * variants perform the shift/scale/recombination of paper Eq. (3)
 *
 *     w_new = 2 a (H - b 1) v - w
 *
 * plus BOTH on-the-fly scalar products (eta_even = <v|v>,
 * eta_odd = <w_new|v>) inside the same row loop, exactly as the paper's
 * Figs. 4 and 5 prescribe and as the NumPy backend cannot.
 *
 * Complex numbers are handled as interleaved (re, im) scalar pairs —
 * the memory layout of numpy complex128/complex64 and of the float16
 * (re, im) pair storage — with the arithmetic written out in real
 * components so the compiler can vectorize without libm/__muldc3 calls.
 * Block vectors are row-major (N, R): the R values of one row are
 * contiguous, the locality argument of paper Section IV-A.
 *
 * ONE TEMPLATE, ONE UNIT PER BUILD (the precision profiles of
 * repro.util.precision): the sixteen kernels below are written ONCE
 * against the REPRO_VT / XT / AT / IT types, and each build of this
 * file holds exactly one (profile, scalar | simd) unit, picked with
 * `-DREPRO_UNIT_PROFILE=<name> -DREPRO_UNIT_SIMD=<0|1>`.  The loader
 * (native.py) builds a unit the first time a kernel of it is asked for,
 * so a run compiles what it calls and nothing else:
 *
 *   profile     values   vectors          indices   exported example
 *   fp64        double   double           int32     repro_csr_aug_spmmv
 *   f32         float    float            int32     repro_csr_aug_spmmv_f32
 *   f32u16      float    float            uint16    repro_csr_aug_spmmv_f32u16
 *   f16v        float    half (fp16)      int32     repro_csr_aug_spmmv_f16v
 *   f16vu16     float    half (fp16)      uint16    repro_csr_aug_spmmv_f16vu16
 *
 * (REPRO_UNIT_SIMD=1 appends `_simd` to every exported name.)
 *
 * The unsuffixed fp64 unit is operation-for-operation the historical
 * baseline.  The narrow profiles compute in fp32 (half
 * storage is converted at load/store with round-to-nearest-even) while
 * BOTH eta scalar products are accumulated in fp64 with compensated
 * (Kahan) summation — each partial product is formed exactly in double
 * before the compensated add, so narrow storage never degrades the
 * moments' reduction accuracy.
 *
 * Index types match the Python containers: CSR indptr / SELL chunk_ptr,
 * chunk_len, perm are int64; in-kernel column indices are int32 (the
 * paper's S_i = 4) or uint16 (compressed, S_i = 2) per the table above.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifdef _MSC_VER
#define EXPORT __declspec(dllexport)
#else
#define EXPORT __attribute__((visibility("default")))
#endif

/* Kernel scratch (row accumulators, eta partials) is allocated per
 * call.  malloc's 16-byte alignment lets a small accumulator straddle a
 * cache line or a 4 KiB page depending on where the heap happens to put
 * it — measured at 245 us instead of 60 us per call on the CSR R=4
 * kernel — so every site takes 64-byte-aligned storage from here.
 * NULL on failure, like malloc; release with free().                  */
static inline void *repro_alloc(size_t nbytes, int zero)
{
    /* aligned_alloc wants a size that is a multiple of the alignment */
    const size_t padded = nbytes ? (nbytes + 63) & ~(size_t)63 : 64;
    void *p = aligned_alloc(64, padded);
    if (p && zero)
        memset(p, 0, padded);
    return p;
}
#define REPRO_ALLOC(type, count, zero)                                     \
    ((type *)repro_alloc((size_t)(count) * sizeof(type), (zero)))

#if defined(__GNUC__) || defined(__clang__)
#define REPRO_PF(addr) __builtin_prefetch((addr), 0, 3)
#else
#define REPRO_PF(addr) ((void)0)
#endif

/* Prefetch one gathered block-vector row (nbytes, touching every cache
 * line).  The column index of the *next* slot is known one iteration
 * ahead, which is enough distance to hide the gather latency the
 * hardware prefetcher cannot predict.                                 */
static inline void repro_pf_row(const void *restrict p, size_t nbytes)
{
    const char *restrict cp = (const char *)p;
    for (size_t q = 0; q < nbytes; q += 64)
        REPRO_PF(cp + q);
}

/* The per-row recombination + eta-update loop over the block width r
 * must round identically for every column regardless of r: the serve
 * layer coalesces independent requests into one wide block and promises
 * each caller the bitwise moments of a solo run.  Auto-vectorizing that
 * loop breaks the promise — columns landing in the vector body round
 * differently from columns in the scalar epilogue, so a column's result
 * would depend on its position and on r.  Keep it scalar; it is O(r)
 * work per row against the O(nnz_row * r) gather loop above it, which
 * stays fully vectorized.  Only the fp64 baseline carries the bitwise
 * contract — the narrow profiles promise tolerance, so their (heavier,
 * Kahan-compensated) eta loops keep the vectorizer; see the
 * REPRO_KNOVEC variant gate below the unit selection.                */
#if defined(__clang__)
#define REPRO_NOVEC _Pragma("clang loop vectorize(disable)")
#define REPRO_NOVEC_STMT ((void)0)
#elif defined(__GNUC__) && __GNUC__ >= 14
#define REPRO_NOVEC _Pragma("GCC novector")
#define REPRO_NOVEC_STMT ((void)0)
#elif defined(__GNUC__)
/* GCC < 14 has no novector pragma (and silently ignores unknown GCC
 * pragmas), so plant an empty volatile asm in the loop body instead:
 * the tree vectorizer refuses any loop containing an asm statement,
 * and the statement itself emits no instructions.                     */
#define REPRO_NOVEC
#define REPRO_NOVEC_STMT __asm__ volatile("")
#else
#define REPRO_NOVEC
#define REPRO_NOVEC_STMT ((void)0)
#endif

/* Register-tile code shape.  REPRO_UNROLL: full unroll of the short
 * literal-trip loops over a tile's accumulators, so the accumulator
 * array becomes registers.  REPRO_NOUNROLL: keep -funroll-loops (which
 * the scalar family's runtime-bound r loops need, see native.py) off
 * the tile's non-zero loop — its body is already a whole tile wide, so
 * replicating it buys no speed and costs 0.8 s of compile time.
 * REPRO_OUTLINE: one out-of-line copy of a row body, not one per call
 * site or per constant argument (GCC clones it for stride == 1: same
 * speed, 0.3 s).  The cold compile is an end-to-end metric.           */
#if defined(__clang__)
#define REPRO_UNROLL _Pragma("unroll")
#define REPRO_NOUNROLL _Pragma("nounroll")
#define REPRO_OUTLINE __attribute__((noinline))
#elif defined(__GNUC__) && __GNUC__ >= 8
#define REPRO_UNROLL _Pragma("GCC unroll 8")
#define REPRO_NOUNROLL _Pragma("GCC unroll 1")
#define REPRO_OUTLINE __attribute__((noinline, noclone))
#else
#define REPRO_UNROLL
#define REPRO_NOUNROLL
#define REPRO_OUTLINE
#endif

/* How a finished tile leaves the registers: stored (spmmv), or
 * recombined into w with a plain / compensated eta update.            */
#define REPRO_FIN_STORE 0
#define REPRO_FIN_PLAIN 1
#define REPRO_FIN_KAHAN 2

/* Row-block granularity of the threaded (_mt) kernels.  The block grid
 * is a function of the PROBLEM (row count / chunk height), never of the
 * thread count: every eta partial is accumulated per block with Kahan
 * compensation and the partials are combined sequentially in block
 * order, so the fp64 results are bitwise identical for any n_threads —
 * including 1 — and for the serial fallback when the compiler has no
 * OpenMP.  256 rows is large enough to amortize scheduling and small
 * enough to load-balance the boundary-row tails of a split.           */
#define REPRO_MT_BLOCK 256

/* One compensated (Kahan) accumulation step: *s += x with carry *c.   */
static inline void repro_kadd(double *restrict s, double *restrict c,
                              double x)
{
    const double y = x - *c;
    const double t = *s + y;
    *c = (t - *s) - y;
    *s = t;
}

/* IEEE 754 binary16 <-> binary32, bit manipulation only (portable, no
 * compiler fp16 support required); float->half rounds to nearest even,
 * matching numpy's float16 casts.                                     */
static inline float repro_half_to_float(uint16_t h)
{
    const uint32_t sign = (uint32_t)(h & 0x8000u) << 16;
    uint32_t exp = (h >> 10) & 0x1Fu;
    uint32_t man = h & 0x3FFu;
    uint32_t bits;
    if (exp == 0u) {
        if (man == 0u) {
            bits = sign;                       /* signed zero */
        } else {                               /* subnormal: normalize */
            int shift = 0;
            while (!(man & 0x400u)) {
                man <<= 1;
                ++shift;
            }
            man &= 0x3FFu;
            /* value is 1.m * 2^(-14 - shift); biased fp32 exponent is
             * therefore 127 - 14 - shift (a 127-15-shift off-by-one here
             * used to halve every subnormal, diverging from both numpy
             * and F16C).                                                */
            bits = sign | ((uint32_t)(127 - 14 - shift) << 23) | (man << 13);
        }
    } else if (exp == 31u) {                   /* inf / nan */
        bits = sign | 0x7F800000u | (man << 13);
    } else {
        bits = sign | ((exp + (127u - 15u)) << 23) | (man << 13);
    }
    float f;
    memcpy(&f, &bits, sizeof f);
    return f;
}

static inline uint16_t repro_float_to_half(float f)
{
    uint32_t x;
    memcpy(&x, &f, sizeof x);
    const uint32_t sign = (x >> 16) & 0x8000u;
    const uint32_t fexp = (x >> 23) & 0xFFu;
    uint32_t man = x & 0x7FFFFFu;
    if (fexp == 0xFFu)                         /* inf / nan */
        return (uint16_t)(sign | 0x7C00u | (man ? 0x200u : 0u));
    const int32_t e = (int32_t)fexp - 127 + 15;
    if (e >= 31)                               /* overflow -> inf */
        return (uint16_t)(sign | 0x7C00u);
    if (e <= 0) {                              /* half subnormal / zero */
        if (e < -10)
            return (uint16_t)sign;
        man |= 0x800000u;                      /* implicit leading 1 */
        const uint32_t shift = (uint32_t)(14 - e);
        uint16_t hv = (uint16_t)(sign | (man >> shift));
        const uint32_t rem = man & ((1u << shift) - 1u);
        const uint32_t half = 1u << (shift - 1u);
        if (rem > half || (rem == half && (hv & 1u)))
            ++hv;                              /* round to nearest even */
        return hv;
    }
    uint16_t hv = (uint16_t)(sign | ((uint32_t)e << 10) | (man >> 13));
    const uint32_t rem = man & 0x1FFFu;
    if (rem > 0x1000u || (rem == 0x1000u && (hv & 1u)))
        ++hv;           /* may carry into the exponent: rounds up to inf */
    return hv;
}

#define REPRO_CAT_(a, b) a##b
#define REPRO_CAT(a, b) REPRO_CAT_(a, b)

/* ------------------------------------------------------------------ */
/* Unit selection: the one profile and kernel family this build holds. */
/* ------------------------------------------------------------------ */

#define REPRO_PROFILE_fp64 1
#define REPRO_PROFILE_f32 2
#define REPRO_PROFILE_f32u16 3
#define REPRO_PROFILE_f16v 4
#define REPRO_PROFILE_f16vu16 5
#define REPRO_PROFILE REPRO_CAT(REPRO_PROFILE_, REPRO_UNIT_PROFILE)

#if REPRO_PROFILE == 1
/* fp64 baseline: complex128 values & vectors, int32 indices, plain
 * double eta accumulation — the paper's original kernels.             */
#define REPRO_SUF
#define REPRO_VT double
#define REPRO_XT double
#define REPRO_AT double
#define REPRO_IT int32_t
#define REPRO_ETA_KAHAN 0
#define REPRO_HALF 0
#elif REPRO_PROFILE == 2
/* fp32: complex64 values & vectors, int32 indices.                    */
#define REPRO_SUF _f32
#define REPRO_VT float
#define REPRO_XT float
#define REPRO_AT float
#define REPRO_IT int32_t
#define REPRO_ETA_KAHAN 1
#define REPRO_HALF 0
#elif REPRO_PROFILE == 3
/* fp32 with compressed uint16 column indices.                         */
#define REPRO_SUF _f32u16
#define REPRO_VT float
#define REPRO_XT float
#define REPRO_AT float
#define REPRO_IT uint16_t
#define REPRO_ETA_KAHAN 1
#define REPRO_HALF 0
#elif REPRO_PROFILE == 4
/* fp16v: complex64 values, float16 (re, im) pair vectors promoted to
 * fp32 in registers, int32 indices.                                   */
#define REPRO_SUF _f16v
#define REPRO_VT float
#define REPRO_XT uint16_t
#define REPRO_AT float
#define REPRO_IT int32_t
#define REPRO_ETA_KAHAN 1
#define REPRO_HALF 1
#elif REPRO_PROFILE == 5
/* fp16v with compressed uint16 column indices.                        */
#define REPRO_SUF _f16vu16
#define REPRO_VT float
#define REPRO_XT uint16_t
#define REPRO_AT float
#define REPRO_IT uint16_t
#define REPRO_ETA_KAHAN 1
#define REPRO_HALF 1
#else
#error "build with -DREPRO_UNIT_PROFILE=<fp64|f32|f32u16|f16v|f16vu16>"
#endif

/* REPRO_SIMD selects the hand-vectorized inner loops, exported under
 * a `_simd` suffix and bitwise-identical to the scalar family in every
 * profile.  The Python loader asks for that family only where its
 * preprocessor probe saw AVX2 (and F16C for the fp16v profiles).      */
#if !defined(REPRO_UNIT_SIMD) || (REPRO_UNIT_SIMD != 0 && REPRO_UNIT_SIMD != 1)
#error "build with -DREPRO_UNIT_SIMD=<0|1>"
#endif
#define REPRO_SIMD REPRO_UNIT_SIMD

#if REPRO_SIMD
#define KN(base) REPRO_CAT(REPRO_CAT(base, REPRO_SUF), _simd)
#else
#define KN(base) REPRO_CAT(base, REPRO_SUF)
#endif

#if REPRO_HALF
#define REPRO_LOADX(p, i) repro_half_to_float((p)[(i)])
#define REPRO_STOREX(p, i, val) ((p)[(i)] = repro_float_to_half(val))
#else
#define REPRO_LOADX(p, i) ((p)[(i)])
#define REPRO_STOREX(p, i, val) ((p)[(i)] = (val))
#endif

/* What the loader checks after dlopen, before it binds anything: which
 * unit this file is, and the ABI (bump with _ABI in native.py whenever
 * a signature changes).  A truncated, foreign or renamed library fails
 * here and is rebuilt instead of being called.                        */
#define REPRO_ABI 1
EXPORT int32_t repro_unit(void)
{
    return (REPRO_ABI << 8) | (REPRO_PROFILE << 1) | REPRO_SIMD;
}

/* ------------------------------------------------------------------ */
/* Explicit SIMD (AVX2 / F16C) support                                 */
/*                                                                     */
/* Every profile has a second unit, built with REPRO_UNIT_SIMD=1,      */
/* that exports `_simd`-suffixed variants of every kernel whose inner  */
/* loops are hand-written AVX2 intrinsics.  The vectorization is       */
/* DETERMINISTIC by construction:                                      */
/*                                                                     */
/*   * Blocked kernels vectorize VERTICALLY — one lane per block      */
/*     column (re, im interleaved), a row's accumulators held in ymm   */
/*     register tiles ("Register tiles" below) — so each               */
/*     column's rounding DAG is exactly the scalar kernel's at every   */
/*     block width R.  Tail columns run the same DAG in scalar         */
/*     registers.                                                      */
/*   * The single-vector CSR row dot uses a fixed 8-lane (4 complex)   */
/*     LANE-BLOCKED accumulator: entry p of a row lands in complex     */
/*     lane (p - p0) mod 4, reduced in one hard-coded order.  The      */
/*     scalar build runs the identical lane-blocked recurrence, so the */
/*     bits agree between builds for every row length.                 */
/*   * No FMA contraction anywhere in the fp64 DAG: the scalar build   */
/*     is compiled at -std=c11 (fp-contract off), so the vector code   */
/*     uses mul/add/sub only, exploiting the IEEE identities           */
/*     a + (-b) == a - b and (-x)*y == -(x*y) for the sign-flipped     */
/*     multiply of the complex product.                                */
/*   * fp16v storage converts through F16C (`vcvtph2ps`/`vcvtps2ph`),  */
/*     which is bit-identical to the software converter above (half    */
/*     to float is exact; float to half rounds to nearest even).       */
/*                                                                     */
/* Net effect: `_simd` kernels are bitwise-identical to their scalar   */
/* twins in EVERY profile, which subsumes the REPRO_NOVEC crutch —     */
/* the vectorized recombination loop is width-stable because each      */
/* column is a dedicated lane, not a position in a shape-dependent     */
/* vector body.                                                        */
/* ------------------------------------------------------------------ */

#if REPRO_SIMD

#if !defined(__AVX2__) || (REPRO_HALF && !defined(__F16C__))
#error "the _simd family needs AVX2 (and F16C for the fp16v profiles)"
#endif
#include <immintrin.h>

/* [-ai, +ai, -ai, +ai]: the sign-flipped imaginary broadcast used by
 * the complex product (the - lands on the real component's ai*xi).   */
static inline __m256d repro_aiv_pd(double ai)
{
    return _mm256_xor_pd(_mm256_set1_pd(ai),
                         _mm256_set_pd(0.0, -0.0, 0.0, -0.0));
}

static inline __m256 repro_aiv_ps(float ai)
{
    return _mm256_xor_ps(
        _mm256_set1_ps(ai),
        _mm256_set_ps(0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f));
}

/* acc += (ar + i*ai) * x on interleaved (re, im) pairs; mul/add only,
 * so each lane reproduces the scalar `ar*xr - ai*xi` / `ar*xi + ai*xr`
 * rounding exactly (arv broadcasts ar, aiv alternates -ai, +ai).      */
static inline __m256d repro_cmadd_pd(__m256d acc, __m256d arv, __m256d aiv,
                                     __m256d x)
{
    const __m256d t1 = _mm256_mul_pd(arv, x);
    const __m256d t2 = _mm256_mul_pd(aiv, _mm256_permute_pd(x, 0x5));
    return _mm256_add_pd(acc, _mm256_add_pd(t1, t2));
}

static inline __m256 repro_cmadd_ps(__m256 acc, __m256 arv, __m256 aiv,
                                    __m256 x)
{
    const __m256 t1 = _mm256_mul_ps(arv, x);
    const __m256 t2 = _mm256_mul_ps(aiv, _mm256_permute_ps(x, 0xB1));
    return _mm256_add_ps(acc, _mm256_add_ps(t1, t2));
}

/* Per-pair coefficient variant: d packs the (ar, ai) pairs of 2 (pd) /
 * 4 (ps) matrix entries; each complex lane keeps its own coefficient. */
static inline __m256d repro_cmadd_pairs_pd(__m256d acc, __m256d d,
                                           __m256d x)
{
    const __m256d arv = _mm256_movedup_pd(d);
    const __m256d aiv = _mm256_xor_pd(_mm256_permute_pd(d, 0xF),
                                      _mm256_set_pd(0.0, -0.0, 0.0, -0.0));
    return repro_cmadd_pd(acc, arv, aiv, x);
}

static inline __m256 repro_cmadd_pairs_ps(__m256 acc, __m256 d, __m256 x)
{
    const __m256 arv = _mm256_moveldup_ps(d);
    const __m256 aiv = _mm256_xor_ps(
        _mm256_movehdup_ps(d),
        _mm256_set_ps(0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f));
    return repro_cmadd_ps(acc, arv, aiv, x);
}

/* Plain vector accumulate-into-memory (unaligned).                    */
static inline void repro_vadd_pd2(double *restrict s, __m128d x)
{
    _mm_storeu_pd(s, _mm_add_pd(_mm_loadu_pd(s), x));
}

static inline void repro_vadd_pd4(double *restrict s, __m256d x)
{
    _mm256_storeu_pd(s, _mm256_add_pd(_mm256_loadu_pd(s), x));
}

/* Vector Kahan steps: elementwise, so each lane runs exactly the
 * scalar repro_kadd recurrence for its own accumulator.               */
static inline void repro_kadd_pd2(double *restrict s, double *restrict c,
                                  __m128d x)
{
    const __m128d sv = _mm_loadu_pd(s);
    const __m128d y = _mm_sub_pd(x, _mm_loadu_pd(c));
    const __m128d t = _mm_add_pd(sv, y);
    _mm_storeu_pd(c, _mm_sub_pd(_mm_sub_pd(t, sv), y));
    _mm_storeu_pd(s, t);
}

static inline void repro_kadd_pd4(double *restrict s, double *restrict c,
                                  __m256d x)
{
    const __m256d sv = _mm256_loadu_pd(s);
    const __m256d y = _mm256_sub_pd(x, _mm256_loadu_pd(c));
    const __m256d t = _mm256_add_pd(sv, y);
    _mm256_storeu_pd(c, _mm256_sub_pd(_mm256_sub_pd(t, sv), y));
    _mm256_storeu_pd(s, t);
}

/* Column-pair eta terms from interleaved (re, im) fp64 lanes: v and w
 * hold 2 block columns.  ee = vr*vr + vi*vi per column, compacted to
 * an xmm pair; eo = [re_k, im_k, re_k+1, im_k+1] where
 * re = wr*vr + wi*vi and im = wr*vi - wi*vr (the - enters as a sign
 * flip on the product, exact in IEEE).  hadd pairs (a0+a1) in the same
 * order as the scalar sums.                                           */
static inline __m128d repro_ee_pair_pd(__m256d v)
{
    const __m256d pv = _mm256_mul_pd(v, v);
    const __m256d h = _mm256_hadd_pd(pv, pv);
    return _mm256_castpd256_pd128(_mm256_permute4x64_pd(h, 0xE8));
}

static inline __m256d repro_eo_quad_pd(__m256d v, __m256d w)
{
    const __m256d p1 = _mm256_mul_pd(w, v);
    const __m256d vs = _mm256_xor_pd(_mm256_permute_pd(v, 0x5),
                                     _mm256_set_pd(-0.0, 0.0, -0.0, 0.0));
    const __m256d p2 = _mm256_mul_pd(w, vs);
    return _mm256_hadd_pd(p1, p2);
}

/* Two interleaved complex loads gathered into one ymm.                */
static inline __m256d repro_gather2c_pd(const double *restrict x,
                                        int64_t j0, int64_t j1)
{
    return _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_loadu_pd(x + 2 * j0)),
        _mm_loadu_pd(x + 2 * j1), 1);
}

/* Four interleaved complex64 loads gathered into one ymm.             */
static inline __m256 repro_gather4c_ps(const float *restrict x, int64_t j0,
                                       int64_t j1, int64_t j2, int64_t j3)
{
    const __m128 lo = _mm_movelh_ps(
        _mm_castsi128_ps(_mm_loadl_epi64((const __m128i *)(x + 2 * j0))),
        _mm_castsi128_ps(_mm_loadl_epi64((const __m128i *)(x + 2 * j1))));
    const __m128 hi = _mm_movelh_ps(
        _mm_castsi128_ps(_mm_loadl_epi64((const __m128i *)(x + 2 * j2))),
        _mm_castsi128_ps(_mm_loadl_epi64((const __m128i *)(x + 2 * j3))));
    return _mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1);
}

#if REPRO_HALF

/* F16C conversions: half->float is exact, float->half rounds to
 * nearest even — both bit-identical to the software converters.       */
static inline __m256 repro_load8h(const uint16_t *restrict p)
{
    return _mm256_cvtph_ps(_mm_loadu_si128((const __m128i *)p));
}

static inline void repro_store8h(uint16_t *restrict p, __m256 x)
{
    _mm_storeu_si128((__m128i *)p,
                     _mm256_cvtps_ph(x, _MM_FROUND_TO_NEAREST_INT));
}

/* Four gathered (re, im) half pairs converted to one ps ymm.          */
static inline __m256 repro_gather4c_ph(const uint16_t *restrict x,
                                       int64_t j0, int64_t j1, int64_t j2,
                                       int64_t j3)
{
    uint32_t c0, c1, c2, c3;
    memcpy(&c0, x + 2 * j0, 4);
    memcpy(&c1, x + 2 * j1, 4);
    memcpy(&c2, x + 2 * j2, 4);
    memcpy(&c3, x + 2 * j3, 4);
    return _mm256_cvtph_ps(
        _mm_set_epi32((int32_t)c3, (int32_t)c2, (int32_t)c1, (int32_t)c0));
}

#endif /* REPRO_HALF */

#endif /* REPRO_SIMD */

/* Per-variant width-stability gate: only the fp64 baseline (the one
 * variant without compensated eta accumulation) must keep its per-row
 * eta loops scalar for the bitwise coalescing contract.               */
#if REPRO_ETA_KAHAN
#define REPRO_KNOVEC
#define REPRO_KNOVEC_STMT ((void)0)
#else
#define REPRO_KNOVEC REPRO_NOVEC
#define REPRO_KNOVEC_STMT REPRO_NOVEC_STMT
#endif

/* Scalar-kernel eta accumulators: plain double for the fp64 baseline
 * (bitwise-identical to the historical kernels), compensated for the
 * narrow profiles.  Partial products are always formed in double.     */
#if REPRO_ETA_KAHAN
#define REPRO_ESUM_DECL(name) double name = 0.0, name##_c = 0.0
#define REPRO_ESUM_ADD(name, x) repro_kadd(&name, &name##_c, (x))
/* Block-kernel eta arrays: compensation buffer [0,r) for eta_even,
 * [r, 3r) for the interleaved eta_odd.                                */
#define REPRO_EARR_DECL(r, cleanup)                                        \
    double *repro_ecomp = REPRO_ALLOC(double, 3 * (r), 1);                 \
    if (!repro_ecomp) {                                                    \
        cleanup;                                                           \
        return;                                                            \
    }
#define REPRO_EARR_FREE() free(repro_ecomp)
#else
#define REPRO_ESUM_DECL(name) double name = 0.0
#define REPRO_ESUM_ADD(name, x) name += (x)
#define REPRO_EARR_DECL(r, cleanup)
#define REPRO_EARR_FREE() ((void)0)
#endif

/* Software row prefetch: scalar blocked kernels only.  The register-
 * tile family issues none — prefetching the next row's gathers there
 * measured -3...+10 % by shape, nothing resolvable (DESIGN section 12).
 * Architecturally inert either way — prefetch never changes bits.     */
#define REPRO_PFROW(p, nb) repro_pf_row((p), (nb))

/* Narrow-profile vector load/store of the XT storage: identity for
 * fp32, F16C conversion (bitwise the software converters) for fp16v.  */
#if REPRO_SIMD && REPRO_ETA_KAHAN
#if REPRO_HALF
#define REPRO_SIMD_LOAD8(p) repro_load8h(p)
#define REPRO_SIMD_STORE8(p, v8) repro_store8h((p), (v8))
#define REPRO_SIMD_GATHER4C(x, j0, j1, j2, j3)                             \
    repro_gather4c_ph((x), (j0), (j1), (j2), (j3))
#else
#define REPRO_SIMD_LOAD8(p) _mm256_loadu_ps(p)
#define REPRO_SIMD_STORE8(p, v8) _mm256_storeu_ps((p), (v8))
#define REPRO_SIMD_GATHER4C(x, j0, j1, j2, j3)                             \
    repro_gather4c_ps((x), (j0), (j1), (j2), (j3))
#endif
#endif

/* ------------------------------------------------------------------ */
/* Shared per-row bodies.  Each is written twice — scalar and AVX2 —   */
/* with IDENTICAL rounding DAGs (see the SIMD section header above),   */
/* so every kernel below produces the same bits with REPRO_SIMD on or  */
/* off.                                                                */
/* ------------------------------------------------------------------ */

/* Single-vector row dot with the fixed 8-lane lane-blocked reduction:
 * entry p accumulates into complex lane (p - p0) & 3 and the four
 * lanes reduce in one hard-coded order, independent of row length.
 * BOTH builds run this recurrence — the scalar build emulates the
 * lane grid — which is what makes the vectorized dot bitwise equal
 * to the scalar kernel for every row.                                 */
static inline void KN(repro_rowdot)(
    int64_t p0,
    int64_t p1,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict x,
    REPRO_AT *restrict sr_out,
    REPRO_AT *restrict si_out)
{
    REPRO_AT L[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    int64_t p = p0;
#if REPRO_SIMD && !REPRO_ETA_KAHAN
    {
        /* complex lanes 0..1 in acc0, 2..3 in acc1 */
        __m256d acc0 = _mm256_setzero_pd();
        __m256d acc1 = _mm256_setzero_pd();
        for (; p + 4 <= p1; p += 4) {
            const __m256d d01 = _mm256_loadu_pd(data + 2 * p);
            const __m256d d23 = _mm256_loadu_pd(data + 2 * p + 4);
            const __m256d x01 = repro_gather2c_pd(
                x, (int64_t)indices[p], (int64_t)indices[p + 1]);
            const __m256d x23 = repro_gather2c_pd(
                x, (int64_t)indices[p + 2], (int64_t)indices[p + 3]);
            acc0 = repro_cmadd_pairs_pd(acc0, d01, x01);
            acc1 = repro_cmadd_pairs_pd(acc1, d23, x23);
        }
        _mm256_storeu_pd(L, acc0);
        _mm256_storeu_pd(L + 4, acc1);
    }
#elif REPRO_SIMD
    {
        /* four float complex lanes in one ymm */
        __m256 acc = _mm256_setzero_ps();
        for (; p + 4 <= p1; p += 4) {
            const __m256 d = _mm256_loadu_ps(data + 2 * p);
            const __m256 xv = REPRO_SIMD_GATHER4C(
                x, (int64_t)indices[p], (int64_t)indices[p + 1],
                (int64_t)indices[p + 2], (int64_t)indices[p + 3]);
            acc = repro_cmadd_pairs_ps(acc, d, xv);
        }
        _mm256_storeu_ps(L, acc);
    }
#endif
    for (; p < p1; ++p) {
        const REPRO_AT ar = (REPRO_AT)data[2 * p];
        const REPRO_AT ai = (REPRO_AT)data[2 * p + 1];
        const int64_t j = (int64_t)indices[p];
        const REPRO_AT xr = REPRO_LOADX(x, 2 * j);
        const REPRO_AT xi = REPRO_LOADX(x, 2 * j + 1);
        const int e = (int)((p - p0) & 3);
        L[2 * e] += ar * xr - ai * xi;
        L[2 * e + 1] += ar * xi + ai * xr;
    }
    *sr_out = (L[0] + L[2]) + (L[4] + L[6]);
    *si_out = (L[1] + L[3]) + (L[5] + L[7]);
}

#if !REPRO_SIMD
/* Blocked gather update acc += (ar + i ai) * xj over the r columns of
 * one gathered row — the scalar reference family's inner loop (the
 * _simd family keeps the row in registers instead: see "Register
 * tiles" below).                                                      */
static inline void KN(repro_rowaxpy)(
    REPRO_AT *restrict acc,
    const REPRO_XT *restrict xj,
    REPRO_AT ar,
    REPRO_AT ai,
    int64_t r)
{
    const int64_t m = 2 * r;
    for (int64_t q = 0; q < m; q += 2) {
        const REPRO_AT xr = REPRO_LOADX(xj, q);
        const REPRO_AT xi = REPRO_LOADX(xj, q + 1);
        acc[q] += ar * xr - ai * xi;
        acc[q + 1] += ar * xi + ai * xr;
    }
}
#endif /* !REPRO_SIMD */

/* SELL gather update for one slot column j: lane <-> vector lane, so
 * the per-row (per-lane) accumulation order over j is untouched.      */
static inline void KN(repro_lanecmadd)(
    REPRO_AT *restrict acc,
    const REPRO_VT *restrict data,
    const REPRO_IT *restrict indices,
    int64_t slot0,
    int64_t c,
    const REPRO_XT *restrict x)
{
    int64_t lane = 0;
#if REPRO_SIMD && !REPRO_ETA_KAHAN
    for (; lane + 2 <= c; lane += 2) {
        const __m256d d = _mm256_loadu_pd(data + 2 * (slot0 + lane));
        const __m256d xv = repro_gather2c_pd(
            x, (int64_t)indices[slot0 + lane],
            (int64_t)indices[slot0 + lane + 1]);
        __m256d av = _mm256_loadu_pd(acc + 2 * lane);
        av = repro_cmadd_pairs_pd(av, d, xv);
        _mm256_storeu_pd(acc + 2 * lane, av);
    }
#elif REPRO_SIMD
    for (; lane + 4 <= c; lane += 4) {
        const __m256 d = _mm256_loadu_ps(data + 2 * (slot0 + lane));
        const __m256 xv = REPRO_SIMD_GATHER4C(
            x, (int64_t)indices[slot0 + lane],
            (int64_t)indices[slot0 + lane + 1],
            (int64_t)indices[slot0 + lane + 2],
            (int64_t)indices[slot0 + lane + 3]);
        __m256 av = _mm256_loadu_ps(acc + 2 * lane);
        av = repro_cmadd_pairs_ps(av, d, xv);
        _mm256_storeu_ps(acc + 2 * lane, av);
    }
#endif
    for (; lane < c; ++lane) {
        const REPRO_AT ar = (REPRO_AT)data[2 * (slot0 + lane)];
        const REPRO_AT ai = (REPRO_AT)data[2 * (slot0 + lane) + 1];
        const int64_t col = (int64_t)indices[slot0 + lane];
        const REPRO_AT xr = REPRO_LOADX(x, 2 * col);
        const REPRO_AT xi = REPRO_LOADX(x, 2 * col + 1);
        acc[2 * lane] += ar * xr - ai * xi;
        acc[2 * lane + 1] += ar * xi + ai * xr;
    }
}

#if !REPRO_SIMD

/* Store m accumulator values into XT storage.                         */
static inline void KN(repro_storerow)(
    REPRO_XT *restrict y,
    const REPRO_AT *restrict acc,
    int64_t m)
{
    for (int64_t q = 0; q < m; ++q)
        REPRO_STOREX(y, q, acc[q]);
}

#if !REPRO_ETA_KAHAN
/* Recombination + eta update over the r columns of one row, plain
 * (uncompensated) eta accumulation — the fp64 non-threaded kernels.
 * The historical loop, kept off the autovectorizer so a column's bits
 * never depend on r (the coalescing contract).                        */
static inline void KN(repro_loopb_plain)(
    const REPRO_XT *restrict vrow,
    REPRO_XT *restrict wrow,
    const REPRO_AT *restrict acc,
    int64_t r,
    REPRO_AT ta,
    REPRO_AT tab,
    double *restrict ee,
    double *restrict eo)
{
    int64_t k = 0;
    REPRO_NOVEC
    for (; k < r; ++k) {
        REPRO_NOVEC_STMT;
        const REPRO_AT vr = REPRO_LOADX(vrow, 2 * k);
        const REPRO_AT vi = REPRO_LOADX(vrow, 2 * k + 1);
        const REPRO_AT wr = ta * acc[2 * k] - tab * vr
            - REPRO_LOADX(wrow, 2 * k);
        const REPRO_AT wi = ta * acc[2 * k + 1] - tab * vi
            - REPRO_LOADX(wrow, 2 * k + 1);
        REPRO_STOREX(wrow, 2 * k, wr);
        REPRO_STOREX(wrow, 2 * k + 1, wi);
        ee[k] += (double)vr * (double)vr + (double)vi * (double)vi;
        eo[2 * k] += (double)wr * (double)vr + (double)wi * (double)vi;
        eo[2 * k + 1] += (double)wr * (double)vi - (double)wi * (double)vr;
    }
}
#endif /* !REPRO_ETA_KAHAN */

/* Compensated flavor of the recombination + eta loop, shared by the
 * narrow profiles (non-threaded) and ALL _mt block bodies.  The carry
 * layout is the unified [ee r | eo 2r] slice used by both repro_ecomp
 * and the per-block bcc buffers.                                      */
static inline void KN(repro_loopb_kahan)(
    const REPRO_XT *restrict vrow,
    REPRO_XT *restrict wrow,
    const REPRO_AT *restrict acc,
    int64_t r,
    REPRO_AT ta,
    REPRO_AT tab,
    double *restrict ee,
    double *restrict eo,
    double *restrict cc)
{
    int64_t k = 0;
    REPRO_KNOVEC
    for (; k < r; ++k) {
        REPRO_KNOVEC_STMT;
        const REPRO_AT vr = REPRO_LOADX(vrow, 2 * k);
        const REPRO_AT vi = REPRO_LOADX(vrow, 2 * k + 1);
        const REPRO_AT wr = ta * acc[2 * k] - tab * vr
            - REPRO_LOADX(wrow, 2 * k);
        const REPRO_AT wi = ta * acc[2 * k + 1] - tab * vi
            - REPRO_LOADX(wrow, 2 * k + 1);
        REPRO_STOREX(wrow, 2 * k, wr);
        REPRO_STOREX(wrow, 2 * k + 1, wi);
        repro_kadd(&ee[k], &cc[k],
                   (double)vr * (double)vr + (double)vi * (double)vi);
        repro_kadd(&eo[2 * k], &cc[r + 2 * k],
                   (double)wr * (double)vr + (double)wi * (double)vi);
        repro_kadd(&eo[2 * k + 1], &cc[r + 2 * k + 1],
                   (double)wr * (double)vi - (double)wi * (double)vr);
    }
}

/* Dispatch for the non-threaded blocked kernels: the narrow profiles
 * carry the repro_ecomp compensation array, the fp64 baseline the
 * plain accumulators.                                                 */
#if REPRO_ETA_KAHAN
#define REPRO_LOOPB(vrow, wrow, accp)                                      \
    KN(repro_loopb_kahan)((vrow), (wrow), (accp), r, ta, tab, eta_even,    \
                          eta_odd, repro_ecomp)
#else
#define REPRO_LOOPB(vrow, wrow, accp)                                      \
    KN(repro_loopb_plain)((vrow), (wrow), (accp), r, ta, tab, eta_even,    \
                          eta_odd)
#endif

#else /* REPRO_SIMD */

/* ------------------------------------------------------------------ */
/* Register tiles: the _simd family's blocked row body                 */
/*                                                                     */
/* One matrix row times one TILE of block columns: the tile's          */
/* accumulators live in ymm registers across the row's non-zeros       */
/* (entries p0, p0 + stride, ... — stride 1 for a CSR row, the chunk   */
/* height for a SELL lane, padding slots included) and the row is      */
/* finished straight from the registers.  Per non-zero and ymm that    */
/* is permute / 2 mul / 2 add with x read from L1, where a memory      */
/* accumulator costs a load and a store of acc on top (DESIGN section  */
/* 12, "Register tiles").  R stays a runtime argument: a row is cut    */
/* into tiles of 16, 8 and 4 block columns (fp64: 8 / 4 / 2 ymm, the   */
/* narrow profiles: 4 / 2 / 1), fp64 adds the 2-column single ymm, and */
/* the columns that do not fill a ymm run one by one in scalar         */
/* registers.  Every column is still a dedicated lane visited in row   */
/* order with the scalar kernels' mul, mul, add, add — the tiling      */
/* changes where the partial sums wait, never what is added to what —  */
/* so each output bit is the scalar family's at every r.               */
/* ------------------------------------------------------------------ */

#if REPRO_ETA_KAHAN /* narrow: float lanes, 4 block columns per ymm    */
#define REPRO_YMM __m256
#define REPRO_YCOLS 4
#define REPRO_Y_ZERO() _mm256_setzero_ps()
#define REPRO_Y_SET1(s) _mm256_set1_ps(s)
#define REPRO_Y_AIV(ai) repro_aiv_ps(ai)
#define REPRO_Y_CMADD repro_cmadd_ps
#define REPRO_Y_LOADX(p) REPRO_SIMD_LOAD8(p)
#define REPRO_Y_STOREX(p, y) REPRO_SIMD_STORE8((p), (y))
#else               /* fp64: double lanes, 2 block columns per ymm     */
#define REPRO_YMM __m256d
#define REPRO_YCOLS 2
#define REPRO_Y_ZERO() _mm256_setzero_pd()
#define REPRO_Y_SET1(s) _mm256_set1_pd(s)
#define REPRO_Y_AIV(ai) repro_aiv_pd(ai)
#define REPRO_Y_CMADD repro_cmadd_pd
#define REPRO_Y_LOADX(p) _mm256_loadu_pd(p)
#define REPRO_Y_STOREX(p, y) _mm256_storeu_pd((p), (y))
#endif

/* Recombination + eta update of the REPRO_YCOLS columns from block
 * column k that one accumulator register holds: the arithmetic of
 * repro_loopb_plain / _kahan, one lane per column.                    */
static inline void KN(repro_ymm_aug)(
    const int fin,
    REPRO_YMM av,
    int64_t k,
    int64_t r,
    const REPRO_XT *restrict vrow,
    REPRO_XT *restrict wrow,
    REPRO_YMM tav,
    REPRO_YMM tabv,
    double *restrict ee,
    double *restrict eo,
    double *restrict cc)
{
#if REPRO_ETA_KAHAN
    const __m256 v8 = REPRO_Y_LOADX(vrow + 2 * k);
    const __m256 w8 = _mm256_sub_ps(
        _mm256_sub_ps(_mm256_mul_ps(tav, av), _mm256_mul_ps(tabv, v8)),
        REPRO_Y_LOADX(wrow + 2 * k));
    REPRO_Y_STOREX(wrow + 2 * k, w8);
    (void)fin; /* narrow eta is always compensated */
    /* exact float->double promotion, then the fp64 eta DAG, one column
     * pair (xmm half) at a time                                       */
    __m256d vv = _mm256_cvtps_pd(_mm256_castps256_ps128(v8));
    __m256d wv = _mm256_cvtps_pd(_mm256_castps256_ps128(w8));
    repro_kadd_pd2(ee + k, cc + k, repro_ee_pair_pd(vv));
    repro_kadd_pd4(eo + 2 * k, cc + r + 2 * k, repro_eo_quad_pd(vv, wv));
    vv = _mm256_cvtps_pd(_mm256_extractf128_ps(v8, 1));
    wv = _mm256_cvtps_pd(_mm256_extractf128_ps(w8, 1));
    repro_kadd_pd2(ee + k + 2, cc + k + 2, repro_ee_pair_pd(vv));
    repro_kadd_pd4(eo + 2 * k + 4, cc + r + 2 * k + 4,
                   repro_eo_quad_pd(vv, wv));
#else
    const __m256d vv = _mm256_loadu_pd(vrow + 2 * k);
    const __m256d wv = _mm256_sub_pd(
        _mm256_sub_pd(_mm256_mul_pd(tav, av), _mm256_mul_pd(tabv, vv)),
        _mm256_loadu_pd(wrow + 2 * k));
    _mm256_storeu_pd(wrow + 2 * k, wv);
    if (fin == REPRO_FIN_KAHAN) {
        repro_kadd_pd2(ee + k, cc + k, repro_ee_pair_pd(vv));
        repro_kadd_pd4(eo + 2 * k, cc + r + 2 * k,
                       repro_eo_quad_pd(vv, wv));
    } else {
        repro_vadd_pd2(ee + k, repro_ee_pair_pd(vv));
        repro_vadd_pd4(eo + 2 * k, repro_eo_quad_pd(vv, wv));
    }
#endif
}

/* One row x one tile of nv ymm starting at block column k.  nv and fin
 * are literal at every call site, so after inlining the u loops unroll
 * and acc[] is nv registers.                                          */
static inline __attribute__((always_inline)) void KN(repro_tile)(
    const int nv,
    const int fin,
    int64_t k,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    int64_t p0,
    int64_t cnt,
    int64_t stride,
    const REPRO_XT *restrict X,
    int64_t r,
    const REPRO_XT *restrict vrow,
    REPRO_XT *restrict orow,
    REPRO_AT ta,
    REPRO_AT tab,
    double *restrict ee,
    double *restrict eo,
    double *restrict cc)
{
    REPRO_YMM acc[16 / REPRO_YCOLS];
    REPRO_UNROLL
    for (int u = 0; u < nv; ++u)
        acc[u] = REPRO_Y_ZERO();
    const REPRO_XT *restrict xk = X + 2 * k;
    REPRO_NOUNROLL
    for (int64_t q = 0, p = p0; q < cnt; ++q, p += stride) {
        const REPRO_YMM arv = REPRO_Y_SET1((REPRO_AT)data[2 * p]);
        const REPRO_YMM aiv = REPRO_Y_AIV((REPRO_AT)data[2 * p + 1]);
        const REPRO_XT *restrict xj = xk + 2 * (int64_t)indices[p] * r;
        REPRO_UNROLL
        for (int u = 0; u < nv; ++u)
            acc[u] = REPRO_Y_CMADD(acc[u], arv, aiv,
                                   REPRO_Y_LOADX(xj + 2 * REPRO_YCOLS * u));
    }
    if (fin == REPRO_FIN_STORE) {
        REPRO_UNROLL
        for (int u = 0; u < nv; ++u)
            REPRO_Y_STOREX(orow + 2 * (k + REPRO_YCOLS * u), acc[u]);
        return;
    }
    const REPRO_YMM tav = REPRO_Y_SET1(ta), tabv = REPRO_Y_SET1(tab);
    REPRO_UNROLL
    for (int u = 0; u < nv; ++u)
        KN(repro_ymm_aug)(fin, acc[u], k + REPRO_YCOLS * u, r, vrow, orow,
                          tav, tabv, ee, eo, cc);
}

/* The same row body for one column in scalar registers (the columns
 * that do not fill a ymm): literally the scalar family's DAG.         */
static inline void KN(repro_tile1)(
    const int fin,
    int64_t k,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    int64_t p0,
    int64_t cnt,
    int64_t stride,
    const REPRO_XT *restrict X,
    int64_t r,
    const REPRO_XT *restrict vrow,
    REPRO_XT *restrict orow,
    REPRO_AT ta,
    REPRO_AT tab,
    double *restrict ee,
    double *restrict eo,
    double *restrict cc)
{
    REPRO_AT sr = 0, si = 0;
    REPRO_NOUNROLL
    for (int64_t q = 0, p = p0; q < cnt; ++q, p += stride) {
        const REPRO_AT ar = (REPRO_AT)data[2 * p];
        const REPRO_AT ai = (REPRO_AT)data[2 * p + 1];
        const REPRO_XT *restrict xj = X + 2 * ((int64_t)indices[p] * r + k);
        const REPRO_AT xr = REPRO_LOADX(xj, 0);
        const REPRO_AT xi = REPRO_LOADX(xj, 1);
        sr += ar * xr - ai * xi;
        si += ar * xi + ai * xr;
    }
    if (fin == REPRO_FIN_STORE) {
        REPRO_STOREX(orow, 2 * k, sr);
        REPRO_STOREX(orow, 2 * k + 1, si);
        return;
    }
    const REPRO_AT vr = REPRO_LOADX(vrow, 2 * k);
    const REPRO_AT vi = REPRO_LOADX(vrow, 2 * k + 1);
    const REPRO_AT wr = ta * sr - tab * vr - REPRO_LOADX(orow, 2 * k);
    const REPRO_AT wi = ta * si - tab * vi - REPRO_LOADX(orow, 2 * k + 1);
    REPRO_STOREX(orow, 2 * k, wr);
    REPRO_STOREX(orow, 2 * k + 1, wi);
    const double de = (double)vr * (double)vr + (double)vi * (double)vi;
    const double dor = (double)wr * (double)vr + (double)wi * (double)vi;
    const double doi = (double)wr * (double)vi - (double)wi * (double)vr;
    if (fin == REPRO_FIN_KAHAN) {
        repro_kadd(&ee[k], &cc[k], de);
        repro_kadd(&eo[2 * k], &cc[r + 2 * k], dor);
        repro_kadd(&eo[2 * k + 1], &cc[r + 2 * k + 1], doi);
    } else {
        ee[k] += de;
        eo[2 * k] += dor;
        eo[2 * k + 1] += doi;
    }
}

/* One whole row: 16-column tiles while they fit, then at most one
 * each of 8, 4 and (fp64) 2 columns, then single columns.  Measured at
 * R = 32 fp64, 8 against 4 ymm as the widest tile: CSR 10.0 / 11.3 ms,
 * SELL 9.5 / 10.1; a 32-column narrow tile bought nothing.  Always
 * inlined into the out-of-line per-finisher instances below, which is
 * where fin becomes a literal.                                        */
static inline __attribute__((always_inline)) void KN(repro_row)(
    const int fin,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    int64_t p0,
    int64_t cnt,
    int64_t stride,
    const REPRO_XT *restrict X,      /* gathered block, (n_cols, r)   */
    int64_t r,
    const REPRO_XT *restrict vrow,   /* aug: this row of V            */
    REPRO_XT *restrict orow,         /* this row of W (aug) / Y       */
    REPRO_AT ta,
    REPRO_AT tab,
    double *restrict ee,
    double *restrict eo,
    double *restrict cc)             /* kahan: carries [ee r | eo 2r] */
{
#define REPRO_TILE_ARGS                                                    \
    indices, data, p0, cnt, stride, X, r, vrow, orow, ta, tab, ee, eo, cc
    int64_t k = 0;
    for (; k + 16 <= r; k += 16)
        KN(repro_tile)(16 / REPRO_YCOLS, fin, k, REPRO_TILE_ARGS);
    if (k + 8 <= r) {
        KN(repro_tile)(8 / REPRO_YCOLS, fin, k, REPRO_TILE_ARGS);
        k += 8;
    }
    if (k + 4 <= r) {
        KN(repro_tile)(4 / REPRO_YCOLS, fin, k, REPRO_TILE_ARGS);
        k += 4;
    }
#if REPRO_YCOLS == 2
    if (k + 2 <= r) {
        KN(repro_tile)(1, fin, k, REPRO_TILE_ARGS);
        k += 2;
    }
#endif
    for (; k < r; ++k)
        KN(repro_tile1)(fin, k, REPRO_TILE_ARGS);
#undef REPRO_TILE_ARGS
}

/* Out of line on purpose: one instance per (profile, finisher) that
 * every blocked kernel calls.  With the tile widths inlined into each
 * kernel instead the kernels time the same and the cold compile takes
 * 9.1-10.2 s, not 6.4-6.8 (it is most of cli_cold/setup_s).           */
static REPRO_OUTLINE void KN(repro_row_store)(
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    int64_t p0,
    int64_t cnt,
    int64_t stride,
    const REPRO_XT *restrict X,
    REPRO_XT *restrict Y,
    int64_t r,
    int64_t row)
{
    KN(repro_row)(REPRO_FIN_STORE, indices, data, p0, cnt, stride, X, r,
                  NULL, Y + 2 * row * r, 0, 0, NULL, NULL, NULL);
}

static REPRO_OUTLINE void KN(repro_row_kahan)(
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    int64_t p0,
    int64_t cnt,
    int64_t stride,
    const REPRO_XT *restrict V,
    REPRO_XT *restrict W,
    int64_t r,
    int64_t row,
    REPRO_AT ta,
    REPRO_AT tab,
    double *restrict ee,
    double *restrict eo,
    double *restrict cc)
{
    KN(repro_row)(REPRO_FIN_KAHAN, indices, data, p0, cnt, stride, V, r,
                  V + 2 * row * r, W + 2 * row * r, ta, tab, ee, eo, cc);
}

/* The non-threaded kernels' finisher: compensated (repro_ecomp) for
 * the narrow profiles, plain for the fp64 baseline.                   */
#if REPRO_ETA_KAHAN
#define REPRO_ROW_AUG(p0, cnt, stride, row)                                \
    KN(repro_row_kahan)(indices, data, (p0), (cnt), (stride), V, W, r,     \
                        (row), ta, tab, eta_even, eta_odd, repro_ecomp)
#else
static REPRO_OUTLINE void KN(repro_row_plain)(
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    int64_t p0,
    int64_t cnt,
    int64_t stride,
    const REPRO_XT *restrict V,
    REPRO_XT *restrict W,
    int64_t r,
    int64_t row,
    REPRO_AT ta,
    REPRO_AT tab,
    double *restrict ee,
    double *restrict eo)
{
    KN(repro_row)(REPRO_FIN_PLAIN, indices, data, p0, cnt, stride, V, r,
                  V + 2 * row * r, W + 2 * row * r, ta, tab, ee, eo, NULL);
}
#define REPRO_ROW_AUG(p0, cnt, stride, row)                                \
    KN(repro_row_plain)(indices, data, (p0), (cnt), (stride), V, W, r,     \
                        (row), ta, tab, eta_even, eta_odd)
#endif

#endif /* REPRO_SIMD */

/* ------------------------------------------------------------------ */
/* CSR                                                                 */
/* ------------------------------------------------------------------ */

EXPORT void KN(repro_csr_spmv)(
    int64_t n_rows,
    const int64_t *restrict indptr,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,   /* 2*nnz    */
    const REPRO_XT *restrict x,      /* 2*n_cols */
    REPRO_XT *restrict y)            /* 2*n_rows */
{
    for (int64_t i = 0; i < n_rows; ++i) {
        REPRO_AT sr = 0, si = 0;
        const int64_t p0 = indptr[i], p1 = indptr[i + 1];
        for (int64_t p = p0; p < p1; ++p) {
            const REPRO_AT ar = (REPRO_AT)data[2 * p];
            const REPRO_AT ai = (REPRO_AT)data[2 * p + 1];
            const int64_t j = (int64_t)indices[p];
            const REPRO_AT xr = REPRO_LOADX(x, 2 * j);
            const REPRO_AT xi = REPRO_LOADX(x, 2 * j + 1);
            sr += ar * xr - ai * xi;
            si += ar * xi + ai * xr;
        }
        REPRO_STOREX(y, 2 * i, sr);
        REPRO_STOREX(y, 2 * i + 1, si);
    }
}

EXPORT void KN(repro_csr_spmmv)(
    int64_t n_rows,
    int64_t r,
    const int64_t *restrict indptr,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict X,      /* 2*n_cols*r, row-major */
    REPRO_XT *restrict Y)            /* 2*n_rows*r, row-major */
{
#if REPRO_SIMD
    for (int64_t i = 0; i < n_rows; ++i)
        KN(repro_row_store)(indices, data, indptr[i],
                            indptr[i + 1] - indptr[i], 1, X, Y, r, i);
#else
    REPRO_AT *acc = REPRO_ALLOC(REPRO_AT, 2 * r, 0);
    if (!acc)
        return;
    for (int64_t i = 0; i < n_rows; ++i) {
        memset(acc, 0, (size_t)(2 * r) * sizeof(REPRO_AT));
        const int64_t p0 = indptr[i], p1 = indptr[i + 1];
        for (int64_t p = p0; p < p1; ++p) {
            if (p + 1 < p1)
                REPRO_PFROW(X + 2 * (int64_t)indices[p + 1] * r,
                            (size_t)(2 * r) * sizeof(REPRO_XT));
            const REPRO_AT ar = (REPRO_AT)data[2 * p];
            const REPRO_AT ai = (REPRO_AT)data[2 * p + 1];
            const REPRO_XT *restrict xj = X + 2 * (int64_t)indices[p] * r;
            KN(repro_rowaxpy)(acc, xj, ar, ai, r);
        }
        KN(repro_storerow)(Y + 2 * i * r, acc, 2 * r);
    }
    free(acc);
#endif
}

/* w <- 2a(Hv - b v) - w, plus eta_even = <v|v>, eta_odd = <w_new|v>.
 * eta_odd is one interleaved complex value.                           */
EXPORT void KN(repro_csr_aug_spmv)(
    int64_t n_rows,
    const int64_t *restrict indptr,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict v,
    REPRO_XT *restrict w,
    double a,
    double b,
    double *restrict eta_even,     /* 1 double  */
    double *restrict eta_odd)      /* 2 doubles */
{
    const REPRO_AT ta = (REPRO_AT)(2.0 * a), tab = (REPRO_AT)(2.0 * a * b);
    REPRO_ESUM_DECL(ee);
    REPRO_ESUM_DECL(eor);
    REPRO_ESUM_DECL(eoi);
    for (int64_t i = 0; i < n_rows; ++i) {
        REPRO_AT sr, si;
        KN(repro_rowdot)(indptr[i], indptr[i + 1], indices, data, v, &sr,
                         &si);
        const REPRO_AT vr = REPRO_LOADX(v, 2 * i);
        const REPRO_AT vi = REPRO_LOADX(v, 2 * i + 1);
        const REPRO_AT wr = ta * sr - tab * vr - REPRO_LOADX(w, 2 * i);
        const REPRO_AT wi = ta * si - tab * vi - REPRO_LOADX(w, 2 * i + 1);
        REPRO_STOREX(w, 2 * i, wr);
        REPRO_STOREX(w, 2 * i + 1, wi);
        REPRO_ESUM_ADD(ee, (double)vr * (double)vr + (double)vi * (double)vi);
        /* conj(w_new) * v */
        REPRO_ESUM_ADD(eor, (double)wr * (double)vr + (double)wi * (double)vi);
        REPRO_ESUM_ADD(eoi, (double)wr * (double)vi - (double)wi * (double)vr);
    }
    *eta_even = ee;
    eta_odd[0] = eor;
    eta_odd[1] = eoi;
}

/* Blocked variant: V, W are (N, R) row-major; eta_even is R doubles,
 * eta_odd R interleaved complex values.                               */
EXPORT void KN(repro_csr_aug_spmmv)(
    int64_t n_rows,
    int64_t r,
    const int64_t *restrict indptr,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict V,
    REPRO_XT *restrict W,
    double a,
    double b,
    double *restrict eta_even,     /* r doubles   */
    double *restrict eta_odd)      /* 2*r doubles */
{
    const REPRO_AT ta = (REPRO_AT)(2.0 * a), tab = (REPRO_AT)(2.0 * a * b);
#if REPRO_SIMD
    memset(eta_even, 0, (size_t)r * sizeof(double));
    memset(eta_odd, 0, (size_t)(2 * r) * sizeof(double));
    REPRO_EARR_DECL(r, (void)0)
    for (int64_t i = 0; i < n_rows; ++i) {
        REPRO_ROW_AUG(indptr[i], indptr[i + 1] - indptr[i], 1, i);
    }
    REPRO_EARR_FREE();
#else
    REPRO_AT *acc = REPRO_ALLOC(REPRO_AT, 2 * r, 0);
    if (!acc)
        return;
    memset(eta_even, 0, (size_t)r * sizeof(double));
    memset(eta_odd, 0, (size_t)(2 * r) * sizeof(double));
    REPRO_EARR_DECL(r, free(acc))
    for (int64_t i = 0; i < n_rows; ++i) {
        memset(acc, 0, (size_t)(2 * r) * sizeof(REPRO_AT));
        const int64_t p0 = indptr[i], p1 = indptr[i + 1];
        for (int64_t p = p0; p < p1; ++p) {
            if (p + 1 < p1)
                REPRO_PFROW(V + 2 * (int64_t)indices[p + 1] * r,
                            (size_t)(2 * r) * sizeof(REPRO_XT));
            const REPRO_AT ar = (REPRO_AT)data[2 * p];
            const REPRO_AT ai = (REPRO_AT)data[2 * p + 1];
            const REPRO_XT *restrict xj = V + 2 * (int64_t)indices[p] * r;
            KN(repro_rowaxpy)(acc, xj, ar, ai, r);
        }
        REPRO_LOOPB(V + 2 * i * r, W + 2 * i * r, acc);
    }
    REPRO_EARR_FREE();
    free(acc);
#endif
}

/* ------------------------------------------------------------------ */
/* CSR split kernels (task-mode overlapped execution)                  */
/*                                                                     */
/* The distributed engines hide the halo exchange by running the KPM   */
/* update in two phases: a contiguous *interior* row range [row0,row1) */
/* whose entries reference only local columns (computable before the   */
/* halo arrives), then the gathered *boundary* rows.  Both variants    */
/* index the ORIGINAL local matrix absolutely — no row extraction —    */
/* and the per-row arithmetic is byte-for-byte the plain kernel's, so  */
/* the W update is bitwise identical to a single-phase call for any    */
/* split.  Each phase zeroes and returns its OWN eta partials; the     */
/* caller combines them in a fixed order (interior + boundary), which  */
/* makes the combined dots independent of the execution schedule.      */
/* ------------------------------------------------------------------ */

EXPORT void KN(repro_csr_aug_spmv_range)(
    int64_t row0,
    int64_t row1,
    const int64_t *restrict indptr,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict v,
    REPRO_XT *restrict w,
    double a,
    double b,
    double *restrict eta_even,     /* 1 double: this phase's partial  */
    double *restrict eta_odd)      /* 2 doubles                       */
{
    const REPRO_AT ta = (REPRO_AT)(2.0 * a), tab = (REPRO_AT)(2.0 * a * b);
    REPRO_ESUM_DECL(ee);
    REPRO_ESUM_DECL(eor);
    REPRO_ESUM_DECL(eoi);
    for (int64_t i = row0; i < row1; ++i) {
        REPRO_AT sr, si;
        KN(repro_rowdot)(indptr[i], indptr[i + 1], indices, data, v, &sr,
                         &si);
        const REPRO_AT vr = REPRO_LOADX(v, 2 * i);
        const REPRO_AT vi = REPRO_LOADX(v, 2 * i + 1);
        const REPRO_AT wr = ta * sr - tab * vr - REPRO_LOADX(w, 2 * i);
        const REPRO_AT wi = ta * si - tab * vi - REPRO_LOADX(w, 2 * i + 1);
        REPRO_STOREX(w, 2 * i, wr);
        REPRO_STOREX(w, 2 * i + 1, wi);
        REPRO_ESUM_ADD(ee, (double)vr * (double)vr + (double)vi * (double)vi);
        REPRO_ESUM_ADD(eor, (double)wr * (double)vr + (double)wi * (double)vi);
        REPRO_ESUM_ADD(eoi, (double)wr * (double)vi - (double)wi * (double)vr);
    }
    *eta_even = ee;
    eta_odd[0] = eor;
    eta_odd[1] = eoi;
}

EXPORT void KN(repro_csr_aug_spmv_rows)(
    int64_t n_sub,
    const int64_t *restrict rows,  /* gathered local row indices      */
    const int64_t *restrict indptr,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict v,
    REPRO_XT *restrict w,
    double a,
    double b,
    double *restrict eta_even,
    double *restrict eta_odd)
{
    const REPRO_AT ta = (REPRO_AT)(2.0 * a), tab = (REPRO_AT)(2.0 * a * b);
    REPRO_ESUM_DECL(ee);
    REPRO_ESUM_DECL(eor);
    REPRO_ESUM_DECL(eoi);
    for (int64_t t = 0; t < n_sub; ++t) {
        const int64_t i = rows[t];
        REPRO_AT sr, si;
        KN(repro_rowdot)(indptr[i], indptr[i + 1], indices, data, v, &sr,
                         &si);
        const REPRO_AT vr = REPRO_LOADX(v, 2 * i);
        const REPRO_AT vi = REPRO_LOADX(v, 2 * i + 1);
        const REPRO_AT wr = ta * sr - tab * vr - REPRO_LOADX(w, 2 * i);
        const REPRO_AT wi = ta * si - tab * vi - REPRO_LOADX(w, 2 * i + 1);
        REPRO_STOREX(w, 2 * i, wr);
        REPRO_STOREX(w, 2 * i + 1, wi);
        REPRO_ESUM_ADD(ee, (double)vr * (double)vr + (double)vi * (double)vi);
        REPRO_ESUM_ADD(eor, (double)wr * (double)vr + (double)wi * (double)vi);
        REPRO_ESUM_ADD(eoi, (double)wr * (double)vi - (double)wi * (double)vr);
    }
    *eta_even = ee;
    eta_odd[0] = eor;
    eta_odd[1] = eoi;
}

EXPORT void KN(repro_csr_aug_spmmv_range)(
    int64_t row0,
    int64_t row1,
    int64_t r,
    const int64_t *restrict indptr,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict V,
    REPRO_XT *restrict W,
    double a,
    double b,
    double *restrict eta_even,     /* r doubles: this phase's partials */
    double *restrict eta_odd)      /* 2*r doubles                      */
{
    const REPRO_AT ta = (REPRO_AT)(2.0 * a), tab = (REPRO_AT)(2.0 * a * b);
#if REPRO_SIMD
    memset(eta_even, 0, (size_t)r * sizeof(double));
    memset(eta_odd, 0, (size_t)(2 * r) * sizeof(double));
    REPRO_EARR_DECL(r, (void)0)
    for (int64_t i = row0; i < row1; ++i) {
        REPRO_ROW_AUG(indptr[i], indptr[i + 1] - indptr[i], 1, i);
    }
    REPRO_EARR_FREE();
#else
    REPRO_AT *acc = REPRO_ALLOC(REPRO_AT, 2 * r, 0);
    if (!acc)
        return;
    memset(eta_even, 0, (size_t)r * sizeof(double));
    memset(eta_odd, 0, (size_t)(2 * r) * sizeof(double));
    REPRO_EARR_DECL(r, free(acc))
    for (int64_t i = row0; i < row1; ++i) {
        memset(acc, 0, (size_t)(2 * r) * sizeof(REPRO_AT));
        const int64_t p0 = indptr[i], p1 = indptr[i + 1];
        for (int64_t p = p0; p < p1; ++p) {
            if (p + 1 < p1)
                REPRO_PFROW(V + 2 * (int64_t)indices[p + 1] * r,
                            (size_t)(2 * r) * sizeof(REPRO_XT));
            const REPRO_AT ar = (REPRO_AT)data[2 * p];
            const REPRO_AT ai = (REPRO_AT)data[2 * p + 1];
            const REPRO_XT *restrict xj = V + 2 * (int64_t)indices[p] * r;
            KN(repro_rowaxpy)(acc, xj, ar, ai, r);
        }
        REPRO_LOOPB(V + 2 * i * r, W + 2 * i * r, acc);
    }
    REPRO_EARR_FREE();
    free(acc);
#endif
}

EXPORT void KN(repro_csr_aug_spmmv_rows)(
    int64_t n_sub,
    const int64_t *restrict rows,
    int64_t r,
    const int64_t *restrict indptr,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict V,
    REPRO_XT *restrict W,
    double a,
    double b,
    double *restrict eta_even,
    double *restrict eta_odd)
{
    const REPRO_AT ta = (REPRO_AT)(2.0 * a), tab = (REPRO_AT)(2.0 * a * b);
#if REPRO_SIMD
    memset(eta_even, 0, (size_t)r * sizeof(double));
    memset(eta_odd, 0, (size_t)(2 * r) * sizeof(double));
    REPRO_EARR_DECL(r, (void)0)
    for (int64_t t = 0; t < n_sub; ++t) {
        const int64_t i = rows[t];
        REPRO_ROW_AUG(indptr[i], indptr[i + 1] - indptr[i], 1, i);
    }
    REPRO_EARR_FREE();
#else
    REPRO_AT *acc = REPRO_ALLOC(REPRO_AT, 2 * r, 0);
    if (!acc)
        return;
    memset(eta_even, 0, (size_t)r * sizeof(double));
    memset(eta_odd, 0, (size_t)(2 * r) * sizeof(double));
    REPRO_EARR_DECL(r, free(acc))
    for (int64_t t = 0; t < n_sub; ++t) {
        const int64_t i = rows[t];
        memset(acc, 0, (size_t)(2 * r) * sizeof(REPRO_AT));
        const int64_t p0 = indptr[i], p1 = indptr[i + 1];
        for (int64_t p = p0; p < p1; ++p) {
            if (p + 1 < p1)
                REPRO_PFROW(V + 2 * (int64_t)indices[p + 1] * r,
                            (size_t)(2 * r) * sizeof(REPRO_XT));
            const REPRO_AT ar = (REPRO_AT)data[2 * p];
            const REPRO_AT ai = (REPRO_AT)data[2 * p + 1];
            const REPRO_XT *restrict xj = V + 2 * (int64_t)indices[p] * r;
            KN(repro_rowaxpy)(acc, xj, ar, ai, r);
        }
        REPRO_LOOPB(V + 2 * i * r, W + 2 * i * r, acc);
    }
    REPRO_EARR_FREE();
    free(acc);
#endif
}

/* ------------------------------------------------------------------ */
/* SELL-C-sigma                                                        */
/*                                                                     */
/* Flat layout: chunk ci of height C and length L = chunk_len[ci]      */
/* stores slot (j, lane) at chunk_ptr[ci] + j*C + lane (column-major   */
/* within the chunk).  perm[sorted_pos] is the original row; sorted    */
/* positions whose perm value is >= n_rows are padding rows.  Padded   */
/* slots hold value 0 with a valid self-referencing column, so they    */
/* are numerically inert but are streamed like real entries.           */
/* ------------------------------------------------------------------ */

EXPORT void KN(repro_sell_spmv)(
    int64_t n_rows,
    int64_t n_chunks,
    int64_t c,
    const int64_t *restrict chunk_ptr,
    const int64_t *restrict chunk_len,
    const int64_t *restrict perm,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict x,
    REPRO_XT *restrict y)
{
    REPRO_AT *acc = REPRO_ALLOC(REPRO_AT, 2 * c, 0);
    if (!acc)
        return;
    for (int64_t ci = 0; ci < n_chunks; ++ci) {
        const int64_t base = chunk_ptr[ci], len = chunk_len[ci];
        memset(acc, 0, (size_t)(2 * c) * sizeof(REPRO_AT));
        for (int64_t j = 0; j < len; ++j)
            KN(repro_lanecmadd)(acc, data, indices, base + j * c, c, x);
        for (int64_t lane = 0; lane < c; ++lane) {
            const int64_t row = perm[ci * c + lane];
            if (row < n_rows) {
                REPRO_STOREX(y, 2 * row, acc[2 * lane]);
                REPRO_STOREX(y, 2 * row + 1, acc[2 * lane + 1]);
            }
        }
    }
    free(acc);
}

EXPORT void KN(repro_sell_spmmv)(
    int64_t n_rows,
    int64_t n_chunks,
    int64_t c,
    int64_t r,
    const int64_t *restrict chunk_ptr,
    const int64_t *restrict chunk_len,
    const int64_t *restrict perm,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict X,
    REPRO_XT *restrict Y)
{
#if REPRO_SIMD
    for (int64_t ci = 0; ci < n_chunks; ++ci) {
        const int64_t base = chunk_ptr[ci], len = chunk_len[ci];
        for (int64_t lane = 0; lane < c; ++lane) {
            const int64_t row = perm[ci * c + lane];
            if (row < n_rows)
                KN(repro_row_store)(indices, data, base + lane, len, c, X,
                                    Y, r, row);
        }
    }
#else
    REPRO_AT *acc = REPRO_ALLOC(REPRO_AT, 2 * c * r, 0);
    if (!acc)
        return;
    for (int64_t ci = 0; ci < n_chunks; ++ci) {
        const int64_t base = chunk_ptr[ci], len = chunk_len[ci];
        memset(acc, 0, (size_t)(2 * c * r) * sizeof(REPRO_AT));
        for (int64_t j = 0; j < len; ++j) {
            const int64_t slot0 = base + j * c;
            const int has_next = (j + 1 < len);
            for (int64_t lane = 0; lane < c; ++lane) {
                if (has_next)
                    REPRO_PFROW(
                        X + 2 * (int64_t)indices[slot0 + c + lane] * r,
                        (size_t)(2 * r) * sizeof(REPRO_XT));
                const REPRO_AT ar = (REPRO_AT)data[2 * (slot0 + lane)];
                const REPRO_AT ai = (REPRO_AT)data[2 * (slot0 + lane) + 1];
                const REPRO_XT *restrict xj =
                    X + 2 * (int64_t)indices[slot0 + lane] * r;
                KN(repro_rowaxpy)(acc + 2 * lane * r, xj, ar, ai, r);
            }
        }
        for (int64_t lane = 0; lane < c; ++lane) {
            const int64_t row = perm[ci * c + lane];
            if (row < n_rows)
                KN(repro_storerow)(Y + 2 * row * r, acc + 2 * lane * r,
                                   2 * r);
        }
    }
    free(acc);
#endif
}

EXPORT void KN(repro_sell_aug_spmv)(
    int64_t n_rows,
    int64_t n_chunks,
    int64_t c,
    const int64_t *restrict chunk_ptr,
    const int64_t *restrict chunk_len,
    const int64_t *restrict perm,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict v,
    REPRO_XT *restrict w,
    double a,
    double b,
    double *restrict eta_even,
    double *restrict eta_odd)
{
    const REPRO_AT ta = (REPRO_AT)(2.0 * a), tab = (REPRO_AT)(2.0 * a * b);
    REPRO_ESUM_DECL(ee);
    REPRO_ESUM_DECL(eor);
    REPRO_ESUM_DECL(eoi);
    REPRO_AT *acc = REPRO_ALLOC(REPRO_AT, 2 * c, 0);
    if (!acc)
        return;
    for (int64_t ci = 0; ci < n_chunks; ++ci) {
        const int64_t base = chunk_ptr[ci], len = chunk_len[ci];
        memset(acc, 0, (size_t)(2 * c) * sizeof(REPRO_AT));
        for (int64_t j = 0; j < len; ++j)
            KN(repro_lanecmadd)(acc, data, indices, base + j * c, c, v);
        for (int64_t lane = 0; lane < c; ++lane) {
            const int64_t row = perm[ci * c + lane];
            if (row >= n_rows)
                continue;
            const REPRO_AT vr = REPRO_LOADX(v, 2 * row);
            const REPRO_AT vi = REPRO_LOADX(v, 2 * row + 1);
            const REPRO_AT wr = ta * acc[2 * lane] - tab * vr
                - REPRO_LOADX(w, 2 * row);
            const REPRO_AT wi = ta * acc[2 * lane + 1] - tab * vi
                - REPRO_LOADX(w, 2 * row + 1);
            REPRO_STOREX(w, 2 * row, wr);
            REPRO_STOREX(w, 2 * row + 1, wi);
            REPRO_ESUM_ADD(ee,
                           (double)vr * (double)vr + (double)vi * (double)vi);
            REPRO_ESUM_ADD(eor,
                           (double)wr * (double)vr + (double)wi * (double)vi);
            REPRO_ESUM_ADD(eoi,
                           (double)wr * (double)vi - (double)wi * (double)vr);
        }
    }
    free(acc);
    *eta_even = ee;
    eta_odd[0] = eor;
    eta_odd[1] = eoi;
}

EXPORT void KN(repro_sell_aug_spmmv)(
    int64_t n_rows,
    int64_t n_chunks,
    int64_t c,
    int64_t r,
    const int64_t *restrict chunk_ptr,
    const int64_t *restrict chunk_len,
    const int64_t *restrict perm,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict V,
    REPRO_XT *restrict W,
    double a,
    double b,
    double *restrict eta_even,
    double *restrict eta_odd)
{
    const REPRO_AT ta = (REPRO_AT)(2.0 * a), tab = (REPRO_AT)(2.0 * a * b);
#if REPRO_SIMD
    memset(eta_even, 0, (size_t)r * sizeof(double));
    memset(eta_odd, 0, (size_t)(2 * r) * sizeof(double));
    REPRO_EARR_DECL(r, (void)0)
    for (int64_t ci = 0; ci < n_chunks; ++ci) {
        const int64_t base = chunk_ptr[ci], len = chunk_len[ci];
        for (int64_t lane = 0; lane < c; ++lane) {
            const int64_t row = perm[ci * c + lane];
            if (row < n_rows)
                REPRO_ROW_AUG(base + lane, len, c, row);
        }
    }
    REPRO_EARR_FREE();
#else
    REPRO_AT *acc = REPRO_ALLOC(REPRO_AT, 2 * c * r, 0);
    if (!acc)
        return;
    memset(eta_even, 0, (size_t)r * sizeof(double));
    memset(eta_odd, 0, (size_t)(2 * r) * sizeof(double));
    REPRO_EARR_DECL(r, free(acc))
    for (int64_t ci = 0; ci < n_chunks; ++ci) {
        const int64_t base = chunk_ptr[ci], len = chunk_len[ci];
        memset(acc, 0, (size_t)(2 * c * r) * sizeof(REPRO_AT));
        for (int64_t j = 0; j < len; ++j) {
            const int64_t slot0 = base + j * c;
            const int has_next = (j + 1 < len);
            for (int64_t lane = 0; lane < c; ++lane) {
                if (has_next)
                    REPRO_PFROW(
                        V + 2 * (int64_t)indices[slot0 + c + lane] * r,
                        (size_t)(2 * r) * sizeof(REPRO_XT));
                const REPRO_AT ar = (REPRO_AT)data[2 * (slot0 + lane)];
                const REPRO_AT ai = (REPRO_AT)data[2 * (slot0 + lane) + 1];
                const REPRO_XT *restrict xj =
                    V + 2 * (int64_t)indices[slot0 + lane] * r;
                KN(repro_rowaxpy)(acc + 2 * lane * r, xj, ar, ai, r);
            }
        }
        for (int64_t lane = 0; lane < c; ++lane) {
            const int64_t row = perm[ci * c + lane];
            if (row >= n_rows)
                continue;
            REPRO_LOOPB(V + 2 * row * r, W + 2 * row * r,
                        acc + 2 * lane * r);
        }
    }
    REPRO_EARR_FREE();
    free(acc);
#endif
}

/* ------------------------------------------------------------------ */
/* Threaded (_mt) kernels: OpenMP parallel-for over fixed row blocks   */
/*                                                                     */
/* The paper's hybrid execution is MPI + OpenMP — each rank drives all */
/* of a socket's cores (Sections V-VI).  These variants parallelize    */
/* the row loop of the augmented block kernels over REPRO_MT_BLOCK-row */
/* blocks with a DETERMINISTIC reduction: the block grid depends only  */
/* on the row range (never the thread count), each block accumulates   */
/* its eta partials with Kahan compensation into its own slice of a    */
/* preallocated array, and after the parallel region the partials are  */
/* combined sequentially in block order.  Result: bitwise-identical    */
/* eta for every n_threads >= 1, OpenMP or not — the checkpoint-       */
/* resume / mp==sim / serve-coalescing invariants survive threading.   */
/* The W update is row-local (disjoint rows per block; SELL perm is a  */
/* permutation), so it is race-free and bitwise equal to the serial    */
/* kernels' update.  No allocation happens inside the parallel region. */
/* ------------------------------------------------------------------ */

/* Shared CSR body: iterates t over [t0, t1); the row is rows[t] when a
 * gather list is given (the boundary phase), else t itself (the plain
 * and interior-range variants, which pass t0=row0, t1=row1).          */
static void KN(repro_csr_aug_spmmv_mt_body)(
    int64_t t0,
    int64_t t1,
    const int64_t *restrict rows,
    int64_t r,
    int64_t n_threads,
    const int64_t *restrict indptr,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict V,
    REPRO_XT *restrict W,
    double a,
    double b,
    double *restrict eta_even,     /* r doubles   */
    double *restrict eta_odd)      /* 2*r doubles */
{
    const REPRO_AT ta = (REPRO_AT)(2.0 * a), tab = (REPRO_AT)(2.0 * a * b);
    const int64_t span = t1 > t0 ? t1 - t0 : 0;
    const int64_t nb = (span + REPRO_MT_BLOCK - 1) / REPRO_MT_BLOCK;
    const int nt = (int)(n_threads > 0 ? n_threads : 1);
    memset(eta_even, 0, (size_t)r * sizeof(double));
    memset(eta_odd, 0, (size_t)(2 * r) * sizeof(double));
    if (nb == 0)
        return;
    (void)nt;
    /* per-block eta partials [ee r | eo 2r | kahan carries 3r], plus a
     * trailing 3r carry slice for the block-order combine             */
    double *epart = REPRO_ALLOC(double, nb * 6 * r + 3 * r, 1);
#if REPRO_SIMD
    if (!epart)
        return;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(nt)
#endif
    for (int64_t bi = 0; bi < nb; ++bi) {
        double *restrict bee = epart + (size_t)(bi * 6 * r);
        const int64_t tb0 = t0 + bi * REPRO_MT_BLOCK;
        const int64_t tb1 =
            tb0 + REPRO_MT_BLOCK < t1 ? tb0 + REPRO_MT_BLOCK : t1;
        for (int64_t t = tb0; t < tb1; ++t) {
            const int64_t i = rows ? rows[t] : t;
            KN(repro_row_kahan)(indices, data, indptr[i],
                                indptr[i + 1] - indptr[i], 1, V, W, r, i,
                                ta, tab, bee, bee + r, bee + 3 * r);
        }
    }
#else
    REPRO_AT *accs = REPRO_ALLOC(REPRO_AT, nb * 2 * r, 0);
    if (!accs || !epart) {
        free(accs);
        free(epart);
        return;
    }
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(nt)
#endif
    for (int64_t bi = 0; bi < nb; ++bi) {
        REPRO_AT *restrict acc = accs + (size_t)(bi * 2 * r);
        double *restrict bee = epart + (size_t)(bi * 6 * r);
        double *restrict beo = bee + r;
        double *restrict bcc = bee + 3 * r;
        const int64_t tb0 = t0 + bi * REPRO_MT_BLOCK;
        const int64_t tb1 =
            tb0 + REPRO_MT_BLOCK < t1 ? tb0 + REPRO_MT_BLOCK : t1;
        for (int64_t t = tb0; t < tb1; ++t) {
            const int64_t i = rows ? rows[t] : t;
            memset(acc, 0, (size_t)(2 * r) * sizeof(REPRO_AT));
            const int64_t p0 = indptr[i], p1 = indptr[i + 1];
            for (int64_t p = p0; p < p1; ++p) {
                if (p + 1 < p1)
                    REPRO_PFROW(V + 2 * (int64_t)indices[p + 1] * r,
                                (size_t)(2 * r) * sizeof(REPRO_XT));
                const REPRO_AT ar = (REPRO_AT)data[2 * p];
                const REPRO_AT ai = (REPRO_AT)data[2 * p + 1];
                const REPRO_XT *restrict xj =
                    V + 2 * (int64_t)indices[p] * r;
                KN(repro_rowaxpy)(acc, xj, ar, ai, r);
            }
            KN(repro_loopb_kahan)(V + 2 * i * r, W + 2 * i * r, acc, r, ta,
                                  tab, bee, beo, bcc);
        }
    }
    free(accs);
#endif
    /* sequential block-order combine: the only cross-block reduction  */
    double *restrict ccomb = epart + (size_t)(nb * 6 * r);
    for (int64_t bi = 0; bi < nb; ++bi) {
        const double *restrict bee = epart + (size_t)(bi * 6 * r);
        const double *restrict beo = bee + r;
        for (int64_t k = 0; k < r; ++k)
            repro_kadd(&eta_even[k], &ccomb[k], bee[k]);
        for (int64_t k = 0; k < 2 * r; ++k)
            repro_kadd(&eta_odd[k], &ccomb[r + k], beo[k]);
    }
    free(epart);
}

EXPORT void KN(repro_csr_aug_spmmv_mt)(
    int64_t n_rows,
    int64_t r,
    int64_t n_threads,
    const int64_t *restrict indptr,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict V,
    REPRO_XT *restrict W,
    double a,
    double b,
    double *restrict eta_even,
    double *restrict eta_odd)
{
    KN(repro_csr_aug_spmmv_mt_body)(0, n_rows, NULL, r, n_threads, indptr,
                                    indices, data, V, W, a, b, eta_even,
                                    eta_odd);
}

EXPORT void KN(repro_csr_aug_spmmv_range_mt)(
    int64_t row0,
    int64_t row1,
    int64_t r,
    int64_t n_threads,
    const int64_t *restrict indptr,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict V,
    REPRO_XT *restrict W,
    double a,
    double b,
    double *restrict eta_even,
    double *restrict eta_odd)
{
    KN(repro_csr_aug_spmmv_mt_body)(row0, row1, NULL, r, n_threads, indptr,
                                    indices, data, V, W, a, b, eta_even,
                                    eta_odd);
}

EXPORT void KN(repro_csr_aug_spmmv_rows_mt)(
    int64_t n_sub,
    const int64_t *restrict rows,
    int64_t r,
    int64_t n_threads,
    const int64_t *restrict indptr,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict V,
    REPRO_XT *restrict W,
    double a,
    double b,
    double *restrict eta_even,
    double *restrict eta_odd)
{
    KN(repro_csr_aug_spmmv_mt_body)(0, n_sub, rows, r, n_threads, indptr,
                                    indices, data, V, W, a, b, eta_even,
                                    eta_odd);
}

/* SELL threaded variant: blocks are fixed runs of whole chunks — the
 * chunks-per-block count depends only on the chunk height c, so the
 * grid (hence the bits) is again independent of the thread count.     */
EXPORT void KN(repro_sell_aug_spmmv_mt)(
    int64_t n_rows,
    int64_t n_chunks,
    int64_t c,
    int64_t r,
    int64_t n_threads,
    const int64_t *restrict chunk_ptr,
    const int64_t *restrict chunk_len,
    const int64_t *restrict perm,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict V,
    REPRO_XT *restrict W,
    double a,
    double b,
    double *restrict eta_even,
    double *restrict eta_odd)
{
    const REPRO_AT ta = (REPRO_AT)(2.0 * a), tab = (REPRO_AT)(2.0 * a * b);
    const int64_t cpb = REPRO_MT_BLOCK / c > 0 ? REPRO_MT_BLOCK / c : 1;
    const int64_t nb = (n_chunks + cpb - 1) / cpb;
    const int nt = (int)(n_threads > 0 ? n_threads : 1);
    memset(eta_even, 0, (size_t)r * sizeof(double));
    memset(eta_odd, 0, (size_t)(2 * r) * sizeof(double));
    if (nb == 0)
        return;
    (void)nt;
    double *epart = REPRO_ALLOC(double, nb * 6 * r + 3 * r, 1);
#if REPRO_SIMD
    if (!epart)
        return;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(nt)
#endif
    for (int64_t bi = 0; bi < nb; ++bi) {
        double *restrict bee = epart + (size_t)(bi * 6 * r);
        const int64_t cb1 =
            (bi + 1) * cpb < n_chunks ? (bi + 1) * cpb : n_chunks;
        for (int64_t ci = bi * cpb; ci < cb1; ++ci) {
            const int64_t base = chunk_ptr[ci], len = chunk_len[ci];
            for (int64_t lane = 0; lane < c; ++lane) {
                const int64_t row = perm[ci * c + lane];
                if (row < n_rows)
                    KN(repro_row_kahan)(indices, data, base + lane, len, c,
                                        V, W, r, row, ta, tab, bee,
                                        bee + r, bee + 3 * r);
            }
        }
    }
#else
    REPRO_AT *accs = REPRO_ALLOC(REPRO_AT, nb * 2 * c * r, 0);
    if (!accs || !epart) {
        free(accs);
        free(epart);
        return;
    }
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(nt)
#endif
    for (int64_t bi = 0; bi < nb; ++bi) {
        REPRO_AT *restrict acc = accs + (size_t)(bi * 2 * c * r);
        double *restrict bee = epart + (size_t)(bi * 6 * r);
        double *restrict beo = bee + r;
        double *restrict bcc = bee + 3 * r;
        const int64_t cb1 =
            (bi + 1) * cpb < n_chunks ? (bi + 1) * cpb : n_chunks;
        for (int64_t ci = bi * cpb; ci < cb1; ++ci) {
            const int64_t base = chunk_ptr[ci], len = chunk_len[ci];
            memset(acc, 0, (size_t)(2 * c * r) * sizeof(REPRO_AT));
            for (int64_t j = 0; j < len; ++j) {
                const int64_t slot0 = base + j * c;
                const int has_next = (j + 1 < len);
                for (int64_t lane = 0; lane < c; ++lane) {
                    if (has_next)
                        REPRO_PFROW(
                            V + 2 * (int64_t)indices[slot0 + c + lane] * r,
                            (size_t)(2 * r) * sizeof(REPRO_XT));
                    const REPRO_AT ar = (REPRO_AT)data[2 * (slot0 + lane)];
                    const REPRO_AT ai =
                        (REPRO_AT)data[2 * (slot0 + lane) + 1];
                    const REPRO_XT *restrict xj =
                        V + 2 * (int64_t)indices[slot0 + lane] * r;
                    KN(repro_rowaxpy)(acc + 2 * lane * r, xj, ar, ai, r);
                }
            }
            for (int64_t lane = 0; lane < c; ++lane) {
                const int64_t row = perm[ci * c + lane];
                if (row >= n_rows)
                    continue;
                KN(repro_loopb_kahan)(V + 2 * row * r, W + 2 * row * r,
                                      acc + 2 * lane * r, r, ta, tab, bee,
                                      beo, bcc);
            }
        }
    }
    free(accs);
#endif
    double *restrict ccomb = epart + (size_t)(nb * 6 * r);
    for (int64_t bi = 0; bi < nb; ++bi) {
        const double *restrict bee = epart + (size_t)(bi * 6 * r);
        const double *restrict beo = bee + r;
        for (int64_t k = 0; k < r; ++k)
            repro_kadd(&eta_even[k], &ccomb[k], bee[k]);
        for (int64_t k = 0; k < 2 * r; ++k)
            repro_kadd(&eta_odd[k], &ccomb[r + k], beo[k]);
    }
    free(epart);
}
