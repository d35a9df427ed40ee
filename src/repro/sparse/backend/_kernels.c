/* Single-pass KPM kernels for CSR and SELL-C-sigma, typed by precision.
 *
 * This file backs repro.sparse.backend.native: it is compiled on first
 * use with `cc -O3 -shared` and loaded through ctypes.  Each format has
 * ONE walk, a genuinely fused single traversal of the matrix stream
 * whose finisher stores the product, forms the bootstrap nu_1, or — the
 * aug step — performs the shift/scale/recombination of paper Eq. (3)
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
 * repro.util.precision): the two walks below and the two set-up
 * entries at its end are written ONCE against the REPRO_VT / XT / AT /
 * IT types, and each build of this file holds exactly one (profile,
 * scalar | simd) unit, picked with
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
 * The narrow profiles compute in fp32 (half storage is converted at
 * load/store with round-to-nearest-even).  In every profile the eta
 * terms are formed in fp64 and reduced by the one eta reduction (the
 * section of that name below): plain adds per 64-row block, then an
 * exact two-bin deposit, so no schedule can change a bit of eta.
 *
 * Index types match the Python containers: CSR indptr, SELL chunk_ptr,
 * chunk_len, perm and inv_perm are int64; column indices are int32 (the
 * paper's S_i = 4) or uint16 (compressed, S_i = 2) per the table above.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#if defined(__GLIBC__)
/* glibc's, declared here: _GNU_SOURCE would parse 5 MB more headers  */
void sincos(double x, double *sin_x, double *cos_x);
#endif
#ifdef _OPENMP
#include <omp.h>
#endif

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
 * hardware prefetcher cannot predict.  Scalar blocked rows only: the
 * register tiles issue none — prefetching the next row's gathers there
 * measured -3...+10 % by shape, nothing resolvable (DESIGN section 12).
 * Architecturally inert either way — prefetch never changes bits.     */
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
 * stays fully vectorized.  Every profile carries the contract.        */
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

/* What a walk does with a finished row, its finisher (repro_fin,
 * DESIGN section 12): the plain product, the bootstrap, the aug step.  */
#define REPRO_FIN_STORE 0
#define REPRO_FIN_BOOT 1
#define REPRO_FIN_AUG 2

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
/* fp64 baseline: complex128 values & vectors, int32 indices — the
 * paper's original kernels.                                           */
#define REPRO_SUF
#define REPRO_VT double
#define REPRO_XT double
#define REPRO_AT double
#define REPRO_IT int32_t
#define REPRO_NARROW 0
#define REPRO_HALF 0
#elif REPRO_PROFILE == 2
/* fp32: complex64 values & vectors, int32 indices.                    */
#define REPRO_SUF _f32
#define REPRO_VT float
#define REPRO_XT float
#define REPRO_AT float
#define REPRO_IT int32_t
#define REPRO_NARROW 1
#define REPRO_HALF 0
#elif REPRO_PROFILE == 3
/* fp32 with compressed uint16 column indices.                         */
#define REPRO_SUF _f32u16
#define REPRO_VT float
#define REPRO_XT float
#define REPRO_AT float
#define REPRO_IT uint16_t
#define REPRO_NARROW 1
#define REPRO_HALF 0
#elif REPRO_PROFILE == 4
/* fp16v: complex64 values, float16 (re, im) pair vectors promoted to
 * fp32 in registers, int32 indices.                                   */
#define REPRO_SUF _f16v
#define REPRO_VT float
#define REPRO_XT uint16_t
#define REPRO_AT float
#define REPRO_IT int32_t
#define REPRO_NARROW 1
#define REPRO_HALF 1
#elif REPRO_PROFILE == 5
/* fp16v with compressed uint16 column indices.                        */
#define REPRO_SUF _f16vu16
#define REPRO_VT float
#define REPRO_XT uint16_t
#define REPRO_AT float
#define REPRO_IT uint16_t
#define REPRO_NARROW 1
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
#define REPRO_ABI 8
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
/*   * Single-vector walks vectorize ACROSS ROWS — one lane per row   */
/*     (a SELL chunk's lanes, a group of consecutive CSR rows), each   */
/*     row summed in storage order — so a row's DAG is the scalar      */
/*     kernel's and the blocked kernels' at R = 1.                     */
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

/* Narrow-profile vector load/store of the XT storage: identity for
 * fp32, F16C conversion (bitwise the software converters) for fp16v.  */
#if REPRO_SIMD && REPRO_NARROW
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

/* s += a_p x_{j_p} on one (re, im) accumulator pair: one entry of a
 * single-vector row, the DAG each vector lane below replays.          */
static inline void KN(repro_entry1)(
    REPRO_AT *restrict s,
    int64_t p,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict x)
{
    const REPRO_AT ar = (REPRO_AT)data[2 * p];
    const REPRO_AT ai = (REPRO_AT)data[2 * p + 1];
    const int64_t j = (int64_t)indices[p];
    const REPRO_AT xr = REPRO_LOADX(x, 2 * j);
    const REPRO_AT xi = REPRO_LOADX(x, 2 * j + 1);
    s[0] += ar * xr - ai * xi;
    s[1] += ar * xi + ai * xr;
}

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
#if REPRO_SIMD && !REPRO_NARROW
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
    for (; lane < c; ++lane)
        KN(repro_entry1)(acc + 2 * lane, slot0 + lane, indices, data, x);
}


/* Finish one row from its 2r accumulator values acc: the scalar
 * family's finisher, and both families' at r = 1.  ca, cb are (2a, 2ab)
 * or, boot, (a, b); part is the block partial [ee r | eo 2r]; fin is a
 * literal at every call site.  Store: w <- u, the product.  Aug: w <-
 * ca u - cb v - w.  Boot: u stored first (the _simd tiles stored it:
 * acc NULL), then w <- a (u - b v) from u as stored, in numpy's DAG of
 * `np.multiply(v, b)`, `w -= .`, `w *= a` — a complex times a real
 * scalar is the complex product with (b, 0), whose zero products stay,
 * so NaNs and zero signs come out as numpy's too.  Boot and aug add the
 * eta terms of (v, w) before w is rounded to storage.  Kept off the
 * autovectorizer so a column's bits never depend on r (the coalescing
 * contract).                                                          */
static inline __attribute__((always_inline)) void KN(repro_fin)(
    const int fin,
    const REPRO_XT *restrict vrow,
    REPRO_XT *restrict wrow,
    const REPRO_AT *restrict acc,
    int64_t r,
    REPRO_AT ca,
    REPRO_AT cb,
    double *restrict part)
{
    const REPRO_AT z = 0;
    if (fin != REPRO_FIN_AUG && acc)
        for (int64_t q = 0; q < 2 * r; ++q)
            REPRO_STOREX(wrow, q, acc[q]);
    if (fin == REPRO_FIN_STORE)
        return;
    REPRO_NOVEC
    for (int64_t k = 0; k < r; ++k) {
        REPRO_NOVEC_STMT;
        const REPRO_AT vr = REPRO_LOADX(vrow, 2 * k);
        const REPRO_AT vi = REPRO_LOADX(vrow, 2 * k + 1);
        REPRO_AT wr, wi;
        if (fin == REPRO_FIN_AUG) {
            wr = ca * acc[2 * k] - cb * vr - REPRO_LOADX(wrow, 2 * k);
            wi = ca * acc[2 * k + 1] - cb * vi - REPRO_LOADX(wrow, 2 * k + 1);
        } else {
            const REPRO_AT dr = REPRO_LOADX(wrow, 2 * k) - (vr * cb - vi * z);
            const REPRO_AT di =
                REPRO_LOADX(wrow, 2 * k + 1) - (vr * z + vi * cb);
            wr = dr * ca - di * z;
            wi = dr * z + di * ca;
        }
        REPRO_STOREX(wrow, 2 * k, wr);
        REPRO_STOREX(wrow, 2 * k + 1, wi);
        part[k] += (double)vr * (double)vr + (double)vi * (double)vi;
        part[r + 2 * k] += (double)wr * (double)vr + (double)wi * (double)vi;
        part[r + 2 * k + 1] +=
            (double)wr * (double)vi - (double)wi * (double)vr;
    }
}

#if REPRO_SIMD

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
/* the columns that do not fill a ymm ride in one partial ymm of a     */
/* tile's pass, moved by loads and stores of their bytes only.  Every  */
/* column is still a dedicated lane visited in row order with the      */
/* scalar kernels' mul, mul, add, add — the tiling changes where the   */
/* partial sums wait, never what is added to what — so each output bit */
/* is the scalar family's at every r.                                  */
/* ------------------------------------------------------------------ */

#if REPRO_NARROW /* float lanes, 4 block columns per ymm               */
#define REPRO_YMM __m256
#define REPRO_YCOLS 4
#define REPRO_Y_ZERO() _mm256_setzero_ps()
#define REPRO_Y_SET1(s) _mm256_set1_ps(s)
#define REPRO_Y_AIV(ai) repro_aiv_ps(ai)
#define REPRO_Y_CMADD repro_cmadd_ps
#define REPRO_Y_LOADX(p) REPRO_SIMD_LOAD8(p)
#define REPRO_Y_STOREX(p, y) REPRO_SIMD_STORE8((p), (y))
#define REPRO_Y_STOREA(p, y) _mm256_storeu_ps((p), (y))
/* The first t < 4 columns of a partial ymm (a column is one 32-bit
 * (re, im) half pair / 2 float lanes), by masked loads and stores:
 * off lanes load 0 and are never written.                             */
#if REPRO_HALF
#define REPRO_TMASK __m128i
#define REPRO_Y_TMASK(t)                                                   \
    _mm_cmpgt_epi32(_mm_set1_epi32((int)(t)), _mm_setr_epi32(0, 1, 2, 3))
#define REPRO_Y_LOADT(p, m)                                                \
    _mm256_cvtph_ps(_mm_maskload_epi32((const int *)(p), (m)))
#define REPRO_Y_STORET(p, m, y)                                            \
    _mm_maskstore_epi32((int *)(p), (m),                                   \
                        _mm256_cvtps_ph((y), _MM_FROUND_TO_NEAREST_INT))
#else
#define REPRO_TMASK __m256i
#define REPRO_Y_TMASK(t)                                                   \
    _mm256_cmpgt_epi32(_mm256_set1_epi32((int)(2 * (t))),                  \
                       _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
#define REPRO_Y_LOADT(p, m) _mm256_maskload_ps((p), (m))
#define REPRO_Y_STORET(p, m, y) _mm256_maskstore_ps((p), (m), (y))
#endif
#else            /* fp64: double lanes, 2 block columns per ymm        */
#define REPRO_YMM __m256d
#define REPRO_YCOLS 2
#define REPRO_Y_ZERO() _mm256_setzero_pd()
#define REPRO_Y_SET1(s) _mm256_set1_pd(s)
#define REPRO_Y_AIV(ai) repro_aiv_pd(ai)
#define REPRO_Y_CMADD repro_cmadd_pd
#define REPRO_Y_LOADX(p) _mm256_loadu_pd(p)
#define REPRO_Y_STOREX(p, y) _mm256_storeu_pd((p), (y))
#define REPRO_Y_STOREA(p, y) _mm256_storeu_pd((p), (y))
/* a partial ymm holds t = 1 column: its two doubles, moved as an xmm
 * (with a masked ymm load R = 1 and R = 3 calls took 4-6 % longer)    */
#define REPRO_TMASK int
#define REPRO_Y_TMASK(t) 0
#define REPRO_Y_LOADT(p, m) _mm256_zextpd128_pd256(_mm_loadu_pd(p))
#define REPRO_Y_STORET(p, m, y) _mm_storeu_pd((p), _mm256_castpd256_pd128(y))
#endif

/* Recombination + eta terms of the REPRO_YCOLS columns from block
 * column k that one accumulator register holds: the arithmetic of
 * repro_fin's aug finisher, one lane per column.  part: a partial ymm of t columns
 * (mask tm) — V and W move by REPRO_Y_LOADT / STORET, and only its t
 * columns' eta terms are added.                                       */
static inline __attribute__((always_inline)) void KN(repro_ymm_aug)(
    const int part,
    int64_t t,
    REPRO_TMASK tm,
    REPRO_YMM av,
    int64_t k,
    const REPRO_XT *restrict vrow,
    REPRO_XT *restrict wrow,
    REPRO_YMM tav,
    REPRO_YMM tabv,
    double *restrict ee,
    double *restrict eo)
{
    const REPRO_XT *restrict vp = vrow + 2 * k;
    REPRO_XT *restrict wp = wrow + 2 * k;
    const REPRO_YMM vy = part ? REPRO_Y_LOADT(vp, tm) : REPRO_Y_LOADX(vp);
    const REPRO_YMM wo = part ? REPRO_Y_LOADT(wp, tm) : REPRO_Y_LOADX(wp);
#if REPRO_NARROW
    const __m256 w8 = _mm256_sub_ps(
        _mm256_sub_ps(_mm256_mul_ps(tav, av), _mm256_mul_ps(tabv, vy)), wo);
    /* exact float->double promotion, then the fp64 eta DAG, one column
     * pair (xmm half) at a time                                       */
    const __m256d vv[2] = {_mm256_cvtps_pd(_mm256_castps256_ps128(vy)),
                           _mm256_cvtps_pd(_mm256_extractf128_ps(vy, 1))};
    const __m256d wv[2] = {_mm256_cvtps_pd(_mm256_castps256_ps128(w8)),
                           _mm256_cvtps_pd(_mm256_extractf128_ps(w8, 1))};
#else
    const __m256d w8 = _mm256_sub_pd(
        _mm256_sub_pd(_mm256_mul_pd(tav, av), _mm256_mul_pd(tabv, vy)), wo);
    const __m256d vv[1] = {vy}, wv[1] = {w8};
#endif
    if (part)
        REPRO_Y_STORET(wp, tm, w8);
    else
        REPRO_Y_STOREX(wp, w8);
    REPRO_UNROLL
    for (int h = 0; h < REPRO_YCOLS / 2; ++h) {
        const __m128d ep = repro_ee_pair_pd(vv[h]);
        const __m256d oq = repro_eo_quad_pd(vv[h], wv[h]);
        double *restrict e = ee + k + 2 * h, *restrict o = eo + 2 * k + 4 * h;
        if (!part) {
            repro_vadd_pd2(e, ep);
            repro_vadd_pd4(o, oq);
            continue;
        }
#if REPRO_NARROW /* columns 2h, 2h + 1 if they are among the t       */
        if (2 * h < t) {
            e[0] += _mm_cvtsd_f64(ep);
            repro_vadd_pd2(o, _mm256_castpd256_pd128(oq));
        }
        if (2 * h + 1 < t) {
            e[1] += _mm_cvtsd_f64(_mm_unpackhi_pd(ep, ep));
            repro_vadd_pd2(o + 2, _mm256_extractf128_pd(oq, 1));
        }
#else            /* the one column */
        (void)t;
        (void)tm;
        e[0] += _mm_cvtsd_f64(ep);
        repro_vadd_pd2(o, _mm256_castpd256_pd128(oq));
#endif
    }
}

/* One row x one tile starting at block column k: nv full ymm, then with
 * part the t < REPRO_YCOLS columns after them in one partial ymm.  The
 * partial ymm runs the full ones' DAG on masked loads (the off lanes
 * add zeros nobody reads) and is finished through masked stores, so
 * the leftover columns cost no pass of their own.
 * nv, part and fin are literal at every call site, so after inlining
 * the u loops unroll and acc[] is nv + part registers.                */
static inline __attribute__((always_inline)) void KN(repro_tile)(
    const int nv,
    const int part,
    const int fin,
    int64_t k,
    int64_t t,
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
    double *restrict eo)
{
    REPRO_YMM acc[16 / REPRO_YCOLS];
    REPRO_UNROLL
    for (int u = 0; u < nv + part; ++u)
        acc[u] = REPRO_Y_ZERO();
    const REPRO_TMASK tm = REPRO_Y_TMASK(t);
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
        if (part)
            acc[nv] = REPRO_Y_CMADD(
                acc[nv], arv, aiv,
                REPRO_Y_LOADT(xj + 2 * REPRO_YCOLS * nv, tm));
    }
    if (fin == REPRO_FIN_STORE) {
        REPRO_UNROLL
        for (int u = 0; u < nv; ++u)
            REPRO_Y_STOREX(orow + 2 * (k + REPRO_YCOLS * u), acc[u]);
        if (part)
            REPRO_Y_STORET(orow + 2 * (k + REPRO_YCOLS * nv), tm, acc[nv]);
        return;
    }
    const REPRO_YMM tav = REPRO_Y_SET1(ta), tabv = REPRO_Y_SET1(tab);
    REPRO_UNROLL
    for (int u = 0; u < nv + part; ++u)
        KN(repro_ymm_aug)(part && u == nv, t, tm, acc[u],
                          k + REPRO_YCOLS * u, vrow, orow, tav, tabv, ee, eo);
}

/* One whole row: 16-column tiles while they fit, then at most one
 * each of 8, 4 and (fp64) 2 columns, then the t < REPRO_YCOLS leftover
 * columns in a partial ymm — fp64's odd last three columns as one
 * 2 + 1 tile, so every width walks its row once per tile and an odd R
 * costs no pass more than the next even one.  Measured at R = 32 fp64,
 * 8 against 4 ymm as the widest tile: CSR 10.0 / 11.3 ms, SELL 9.5 /
 * 10.1; a 32-column narrow tile bought nothing.  Always inlined into
 * the two out-of-line per-finisher instances below, which is where fin
 * becomes a literal.                                                  */
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
    double *restrict ee,             /* aug: the block partial        */
    double *restrict eo)
{
#define REPRO_TILE_ARGS                                                    \
    indices, data, p0, cnt, stride, X, r, vrow, orow, ta, tab, ee, eo
    int64_t k = 0;
    for (; k + 16 <= r; k += 16)
        KN(repro_tile)(16 / REPRO_YCOLS, 0, fin, k, 0, REPRO_TILE_ARGS);
    if (k + 8 <= r) {
        KN(repro_tile)(8 / REPRO_YCOLS, 0, fin, k, 0, REPRO_TILE_ARGS);
        k += 8;
    }
    if (k + 4 <= r) {
        KN(repro_tile)(4 / REPRO_YCOLS, 0, fin, k, 0, REPRO_TILE_ARGS);
        k += 4;
    }
#if REPRO_YCOLS == 2
    if (k + 3 == r) {
        KN(repro_tile)(1, 1, fin, k, 1, REPRO_TILE_ARGS);
        return;
    }
    if (k + 2 <= r) {
        KN(repro_tile)(1, 0, fin, k, 0, REPRO_TILE_ARGS);
        k += 2;
    }
#endif
    if (k < r) /* fp64: the one odd column */
        KN(repro_tile)(0, 1, fin, k, REPRO_YCOLS == 2 ? 1 : r - k,
                       REPRO_TILE_ARGS);
#undef REPRO_TILE_ARGS
}

/* Out of line on purpose: one instance per (profile, tile finisher),
 * the boot finisher storing by the first.  Inlined into each kernel
 * they timed the same and the cold compile took 9.1-10.2 s, not
 * 6.4-6.8 (it is most of cli_cold/setup_s).                           */
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
                  NULL, Y + 2 * row * r, 0, 0, NULL, NULL);
}

static REPRO_OUTLINE void KN(repro_row_fin)(
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
    double *restrict part)
{
    KN(repro_row)(REPRO_FIN_AUG, indices, data, p0, cnt, stride, V, r,
                  V + 2 * row * r, W + 2 * row * r, ta, tab, part, part + r);
}

/* repro_entry1 for the entries p[0, REPRO_YCOLS) of as many rows, one
 * complex lane per row: the single-vector CSR walk's row group.       */
static inline REPRO_YMM KN(repro_rows_cmadd)(
    REPRO_YMM acc,
    const int64_t *restrict p,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict x)
{
#if REPRO_NARROW
    return repro_cmadd_pairs_ps(
        acc, repro_gather4c_ps(data, p[0], p[1], p[2], p[3]),
        REPRO_SIMD_GATHER4C(x, (int64_t)indices[p[0]], (int64_t)indices[p[1]],
                            (int64_t)indices[p[2]], (int64_t)indices[p[3]]));
#else
    return repro_cmadd_pairs_pd(
        acc, repro_gather2c_pd(data, p[0], p[1]),
        repro_gather2c_pd(x, (int64_t)indices[p[0]], (int64_t)indices[p[1]]));
#endif
}

#endif /* REPRO_SIMD */

/* One row of a blocked walk — entries p0, p0 + stride, ... (a CSR row:
 * stride 1; a SELL lane: the chunk height) of the product with V —
 * finished by fin into row `row` of W.  acc is the scalar family's
 * 2r-value row accumulator; the _simd family's boot finisher reads the
 * product back from W, as the NumPy twin reads its stored spmmv.      */
static inline __attribute__((always_inline)) void KN(repro_row_walk)(
    const int fin,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    int64_t p0,
    int64_t cnt,
    int64_t stride,
    const REPRO_XT *restrict V,
    REPRO_XT *restrict W,
    int64_t r,
    int64_t row,
    REPRO_AT ca,
    REPRO_AT cb,
    double *restrict part,
    REPRO_AT *restrict acc)
{
#if REPRO_SIMD
    (void)acc;
    if (fin == REPRO_FIN_AUG)
        KN(repro_row_fin)(indices, data, p0, cnt, stride, V, W, r, row, ca,
                          cb, part);
    else
        KN(repro_row_store)(indices, data, p0, cnt, stride, V, W, r, row);
    if (fin == REPRO_FIN_BOOT)
        KN(repro_fin)(fin, V + 2 * row * r, W + 2 * row * r, NULL, r, ca, cb,
                      part);
#else
    memset(acc, 0, (size_t)(2 * r) * sizeof(REPRO_AT));
    for (int64_t q = 0, p = p0; q < cnt; ++q, p += stride) {
        if (q + 1 < cnt)
            repro_pf_row(V + 2 * (int64_t)indices[p + stride] * r,
                         (size_t)(2 * r) * sizeof(REPRO_XT));
        KN(repro_rowaxpy)(acc, V + 2 * (int64_t)indices[p] * r,
                          (REPRO_AT)data[2 * p], (REPRO_AT)data[2 * p + 1], r);
    }
    KN(repro_fin)(fin, V + 2 * row * r, W + 2 * row * r, acc, r, ca, cb, part);
#endif
}

/* ------------------------------------------------------------------ */
/* The eta reduction (DESIGN section 19)                               */
/*                                                                     */
/* Every aug kernel reduces its eta terms the same way.  A block is 64 */
/* consecutive rows of the original matrix, in every format, and its   */
/* partial p_b is the plain fp64 sum of its rows' terms in row order.  */
/* A deposit splits p_b exactly at the column's power-of-two anchor A  */
/* into two fixed-point bins, of quanta A 2^-50 and A 2^-82, so the    */
/* bins of blocks, threads, split phases and ranks add EXACTLY, in any */
/* order; eta is bin1 + bin2.                                          */
/* With a correctly scaled spectrum every |p_b| <= |nu_0|^2 <= A / 4;  */
/* a partial above A flags the escape (first element + 1 in *flag).    */
/* Threads take whole blocks (OpenMP, if more than one), each into its */
/* own bins, so n_threads never changes a bit.                         */
/* ------------------------------------------------------------------ */

#define REPRO_ETA_BLOCK 64

/* The OpenMP clause of an entry's outer loop (a walk's blocks or
 * groups, the set-up's row blocks), over the entry's local nt.        */
#ifdef _OPENMP
#define REPRO_TID() omp_get_thread_num()
#define REPRO_OMP_FOR                                                      \
    _Pragma("omp parallel for schedule(static) num_threads(nt) if (nt > 1)")
#else
#define REPRO_TID() 0
#define REPRO_OMP_FOR
#endif

/* The team size of a call: n_threads, at least one.                  */
static inline int repro_nt(int64_t n_threads)
{
    return (int)(n_threads > 1 ? n_threads : 1);
}

/* One call's reduction state: per thread a 64-byte aligned slot
 * [scratch | part 3r | bins 6r | flag], then [A | E1 | E2], 3r each.  */
typedef struct {
    double *ws;
    int64_t r3, off, slot;
    int nt;
} repro_eta_t;

static int repro_eta_open(repro_eta_t *e, int64_t r, int64_t n_threads,
                          size_t scratch_bytes, const double *restrict anchors)
{
    e->nt = repro_nt(n_threads);
    e->r3 = 3 * r;
    e->off = (int64_t)((scratch_bytes + 63) / 64 * 8);
    e->slot = (e->off + 3 * e->r3 + 1 + 7) / 8 * 8;
    e->ws = REPRO_ALLOC(double, e->nt * e->slot + 3 * e->r3, 1);
    if (!e->ws)
        return 0;
    double *restrict lim = e->ws + e->nt * e->slot;
    for (int64_t j = 0; j < e->r3; ++j) {
        const double anchor = anchors[j < r ? j : (j - r) / 2];
        lim[j] = anchor;
        lim[e->r3 + j] = 6.0 * anchor;             /* 1.5 2^52 A 2^-50 */
        lim[2 * e->r3 + j] = 6.0 * anchor * 0x1p-32;
    }
    return 1;
}

/* The calling thread's slot: its scratch; part = slot + e->off.       */
static inline double *repro_eta_slot(const repro_eta_t *e)
{
    return e->ws + REPRO_TID() * e->slot;
}

/* Deposit the block partial part[0, 3r) into the slot's bins; zero it. */
static void repro_deposit(const repro_eta_t *e, double *restrict part)
{
    const int64_t r3 = e->r3;
    const double *restrict lim = e->ws + e->nt * e->slot;
    double *restrict bins = part + r3;
    double *restrict flag = bins + 2 * r3;
    for (int64_t j = 0; j < r3; ++j) {
        const double x = part[j];
        const double h1 = (x + lim[r3 + j]) - lim[r3 + j];
        const double lo = x - h1;
        bins[j] += h1;
        bins[r3 + j] += (lo + lim[2 * r3 + j]) - lim[2 * r3 + j];
        if (!(fabs(x) <= lim[j]) && (*flag == 0.0 || j + 1 < *flag))
            *flag = (double)(j + 1);
        part[j] = 0.0;
    }
}

/* bins <- the sum of every thread's bins; *flag keeps the smallest
 * flagged element (sticky: a set flag stays until the caller clears).
 * A store's state (r3 = 0) has neither.                               */
static void repro_eta_close(repro_eta_t *e, double *restrict bins,
                            int64_t *restrict flag)
{
    const int64_t r3 = e->r3;
    if (r3)
        memset(bins, 0, (size_t)(2 * r3) * sizeof(double));
    for (int t = 0; r3 && t < e->nt; ++t) {
        const double *restrict tb = e->ws + t * e->slot + e->off + r3;
        for (int64_t j = 0; j < 2 * r3; ++j)
            bins[j] += tb[j];
        const int64_t f = (int64_t)tb[2 * r3];
        if (f && (*flag == 0 || f < *flag))
            *flag = f;
    }
    free(e->ws);
}

/* ------------------------------------------------------------------ */
/* The walks: one row traversal per format                             */
/*                                                                     */
/* The plain product, the bootstrap and the aug step differ only in    */
/* the finisher, which an entry picks once per call: one OpenMP loop   */
/* per finisher over an always-inline block body in which fin is a     */
/* literal (an OpenMP region inside an inline function is outlined    */
/* before it is inlined, fin still a variable).  A store reduces       */
/* nothing: its anchors, bins and flag may be NULL.                    */
/* ------------------------------------------------------------------ */

#define REPRO_BY_FIN(fin, LOOP)                                            \
    switch (fin) {                                                         \
    case REPRO_FIN_STORE:                                                  \
        LOOP(REPRO_FIN_STORE);                                             \
        break;                                                             \
    case REPRO_FIN_BOOT:                                                   \
        LOOP(REPRO_FIN_BOOT);                                              \
        break;                                                             \
    default:                                                               \
        LOOP(REPRO_FIN_AUG);                                               \
    }

#define REPRO_WALK_ARGS                                                    \
    int64_t n_threads, double a, double b,                                 \
        const double *restrict anchors, /* r doubles: the anchors A_k  */  \
        double *restrict bins,          /* 6r: [bin1 3r | bin2 3r]     */  \
        int64_t *restrict flag          /* escape: first element + 1   */

/* The finisher's coefficients (ca, cb) and its reduction state, with
 * scratch_bytes of row scratch a thread; 0 if out of memory.          */
static int repro_walk_open(repro_eta_t *e, int64_t fin, int64_t r,
                           int64_t n_threads, size_t scratch_bytes,
                           const double *restrict anchors, double a,
                           double b, REPRO_AT *ca, REPRO_AT *cb)
{
    *ca = (REPRO_AT)(fin == REPRO_FIN_BOOT ? a : 2.0 * a);
    *cb = (REPRO_AT)(fin == REPRO_FIN_BOOT ? b : 2.0 * a * b);
    return repro_eta_open(e, fin == REPRO_FIN_STORE ? 0 : r, n_threads,
                          scratch_bytes, anchors);
}

/* ------------------------------------------------------------------ */
/* CSR                                                                 */
/* ------------------------------------------------------------------ */

/* The single-vector CSR walk: REPRO_IL consecutive rows at a time,
 * their entries interleaved for instruction-level parallelism (what a
 * SELL-C-1 chunk gets from its C lanes, on CSR's unpadded rows) and
 * each row summed in storage order, so its bits are the blocked walk's
 * at r = 1.  A group walks the entries all its rows have together, one
 * vector lane per row in the _simd family, then each row's rest; a
 * short last group of a block walks its rows alone.  The finisher runs
 * in row order.  Four rows measured as fast as eight (DESIGN section
 * 12).                                                                */
#define REPRO_IL 4

static inline __attribute__((always_inline)) void KN(repro_csr_rows1)(
    const int fin,
    int64_t i0,
    int64_t i1,
    const int64_t *restrict indptr,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict v,
    REPRO_XT *restrict w,
    REPRO_AT ca,
    REPRO_AT cb,
    double *restrict part)
{
    for (int64_t i = i0; i < i1; i += REPRO_IL) {
        const int n = i1 - i < REPRO_IL ? (int)(i1 - i) : REPRO_IL;
        int64_t p[REPRO_IL] = {0}, c = n < REPRO_IL ? 0 : INT64_MAX;
        for (int u = 0; u < n; ++u) {
            p[u] = indptr[i + u];
            if (indptr[i + u + 1] - p[u] < c)
                c = indptr[i + u + 1] - p[u];
        }
        REPRO_AT s[2 * REPRO_IL] = {0};
#if REPRO_SIMD
        REPRO_YMM acc[REPRO_IL / REPRO_YCOLS];
        REPRO_UNROLL
        for (int u = 0; u < REPRO_IL / REPRO_YCOLS; ++u)
            acc[u] = REPRO_Y_ZERO();
        REPRO_NOUNROLL
        for (int64_t q = 0; q < c; ++q) {
            REPRO_UNROLL
            for (int u = 0; u < REPRO_IL / REPRO_YCOLS; ++u)
                acc[u] = KN(repro_rows_cmadd)(acc[u], p + REPRO_YCOLS * u,
                                              indices, data, v);
            REPRO_UNROLL
            for (int u = 0; u < REPRO_IL; ++u)
                ++p[u];
        }
        REPRO_UNROLL
        for (int u = 0; u < REPRO_IL / REPRO_YCOLS; ++u)
            REPRO_Y_STOREA(s + 2 * REPRO_YCOLS * u, acc[u]);
#else
        REPRO_NOUNROLL
        for (int64_t q = 0; q < c; ++q) {
            REPRO_UNROLL
            for (int u = 0; u < REPRO_IL; ++u)
                KN(repro_entry1)(s + 2 * u, p[u]++, indices, data, v);
        }
#endif
        for (int u = 0; u < n; ++u) {
            REPRO_NOUNROLL
            for (; p[u] < indptr[i + u + 1]; ++p[u])
                KN(repro_entry1)(s + 2 * u, p[u], indices, data, v);
            KN(repro_fin)(fin, v + 2 * (i + u), w + 2 * (i + u), s + 2 * u,
                          1, ca, cb, part);
        }
    }
}

/* One 64-row block [i0, i1) of the CSR walk, on the calling thread.   */
static inline __attribute__((always_inline)) void KN(repro_csr_block)(
    const int fin,
    const repro_eta_t *e,
    int64_t i0,
    int64_t i1,
    int64_t r,
    const int64_t *restrict indptr,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict V,
    REPRO_XT *restrict W,
    REPRO_AT ca,
    REPRO_AT cb)
{
    double *restrict s = repro_eta_slot(e);
    double *restrict part = s + e->off;
    if (r == 1)
        KN(repro_csr_rows1)(fin, i0, i1, indptr, indices, data, V, W, ca, cb,
                            part);
    else
        for (int64_t i = i0; i < i1; ++i)
            KN(repro_row_walk)(fin, indices, data, indptr[i],
                               indptr[i + 1] - indptr[i], 1, V, W, r, i, ca,
                               cb, part, (REPRO_AT *)s);
    if (fin != REPRO_FIN_STORE)
        repro_deposit(e, part);
}

/* The CSR walk over the rows [row0, row1) of the ORIGINAL matrix,
 * indexed in place, finished by fin: store W <- H V, boot W <- nu_1 =
 * a (H - b) V, aug W <- 2a (H - b) V - W; boot and aug add eta_even =
 * <v|v> and eta_odd = <w_new|v> per column into bins.  [0, n_rows) is
 * a whole call, a task-mode phase one or two ranges of whole 64-row
 * blocks whose bins the caller adds (exactly).  V, W are (N, R)
 * row-major; at r = 1, one vector each, walked by row groups (stage 1
 * is this call at r = 1).  A block is 64 rows from row0 — the global
 * 64-row blocks, since every range a caller walks starts on one.      */
EXPORT void KN(repro_csr_aug_spmmv)(
    int64_t fin,
    int64_t row0,
    int64_t row1,
    int64_t r,
    const int64_t *restrict indptr,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict V,
    REPRO_XT *restrict W,
    REPRO_WALK_ARGS)
{
    const int64_t nb = row1 > row0 ? (row1 - row0 + 63) / REPRO_ETA_BLOCK : 0;
    REPRO_AT ca, cb;
    repro_eta_t e;
    if (!repro_walk_open(&e, fin, r, n_threads,
                         (size_t)(2 * r) * sizeof(REPRO_AT), anchors, a, b,
                         &ca, &cb))
        return;
    const int nt = e.nt;
#define REPRO_CSR_BLOCKS(F)                                                \
    REPRO_OMP_FOR                                                          \
    for (int64_t bi = 0; bi < nb; ++bi) {                                  \
        const int64_t i0 = row0 + bi * REPRO_ETA_BLOCK;                    \
        KN(repro_csr_block)(F, &e, i0,                                     \
                            i0 + REPRO_ETA_BLOCK < row1                    \
                                ? i0 + REPRO_ETA_BLOCK : row1,             \
                            r, indptr, indices, data, V, W, ca, cb);       \
    }
    REPRO_BY_FIN(fin, REPRO_CSR_BLOCKS)
#undef REPRO_CSR_BLOCKS
    repro_eta_close(&e, bins, flag);
}

/* ------------------------------------------------------------------ */
/* SELL-C-sigma                                                        */
/*                                                                     */
/* Flat layout: chunk ci of height C and length L = chunk_len[ci]      */
/* stores slot (j, lane) at chunk_ptr[ci] + j*C + lane (column-major   */
/* within the chunk).  perm[pos] is the original row of storage        */
/* position pos (inv_perm the inverse); positions whose perm value is  */
/* >= n_rows are padding rows.  Padded slots hold value 0 with a valid */
/* self-referencing column, so they are numerically inert but are      */
/* streamed like real entries.                                         */
/* ------------------------------------------------------------------ */

/* acc <- the lane-vectorized product of the chunks [ci0, ci1), one
 * (re, im) pair per storage position from ci0 * c: the r = 1 SELL
 * walk's product.  Out of line, so its gather loop keeps its constants
 * in registers (inlined into each finisher's group body it reloaded
 * its sign mask per entry: 3 % slower).                               */
static REPRO_OUTLINE void KN(repro_sell_chunks1)(
    REPRO_AT *restrict acc,
    int64_t ci0,
    int64_t ci1,
    int64_t c,
    const int64_t *restrict chunk_ptr,
    const int64_t *restrict chunk_len,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict V)
{
    memset(acc, 0, (size_t)(2 * (ci1 - ci0) * c) * sizeof(REPRO_AT));
    for (int64_t ci = ci0; ci < ci1; ++ci) {
        const int64_t base = chunk_ptr[ci], len = chunk_len[ci];
        for (int64_t j = 0; j < len; ++j)
            KN(repro_lanecmadd)(acc + 2 * (ci - ci0) * c, data, indices,
                                base + j * c, c, V);
    }
}

/* One group of the SELL walk, on the calling thread: rows or positions
 * [g0, g1), chunks [ci0, ci1).  A store (a group is a chunk) takes
 * positions k, row perm[k], the padding skipped; boot and aug take rows
 * k in row order at position inv_perm[k] (k at sigma = 1), 64 a block.
 * r is tested once: above 1 each row is its lane's body at stride C; at
 * 1 the chunks accumulate first and rows finish from acc[pos - g0].   */
static inline __attribute__((always_inline)) void KN(repro_sell_group)(
    const int fin,
    const repro_eta_t *e,
    int64_t g0,
    int64_t g1,
    int64_t ci0,
    int64_t ci1,
    int64_t n_rows,
    int64_t sigma,
    int64_t c,
    int64_t r,
    const int64_t *restrict chunk_ptr,
    const int64_t *restrict chunk_len,
    const int64_t *restrict perm,
    const int64_t *restrict inv_perm,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict V,
    REPRO_XT *restrict W,
    REPRO_AT ca,
    REPRO_AT cb)
{
    double *restrict s = repro_eta_slot(e);
    double *restrict part = s + e->off;
    REPRO_AT *restrict acc = (REPRO_AT *)s;
    const int store = fin == REPRO_FIN_STORE;
    const int64_t *restrict pos = sigma > 1 ? inv_perm : NULL;
    if (r > 1 && store) {
        for (int64_t ci = ci0; ci < ci1; ++ci)
            for (int64_t lane = 0; lane < c; ++lane) {
                const int64_t row = perm[ci * c + lane];
                if (row < n_rows)
                    KN(repro_row_walk)(fin, indices, data,
                                       chunk_ptr[ci] + lane, chunk_len[ci], c,
                                       V, W, r, row, ca, cb, part, acc);
            }
        return;
    }
    if (r > 1) {
        for (int64_t i = g0; i < g1; ++i) {
            const int64_t p = pos ? pos[i] : i, ci = p / c;
            KN(repro_row_walk)(fin, indices, data, chunk_ptr[ci] + p - ci * c,
                               chunk_len[ci], c, V, W, r, i, ca, cb, part,
                               acc);
        }
        repro_deposit(e, part);
        return;
    }
    KN(repro_sell_chunks1)(acc, ci0, ci1, c, chunk_ptr, chunk_len, indices,
                           data, V);
    for (int64_t i0 = g0; i0 < g1; i0 += REPRO_ETA_BLOCK) {
        const int64_t i1 = i0 + REPRO_ETA_BLOCK < g1 ? i0 + REPRO_ETA_BLOCK
                                                     : g1;
        for (int64_t k = i0; k < i1; ++k) {
            const int64_t p = store ? k : pos ? pos[k] : k;
            const int64_t row = store ? perm[k] : k;
            if (store && row >= n_rows)
                continue;
            KN(repro_fin)(fin, V + 2 * row, W + 2 * row, acc + 2 * (p - g0), 1,
                          ca, cb, part);
        }
        if (!store)
            repro_deposit(e, part);
    }
}

/* The SELL walk, finished by fin as the CSR walk is, so a SELL
 * operator's W and eta are its CSR image's bit for bit, for any C and
 * sigma.  Threads take groups: a chunk (a store), 64 rows (boot, aug at
 * r > 1) or, at r = 1, lcm(C, sigma, 64) rows — whole chunks and sigma
 * scopes, so exactly the rows [g0, g1).                               */
EXPORT void KN(repro_sell_aug_spmmv)(
    int64_t fin,
    int64_t n_rows,
    int64_t sigma,
    int64_t c,
    int64_t r,
    const int64_t *restrict chunk_ptr,
    const int64_t *restrict chunk_len,
    const int64_t *restrict perm,
    const int64_t *restrict inv_perm,
    const REPRO_IT *restrict indices,
    const REPRO_VT *restrict data,
    const REPRO_XT *restrict V,
    REPRO_XT *restrict W,
    REPRO_WALK_ARGS)
{
    const int store = fin == REPRO_FIN_STORE;
    const int64_t n_chunks = (n_rows + c - 1) / c;
    int64_t g = store ? c : REPRO_ETA_BLOCK;
    while (!store && r == 1 && (g % c || g % sigma))
        g += REPRO_ETA_BLOCK;
    const int64_t n = store ? n_chunks * c : n_rows, gc = g / c;
    const int64_t ng = (n + g - 1) / g;
    REPRO_AT ca, cb;
    repro_eta_t e;
    if (!repro_walk_open(&e, fin, r, n_threads,
                         (size_t)(2 * (r == 1 ? g : r)) * sizeof(REPRO_AT),
                         anchors, a, b, &ca, &cb))
        return;
    const int nt = e.nt;
#define REPRO_SELL_GROUPS(F)                                               \
    REPRO_OMP_FOR                                                          \
    for (int64_t gi = 0; gi < ng; ++gi)                                    \
        KN(repro_sell_group)(F, &e, gi * g, gi * g + g < n ? gi * g + g : n, \
                             gi * gc, gi * gc + gc < n_chunks ? gi * gc + gc \
                                                              : n_chunks,  \
                             n_rows, sigma, c, r, chunk_ptr, chunk_len,    \
                             perm, inv_perm, indices, data, V, W, ca, cb);
    REPRO_BY_FIN(fin, REPRO_SELL_GROUPS)
#undef REPRO_SELL_GROUPS
    repro_eta_close(&e, bins, flag);
}

/* ------------------------------------------------------------------ */
/* Set-up: the start block and its eta anchors                         */
/*                                                                     */
/* What a fresh solve runs once before its bootstrap (a walk's boot    */
/* finisher), on the kernel team, each bit for bit its NumPy twin      */
/* (DESIGN section 13): threads take whole 64-row blocks, so no team   */
/* size moves a bit.                                                   */
/* ------------------------------------------------------------------ */

/* exp(i phi) = cos phi + i sin phi of k columns of n phases, phases
 * (k, n) row-major, into the complex128 block out (row stride ld
 * complex values): glibc's cexp of a purely imaginary argument is
 * exp(0) = 1 times sincos, so this is numpy's exp(1j * phi) bit for
 * bit.  Profile-independent: every unit exports it.                   */
EXPORT void KN(repro_phases)(
    int64_t n,
    int64_t k,
    const double *restrict phases,
    double *restrict out,
    int64_t ld,
    int64_t n_threads)
{
    const int nt = repro_nt(n_threads);
    const int64_t nb = (n + REPRO_ETA_BLOCK - 1) / REPRO_ETA_BLOCK;
    REPRO_OMP_FOR
    for (int64_t bi = 0; bi < nb; ++bi) {
        const int64_t i0 = bi * REPRO_ETA_BLOCK;
        const int64_t i1 = i0 + REPRO_ETA_BLOCK < n ? i0 + REPRO_ETA_BLOCK : n;
        for (int64_t q = 0; q < k; ++q)
            for (int64_t i = i0; i < i1; ++i) {
                double *restrict o = out + 2 * (i * ld + q);
#if defined(__GLIBC__)
                sincos(phases[q * n + i], o + 1, o);
#else
                o[0] = cos(phases[q * n + i]);
                o[1] = sin(phases[q * n + i]);
#endif
            }
    }
}

/* m2[k] <- max_i (re_ik^2 + im_ik^2) over the n rows of the (n, r)
 * block X in this unit's vector storage: each component widened to
 * fp64, squared, the two squares added (numpy's square, add, max; a
 * max is exact, so any split of the rows gives the same bits).  A NaN
 * term wins, as in np.max; an empty block gives 0.                    */
static inline double repro_max_nan(double m, double x)
{
    return (x > m || x != x) ? x : m;
}

EXPORT void KN(repro_anchors)(
    int64_t n,
    int64_t r,
    const REPRO_XT *restrict X,
    double *restrict m2,
    int64_t n_threads)
{
    const int nt = repro_nt(n_threads);
    const int64_t slot = (r + 7) / 8 * 8;
    double *ms = REPRO_ALLOC(double, nt * slot, 1);
    if (!ms)
        return;
    const int64_t nb = (n + REPRO_ETA_BLOCK - 1) / REPRO_ETA_BLOCK;
    REPRO_OMP_FOR
    for (int64_t bi = 0; bi < nb; ++bi) {
        double *restrict m = ms + REPRO_TID() * slot;
        const int64_t i0 = bi * REPRO_ETA_BLOCK;
        const int64_t i1 = i0 + REPRO_ETA_BLOCK < n ? i0 + REPRO_ETA_BLOCK : n;
        for (int64_t i = i0; i < i1; ++i)
            for (int64_t q = 0; q < r; ++q) {
                const double xr = (double)REPRO_LOADX(X, 2 * (i * r + q));
                const double xi = (double)REPRO_LOADX(X, 2 * (i * r + q) + 1);
                m[q] = repro_max_nan(m[q], xr * xr + xi * xi);
            }
    }
    for (int64_t q = 0; q < r; ++q) {
        double mq = 0.0;
        for (int t = 0; t < nt; ++t)
            mq = repro_max_nan(mq, ms[t * slot + q]);
        m2[q] = mq;
    }
    free(ms);
}
