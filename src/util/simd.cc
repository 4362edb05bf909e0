#include "util/simd.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#if !defined(DATACELL_SIMD_DISABLED)
#if (defined(__x86_64__) || defined(__amd64__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define DATACELL_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define DATACELL_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif  // !DATACELL_SIMD_DISABLED

namespace datacell::simd {

namespace {

std::atomic<bool> g_force_scalar{false};

bool EnvForcesScalar() {
  static const bool off = [] {
    const char* e = std::getenv("DATACELL_SIMD");
    if (e == nullptr) return false;
    return std::strcmp(e, "off") == 0 || std::strcmp(e, "OFF") == 0 ||
           std::strcmp(e, "0") == 0 || std::strcmp(e, "scalar") == 0;
  }();
  return off;
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kNEON:
      return "neon";
    case Level::kAVX2:
      return "avx2";
  }
  return "?";
}

Level DetectedLevel() {
#if defined(DATACELL_SIMD_X86)
  static const Level lvl =
      __builtin_cpu_supports("avx2") ? Level::kAVX2 : Level::kScalar;
  return lvl;
#elif defined(DATACELL_SIMD_NEON)
  return Level::kNEON;
#else
  return Level::kScalar;
#endif
}

Level ActiveLevel() {
  if (force_scalar() || EnvForcesScalar()) return Level::kScalar;
  return DetectedLevel();
}

void SetForceScalar(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

bool force_scalar() { return g_force_scalar.load(std::memory_order_relaxed); }

bool CmpMatchesI64(Cmp op, int64_t x, int64_t k) {
  switch (op) {
    case Cmp::kEq:
      return x == k;
    case Cmp::kNe:
      return x != k;
    case Cmp::kLt:
      return x < k;
    case Cmp::kLe:
      return x <= k;
    case Cmp::kGt:
      return x > k;
    case Cmp::kGe:
      return x >= k;
  }
  return false;
}

bool CmpMatchesF64(Cmp op, double x, double k) {
  switch (op) {
    case Cmp::kEq:
      return x == k;
    case Cmp::kNe:
      return x != k;
    case Cmp::kLt:
      return x < k;
    case Cmp::kLe:
      return x <= k;
    case Cmp::kGt:
      return x > k;
    case Cmp::kGe:
      return x >= k;
  }
  return false;
}

void FoldState::MergeFrom(const FoldState& o) {
  count += o.count;
  isum += o.isum;
  // Chunk-order merge: callers merge partials in ascending chunk order, so
  // this addition sequence is the same no matter how many workers ran.
  dsum += o.dsum;
  if (!o.seen) return;
  if (!seen) {
    seen = true;
    imin = o.imin;
    imax = o.imax;
    dmin = o.dmin;
    dmax = o.dmax;
    return;
  }
  imin = (o.imin < imin) ? o.imin : imin;
  imax = (o.imax > imax) ? o.imax : imax;
  // Keep the incumbent (earlier chunk) on ties — same shape as the stripe
  // combine inside the folds.
  dmin = (o.dmin < dmin) ? o.dmin : dmin;
  dmax = (o.dmax > dmax) ? o.dmax : dmax;
}

// ---------------------------------------------------------------------------
// Scalar fallback. The reference implementation: every vector backend must
// be byte-identical with these (see the determinism contract in simd.h).
// ---------------------------------------------------------------------------

namespace scalar {

template <typename T, typename Pred>
void SelectIf(const T* d, const uint8_t* valid, size_t n, uint32_t base,
              std::vector<uint32_t>* out, Pred pred) {
  if (valid == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (pred(d[i])) out->push_back(base + static_cast<uint32_t>(i));
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    if (valid[i] != 0 && pred(d[i])) {
      out->push_back(base + static_cast<uint32_t>(i));
    }
  }
}

template <typename T>
void SelectCmp(const T* d, const uint8_t* valid, size_t n, Cmp op, T k,
               uint32_t base, std::vector<uint32_t>* out) {
  switch (op) {
    case Cmp::kEq:
      SelectIf(d, valid, n, base, out, [k](T x) { return x == k; });
      break;
    case Cmp::kNe:
      SelectIf(d, valid, n, base, out, [k](T x) { return x != k; });
      break;
    case Cmp::kLt:
      SelectIf(d, valid, n, base, out, [k](T x) { return x < k; });
      break;
    case Cmp::kLe:
      SelectIf(d, valid, n, base, out, [k](T x) { return x <= k; });
      break;
    case Cmp::kGt:
      SelectIf(d, valid, n, base, out, [k](T x) { return x > k; });
      break;
    case Cmp::kGe:
      SelectIf(d, valid, n, base, out, [k](T x) { return x >= k; });
      break;
  }
}

void SelectRangeI64(const int64_t* d, const uint8_t* valid, size_t n,
                    int64_t a, int64_t b, uint32_t base,
                    std::vector<uint32_t>* out) {
  SelectIf(d, valid, n, base, out,
           [a, b](int64_t x) { return x >= a && x <= b; });
}

void SelectRangeF64(const double* d, const uint8_t* valid, size_t n, double lo,
                    bool lo_inc, double hi, bool hi_inc, uint32_t base,
                    std::vector<uint32_t>* out) {
  SelectIf(d, valid, n, base, out, [=](double x) {
    const bool lo_ok = lo_inc ? x >= lo : x > lo;
    const bool hi_ok = hi_inc ? x <= hi : x < hi;
    return lo_ok && hi_ok;
  });
}

FoldState FoldI64(const int64_t* d, const uint8_t* valid, size_t n) {
  FoldState st;
  int64_t mn = std::numeric_limits<int64_t>::max();
  int64_t mx = std::numeric_limits<int64_t>::min();
  if (valid == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      const int64_t x = d[i];
      st.isum += static_cast<uint64_t>(x);
      mn = (x < mn) ? x : mn;
      mx = (x > mx) ? x : mx;
    }
    st.count = n;
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (valid[i] == 0) continue;
      const int64_t x = d[i];
      st.isum += static_cast<uint64_t>(x);
      mn = (x < mn) ? x : mn;
      mx = (x > mx) ? x : mx;
      ++st.count;
    }
  }
  if (st.count > 0) {
    st.seen = true;
    st.imin = mn;
    st.imax = mx;
  }
  return st;
}

// The striped double fold (contract in simd.h): stripe j of {s,mn,mx}
// accumulates elements whose position within the span is ≡ j (mod 4),
// stripes reduce as (s0+s1)+(s2+s3) and min/max combine left to right.
struct Stripes4 {
  double s[4] = {0, 0, 0, 0};
  double mn[4];
  double mx[4];

  Stripes4() {
    for (double& v : mn) v = std::numeric_limits<double>::infinity();
    for (double& v : mx) v = -std::numeric_limits<double>::infinity();
  }

  inline void Fold(size_t pos, double x) {
    const size_t j = pos & 3;
    s[j] += x;
    mn[j] = (x < mn[j]) ? x : mn[j];
    mx[j] = (x > mx[j]) ? x : mx[j];
  }

  void Finish(FoldState* st) const {
    st->dsum = (s[0] + s[1]) + (s[2] + s[3]);
    double lo = mn[0];
    double hi = mx[0];
    for (int j = 1; j < 4; ++j) {
      lo = (mn[j] < lo) ? mn[j] : lo;
      hi = (mx[j] > hi) ? mx[j] : hi;
    }
    st->dmin = lo;
    st->dmax = hi;
  }
};

FoldState FoldF64(const double* d, const uint8_t* valid, size_t n) {
  FoldState st;
  Stripes4 acc;
  if (valid == nullptr) {
    for (size_t i = 0; i < n; ++i) acc.Fold(i, d[i]);
    st.count = n;
  } else {
    size_t pos = 0;  // stripe index runs over the *valid* elements
    for (size_t i = 0; i < n; ++i) {
      if (valid[i] == 0) continue;
      acc.Fold(pos++, d[i]);
    }
    st.count = pos;
  }
  if (st.count > 0) {
    st.seen = true;
    acc.Finish(&st);
  }
  return st;
}

void HashI64(const int64_t* d, size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint64_t>(d[i]) * kHashMul;
  }
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// AVX2 backend. Compiled into target("avx2") functions so the library
// builds without -mavx2 and the dispatch stays a runtime decision.
// ---------------------------------------------------------------------------

#if defined(DATACELL_SIMD_X86)

namespace avx2 {

// Shuffle table for the 4-lane uint32 compressed store: entry m rearranges
// the lanes whose bit is set in m to the front (ascending), everything
// else is zeroed (0x80) and overwritten by the next emit.
struct Lut4 {
  alignas(16) uint8_t b[16][16];
};

constexpr Lut4 MakeLut4() {
  Lut4 l{};
  for (int mask = 0; mask < 16; ++mask) {
    int outpos = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask & (1 << lane)) == 0) continue;
      for (int byte = 0; byte < 4; ++byte) {
        l.b[mask][outpos * 4 + byte] = static_cast<uint8_t>(lane * 4 + byte);
      }
      ++outpos;
    }
    for (int rest = outpos * 4; rest < 16; ++rest) l.b[mask][rest] = 0x80;
  }
  return l;
}

constexpr Lut4 kLut4 = MakeLut4();

__attribute__((target("avx2"))) inline int MaskOf(__m256i m) {
  return _mm256_movemask_pd(_mm256_castsi256_pd(m));
}

// Compressed store of the selected lanes of `idx` (4x uint32 row ids).
// Always writes 16 bytes at outp; safe because the emitted count so far
// can never exceed the element offset, so outp + 4 stays inside a buffer
// sized for the whole span.
__attribute__((target("avx2"))) inline uint32_t* Emit(int bits, __m128i idx,
                                                      uint32_t* outp) {
  const __m128i shuf =
      _mm_load_si128(reinterpret_cast<const __m128i*>(kLut4.b[bits]));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(outp),
                   _mm_shuffle_epi8(idx, shuf));
  return outp + __builtin_popcount(static_cast<unsigned>(bits));
}

__attribute__((target("avx2"))) size_t SelectCmpI64(const int64_t* d, size_t n,
                                                    Cmp op, int64_t k,
                                                    uint32_t base,
                                                    uint32_t* outp) {
  uint32_t* const out0 = outp;
  const __m256i kv = _mm256_set1_epi64x(k);
  __m128i idx = _mm_setr_epi32(
      static_cast<int>(base), static_cast<int>(base + 1),
      static_cast<int>(base + 2), static_cast<int>(base + 3));
  const __m128i step = _mm_set1_epi32(4);
  // Derive every comparison from cmpeq/cmpgt plus a mask flip:
  // lt(x,k) = gt(k,x), le = ~gt(x,k), ge = ~gt(k,x), ne = ~eq.
  int inv = 0;
  int mode = 0;  // 0: eq(x,k)  1: gt(x,k)  2: gt(k,x)
  switch (op) {
    case Cmp::kEq:
      mode = 0;
      break;
    case Cmp::kNe:
      mode = 0;
      inv = 0xF;
      break;
    case Cmp::kGt:
      mode = 1;
      break;
    case Cmp::kLe:
      mode = 1;
      inv = 0xF;
      break;
    case Cmp::kLt:
      mode = 2;
      break;
    case Cmp::kGe:
      mode = 2;
      inv = 0xF;
      break;
  }
  size_t i = 0;
  const size_t nvec = n & ~size_t{3};
#define DC_AVX2_SELECT_BODY(CMPEXPR)                                     \
  for (; i < nvec; i += 4) {                                             \
    const __m256i x =                                                    \
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));     \
    const int bits = MaskOf(CMPEXPR) ^ inv;                              \
    outp = Emit(bits, idx, outp);                                        \
    idx = _mm_add_epi32(idx, step);                                      \
  }
  switch (mode) {
    case 0:
      DC_AVX2_SELECT_BODY(_mm256_cmpeq_epi64(x, kv));
      break;
    case 1:
      DC_AVX2_SELECT_BODY(_mm256_cmpgt_epi64(x, kv));
      break;
    default:
      DC_AVX2_SELECT_BODY(_mm256_cmpgt_epi64(kv, x));
      break;
  }
#undef DC_AVX2_SELECT_BODY
  for (; i < n; ++i) {
    if (CmpMatchesI64(op, d[i], k)) {
      *outp++ = base + static_cast<uint32_t>(i);
    }
  }
  return static_cast<size_t>(outp - out0);
}

__attribute__((target("avx2"))) size_t SelectCmpF64(const double* d, size_t n,
                                                    Cmp op, double k,
                                                    uint32_t base,
                                                    uint32_t* outp) {
  uint32_t* const out0 = outp;
  const __m256d kv = _mm256_set1_pd(k);
  __m128i idx = _mm_setr_epi32(
      static_cast<int>(base), static_cast<int>(base + 1),
      static_cast<int>(base + 2), static_cast<int>(base + 3));
  const __m128i step = _mm_set1_epi32(4);
  size_t i = 0;
  const size_t nvec = n & ~size_t{3};
#define DC_AVX2_SELECT_PD(PRED)                                          \
  for (; i < nvec; i += 4) {                                             \
    const __m256d x = _mm256_loadu_pd(d + i);                            \
    const int bits = _mm256_movemask_pd(_mm256_cmp_pd(x, kv, (PRED)));   \
    outp = Emit(bits, idx, outp);                                        \
    idx = _mm_add_epi32(idx, step);                                      \
  }
  // Ordered predicates except NEQ (IEEE !=, true on NaN) — exactly the
  // scalar operators in CmpMatchesF64.
  switch (op) {
    case Cmp::kEq:
      DC_AVX2_SELECT_PD(_CMP_EQ_OQ);
      break;
    case Cmp::kNe:
      DC_AVX2_SELECT_PD(_CMP_NEQ_UQ);
      break;
    case Cmp::kLt:
      DC_AVX2_SELECT_PD(_CMP_LT_OQ);
      break;
    case Cmp::kLe:
      DC_AVX2_SELECT_PD(_CMP_LE_OQ);
      break;
    case Cmp::kGt:
      DC_AVX2_SELECT_PD(_CMP_GT_OQ);
      break;
    case Cmp::kGe:
      DC_AVX2_SELECT_PD(_CMP_GE_OQ);
      break;
  }
#undef DC_AVX2_SELECT_PD
  for (; i < n; ++i) {
    if (CmpMatchesF64(op, d[i], k)) {
      *outp++ = base + static_cast<uint32_t>(i);
    }
  }
  return static_cast<size_t>(outp - out0);
}

__attribute__((target("avx2"))) size_t SelectRangeI64(const int64_t* d,
                                                      size_t n, int64_t a,
                                                      int64_t b, uint32_t base,
                                                      uint32_t* outp) {
  uint32_t* const out0 = outp;
  const __m256i av = _mm256_set1_epi64x(a);
  const __m256i bv = _mm256_set1_epi64x(b);
  __m128i idx = _mm_setr_epi32(
      static_cast<int>(base), static_cast<int>(base + 1),
      static_cast<int>(base + 2), static_cast<int>(base + 3));
  const __m128i step = _mm_set1_epi32(4);
  size_t i = 0;
  const size_t nvec = n & ~size_t{3};
  for (; i < nvec; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    // in-range = (x >= a) & (x <= b) = ~gt(a,x) & ~gt(x,b)
    const int bits =
        ~(MaskOf(_mm256_cmpgt_epi64(av, x)) | MaskOf(_mm256_cmpgt_epi64(x, bv))) &
        0xF;
    outp = Emit(bits, idx, outp);
    idx = _mm_add_epi32(idx, step);
  }
  for (; i < n; ++i) {
    const int64_t x = d[i];
    if (x >= a && x <= b) *outp++ = base + static_cast<uint32_t>(i);
  }
  return static_cast<size_t>(outp - out0);
}

__attribute__((target("avx2"))) size_t SelectRangeF64(
    const double* d, size_t n, double lo, bool lo_inc, double hi, bool hi_inc,
    uint32_t base, uint32_t* outp) {
  uint32_t* const out0 = outp;
  const __m256d lov = _mm256_set1_pd(lo);
  const __m256d hiv = _mm256_set1_pd(hi);
  __m128i idx = _mm_setr_epi32(
      static_cast<int>(base), static_cast<int>(base + 1),
      static_cast<int>(base + 2), static_cast<int>(base + 3));
  const __m128i step = _mm_set1_epi32(4);
  size_t i = 0;
  const size_t nvec = n & ~size_t{3};
#define DC_AVX2_RANGE_PD(LOPRED, HIPRED)                                  \
  for (; i < nvec; i += 4) {                                              \
    const __m256d x = _mm256_loadu_pd(d + i);                             \
    const __m256d m = _mm256_and_pd(_mm256_cmp_pd(x, lov, (LOPRED)),      \
                                    _mm256_cmp_pd(x, hiv, (HIPRED)));     \
    outp = Emit(_mm256_movemask_pd(m), idx, outp);                        \
    idx = _mm_add_epi32(idx, step);                                       \
  }
  if (lo_inc && hi_inc) {
    DC_AVX2_RANGE_PD(_CMP_GE_OQ, _CMP_LE_OQ);
  } else if (lo_inc) {
    DC_AVX2_RANGE_PD(_CMP_GE_OQ, _CMP_LT_OQ);
  } else if (hi_inc) {
    DC_AVX2_RANGE_PD(_CMP_GT_OQ, _CMP_LE_OQ);
  } else {
    DC_AVX2_RANGE_PD(_CMP_GT_OQ, _CMP_LT_OQ);
  }
#undef DC_AVX2_RANGE_PD
  for (; i < n; ++i) {
    const double x = d[i];
    const bool lo_ok = lo_inc ? x >= lo : x > lo;
    const bool hi_ok = hi_inc ? x <= hi : x < hi;
    if (lo_ok && hi_ok) *outp++ = base + static_cast<uint32_t>(i);
  }
  return static_cast<size_t>(outp - out0);
}

// Row indices are uint32 but i32gather sign-extends: fine, a 2^31-row
// column would need a 16 GiB buffer, far beyond any basket bound.
__attribute__((target("avx2"))) void GatherI64(const int64_t* src,
                                               const uint32_t* sel, size_t n,
                                               int64_t* dst) {
  size_t j = 0;
  const size_t nvec = n & ~size_t{3};
  for (; j < nvec; j += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + j));
    const __m256i v = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(src), idx, 8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + j), v);
  }
  for (; j < n; ++j) dst[j] = src[sel[j]];
}

__attribute__((target("avx2"))) void GatherF64(const double* src,
                                               const uint32_t* sel, size_t n,
                                               double* dst) {
  size_t j = 0;
  const size_t nvec = n & ~size_t{3};
  for (; j < nvec; j += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + j));
    const __m256d v = _mm256_i32gather_pd(src, idx, 8);
    _mm256_storeu_pd(dst + j, v);
  }
  for (; j < n; ++j) dst[j] = src[sel[j]];
}

__attribute__((target("avx2"))) FoldState FoldI64(const int64_t* d, size_t n) {
  FoldState st;
  __m256i s = _mm256_setzero_si256();
  __m256i mn = _mm256_set1_epi64x(std::numeric_limits<int64_t>::max());
  __m256i mx = _mm256_set1_epi64x(std::numeric_limits<int64_t>::min());
  size_t i = 0;
  const size_t nvec = n & ~size_t{3};
  for (; i < nvec; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    s = _mm256_add_epi64(s, x);  // wraps exactly like the uint64 scalar sum
    mn = _mm256_blendv_epi8(mn, x, _mm256_cmpgt_epi64(mn, x));
    mx = _mm256_blendv_epi8(mx, x, _mm256_cmpgt_epi64(x, mx));
  }
  alignas(32) int64_t ls[4], lmn[4], lmx[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(ls), s);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lmn), mn);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lmx), mx);
  uint64_t isum = static_cast<uint64_t>(ls[0]) + static_cast<uint64_t>(ls[1]) +
                  static_cast<uint64_t>(ls[2]) + static_cast<uint64_t>(ls[3]);
  int64_t rmn = lmn[0], rmx = lmx[0];
  for (int j = 1; j < 4; ++j) {
    rmn = (lmn[j] < rmn) ? lmn[j] : rmn;
    rmx = (lmx[j] > rmx) ? lmx[j] : rmx;
  }
  for (; i < n; ++i) {
    const int64_t x = d[i];
    isum += static_cast<uint64_t>(x);
    rmn = (x < rmn) ? x : rmn;
    rmx = (x > rmx) ? x : rmx;
  }
  st.count = n;
  st.isum = isum;
  if (n > 0) {
    st.seen = true;
    st.imin = rmn;
    st.imax = rmx;
  }
  return st;
}

__attribute__((target("avx2"))) FoldState FoldF64(const double* d, size_t n) {
  FoldState st;
  // Lane j is stripe j: identical accumulation shape to scalar::Stripes4.
  __m256d s = _mm256_setzero_pd();
  __m256d mn = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d mx = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  size_t i = 0;
  const size_t nvec = n & ~size_t{3};
  for (; i < nvec; i += 4) {
    const __m256d x = _mm256_loadu_pd(d + i);
    s = _mm256_add_pd(s, x);
    mn = _mm256_min_pd(x, mn);  // (x < mn) ? x : mn — incumbent wins ties
    mx = _mm256_max_pd(x, mx);  // (x > mx) ? x : mx
  }
  scalar::Stripes4 acc;
  _mm256_storeu_pd(acc.s, s);
  _mm256_storeu_pd(acc.mn, mn);
  _mm256_storeu_pd(acc.mx, mx);
  for (; i < n; ++i) acc.Fold(i, d[i]);
  st.count = n;
  if (n > 0) {
    st.seen = true;
    acc.Finish(&st);
  }
  return st;
}

// 64x64→low-64 multiply out of three 32x32 multiplies (no mullo_epi64
// before AVX-512): x*C mod 2^64 = lo(x)*lo(C) + ((hi(x)*lo(C) +
// lo(x)*hi(C)) << 32). Matches the scalar uint64 multiply bit for bit.
__attribute__((target("avx2"))) void HashI64(const int64_t* d, size_t n,
                                             uint64_t* out) {
  const __m256i c = _mm256_set1_epi64x(static_cast<int64_t>(kHashMul));
  const __m256i ch = _mm256_set1_epi64x(static_cast<int64_t>(kHashMul >> 32));
  size_t i = 0;
  const size_t nvec = n & ~size_t{3};
  for (; i < nvec; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    const __m256i lo = _mm256_mul_epu32(x, c);
    const __m256i xh = _mm256_srli_epi64(x, 32);
    const __m256i cross =
        _mm256_add_epi64(_mm256_mul_epu32(xh, c), _mm256_mul_epu32(x, ch));
    const __m256i h = _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), h);
  }
  for (; i < n; ++i) out[i] = static_cast<uint64_t>(d[i]) * kHashMul;
}

}  // namespace avx2

#endif  // DATACELL_SIMD_X86

// ---------------------------------------------------------------------------
// NEON backend (aarch64): 2-lane f64/i64 vectors, so stripes {0,1} and
// {2,3} live in two registers. Comparisons extract lane masks and emit
// indices scalar (no pshufb-style compressed store pays off at 2 lanes).
// ---------------------------------------------------------------------------

#if defined(DATACELL_SIMD_NEON)

namespace neon {

template <typename EmitCmp>
size_t SelectLanesI64(const int64_t* d, size_t n, uint32_t base,
                      uint32_t* outp, EmitCmp cmp) {
  uint32_t* const out0 = outp;
  size_t i = 0;
  const size_t nvec = n & ~size_t{1};
  for (; i < nvec; i += 2) {
    const int64x2_t x = vld1q_s64(d + i);
    const uint64x2_t m = cmp(x);
    if (vgetq_lane_u64(m, 0) != 0) *outp++ = base + static_cast<uint32_t>(i);
    if (vgetq_lane_u64(m, 1) != 0) {
      *outp++ = base + static_cast<uint32_t>(i + 1);
    }
  }
  return static_cast<size_t>(outp - out0);
}

size_t SelectCmpI64(const int64_t* d, size_t n, Cmp op, int64_t k,
                    uint32_t base, uint32_t* outp) {
  const int64x2_t kv = vdupq_n_s64(k);
  size_t count = 0;
  switch (op) {
    case Cmp::kEq:
      count = SelectLanesI64(d, n, base, outp,
                             [kv](int64x2_t x) { return vceqq_s64(x, kv); });
      break;
    case Cmp::kNe:
      count = SelectLanesI64(d, n, base, outp, [kv](int64x2_t x) {
        return vreinterpretq_u64_u32(
            vmvnq_u32(vreinterpretq_u32_u64(vceqq_s64(x, kv))));
      });
      break;
    case Cmp::kLt:
      count = SelectLanesI64(d, n, base, outp,
                             [kv](int64x2_t x) { return vcltq_s64(x, kv); });
      break;
    case Cmp::kLe:
      count = SelectLanesI64(d, n, base, outp,
                             [kv](int64x2_t x) { return vcleq_s64(x, kv); });
      break;
    case Cmp::kGt:
      count = SelectLanesI64(d, n, base, outp,
                             [kv](int64x2_t x) { return vcgtq_s64(x, kv); });
      break;
    case Cmp::kGe:
      count = SelectLanesI64(d, n, base, outp,
                             [kv](int64x2_t x) { return vcgeq_s64(x, kv); });
      break;
  }
  uint32_t* p = outp + count;
  for (size_t i = n & ~size_t{1}; i < n; ++i) {
    if (CmpMatchesI64(op, d[i], k)) *p++ = base + static_cast<uint32_t>(i);
  }
  return static_cast<size_t>(p - outp);
}

template <typename EmitCmp>
size_t SelectLanesF64(const double* d, size_t n, uint32_t base, uint32_t* outp,
                      EmitCmp cmp) {
  uint32_t* const out0 = outp;
  size_t i = 0;
  const size_t nvec = n & ~size_t{1};
  for (; i < nvec; i += 2) {
    const float64x2_t x = vld1q_f64(d + i);
    const uint64x2_t m = cmp(x);
    if (vgetq_lane_u64(m, 0) != 0) *outp++ = base + static_cast<uint32_t>(i);
    if (vgetq_lane_u64(m, 1) != 0) {
      *outp++ = base + static_cast<uint32_t>(i + 1);
    }
  }
  return static_cast<size_t>(outp - out0);
}

size_t SelectCmpF64(const double* d, size_t n, Cmp op, double k, uint32_t base,
                    uint32_t* outp) {
  const float64x2_t kv = vdupq_n_f64(k);
  size_t count = 0;
  switch (op) {
    case Cmp::kEq:
      count = SelectLanesF64(d, n, base, outp,
                             [kv](float64x2_t x) { return vceqq_f64(x, kv); });
      break;
    case Cmp::kNe:
      // FCMEQ is ordered (false on NaN), so the complement is IEEE != .
      count = SelectLanesF64(d, n, base, outp, [kv](float64x2_t x) {
        return vreinterpretq_u64_u32(
            vmvnq_u32(vreinterpretq_u32_u64(vceqq_f64(x, kv))));
      });
      break;
    case Cmp::kLt:
      count = SelectLanesF64(d, n, base, outp,
                             [kv](float64x2_t x) { return vcltq_f64(x, kv); });
      break;
    case Cmp::kLe:
      count = SelectLanesF64(d, n, base, outp,
                             [kv](float64x2_t x) { return vcleq_f64(x, kv); });
      break;
    case Cmp::kGt:
      count = SelectLanesF64(d, n, base, outp,
                             [kv](float64x2_t x) { return vcgtq_f64(x, kv); });
      break;
    case Cmp::kGe:
      count = SelectLanesF64(d, n, base, outp,
                             [kv](float64x2_t x) { return vcgeq_f64(x, kv); });
      break;
  }
  uint32_t* p = outp + count;
  for (size_t i = n & ~size_t{1}; i < n; ++i) {
    if (CmpMatchesF64(op, d[i], k)) *p++ = base + static_cast<uint32_t>(i);
  }
  return static_cast<size_t>(p - outp);
}

size_t SelectRangeI64(const int64_t* d, size_t n, int64_t a, int64_t b,
                      uint32_t base, uint32_t* outp) {
  const int64x2_t av = vdupq_n_s64(a);
  const int64x2_t bv = vdupq_n_s64(b);
  size_t count = SelectLanesI64(d, n, base, outp, [av, bv](int64x2_t x) {
    return vandq_u64(vcgeq_s64(x, av), vcleq_s64(x, bv));
  });
  uint32_t* p = outp + count;
  for (size_t i = n & ~size_t{1}; i < n; ++i) {
    if (d[i] >= a && d[i] <= b) *p++ = base + static_cast<uint32_t>(i);
  }
  return static_cast<size_t>(p - outp);
}

FoldState FoldI64(const int64_t* d, size_t n) {
  FoldState st;
  int64x2_t s = vdupq_n_s64(0);
  int64x2_t mn = vdupq_n_s64(std::numeric_limits<int64_t>::max());
  int64x2_t mx = vdupq_n_s64(std::numeric_limits<int64_t>::min());
  size_t i = 0;
  const size_t nvec = n & ~size_t{1};
  for (; i < nvec; i += 2) {
    const int64x2_t x = vld1q_s64(d + i);
    s = vaddq_s64(s, x);
    mn = vbslq_s64(vcltq_s64(x, mn), x, mn);
    mx = vbslq_s64(vcgtq_s64(x, mx), x, mx);
  }
  uint64_t isum = static_cast<uint64_t>(vgetq_lane_s64(s, 0)) +
                  static_cast<uint64_t>(vgetq_lane_s64(s, 1));
  int64_t rmn = vgetq_lane_s64(mn, 0);
  int64_t rmx = vgetq_lane_s64(mx, 0);
  const int64_t mn1 = vgetq_lane_s64(mn, 1);
  const int64_t mx1 = vgetq_lane_s64(mx, 1);
  rmn = (mn1 < rmn) ? mn1 : rmn;
  rmx = (mx1 > rmx) ? mx1 : rmx;
  for (; i < n; ++i) {
    const int64_t x = d[i];
    isum += static_cast<uint64_t>(x);
    rmn = (x < rmn) ? x : rmn;
    rmx = (x > rmx) ? x : rmx;
  }
  st.count = n;
  st.isum = isum;
  if (n > 0) {
    st.seen = true;
    st.imin = rmn;
    st.imax = rmx;
  }
  return st;
}

FoldState FoldF64(const double* d, size_t n) {
  FoldState st;
  // s01 carries stripes {0,1}, s23 stripes {2,3}: the same 4-stripe grid
  // as scalar::Stripes4 and the AVX2 lanes.
  float64x2_t s01 = vdupq_n_f64(0.0), s23 = vdupq_n_f64(0.0);
  float64x2_t mn01 = vdupq_n_f64(std::numeric_limits<double>::infinity());
  float64x2_t mn23 = mn01;
  float64x2_t mx01 = vdupq_n_f64(-std::numeric_limits<double>::infinity());
  float64x2_t mx23 = mx01;
  size_t i = 0;
  const size_t nvec = n & ~size_t{3};
  for (; i < nvec; i += 4) {
    const float64x2_t a = vld1q_f64(d + i);
    const float64x2_t b = vld1q_f64(d + i + 2);
    s01 = vaddq_f64(s01, a);
    s23 = vaddq_f64(s23, b);
    mn01 = vbslq_f64(vcltq_f64(a, mn01), a, mn01);  // (a < mn) ? a : mn
    mn23 = vbslq_f64(vcltq_f64(b, mn23), b, mn23);
    mx01 = vbslq_f64(vcgtq_f64(a, mx01), a, mx01);
    mx23 = vbslq_f64(vcgtq_f64(b, mx23), b, mx23);
  }
  scalar::Stripes4 acc;
  acc.s[0] = vgetq_lane_f64(s01, 0);
  acc.s[1] = vgetq_lane_f64(s01, 1);
  acc.s[2] = vgetq_lane_f64(s23, 0);
  acc.s[3] = vgetq_lane_f64(s23, 1);
  acc.mn[0] = vgetq_lane_f64(mn01, 0);
  acc.mn[1] = vgetq_lane_f64(mn01, 1);
  acc.mn[2] = vgetq_lane_f64(mn23, 0);
  acc.mn[3] = vgetq_lane_f64(mn23, 1);
  acc.mx[0] = vgetq_lane_f64(mx01, 0);
  acc.mx[1] = vgetq_lane_f64(mx01, 1);
  acc.mx[2] = vgetq_lane_f64(mx23, 0);
  acc.mx[3] = vgetq_lane_f64(mx23, 1);
  for (; i < n; ++i) acc.Fold(i, d[i]);
  st.count = n;
  if (n > 0) {
    st.seen = true;
    acc.Finish(&st);
  }
  return st;
}

}  // namespace neon

#endif  // DATACELL_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatch wrappers. Vector backends handle the no-validity fast case;
// spans with a validity mask always take the scalar reference path (the
// mask is rare on hot streams — nulls only materialize once appended).
// ---------------------------------------------------------------------------

namespace {

// Appends up to n entries produced by a vector emitter into *out without
// per-element push_back: resize to worst case, emit, shrink.
template <typename EmitFn>
void EmitInto(std::vector<uint32_t>* out, size_t n, EmitFn emit) {
  const size_t old = out->size();
  out->resize(old + n);
  const size_t count = emit(out->data() + old);
  out->resize(old + count);
}

}  // namespace

void SelectCmpI64(const int64_t* d, const uint8_t* valid, size_t n, Cmp op,
                  int64_t k, uint32_t base, std::vector<uint32_t>* out) {
  if (n == 0) return;
#if defined(DATACELL_SIMD_X86)
  if (valid == nullptr && ActiveLevel() == Level::kAVX2) {
    EmitInto(out, n, [&](uint32_t* p) {
      return avx2::SelectCmpI64(d, n, op, k, base, p);
    });
    return;
  }
#elif defined(DATACELL_SIMD_NEON)
  if (valid == nullptr && ActiveLevel() == Level::kNEON) {
    EmitInto(out, n, [&](uint32_t* p) {
      return neon::SelectCmpI64(d, n, op, k, base, p);
    });
    return;
  }
#endif
  scalar::SelectCmp(d, valid, n, op, k, base, out);
}

void SelectCmpF64(const double* d, const uint8_t* valid, size_t n, Cmp op,
                  double k, uint32_t base, std::vector<uint32_t>* out) {
  if (n == 0) return;
#if defined(DATACELL_SIMD_X86)
  if (valid == nullptr && ActiveLevel() == Level::kAVX2) {
    EmitInto(out, n, [&](uint32_t* p) {
      return avx2::SelectCmpF64(d, n, op, k, base, p);
    });
    return;
  }
#elif defined(DATACELL_SIMD_NEON)
  if (valid == nullptr && ActiveLevel() == Level::kNEON) {
    EmitInto(out, n, [&](uint32_t* p) {
      return neon::SelectCmpF64(d, n, op, k, base, p);
    });
    return;
  }
#endif
  scalar::SelectCmp(d, valid, n, op, k, base, out);
}

void SelectRangeI64(const int64_t* d, const uint8_t* valid, size_t n,
                    int64_t a, int64_t b, uint32_t base,
                    std::vector<uint32_t>* out) {
  if (n == 0) return;
#if defined(DATACELL_SIMD_X86)
  if (valid == nullptr && ActiveLevel() == Level::kAVX2) {
    EmitInto(out, n, [&](uint32_t* p) {
      return avx2::SelectRangeI64(d, n, a, b, base, p);
    });
    return;
  }
#elif defined(DATACELL_SIMD_NEON)
  if (valid == nullptr && ActiveLevel() == Level::kNEON) {
    EmitInto(out, n, [&](uint32_t* p) {
      return neon::SelectRangeI64(d, n, a, b, base, p);
    });
    return;
  }
#endif
  scalar::SelectRangeI64(d, valid, n, a, b, base, out);
}

void SelectRangeF64(const double* d, const uint8_t* valid, size_t n, double lo,
                    bool lo_inclusive, double hi, bool hi_inclusive,
                    uint32_t base, std::vector<uint32_t>* out) {
  if (n == 0) return;
#if defined(DATACELL_SIMD_X86)
  if (valid == nullptr && ActiveLevel() == Level::kAVX2) {
    EmitInto(out, n, [&](uint32_t* p) {
      return avx2::SelectRangeF64(d, n, lo, lo_inclusive, hi, hi_inclusive,
                                  base, p);
    });
    return;
  }
#endif
  scalar::SelectRangeF64(d, valid, n, lo, lo_inclusive, hi, hi_inclusive, base,
                         out);
}

void GatherI64(const int64_t* src, const uint32_t* sel, size_t n,
               int64_t* dst) {
#if defined(DATACELL_SIMD_X86)
  if (ActiveLevel() == Level::kAVX2) {
    avx2::GatherI64(src, sel, n, dst);
    return;
  }
#endif
  for (size_t j = 0; j < n; ++j) dst[j] = src[sel[j]];
}

void GatherF64(const double* src, const uint32_t* sel, size_t n, double* dst) {
#if defined(DATACELL_SIMD_X86)
  if (ActiveLevel() == Level::kAVX2) {
    avx2::GatherF64(src, sel, n, dst);
    return;
  }
#endif
  for (size_t j = 0; j < n; ++j) dst[j] = src[sel[j]];
}

FoldState FoldI64(const int64_t* d, const uint8_t* valid, size_t n) {
#if defined(DATACELL_SIMD_X86)
  if (valid == nullptr && ActiveLevel() == Level::kAVX2) {
    return avx2::FoldI64(d, n);
  }
#elif defined(DATACELL_SIMD_NEON)
  if (valid == nullptr && ActiveLevel() == Level::kNEON) {
    return neon::FoldI64(d, n);
  }
#endif
  return scalar::FoldI64(d, valid, n);
}

FoldState FoldF64(const double* d, const uint8_t* valid, size_t n) {
#if defined(DATACELL_SIMD_X86)
  if (valid == nullptr && ActiveLevel() == Level::kAVX2) {
    return avx2::FoldF64(d, n);
  }
#elif defined(DATACELL_SIMD_NEON)
  if (valid == nullptr && ActiveLevel() == Level::kNEON) {
    return neon::FoldF64(d, n);
  }
#endif
  return scalar::FoldF64(d, valid, n);
}

void HashI64(const int64_t* d, size_t n, uint64_t* out) {
#if defined(DATACELL_SIMD_X86)
  if (ActiveLevel() == Level::kAVX2) {
    avx2::HashI64(d, n, out);
    return;
  }
#endif
  scalar::HashI64(d, n, out);
}

}  // namespace datacell::simd
