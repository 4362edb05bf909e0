#ifndef DATACELL_UTIL_SIMD_H_
#define DATACELL_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

/// Portable SIMD layer for the ops kernels (DESIGN.md §12).
///
/// The backend is chosen at compile time (AVX2 on x86-64, NEON on aarch64,
/// scalar everywhere else) and *dispatched at runtime*: the library is
/// compiled without -mavx2, the AVX2 bodies live in
/// __attribute__((target("avx2"))) functions, and the first kernel call
/// probes the CPU (__builtin_cpu_supports) once. `DATACELL_SIMD=off` in the
/// environment — or building with -DDATACELL_SIMD=OFF, which defines
/// DATACELL_SIMD_DISABLED — forces the scalar fallback; SetForceScalar()
/// does the same per-process for in-process A/B comparison (benches, the
/// byte-identity tests).
///
/// Determinism contract (byte-identity across backends and morsel counts):
///  * Floating-point sums use four striped accumulators — element i of a
///    span lands in stripe i&3, and stripes reduce as (s0+s1)+(s2+s3).
///    The scalar fallback implements exactly the same shape, so AVX2 (one
///    stripe per 64-bit lane), NEON (two 2-lane accumulators) and scalar
///    produce bit-identical sums for the same span.
///  * Min/max fold per stripe as `m = (x < m) ? x : m` (keep the
///    incumbent on ties, which pins the -0.0/+0.0 tie-break), then combine
///    stripes in order — again the same shape in every backend.
///  * Spans are only ever folded on the fixed kMorselRows grid (see
///    ops/morsel.h): the ops layer always chunks, whether the chunks run
///    inline on one thread or as parallel morsels, so the grouping of
///    partial sums — and therefore every rounding step — is independent of
///    the worker count.
///  * Integer sums accumulate as uint64 (wraparound is defined and matches
///    the vector paddq semantics); comparisons are exact, so selection
///    vectors and int folds are trivially identical across backends.
///
/// Double comparisons use the IEEE predicates directly (ordered except
/// kNe): NaN never matches Eq/Lt/Le/Gt/Ge and always matches Ne. Alignment:
/// callers hand in spans that may start anywhere (COW buffers keep a
/// logical head offset, so a span's base is unaligned after ErasePrefix);
/// every vector path uses unaligned loads.
namespace datacell::simd {

/// Active backend, in increasing capability order.
enum class Level : uint8_t { kScalar = 0, kNEON = 1, kAVX2 = 2 };

const char* LevelName(Level level);

/// Backend the CPU supports (ignores the force-scalar switches). Cached
/// after the first call.
Level DetectedLevel();

/// Backend the kernels will actually use: DetectedLevel() unless scalar is
/// forced (DATACELL_SIMD_DISABLED build, DATACELL_SIMD=off env, or
/// SetForceScalar(true)).
Level ActiveLevel();

/// Process-wide switch to force the scalar fallback; used by benches and
/// tests to compare both code paths in one process. Thread-safe.
void SetForceScalar(bool force);
bool force_scalar();

/// Comparison ops for SelectCmp*. Matches BinaryOp's comparison subset.
enum class Cmp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// True when `x <op> k` under the kernels' semantics (exact for int64,
/// IEEE predicates for double). The scalar reference the vector paths must
/// agree with.
bool CmpMatchesI64(Cmp op, int64_t x, int64_t k);
bool CmpMatchesF64(Cmp op, double x, double k);

/// --- Compare-select: indices of matching elements -----------------------
/// Appends `base + i` to *out (ascending) for every i in [0, n) where
/// d[i] <op> k and (valid == nullptr || valid[i]). The AVX2 path emits
/// matches branch-free via compare-mask + compressed-store; spans with a
/// validity mask take the scalar path.
void SelectCmpI64(const int64_t* d, const uint8_t* valid, size_t n, Cmp op,
                  int64_t k, uint32_t base, std::vector<uint32_t>* out);
void SelectCmpF64(const double* d, const uint8_t* valid, size_t n, Cmp op,
                  double k, uint32_t base, std::vector<uint32_t>* out);

/// Two-sided range select, fused: a <= d[i] <= b (int bounds already
/// normalized to inclusive by the caller).
void SelectRangeI64(const int64_t* d, const uint8_t* valid, size_t n,
                    int64_t a, int64_t b, uint32_t base,
                    std::vector<uint32_t>* out);
/// Double range with open/closed bounds (cannot be normalized).
void SelectRangeF64(const double* d, const uint8_t* valid, size_t n, double lo,
                    bool lo_inclusive, double hi, bool hi_inclusive,
                    uint32_t base, std::vector<uint32_t>* out);

/// --- Gather: materialize selected rows ----------------------------------
/// dst[j] = src[sel[j]] for j in [0, n). dst must have room for n.
void GatherI64(const int64_t* src, const uint32_t* sel, size_t n,
               int64_t* dst);
void GatherF64(const double* src, const uint32_t* sel, size_t n, double* dst);

/// --- Columnar fold (sum/count/min/max) ----------------------------------
/// Partial aggregate state for one span (one morsel-grid chunk). Merge
/// order is chunk order; MergeFrom implements the contract's combine shape.
struct FoldState {
  uint64_t count = 0;  // elements folded (valid rows)
  uint64_t isum = 0;   // int64 sum, wraparound (cast to int64_t to read)
  double dsum = 0;     // striped double sum
  bool seen = false;   // any element folded into min/max
  int64_t imin = 0;
  int64_t imax = 0;
  double dmin = 0;
  double dmax = 0;

  void MergeFrom(const FoldState& o);
};

/// Folds d[i] for i in [0, n) where valid[i] (or all rows when valid is
/// null). Int fold fills count/isum/imin/imax; double fold fills
/// count/dsum/dmin/dmax.
FoldState FoldI64(const int64_t* d, const uint8_t* valid, size_t n);
FoldState FoldF64(const double* d, const uint8_t* valid, size_t n);

/// --- Vectorized hash (join build/probe) ---------------------------------
/// Fibonacci multiply-shift: out[i] = (uint64)d[i] * 0x9E3779B97F4A7C15.
/// The caller takes the top log2(buckets) bits (h >> (64 - log2_buckets)).
inline constexpr uint64_t kHashMul = 0x9E3779B97F4A7C15ULL;
void HashI64(const int64_t* d, size_t n, uint64_t* out);

}  // namespace datacell::simd

#endif  // DATACELL_UTIL_SIMD_H_
