#ifndef DATACELL_COLUMN_RECYCLER_H_
#define DATACELL_COLUMN_RECYCLER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

/// The column kernel's recycler for large buffers.
///
/// A bulk delivery allocates megabytes of column, selection and hash-table
/// buffers. Freed to malloc, that memory goes back to the operating system
/// and the next delivery faults every page of it in again. The recycler
/// keeps the *storage* of freed large vectors instead and hands it to the
/// next request of a similar size:
///
///  * Only vectors of at least kMinBytes of capacity are parked; smaller
///    ones go straight to the allocator, so small deliveries never touch
///    the recycler (or its lock).
///  * Contents never carry over: a vector comes out of Take() empty.
///  * Parked vectors are grouped per element type by size class
///    (floor(log2(capacity bytes))). A request takes the best-fitting
///    parked vector of its own class (the newest among equals), else one
///    of the next class up, and never a larger one.
///  * Parked bytes never exceed kCapBytes: parking past the cap frees the
///    oldest parked vectors first, so the list tracks the current working
///    set and idle memory is released.
///  * It parks no more bytes than it has lent out and not got back:
///    storage it never handed out (a vector grown by push_back) is freed,
///    so a workload that draws no large buffers parks none.
///  * One mutex, LockRank::kBufferRecycler: a column's last reference may
///    drop under a basket, storage or scheduler lock.
///  * Under AddressSanitizer a parked vector's storage is poisoned, so a
///    stale pointer into it reports use-after-poison instead of reading the
///    next delivery's rows.
///
/// Recyclable element types: int64_t, double, uint8_t and uint32_t (the
/// column, validity and selection buffers). Other types pass through.
namespace datacell::recycler {

inline constexpr size_t kMinBytes = size_t{64} << 10;
inline constexpr size_t kCapBytes = size_t{32} << 20;

template <typename T>
inline constexpr bool kRecyclable =
    std::is_same_v<T, int64_t> || std::is_same_v<T, double> ||
    std::is_same_v<T, uint8_t> || std::is_same_v<T, uint32_t>;

// Slow paths (recycler.cc), instantiated for the recyclable types.
template <typename T>
std::vector<T> TakeLarge(size_t n);
template <typename T>
void ParkLarge(std::vector<T>* v);

/// An empty vector with capacity for at least `n` elements; a large one is
/// drawn from the parked vectors when one fits.
template <typename T>
std::vector<T> Take(size_t n) {
  if constexpr (kRecyclable<T>) {
    if (n * sizeof(T) >= kMinBytes) return TakeLarge<T>(n);
  }
  std::vector<T> v;
  v.reserve(n);
  return v;
}

/// Returns the storage of a large vector to the recycler (parked, or freed
/// past what the recycler lent), leaving `*v` empty with no storage. A
/// small vector is left as it is.
template <typename T>
void Park(std::vector<T>* v) {
  if constexpr (kRecyclable<T>) {
    if (v->capacity() * sizeof(T) >= kMinBytes) ParkLarge(v);
  }
}

/// Ensures capacity for `n` elements, keeping the contents. Growing to a
/// large capacity draws the new storage from the recycler (at least
/// doubling, so repeated appends stay amortized O(1)) and parks the old.
template <typename T>
void Reserve(std::vector<T>* v, size_t n) {
  if (v->capacity() >= n) return;
  const size_t want = std::max(n, 2 * v->capacity());
  if constexpr (kRecyclable<T>) {
    if (want * sizeof(T) >= kMinBytes) {
      std::vector<T> grown = TakeLarge<T>(want);
      grown.insert(grown.end(), v->begin(), v->end());
      Park(v);
      *v = std::move(grown);
      return;
    }
  }
  v->reserve(want);
}

/// Total bytes of capacity parked right now (tests, benches).
size_t ParkedBytes();

/// Scratch for one call: a vector taken from the recycler and parked again
/// when the scratch goes out of scope.
template <typename T>
class Scratch {
 public:
  explicit Scratch(size_t n) : v_(Take<T>(n)) {}
  ~Scratch() { Park(&v_); }

  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  std::vector<T>& operator*() { return v_; }
  std::vector<T>* operator->() { return &v_; }

 private:
  std::vector<T> v_;
};

}  // namespace datacell::recycler

#endif  // DATACELL_COLUMN_RECYCLER_H_
