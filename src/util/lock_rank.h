#ifndef DATACELL_UTIL_LOCK_RANK_H_
#define DATACELL_UTIL_LOCK_RANK_H_

#include <cstddef>

/// Debug-build lock-hierarchy checker.
///
/// Every datacell::Mutex / RecursiveMutex carries a LockRank. The global
/// hierarchy (DESIGN.md "Concurrency invariants") is
///
///     recycler < metrics < catalog < engine < scheduler < basket
///
/// where a < b means a is *inner* to b: a thread already holding a
/// lower-ranked lock must not acquire a higher-ranked one. Acquisitions
/// therefore run in strictly decreasing rank order — basket locks first
/// (outermost), then scheduler, then engine, then catalog; the logging
/// mutex is rank 0 so a log line may be emitted while holding anything.
/// Equal-rank acquisition is allowed only for baskets, and only in
/// ascending address order — exactly the canonical order Factory::Fire
/// uses — so any two code paths locking the same pair of baskets agree on
/// the order and cannot deadlock.
///
/// When DATACELL_LOCK_RANK_CHECKS is defined (cmake -DDATACELL_LOCK_RANK=ON,
/// default ON for Debug builds) every acquisition is validated against the
/// thread's held-lock stack; a violation prints the acquisition stack of
/// the conflicting held lock plus the current stack, then aborts. In other
/// builds the checker compiles away to nothing.
namespace datacell {

enum class LockRank : int {
  /// Innermost: the log-line mutex, acquirable while holding anything.
  kLogging = 0,
  /// The column kernel's large-buffer recycler (column/recycler.h). Inner
  /// to everything except logging: a column's last buffer reference may
  /// drop, and park the buffer, under any other lock. Nothing is logged
  /// while it is held.
  kBufferRecycler = 1,
  /// Observability registry / trace ring (src/obs). Inner to everything
  /// except logging: metric registration and trace recording may happen
  /// from firing bodies (basket lock held) and from the scheduler, and
  /// must never call back out into engine state.
  kMetrics = 5,
  /// Spill-file page allocator (storage::Pager free list). Inner to the
  /// buffer pool, which allocates/frees pages while holding its frame
  /// table lock.
  kStoragePager = 6,
  /// Storage-tier state: buffer-pool frame table, ingest-log writer,
  /// storage registry. Acquired from basket spill paths (basket lock
  /// held), so inner to kBasket — and never while another kStorage lock
  /// is held (the registry copies instance pointers out before querying
  /// them).
  kStorage = 8,
  /// Catalog of persistent tables.
  kCatalog = 10,
  /// Engine registry (baskets map, session variables).
  kEngine = 20,
  /// Measurement-tool leaves (actuator stats).
  kActuator = 25,
  /// Scheduler ready-queue state. Acquired from basket listeners, so it is
  /// inner to kBasket.
  kScheduler = 30,
  /// Outermost: basket locks. Same-rank acquisition must ascend by
  /// address (the canonical multi-basket order).
  kBasket = 40,
};

namespace lock_rank {

#ifdef DATACELL_LOCK_RANK_CHECKS

/// Validates that acquiring `mu` respects the hierarchy given this
/// thread's held locks, then records it. `recursive` marks mutexes that
/// may be re-entered by the holding thread. Aborts on violation.
void NoteAcquire(const void* mu, LockRank rank, bool recursive);

/// Removes the most recent record of `mu` from this thread's held stack.
void NoteRelease(const void* mu);

inline constexpr bool Enabled() { return true; }

#else

inline void NoteAcquire(const void*, LockRank, bool) {}
inline void NoteRelease(const void*) {}
inline constexpr bool Enabled() { return false; }

#endif  // DATACELL_LOCK_RANK_CHECKS

}  // namespace lock_rank
}  // namespace datacell

#endif  // DATACELL_UTIL_LOCK_RANK_H_
