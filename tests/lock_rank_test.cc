// Tests for the debug lock-rank checker (util/lock_rank.h) and the
// annotated mutex wrappers it rides on. The violation cases are death
// tests: the checker's contract is "abort with both stacks", and the
// tests document exactly which acquisition patterns trip it. All of them
// skip when the checker is compiled out (non-Debug builds without
// -DDATACELL_LOCK_RANK=ON).

#include "util/mutex.h"

#include <gtest/gtest.h>

#include "column/recycler.h"
#include "core/basket.h"

namespace datacell {
namespace {

Schema StreamSchema() {
  return Schema({{"tag", DataType::kTimestamp}, {"payload", DataType::kInt64}});
}

// The deliberate-violation helpers are exempt from the compile-time
// analysis: clang would (correctly) reject them for the same reason the
// runtime checker aborts on them.
void ReenterRecursive(RecursiveMutex* m) DC_NO_THREAD_SAFETY_ANALYSIS {
  m->Lock();
  m->Lock();
  m->Unlock();
  m->Unlock();
}

void ReenterPlain(Mutex* m) DC_NO_THREAD_SAFETY_ANALYSIS {
  m->Lock();
  m->Lock();  // checker aborts here; without it this would deadlock
  m->Unlock();
  m->Unlock();
}

// Runs in a death-test child that aborts at the second acquisition, so the
// locks are intentionally never released.
void LockDescendingAddresses(const core::Basket* hi, const core::Basket* lo)
    DC_NO_THREAD_SAFETY_ANALYSIS {
  hi->Lock();
  lo->Lock();
}

TEST(LockRankTest, DecreasingRankOrderPasses) {
  // The full documented hierarchy, outermost first: basket, scheduler,
  // actuator, engine, catalog, metrics, recycler, logging.
  Mutex basket(LockRank::kBasket);
  Mutex scheduler(LockRank::kScheduler);
  Mutex actuator(LockRank::kActuator);
  Mutex engine(LockRank::kEngine);
  Mutex catalog(LockRank::kCatalog);
  Mutex metrics(LockRank::kMetrics);
  Mutex buffers(LockRank::kBufferRecycler);
  Mutex logging(LockRank::kLogging);
  MutexLock a(&basket);
  MutexLock b(&scheduler);
  MutexLock c(&actuator);
  MutexLock d(&engine);
  MutexLock e(&catalog);
  MutexLock f(&metrics);
  MutexLock g(&buffers);
  MutexLock h(&logging);
}

TEST(LockRankTest, RankSkippingPasses) {
  // Decreasing order does not require visiting every level.
  Mutex basket(LockRank::kBasket);
  Mutex catalog(LockRank::kCatalog);
  MutexLock a(&basket);
  MutexLock b(&catalog);
}

TEST(LockRankTest, RecursiveReentryPasses) {
  RecursiveMutex m(LockRank::kBasket);
  ReenterRecursive(&m);
}

TEST(LockRankTest, BasketsInAscendingAddressOrderPass) {
  core::Basket a("a", StreamSchema());
  core::Basket b("b", StreamSchema());
  const core::Basket* lo = &a < &b ? &a : &b;
  const core::Basket* hi = &a < &b ? &b : &a;
  lo->Lock();
  hi->Lock();
  // Release order is unconstrained; exercise out-of-stack-order release.
  lo->Unlock();
  hi->Unlock();
}

TEST(LockRankTest, ReleaseAndReacquirePasses) {
  // The scheduler worker-loop shape: take a low-ranked lock, drop it for
  // the firing (which takes basket locks), retake it.
  Mutex scheduler(LockRank::kScheduler);
  core::Basket basket("p", StreamSchema());
  MutexLock lock(&scheduler);
  lock.Unlock();
  {
    core::BasketLock firing(&basket);
  }
  lock.Lock();
}

TEST(LockRankTest, ParkingABufferUnderABasketLockPasses) {
  // A column's last buffer reference may drop inside a firing, with the
  // basket (and the metrics registry) locked: parking it takes the
  // recycler's lock, which is inner to both.
  core::Basket basket("p", StreamSchema());
  Mutex metrics(LockRank::kMetrics);
  const size_t rows = 2 * recycler::kMinBytes / sizeof(int64_t);
  Column c(DataType::kInt64);
  c.Reserve(rows);
  c.ints().assign(rows, 1);
  core::BasketLock firing(&basket);
  MutexLock registry(&metrics);
  c.Clear();
  EXPECT_GE(recycler::ParkedBytes(), rows * sizeof(int64_t));
  std::vector<int64_t> again = recycler::Take<int64_t>(rows);
  EXPECT_GE(again.capacity(), rows);
  recycler::Park(&again);
}

TEST(LockRankDeathTest, HierarchyInversionAborts) {
  if (!lock_rank::Enabled()) GTEST_SKIP() << "lock-rank checker compiled out";
  Mutex catalog(LockRank::kCatalog);
  Mutex scheduler(LockRank::kScheduler);
  EXPECT_DEATH(
      {
        MutexLock inner(&catalog);
        MutexLock outer(&scheduler);  // ascending rank: inversion
      },
      "hierarchy inversion");
}

TEST(LockRankDeathTest, BasketThenEngineThenBasketAborts) {
  if (!lock_rank::Enabled()) GTEST_SKIP() << "lock-rank checker compiled out";
  // The realistic mistake: calling back into a basket while holding the
  // engine registry lock.
  Mutex engine(LockRank::kEngine);
  core::Basket basket("p", StreamSchema());
  EXPECT_DEATH(
      {
        MutexLock registry(&engine);
        core::BasketLock cb(&basket);
      },
      "hierarchy inversion");
}

TEST(LockRankDeathTest, BasketsInDescendingAddressOrderAbort) {
  if (!lock_rank::Enabled()) GTEST_SKIP() << "lock-rank checker compiled out";
  core::Basket a("a", StreamSchema());
  core::Basket b("b", StreamSchema());
  const core::Basket* lo = &a < &b ? &a : &b;
  const core::Basket* hi = &a < &b ? &b : &a;
  EXPECT_DEATH(LockDescendingAddresses(hi, lo), "same-rank order violation");
}

TEST(LockRankDeathTest, PlainMutexReentryAborts) {
  if (!lock_rank::Enabled()) GTEST_SKIP() << "lock-rank checker compiled out";
  Mutex m(LockRank::kEngine);
  EXPECT_DEATH(ReenterPlain(&m), "self-deadlock");
}

TEST(LockRankDeathTest, UnheldReleaseAborts) {
  if (!lock_rank::Enabled()) GTEST_SKIP() << "lock-rank checker compiled out";
  int dummy = 0;
  EXPECT_DEATH(lock_rank::NoteRelease(&dummy), "does not hold");
}

}  // namespace
}  // namespace datacell
