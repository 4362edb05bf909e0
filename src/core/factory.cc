#include "core/factory.h"

#include <algorithm>

#include "util/logging.h"

namespace datacell::core {

namespace {

// Holds a canonically-ordered (ascending address) set of basket locks for
// the duration of a firing. The set is dynamic, which Clang Thread Safety
// Analysis cannot model, so acquisition/release are exempted; the debug
// lock-rank checker still validates the ascending-address discipline at
// runtime, and the body only reaches guarded state through the baskets'
// internally-synchronized public API.
class BasketLockSet {
 public:
  explicit BasketLockSet(const std::vector<Basket*>& sorted)
      DC_NO_THREAD_SAFETY_ANALYSIS : baskets_(sorted) {
    for (Basket* b : baskets_) b->Lock();
  }

  ~BasketLockSet() DC_NO_THREAD_SAFETY_ANALYSIS {
    for (auto it = baskets_.rbegin(); it != baskets_.rend(); ++it) {
      (*it)->Unlock();
    }
  }

  BasketLockSet(const BasketLockSet&) = delete;
  BasketLockSet& operator=(const BasketLockSet&) = delete;

 private:
  const std::vector<Basket*>& baskets_;
};

}  // namespace

Factory& Factory::AddInput(BasketPtr basket, size_t min_tuples) {
  DC_CHECK(basket != nullptr);
  locks_.push_back(basket.get());
  locks_sorted_ = false;
  inputs_.push_back(std::move(basket));
  min_tuples_.push_back(std::max<size_t>(min_tuples, 1));
  return *this;
}

Factory& Factory::AddOutput(BasketPtr basket) {
  DC_CHECK(basket != nullptr);
  locks_.push_back(basket.get());
  locks_sorted_ = false;
  outputs_.push_back(std::move(basket));
  return *this;
}

Factory& Factory::Reserve(size_t inputs, size_t outputs) {
  locks_.reserve(locks_.size() + inputs + outputs);
  inputs_.reserve(inputs_.size() + inputs);
  min_tuples_.reserve(min_tuples_.size() + inputs);
  outputs_.reserve(outputs_.size() + outputs);
  return *this;
}

bool Factory::CanFire(Micros) const {
  // Petri-net firing rule: every input place holds tokens (≥ its
  // batch/window threshold).
  if (inputs_.empty()) return false;
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (inputs_[i]->size() < min_tuples_[i]) return false;
  }
  return true;
}

Result<bool> Factory::Fire(Micros now) {
  // Lock every involved basket in a canonical (pointer) order so factories
  // sharing baskets cannot deadlock; recursive mutexes let the body keep
  // using the public Basket API underneath. The set is sorted and
  // de-duplicated once, by the first firing after the places changed: a
  // burst of registrations builds fused roots that are replaced before
  // they ever fire, so registration does not pay for it.
  if (!locks_sorted_) {
    std::sort(locks_.begin(), locks_.end());
    locks_.erase(std::unique(locks_.begin(), locks_.end()), locks_.end());
    locks_sorted_ = true;
  }
  BasketLockSet locks(locks_);

  // Movement for quiescence detection: every content change bumps a
  // basket's version (Basket::Touch), and nobody else can change a locked
  // basket, so the body moved tokens iff some version moved.
  auto versions = [&]() {
    uint64_t v = 0;
    for (Basket* b : locks_) v += b->version();
    return v;
  };
  const uint64_t before = versions();
  FactoryContext ctx(now, &inputs_, &outputs_);
  RETURN_NOT_OK(body_(ctx));
  firings_.fetch_add(1, std::memory_order_relaxed);
  return versions() != before;
}

void Factory::RecordExec(Micros duration) {
  last_exec_.store(duration, std::memory_order_relaxed);
  total_exec_.fetch_add(duration, std::memory_order_relaxed);
}

}  // namespace datacell::core
