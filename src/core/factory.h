#ifndef DATACELL_CORE_FACTORY_H_
#define DATACELL_CORE_FACTORY_H_

#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/basket.h"
#include "util/clock.h"
#include "util/status.h"

namespace datacell::core {

/// Sentinel for Transition::next_deadline: the transition is not
/// time-driven.
inline constexpr Micros kNoDeadline = std::numeric_limits<Micros>::max();

/// A Petri-net transition (§4.1): receptors, emitters and factories all
/// implement this interface. Baskets are the token places; a transition may
/// fire when its firing condition over its input places holds, and firing
/// is atomic.
///
/// Transitions declare their place sets (input_places/output_places) so the
/// scheduler can see the dataflow graph instead of only the opaque CanFire
/// predicate: a basket signal wakes exactly the transitions reading from
/// it, and two transitions with disjoint place sets may fire in parallel.
class Transition {
 public:
  virtual ~Transition() = default;

  virtual const std::string& name() const = 0;

  /// True if the transition's inputs allow it to fire now.
  virtual bool CanFire(Micros now) const = 0;

  /// Executes one atomic firing. Returns true if it did useful work (moved
  /// or produced tuples); the scheduler uses this for quiescence detection.
  virtual Result<bool> Fire(Micros now) = 0;

  /// The places this transition consumes from. A transition with no
  /// declared input places is self-scheduled: the scheduler polls it (pull
  /// receptors) or waits on its next_deadline (metronomes) instead of
  /// waiting for a basket signal.
  virtual std::vector<BasketPtr> input_places() const { return {}; }

  /// The places this transition produces into (part of its conflict set:
  /// two transitions sharing any place never fire concurrently).
  virtual std::vector<BasketPtr> output_places() const { return {}; }

  /// The scheduler reports the wall-clock time it measured around each
  /// Fire here, so a transition that keeps its own execution stats reads
  /// no clock itself. The default ignores it.
  virtual void RecordExec(Micros duration) { (void)duration; }

  /// Earliest time a time-driven transition may next fire, or kNoDeadline
  /// for purely data-driven/polled transitions. Must be cheap and
  /// thread-safe: the scheduler calls it without claiming the transition.
  virtual Micros next_deadline(Micros now) const {
    (void)now;
    return kNoDeadline;
  }
};

using TransitionPtr = std::shared_ptr<Transition>;

/// Per-firing execution context handed to a factory body.
class FactoryContext {
 public:
  FactoryContext(Micros now, std::vector<BasketPtr>* inputs,
                 std::vector<BasketPtr>* outputs)
      : now_(now), inputs_(inputs), outputs_(outputs) {}

  Micros now() const { return now_; }
  size_t num_inputs() const { return inputs_->size(); }
  size_t num_outputs() const { return outputs_->size(); }
  Basket& input(size_t i) const { return *(*inputs_)[i]; }
  Basket& output(size_t i) const { return *(*outputs_)[i]; }
  const BasketPtr& input_ptr(size_t i) const { return (*inputs_)[i]; }
  const BasketPtr& output_ptr(size_t i) const { return (*outputs_)[i]; }

  /// Evaluation context pre-loaded with now(); bodies may extend it.
  EvalContext eval() const {
    EvalContext ctx;
    ctx.now = now_;
    return ctx;
  }

 private:
  Micros now_;
  std::vector<BasketPtr>* inputs_;
  std::vector<BasketPtr>* outputs_;
};

/// A factory (§3.3): a continuous query — or a fragment of one — modelled
/// as a function whose execution state is saved between calls.
///
/// The C++ rendering of MAL factories: the body is a closure; any state it
/// captures (running aggregates, window bookkeeping) persists across
/// firings, which is exactly the "factory keeps its status around and
/// continues from where it stopped" semantics.
class Factory : public Transition {
 public:
  /// The body runs with all input and output baskets locked (in a global
  /// canonical order, so factories sharing baskets cannot deadlock).
  using Body = std::function<Status(FactoryContext&)>;

  /// `firings` counts Fire calls; the exec times are the scheduler's
  /// measurements (RecordExec), so direct Fire calls leave them at zero.
  struct Stats {
    uint64_t firings = 0;
    Micros total_exec = 0;  // cumulative firing time
    Micros last_exec = 0;
  };

  Factory(std::string name, Body body)
      : name_(std::move(name)), body_(std::move(body)) {}

  /// Declares an input place. The factory can fire only when every input
  /// holds at least `min_tuples` tuples (batch-processing / tuple-window
  /// threshold, §4.1).
  Factory& AddInput(BasketPtr basket, size_t min_tuples = 1);
  Factory& AddOutput(BasketPtr basket);
  /// Makes room for `inputs` and `outputs` more places, so a transition
  /// wired with many places grows its lists once.
  Factory& Reserve(size_t inputs, size_t outputs);

  const std::string& name() const override { return name_; }
  bool CanFire(Micros now) const override;
  Result<bool> Fire(Micros now) override;
  void RecordExec(Micros duration) override;
  std::vector<BasketPtr> input_places() const override { return inputs_; }
  std::vector<BasketPtr> output_places() const override { return outputs_; }

  size_t num_inputs() const { return inputs_.size(); }
  size_t num_outputs() const { return outputs_.size(); }
  const BasketPtr& input(size_t i) const { return inputs_[i]; }
  const BasketPtr& output(size_t i) const { return outputs_[i]; }

  /// Safe to call while a scheduler thread is firing the factory.
  Stats stats() const {
    Stats s;
    s.firings = firings_.load(std::memory_order_relaxed);
    s.total_exec = total_exec_.load(std::memory_order_relaxed);
    s.last_exec = last_exec_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  const std::string name_;
  Body body_;
  std::vector<BasketPtr> inputs_;
  std::vector<size_t> min_tuples_;
  std::vector<BasketPtr> outputs_;
  // Inputs ∪ outputs in the canonical lock order (ascending address, no
  // duplicates) once locks_sorted_; AddInput/AddOutput append, and Fire
  // sorts once after a change. Fire never runs concurrently with itself
  // or with the Add* calls that wire the factory.
  std::vector<Basket*> locks_;
  bool locks_sorted_ = true;
  std::atomic<uint64_t> firings_{0};
  std::atomic<Micros> total_exec_{0};
  std::atomic<Micros> last_exec_{0};
};

using FactoryPtr = std::shared_ptr<Factory>;

}  // namespace datacell::core

#endif  // DATACELL_CORE_FACTORY_H_
