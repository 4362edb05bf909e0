#ifndef DATACELL_CORE_SCHEDULER_H_
#define DATACELL_CORE_SCHEDULER_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/factory.h"
#include "obs/metrics.h"
#include "ops/morsel.h"
#include "util/clock.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace datacell::core {

/// The DataCell scheduler (§4.1). The paper describes it as an infinite
/// loop that "checks which transitions can fire by analyzing their inputs";
/// we keep that contract but make it event-driven: transitions declare
/// their place sets (Transition::input_places / output_places), every
/// basket mutation signals the transitions watching that place, and the
/// signalled transitions enter a ready-queue instead of being found by a
/// blind poll over everything.
///
/// Two execution modes share the ready-queue:
///  * Cooperative — the caller drives rounds on its own thread
///    (RunOnce / RunUntilQuiescent). Deterministic: each round drains the
///    ready set in registration order, and a round that does no work falls
///    back to the classic full scan, so quiescence detection is exactly the
///    poll-loop semantics. Used by tests, the latency benchmarks and the
///    Linear Road driver.
///  * Threaded — Start() spawns `num_workers` worker threads. A worker
///    claims the oldest ready transition whose place set does not overlap
///    any currently-firing transition's (the conflict rule; canonical-order
///    basket locking inside Factory::Fire stays as the safety net), fires
///    it outside the scheduler lock, and parks on a condition variable when
///    idle. Metronomes bound the park with their next deadline; pull
///    receptors are polled on a short interval, everything else wakes on
///    basket signals.
///
/// Locking: mu_ (rank kScheduler) protects the scheduling state. Firing
/// bodies take basket locks (rank kBasket, which out-ranks kScheduler), so
/// transitions always fire with mu_ released; the basket→scheduler signal
/// path (Basket::Touch → listener → OnPlaceSignal) is the only place both
/// are held together, in the hierarchy's basket-then-scheduler order.
class Scheduler {
 public:
  explicit Scheduler(Clock* clock, size_t num_workers = 1);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Registers a transition and subscribes it to its declared input
  /// places. Round order is registration order (the Petri-net model leaves
  /// firing order undefined; we pick a stable one). Thread-safe, including
  /// while workers are running or another thread is inside RunOnce.
  void Register(TransitionPtr transition);

  /// Removes a registered transition: unsubscribes its basket listeners,
  /// pulls it from the ready queue and, in threaded mode, waits for any
  /// in-flight firing to complete before returning — after which the
  /// transition will never fire again. This is the teardown half of the
  /// multi-query optimizer's shared-subnet rewiring (dropping one query
  /// must not tear down transitions other queries still use, so the
  /// planner unregisters exactly the fused root it replaces and the
  /// leaving query's leaf). Safe against
  /// concurrent workers and Register calls; in cooperative mode it must be
  /// called from the driving thread (the thread running RunOnce), which is
  /// the Session registration thread in practice. Returns NotFound if the
  /// transition was never registered (or already unregistered).
  Status Unregister(const TransitionPtr& transition);

  /// One pass, firing each eligible ready transition once (registration
  /// order). Returns true if any firing did work.
  Result<bool> RunOnce();

  /// Loops RunOnce until a full round does no work, or `max_rounds` is hit.
  /// Returns the number of rounds that did work.
  Result<size_t> RunUntilQuiescent(size_t max_rounds = 1'000'000);

  /// Threaded mode.
  Status Start();
  void Stop();
  bool running() const { return running_.load(); }

  /// Worker-pool size. May be called at any time, including while the
  /// pool is running: growing spawns workers immediately, shrinking
  /// retires workers as they reach the top of their loop (an in-flight
  /// firing always completes). Morsel dispatch snapshots the count once
  /// per firing, so a resize never changes a firing's view mid-flight.
  Status set_num_workers(size_t n);
  size_t num_workers() const;

  size_t num_transitions() const;

  /// True when no transition is queued or firing. Basket sizes are
  /// lock-free reads that can observe the transient state inside a firing
  /// (inputs already taken, outputs not yet appended), so a drain test is
  /// `places empty && Idle()` — tokens in flight keep Idle() false.
  bool Idle() const;

  /// First error that stopped the worker pool (OK while healthy).
  Status last_error() const;

  /// Per-transition firing stats (dc_transitions). `firings` counts
  /// eligible firings (CanFire held and the body ran, worked or not);
  /// `latency` is the wall-clock body duration histogram; `rows_in` /
  /// `rows_out` are the token-movement deltas observed around firings
  /// (input-place consumed / output-place appended) — the live selectivity
  /// feed the cost-based optimizer reads. All come from the process-global
  /// registry (`transition.<name>.firings` / `.fire_us` / `.rows_in` /
  /// `.rows_out`), so same-named transitions share a row's counters.
  struct TransitionStats {
    std::string name;
    uint64_t firings = 0;
    uint64_t rows_in = 0;
    uint64_t rows_out = 0;
    obs::HistogramSnapshot latency;
    // Intra-firing parallelism: morsels dispatched by this transition's
    // firings (`transition.<name>.morsels`) and their per-morsel run time
    // (`.morsel_us`). Zero / empty when firings stay under the morsel
    // threshold or the pool runs a single worker.
    uint64_t morsels = 0;
    obs::HistogramSnapshot morsel_latency;
  };
  std::vector<TransitionStats> TransitionStatsSnapshot() const;

 private:
  // Per-transition scheduling state. Nodes are shared_ptr-owned by nodes_
  // so worker-loop scan vectors can hold them across the unlocked windows
  // where Unregister may run; a node unlinked from nodes_ stays alive
  // until the last scan drops it, and `removed` keeps it from ever being
  // enqueued again. The mutable fields (queued, firing, removed,
  // park_until, fired_in_round) are guarded by the scheduler's mu_; the
  // analysis cannot express a guard living in the owning object, so that
  // part of the contract is enforced by review plus the runtime rank
  // checker, not by annotations.
  struct Node {
    TransitionPtr t;
    std::vector<Basket*> places;       // sorted unique input ∪ output set
    // Distinct input/output place sets for the trace's consumed/produced
    // deltas, plus the name of the first input place (the trace trigger).
    // Immutable after Register, read without mu_.
    std::vector<BasketPtr> in_places;
    std::vector<BasketPtr> out_places;
    std::string trigger;
    // Registry metrics, resolved at Register (stable pointers; hot-path
    // updates are relaxed atomics).
    obs::Counter* firings_metric = nullptr;  // transition.<name>.firings
    obs::Histogram* fire_hist = nullptr;     // transition.<name>.fire_us
    obs::Counter* rows_in_metric = nullptr;  // transition.<name>.rows_in
    obs::Counter* rows_out_metric = nullptr;  // transition.<name>.rows_out
    obs::Counter* morsels_metric = nullptr;  // transition.<name>.morsels
    obs::Histogram* morsel_hist = nullptr;   // transition.<name>.morsel_us
    bool data_driven = false;          // has declared input places
    bool queued = false;               // in ready_
    bool firing = false;               // claimed by a worker
    bool removed = false;              // unregistered; never enqueue again
    Micros park_until = 0;             // poller back-off (threaded mode)
    uint64_t fired_in_round = 0;       // cooperative-round dedup marker
    // Listener registrations to undo on scheduler destruction.
    std::vector<std::pair<BasketPtr, size_t>> subscriptions;
  };

  // One firing's intra-transition morsel batch (DESIGN.md §12): published
  // to morsel_groups_ by the firing worker, drained work-stealing by idle
  // workers and the submitter itself, removed by the submitter once every
  // morsel completed. fn/n/morsel_rows/num_morsels and the metric pointers
  // are immutable after publication; next/done/error are guarded by mu_
  // (like Node's mutable fields, the analysis cannot express an external
  // guard, so the runtime rank checker enforces it).
  struct MorselGroup {
    const ops::MorselFn* fn = nullptr;
    size_t n = 0;
    size_t morsel_rows = 0;
    size_t num_morsels = 0;
    size_t next = 0;  // next unclaimed morsel index
    size_t done = 0;  // completed morsels
    Status error;     // first morsel error (claim-and-skip after)
    obs::Counter* morsels_metric = nullptr;
    obs::Histogram* morsel_hist = nullptr;
  };

  // The MorselExecutor a worker installs around Fire: forwards kernel
  // RunMorsels calls into the scheduler's worker pool with a per-firing
  // worker-count snapshot.
  class FiringMorselExecutor;

  // A basket watched by `node` changed; make the node claimable. Runs on
  // the signal path (basket lock held), so it must not already hold mu_.
  void OnPlaceSignal(Node* node) DC_EXCLUDES(mu_);
  void EnqueueLocked(Node* node) DC_REQUIRES(mu_);
  bool ConflictsLocked(const Node& node) const DC_REQUIRES(mu_);
  bool HasClaimableMorselLocked() const DC_REQUIRES(mu_);
  // Claims and runs pending morsels (any group) until none remain;
  // acquires mu_ itself and releases it around each morsel body.
  void DrainPendingMorsels() DC_EXCLUDES(mu_);
  // Publishes a group, participates in draining it, waits for completion
  // and returns the first morsel error. Called from a firing body (no
  // scheduler locks held).
  Status RunMorselGroup(MorselGroup* group) DC_EXCLUDES(mu_);

  void WorkerLoop();
  // Fires `node` if eligible. Returns whether the body did work; sets
  // *fired when CanFire held and the transition actually ran. Must run
  // with mu_ released: firing bodies take basket locks, which out-rank
  // the scheduler lock.
  Result<bool> FireIfEligible(Node* node, bool* fired) DC_EXCLUDES(mu_);

  // Set at construction, never reseated; Clock implementations are
  // internally synchronized.
  Clock* clock_ DC_UNGUARDED;

  mutable Mutex mu_{LockRank::kScheduler};
  CondVar cv_;
  std::vector<std::shared_ptr<Node>> nodes_ DC_GUARDED_BY(mu_);
  std::deque<Node*> ready_ DC_GUARDED_BY(mu_);
  std::unordered_set<Basket*> firing_places_ DC_GUARDED_BY(mu_);
  std::deque<MorselGroup*> morsel_groups_ DC_GUARDED_BY(mu_);
  size_t num_workers_ DC_GUARDED_BY(mu_);
  // Workers asked to exit by a live shrink; each retiree decrements at
  // the top of its loop and returns (Stop() joins the threads).
  size_t retiring_ DC_GUARDED_BY(mu_) = 0;
  uint64_t round_serial_ DC_GUARDED_BY(mu_) = 0;  // cooperative round counter
  Status error_ DC_GUARDED_BY(mu_) = Status::OK();
  // Joined outside mu_ (workers take mu_); Stop() moves the vector out
  // under the lock first.
  std::vector<std::thread> workers_ DC_GUARDED_BY(mu_);

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
};

}  // namespace datacell::core

#endif  // DATACELL_CORE_SCHEDULER_H_
