#include "core/scheduler.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/logging.h"

namespace datacell::core {

namespace {
// Poll cadence for self-scheduled transitions with no deadline (pull
// receptors), matching the seed scheduler's idle park.
constexpr Micros kPollIntervalMicros = 100;
// Upper bound on any idle wait: the fallback-sweep cadence that re-checks
// every transition the classic way, catching eligibility changes that
// bypassed the basket signal path (e.g. a clock advance gating a factory
// body).
constexpr Micros kIdleWaitMicros = 10'000;
constexpr Micros kMinParkMicros = 20;
}  // namespace

Scheduler::Scheduler(Clock* clock, size_t num_workers)
    : clock_(clock), num_workers_(std::max<size_t>(num_workers, 1)) {}

Scheduler::~Scheduler() {
  Stop();
  // Teardown is single-threaded once Stop() has joined the workers, so
  // nodes_ needs no lock here (and the analysis skips destructors anyway).
  for (const auto& node : nodes_) {
    for (const auto& [basket, id] : node->subscriptions) {
      basket->RemoveListener(id);
    }
  }
}

void Scheduler::Register(TransitionPtr transition) {
  auto node = std::make_shared<Node>();
  node->t = std::move(transition);
  node->in_places = node->t->input_places();
  node->out_places = node->t->output_places();
  const std::vector<BasketPtr>& inputs = node->in_places;
  const std::vector<BasketPtr>& outputs = node->out_places;
  node->data_driven = !inputs.empty();
  if (!inputs.empty()) node->trigger = inputs.front()->name();
  {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    const std::string prefix = "transition." + node->t->name() + ".";
    node->firings_metric = reg.GetCounter(prefix + "firings");
    node->fire_hist = reg.GetHistogram(prefix + "fire_us");
    node->rows_in_metric = reg.GetCounter(prefix + "rows_in");
    node->rows_out_metric = reg.GetCounter(prefix + "rows_out");
    node->morsels_metric = reg.GetCounter(prefix + "morsels");
    node->morsel_hist = reg.GetHistogram(prefix + "morsel_us");
  }
  node->places.reserve(inputs.size() + outputs.size());
  for (const BasketPtr& b : inputs) node->places.push_back(b.get());
  for (const BasketPtr& b : outputs) node->places.push_back(b.get());
  std::sort(node->places.begin(), node->places.end());
  node->places.erase(std::unique(node->places.begin(), node->places.end()),
                     node->places.end());

  Node* raw = node.get();
  {
    MutexLock lock(&mu_);
    nodes_.push_back(std::move(node));
  }
  // Subscribe outside mu_: AddListener takes the basket lock and the
  // listener itself takes mu_, so subscribing under mu_ would invert the
  // basket-then-scheduler lock order used on the signal path.
  std::unordered_set<Basket*> seen;
  for (const BasketPtr& b : inputs) {
    if (!seen.insert(b.get()).second) continue;
    const size_t id = b->AddListener([this, raw] { OnPlaceSignal(raw); });
    raw->subscriptions.emplace_back(b, id);
  }
  // A new transition starts ready: its places may already hold tokens.
  OnPlaceSignal(raw);
}

Status Scheduler::Unregister(const TransitionPtr& transition) {
  std::shared_ptr<Node> node;
  {
    MutexLock lock(&mu_);
    for (auto it = nodes_.begin(); it != nodes_.end(); ++it) {
      if ((*it)->t == transition) {
        node = *it;
        nodes_.erase(it);
        break;
      }
    }
    if (node == nullptr) {
      return Status::NotFound("transition '" + transition->name() +
                              "' is not registered");
    }
    node->removed = true;  // EnqueueLocked ignores it from here on
    node->queued = false;
    for (auto it = ready_.begin(); it != ready_.end();) {
      it = (*it == node.get()) ? ready_.erase(it) : it + 1;
    }
  }
  // Unsubscribe outside mu_, mirroring Register: RemoveListener takes the
  // basket lock, and the signal path holds basket-then-scheduler. After
  // this returns no listener can re-signal the node (Touch invokes
  // listeners under the basket lock RemoveListener just held).
  for (const auto& [basket, id] : node->subscriptions) {
    basket->RemoveListener(id);
  }
  node->subscriptions.clear();
  {
    // Threaded mode: a worker may have claimed the node before we marked
    // it removed; wait for that firing to finish so the caller can safely
    // tear down whatever the body touches.
    MutexLock lock(&mu_);
    while (node->firing) cv_.Wait(&mu_);
  }
  return Status::OK();
}

void Scheduler::OnPlaceSignal(Node* node) {
  MutexLock lock(&mu_);
  EnqueueLocked(node);
}

void Scheduler::EnqueueLocked(Node* node) {
  if (node->removed) return;
  node->park_until = 0;
  if (node->queued) return;
  node->queued = true;
  ready_.push_back(node);
  cv_.NotifyOne();
}

bool Scheduler::ConflictsLocked(const Node& node) const {
  if (node.firing) return true;
  for (Basket* b : node.places) {
    if (firing_places_.count(b) > 0) return true;
  }
  return false;
}

size_t Scheduler::num_transitions() const {
  MutexLock lock(&mu_);
  return nodes_.size();
}

bool Scheduler::Idle() const {
  MutexLock lock(&mu_);
  if (!ready_.empty()) return false;
  for (const auto& n : nodes_) {
    if (n->firing) return false;
  }
  return true;
}

Status Scheduler::set_num_workers(size_t n) {
  if (n == 0) return Status::InvalidArgument("worker count must be >= 1");
  MutexLock lock(&mu_);
  if (!running_.load() || stop_requested_.load()) {
    // Stopped (or stopping: Stop() has already moved workers_ out for the
    // join, so spawning here would leak a joinable thread). Next Start()
    // picks up the new size.
    num_workers_ = n;
    return Status::OK();
  }
  if (n > num_workers_) {
    const size_t grow = n - num_workers_;
    // Recall pending retirements first: a retiree that has not yet reached
    // the top of its loop can simply keep working.
    const size_t recalled = std::min(retiring_, grow);
    retiring_ -= recalled;
    for (size_t i = 0; i < grow - recalled; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  } else if (n < num_workers_) {
    retiring_ += num_workers_ - n;
    cv_.NotifyAll();  // wake parked workers so retirees exit promptly
  }
  num_workers_ = n;
  return Status::OK();
}

size_t Scheduler::num_workers() const {
  MutexLock lock(&mu_);
  return num_workers_;
}

Status Scheduler::last_error() const {
  MutexLock lock(&mu_);
  return error_;
}

namespace {

// Token movement observed around one firing: input places count consumed
// tuples, output places count appended. Relaxed reads; concurrent firings
// on disjoint places cannot touch these baskets (the conflict rule), so
// the deltas attribute cleanly to this firing.
struct PlaceCounts {
  uint64_t consumed = 0;
  uint64_t appended = 0;
};

PlaceCounts ScanPlaces(const std::vector<BasketPtr>& in,
                       const std::vector<BasketPtr>& out) {
  PlaceCounts c;
  for (const BasketPtr& b : in) c.consumed += b->consumed();
  for (const BasketPtr& b : out) c.appended += b->appended();
  return c;
}

}  // namespace

Result<bool> Scheduler::FireIfEligible(Node* node, bool* fired) {
  *fired = false;
  const Micros now = clock_->Now();
  if (!node->t->CanFire(now)) return false;
  *fired = true;
  // The always-on cost per firing: one wall-clock pair (the first read is
  // `now` itself when the scheduler runs on the wall clock), one scan of
  // the place counters before and after, up to four counter increments
  // and one histogram record. The row deltas are unconditional because
  // the cost-based optimizer reads per-transition rows_in/rows_out as its
  // live selectivity feed; the measured time also feeds the transition's
  // own stats (Transition::RecordExec).
  obs::TraceLog& trace = obs::TraceLog::Global();
  const bool tracing = trace.enabled();
  const PlaceCounts before = ScanPlaces(node->in_places, node->out_places);
  SystemClock* wall = SystemClock::Get();
  const Micros fire_start = clock_ == wall ? now : wall->Now();
  Result<bool> worked = node->t->Fire(now);
  const Micros duration = wall->Now() - fire_start;
  const PlaceCounts after = ScanPlaces(node->in_places, node->out_places);
  const uint64_t rows_in = after.consumed - before.consumed;
  const uint64_t rows_out = after.appended - before.appended;
  if (worked.ok()) node->t->RecordExec(duration);
  node->firings_metric->Increment();
  node->fire_hist->Record(duration);
  if (rows_in > 0) node->rows_in_metric->Increment(rows_in);
  if (rows_out > 0) node->rows_out_metric->Increment(rows_out);
  if (tracing) {
    obs::TraceEvent e;
    e.at = now;
    e.transition = node->t->name();
    e.trigger = node->trigger;
    e.rows_in = rows_in;
    e.rows_out = rows_out;
    e.duration_us = duration;
    trace.Record(std::move(e));
  }
  return worked;
}

std::vector<Scheduler::TransitionStats> Scheduler::TransitionStatsSnapshot()
    const {
  std::vector<TransitionStats> out;
  MutexLock lock(&mu_);
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    TransitionStats ts;
    ts.name = node->t->name();
    ts.firings = node->firings_metric->value();
    ts.rows_in = node->rows_in_metric->value();
    ts.rows_out = node->rows_out_metric->value();
    ts.latency = node->fire_hist->Snapshot();
    ts.morsels = node->morsels_metric->value();
    ts.morsel_latency = node->morsel_hist->Snapshot();
    out.push_back(std::move(ts));
  }
  return out;
}

Result<bool> Scheduler::RunOnce() {
  // Drain the ready set in registration order. Self-scheduled transitions
  // (no input places: pull receptors, metronomes) never receive basket
  // signals, so they join every round — exactly the seed poll loop's view
  // of them.
  // The round/sweep vectors hold shared_ptr copies: firing happens with
  // mu_ released, and a concurrent Unregister may unlink a node while this
  // round still references it (the removed flag keeps it from re-queueing).
  std::vector<std::shared_ptr<Node>> round;
  uint64_t serial;
  {
    MutexLock lock(&mu_);
    serial = ++round_serial_;
    round.reserve(nodes_.size());
    for (const auto& n : nodes_) {
      if (n->queued || !n->data_driven) {
        n->queued = false;
        round.push_back(n);
      }
    }
    ready_.clear();
  }
  // Firing happens outside mu_ so Register from another thread never blocks
  // behind a long factory body.
  bool any_work = false;
  for (const auto& n : round) {
    bool fired = false;
    ASSIGN_OR_RETURN(bool worked, FireIfEligible(n.get(), &fired));
    if (fired) n->fired_in_round = serial;
    any_work = any_work || worked;
  }
  if (any_work) return true;

  // Safety sweep: the ready set produced no work, so fall back to the
  // classic full scan before declaring the round idle. This keeps the
  // seed's exact quiescence semantics even for eligibility changes that
  // bypass basket signals (e.g. clock advances gating a factory body).
  std::vector<std::shared_ptr<Node>> sweep;
  {
    MutexLock lock(&mu_);
    sweep.reserve(nodes_.size());
    for (const auto& n : nodes_) {
      if (n->fired_in_round != serial) sweep.push_back(n);
    }
  }
  for (const auto& n : sweep) {
    bool fired = false;
    ASSIGN_OR_RETURN(bool worked, FireIfEligible(n.get(), &fired));
    any_work = any_work || worked;
  }
  return any_work;
}

Result<size_t> Scheduler::RunUntilQuiescent(size_t max_rounds) {
  size_t rounds = 0;
  while (rounds < max_rounds) {
    ASSIGN_OR_RETURN(bool worked, RunOnce());
    if (!worked) break;
    ++rounds;
  }
  return rounds;
}

// Forwards kernel RunMorsels calls issued inside a firing body into the
// scheduler's worker pool. parallelism() reports the worker count
// snapshotted when the firing was claimed, so a concurrent resize never
// changes a firing's dispatch decision mid-flight.
class Scheduler::FiringMorselExecutor : public ops::MorselExecutor {
 public:
  FiringMorselExecutor(Scheduler* scheduler, Node* node, size_t parallelism)
      : scheduler_(scheduler), node_(node), parallelism_(parallelism) {}

  Status Run(size_t n, size_t morsel_rows, const ops::MorselFn& fn) override {
    MorselGroup group;
    group.fn = &fn;
    group.n = n;
    group.morsel_rows = morsel_rows;
    group.num_morsels = ops::NumMorsels(n, morsel_rows);
    group.morsels_metric = node_->morsels_metric;
    group.morsel_hist = node_->morsel_hist;
    return scheduler_->RunMorselGroup(&group);
  }

  size_t parallelism() const override { return parallelism_; }

 private:
  Scheduler* scheduler_;
  Node* node_;
  size_t parallelism_;
};

bool Scheduler::HasClaimableMorselLocked() const {
  for (const MorselGroup* g : morsel_groups_) {
    if (g->next < g->num_morsels) return true;
  }
  return false;
}

void Scheduler::DrainPendingMorsels() {
  MutexLock lock(&mu_);
  for (;;) {
    MorselGroup* g = nullptr;
    for (MorselGroup* cand : morsel_groups_) {
      if (cand->next < cand->num_morsels) {
        g = cand;
        break;
      }
    }
    if (g == nullptr) return;
    const size_t m = g->next++;
    const size_t begin = m * g->morsel_rows;
    const size_t end = std::min(begin + g->morsel_rows, g->n);
    const ops::MorselFn* fn = g->fn;
    const bool skip = !g->error.ok();  // claim-and-skip after first error
    lock.Unlock();
    // The group outlives every claim: RunMorselGroup returns only once
    // done == num_morsels, so fn and the metric pointers stay valid here.
    Status st = Status::OK();
    SystemClock* wall = SystemClock::Get();
    const Micros start = wall->Now();
    if (!skip) {
      // Morsel bodies must not re-enter the pool: a nested RunMorsels
      // inside a morsel runs inline on the same grid.
      ops::ScopedMorselExecutor inline_only(nullptr);
      st = (*fn)(m, begin, end);
    }
    const Micros duration = wall->Now() - start;
    if (g->morsels_metric != nullptr) g->morsels_metric->Increment();
    if (g->morsel_hist != nullptr) g->morsel_hist->Record(duration);
    lock.Lock();
    if (!st.ok() && g->error.ok()) g->error = st;
    // The finisher of the last morsel wakes the submitter (and anyone
    // parked in Unregister; spurious wakes are harmless).
    if (++g->done == g->num_morsels) cv_.NotifyAll();
  }
}

Status Scheduler::RunMorselGroup(MorselGroup* group) {
  if (group->num_morsels == 0) return Status::OK();
  {
    MutexLock lock(&mu_);
    morsel_groups_.push_back(group);
    cv_.NotifyAll();  // wake idle workers to steal
  }
  DrainPendingMorsels();  // the submitter always participates
  MutexLock lock(&mu_);
  while (group->done < group->num_morsels) cv_.Wait(&mu_);
  for (auto it = morsel_groups_.begin(); it != morsel_groups_.end(); ++it) {
    if (*it == group) {
      morsel_groups_.erase(it);
      break;
    }
  }
  return group->error;
}

Status Scheduler::Start() {
  MutexLock lock(&mu_);
  if (running_.load()) return Status::Internal("scheduler already running");
  stop_requested_.store(false);
  error_ = Status::OK();
  retiring_ = 0;
  running_.store(true);
  workers_.reserve(num_workers_);
  for (size_t i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void Scheduler::Stop() {
  // Move the worker threads out under the lock, join them without it:
  // workers take mu_ on every iteration, so joining under mu_ would
  // deadlock.
  std::vector<std::thread> workers;
  {
    MutexLock lock(&mu_);
    stop_requested_.store(true);
    workers = std::move(workers_);
    workers_.clear();
  }
  cv_.NotifyAll();
  for (std::thread& w : workers) {
    if (w.joinable()) w.join();
  }
  running_.store(false);
}

void Scheduler::WorkerLoop() {
  MutexLock lock(&mu_);
  while (!stop_requested_.load()) {
    if (retiring_ > 0) {
      // A live shrink asked for fewer workers: exit at a loop boundary
      // (never mid-firing or mid-morsel). Stop() joins the thread.
      --retiring_;
      return;
    }
    // Intra-firing parallelism: help finish in-flight morsel batches
    // before claiming a new transition.
    if (HasClaimableMorselLocked()) {
      lock.Unlock();
      DrainPendingMorsels();
      lock.Lock();
      continue;
    }
    // Claim the oldest ready transition whose place set is disjoint from
    // everything currently firing. No basket is touched under mu_.
    Node* claimed = nullptr;
    for (auto it = ready_.begin(); it != ready_.end(); ++it) {
      if (!ConflictsLocked(**it)) {
        claimed = *it;
        ready_.erase(it);
        break;
      }
    }
    if (claimed != nullptr) {
      claimed->queued = false;
      claimed->firing = true;
      for (Basket* b : claimed->places) firing_places_.insert(b);
      const size_t pool_size = num_workers_;  // per-firing snapshot
      lock.Unlock();

      bool fired = false;
      Result<bool> worked = false;
      {
        // Kernels inside the firing body split large spans into morsels
        // and dispatch them to the pool — but only when a second worker
        // could actually steal them; alone, they run inline on the same
        // grid (byte-identical results either way, see DESIGN.md §12).
        FiringMorselExecutor executor(this, claimed, pool_size);
        ops::ScopedMorselExecutor scoped(pool_size > 1 ? &executor : nullptr);
        worked = FireIfEligible(claimed, &fired);
      }

      lock.Lock();
      claimed->firing = false;
      // Unregister blocks on `firing` with an untimed wait; if the node was
      // unlinked while we fired, that waiter is the only party interested
      // in this transition and must be woken explicitly.
      if (claimed->removed) cv_.NotifyAll();
      for (Basket* b : claimed->places) firing_places_.erase(b);
      if (!worked.ok()) {
        DC_LOG(Error) << "scheduler worker stopping on error: "
                      << worked.status().ToString();
        if (error_.ok()) error_ = worked.status();
        stop_requested_.store(true);
        running_.store(false);
        cv_.NotifyAll();
        break;
      }
      if (fired && *worked) {
        // It produced: it may be able to fire again. Data-driven nodes
        // usually re-signal themselves by consuming input, but pollers
        // (no input places) only come back through here.
        EnqueueLocked(claimed);
      } else if (!claimed->data_driven && fired) {
        // Dry poll: back off instead of spinning on the source.
        claimed->park_until = clock_->Now() + kPollIntervalMicros;
      }
      // A completed firing may unblock conflicting ready transitions.
      if (!ready_.empty()) cv_.NotifyAll();
      continue;
    }

    if (!ready_.empty()) {
      // Everything ready conflicts with an in-flight firing; its
      // completion will notify.
      cv_.Wait(&mu_);
      continue;
    }

    // Idle: poll self-scheduled transitions and compute the wait bound.
    // Scan vectors hold shared_ptr copies: the scan runs with mu_ released
    // and a concurrent Unregister may unlink a node mid-scan (EnqueueLocked
    // drops removed nodes on relock, so a stale hit is harmless).
    std::vector<std::pair<std::shared_ptr<Node>, Micros>> self;
    for (const auto& n : nodes_) {
      if (!n->data_driven && !n->queued && !n->firing) {
        self.emplace_back(n, n->park_until);
      }
    }
    lock.Unlock();
    const Micros now = clock_->Now();
    Micros wait = kIdleWaitMicros;
    std::vector<std::shared_ptr<Node>> due;
    for (const auto& [n, park_until] : self) {
      const Micros dl = n->t->next_deadline(now);
      if (dl == kNoDeadline) {
        if (now >= park_until) {
          if (n->t->CanFire(now)) due.push_back(n);
        } else {
          wait = std::min(wait, park_until - now);
        }
      } else if (dl <= now) {
        due.push_back(n);
      } else {
        wait = std::min(wait, dl - now);
      }
    }
    lock.Lock();
    if (stop_requested_.load()) break;
    if (!due.empty()) {
      for (const auto& n : due) EnqueueLocked(n.get());
      continue;
    }
    if (!ready_.empty()) continue;  // a signal arrived while we scanned
    const bool notified =
        cv_.WaitFor(&mu_, std::clamp(wait, kMinParkMicros, kIdleWaitMicros));
    if (stop_requested_.load()) break;
    if (!ready_.empty() || notified) continue;

    // Fallback sweep (see kIdleWaitMicros): re-check data-driven
    // transitions that might have become eligible without a signal.
    std::vector<std::shared_ptr<Node>> sweep;
    for (const auto& n : nodes_) {
      if (n->data_driven && !n->queued && !n->firing) sweep.push_back(n);
    }
    lock.Unlock();
    const Micros snow = clock_->Now();
    std::vector<std::shared_ptr<Node>> hits;
    for (const auto& n : sweep) {
      if (n->t->CanFire(snow)) hits.push_back(n);
    }
    lock.Lock();
    for (const auto& n : hits) EnqueueLocked(n.get());
  }
}

}  // namespace datacell::core
