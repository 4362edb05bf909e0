#include "sql/plan/optimizer.h"

#include <algorithm>
#include <set>
#include <utility>

#include "column/recycler.h"
#include "expr/eval.h"
#include "ops/morsel.h"
#include "sql/plan/rewrite.h"
#include "util/logging.h"

namespace datacell::sql::plan {

namespace {

std::string LeafBasketName(const std::string& query) {
  return "mqo.q." + query;
}

std::string ReplicaBasketName(const std::string& query,
                              const std::string& basket) {
  return "mqo.q." + query + "." + basket;
}

// Teardown paths unregister factories that this optimizer registered, so a
// failure (NotFound = already unregistered) is an invariant break worth a
// log line — but never worth abandoning a swap halfway through, which
// would strand the surviving queries without a net.
void UnregisterOrWarn(core::Scheduler& scheduler,
                      const core::FactoryPtr& factory, const char* where) {
  if (Status st = scheduler.Unregister(factory); !st.ok()) {
    DC_LOG(Warn) << "optimizer " << where
                 << ": unregister failed: " << st.ToString();
  }
}

std::shared_ptr<obs::PlanCounters> CountersFor(
    std::map<std::string, std::shared_ptr<obs::PlanCounters>>* map,
    const std::string& key) {
  std::shared_ptr<obs::PlanCounters>& slot = (*map)[key];
  if (slot == nullptr) slot = std::make_shared<obs::PlanCounters>();
  return slot;
}

}  // namespace

QuerySetOptimizer::QuerySetOptimizer(core::Engine* engine,
                                     FactoryBuilder builder)
    : engine_(engine), build_factory_(std::move(builder)) {}

QuerySetOptimizer::~QuerySetOptimizer() {
  // The roots first: once none fires, no inlined chain runs and no leaf or
  // replica basket is fed. Then each query goes as a removal takes it.
  for (const auto& [basket, net] : subnets_) {
    if (net.root != nullptr) {
      UnregisterOrWarn(engine_->scheduler(), net.root, "teardown");
    }
  }
  for (const auto& [name, q] : queries_) {
    if (Status st = Retire(name, q); !st.ok()) {
      DC_LOG(Warn) << "optimizer teardown: " << st.ToString();
    }
  }
}

// Takes every delivered row once and walks the trie level by level. A
// node's survivors are a selection over the delivered batch, and its
// children evaluate their conjuncts over the batch with it as candidates.
// Once a level's nodes are done, every leaf basket of the level gets
// exactly one AppendAligned, from the firing thread, and every inlined
// chain of the level runs once on its node's survivors, reading the
// selection. A node's rows are gathered into a table once, and only for
// its leaf baskets.
Status QuerySetOptimizer::Walk(const Trie& trie, WalkScratch* scratch,
                               core::FactoryContext& ctx) {
  const std::vector<Trie::Node>& nodes = trie.nodes;
  const Table batch = ctx.input(0).TakeAll();
  if (batch.num_rows() == 0) return Status::OK();
  // One clock read per firing: every conjunct and chain sees its time.
  const EvalContext ectx = ctx.eval();
  WalkScratch& w = *scratch;
  if (w.kept.size() != nodes.size()) {
    w.sel.assign(2 * nodes.size(), SelVector());
    w.kept.assign(nodes.size(), Kept());
    w.out.assign(nodes.size(), Table());
    w.steps.assign(trie.steps.size(), StepRows());
    w.feeds.assign(trie.num_conjuncts, StepRows());
  }
  auto input_of = [&](size_t i) {
    return i == 0 ? Kept{nullptr, batch.num_rows()} : w.kept[nodes[i].parent];
  };
  auto eval = [&](size_t i) -> Status {
    const Trie::Node& node = nodes[i];
    RETURN_NOT_OK(EvalNode(node, trie.conjuncts(node), batch, input_of(i),
                           ectx, &w.sel[2 * i], &w.sel[2 * i + 1],
                           w.steps.data() + node.steps, &w.kept[i]));
    const Kept& kept = w.kept[i];
    if (node.gathers && kept.rows > 0) {
      w.out[i] = kept.sel == nullptr ? batch : batch.Take(*kept.sel);
    }
    return Status::OK();
  };
  // Gathered tables share the leaves' buffers once appended, so none may
  // outlive the firing: a leaf's next write would copy them instead.
  // Small selections keep their capacity for the next firing; a bulk
  // delivery's large ones go back to the recycler, where the next bulk
  // delivery (of this or any other transition) takes them again.
  auto release = [&]() {
    for (Table& t : w.out) {
      if (t.num_columns() > 0) t = Table();
    }
    for (SelVector& v : w.sel) recycler::Park(&v);
    PublishSteps(trie, &w);
  };
  // An inlined chain reads only its node's survivors and takes no basket
  // lock, and each query has one chain per firing, so its sink sees its
  // batches in delivery order.
  auto run_inlined = [&](size_t k) -> Status {
    const Trie::Inlined& leaf = trie.inlined[k];
    const Kept& kept = w.kept[leaf.node];
    if (kept.rows == 0) return Status::OK();
    leaf.counters->rows_in.fetch_add(kept.rows, std::memory_order_relaxed);
    ASSIGN_OR_RETURN(const size_t emitted,
                     (*leaf.run)(batch, kept.sel, ectx.now));
    if (emitted > 0) {
      leaf.counters->rows_out.fetch_add(emitted, std::memory_order_relaxed);
    }
    return Status::OK();
  };
  // Tasks that only read what the walk no longer writes and write their
  // own slots: `n` of them over `rows` rows in all run on the scheduler's
  // pool when there is more than one and they span a morsel or more.
  auto fan_out = [](size_t n, size_t rows, const auto& task) -> Status {
    ops::MorselExecutor* exec = ops::CurrentMorselExecutor();
    if (n > 1 && rows >= ops::kMorselRows && exec != nullptr &&
        exec->parallelism() > 1) {
      return exec->Run(n, 1, [&](size_t m, size_t, size_t) {
        return task(m);
      });
    }
    for (size_t m = 0; m < n; ++m) RETURN_NOT_OK(task(m));
    return Status::OK();
  };
  Status st = Status::OK();
  for (size_t begin = 0, end = 0; st.ok() && begin < nodes.size();
       begin = end) {
    size_t rows = 0;
    for (end = begin; end < nodes.size() &&
                      nodes[end].level == nodes[begin].level;
         ++end) {
      rows += input_of(end).rows;
    }
    // Siblings only read their parents' selections and write their own
    // slots.
    st = fan_out(end - begin, rows, [&](size_t m) { return eval(begin + m); });
    for (size_t i = begin; i < end && st.ok(); ++i) {
      if (w.kept[i].rows == 0) continue;
      for (core::Basket* leaf : trie.leaves_of(nodes[i])) {
        Result<size_t> appended = leaf->AppendAligned(w.out[i], ectx.now);
        if (!appended.ok()) {
          st = appended.status();
          break;
        }
      }
    }
    const size_t first = nodes[begin].inlined;
    const size_t last = nodes[end - 1].inlined_end;
    size_t inlined_rows = 0;
    for (size_t k = first; k < last; ++k) {
      inlined_rows += w.kept[trie.inlined[k].node].rows;
    }
    if (st.ok()) {
      st = fan_out(last - first, inlined_rows,
                   [&](size_t m) { return run_inlined(first + m); });
    }
    // The level's gathered survivors have no readers left: children read
    // the selections.
    for (size_t i = begin; i < end; ++i) {
      if (w.out[i].num_columns() > 0) w.out[i] = Table();
    }
  }
  release();
  return st;
}

Status QuerySetOptimizer::EvalNode(const Trie::Node& node,
                                   std::span<const Trie::Step> conjuncts,
                                   const Table& batch, Kept in,
                                   const EvalContext& ectx, SelVector* a,
                                   SelVector* b, StepRows* rows, Kept* out) {
  *out = Kept();
  if (in.rows == 0) return Status::OK();
  node.counters->rows_in.fetch_add(in.rows, std::memory_order_relaxed);
  // While every row of the batch survives, the next conjunct runs over the
  // whole batch, where the dense compare kernel applies; after that, over
  // the latest selection as candidates, which `a` never is.
  Kept cur = in;
  for (size_t k = 0; k < conjuncts.size() && cur.rows > 0; ++k) {
    rows[k].in = cur.rows;
    RETURN_NOT_OK(
        EvalPredicateInto(batch, *conjuncts[k].expr, cur.sel, ectx, a));
    cur = Kept{a->size() == batch.num_rows() ? nullptr : a, a->size()};
    std::swap(a, b);
    rows[k].out = cur.rows;
  }
  if (cur.rows > 0) {
    node.counters->rows_out.fetch_add(cur.rows, std::memory_order_relaxed);
  }
  *out = cur;
  return Status::OK();
}

void QuerySetOptimizer::PublishSteps(const Trie& trie, WalkScratch* scratch) {
  std::vector<StepRows>& steps = scratch->steps;
  std::vector<StepRows>& feeds = scratch->feeds;
  for (size_t k = 0; k < steps.size(); ++k) {
    feeds[trie.steps[k].id].in += steps[k].in;
    feeds[trie.steps[k].id].out += steps[k].out;
    steps[k] = StepRows();
  }
  for (const Trie::Step& step : trie.steps) {
    StepRows& f = feeds[step.id];
    if (f.in == 0) continue;
    step.counters->rows_in.fetch_add(f.in, std::memory_order_relaxed);
    if (f.out > 0) {
      step.counters->rows_out.fetch_add(f.out, std::memory_order_relaxed);
    }
    f = StepRows();
  }
}

Result<core::FactoryPtr> QuerySetOptimizer::AddQuery(
    const std::string& name, std::shared_ptr<Statement> stmt,
    core::Emitter::Sink sink) {
  if (queries_.count(name) > 0) {
    return Status::AlreadyExists("continuous query already registered: " +
                                 name);
  }
  QueryInfo info;
  info.stmt = stmt;
  info.sink = std::move(sink);
  if (sharing_enabled_) {
    Result<CompiledQuery> compiled =
        CompileContinuous(engine_, name, stmt, cost_);
    if (compiled.ok()) {
      info.cq = std::move(*compiled);
      info.direct = false;
      RETURN_NOT_OK(AddShared(name, std::move(info)));
      const QueryInfo& q = queries_.at(name);
      if (q.run != nullptr) return subnets_.at(q.cq.source_basket).root;
    } else {
      RETURN_NOT_OK(AddReplicated(name, std::move(info)));
    }
    return queries_.at(name).factory;
  }
  RETURN_NOT_OK(AddDirect(name, std::move(info)));
  return queries_.at(name).factory;
}

Status QuerySetOptimizer::AddDirect(const std::string& name, QueryInfo info) {
  ASSIGN_OR_RETURN(BuiltQuery built,
                   build_factory_(name, info.stmt, info.sink, false));
  info.factory = std::move(built.factory);
  info.pipeline = std::move(built.pipeline);
  engine_->scheduler().Register(info.factory);
  PublishDirect(name, info.pipeline);
  queries_[name] = std::move(info);
  return Status::OK();
}

Status QuerySetOptimizer::AddReplicated(const std::string& name,
                                        QueryInfo info) {
  std::vector<std::string> read;
  CollectBasketSources(*info.stmt, &read);
  std::sort(read.begin(), read.end());
  read.erase(std::unique(read.begin(), read.end()), read.end());
  auto drop_replicas = [&] {
    for (const auto& [basket, leaf] : info.replicas) {
      if (Status st = engine_->DropBasket(ReplicaBasketName(name, basket));
          !st.ok()) {
        DC_LOG(Warn) << "optimizer AddQuery rollback: drop replica failed: "
                     << st.ToString();
      }
    }
  };
  std::map<std::string, std::string> redirect;
  std::vector<core::BasketPtr> sources;
  for (const std::string& basket : read) {
    Result<core::BasketPtr> source = engine_->GetBasket(basket);
    Result<core::BasketPtr> leaf =
        source.ok() ? engine_->CreateBasket(ReplicaBasketName(name, basket),
                                            (*source)->schema(),
                                            /*add_arrival_ts=*/false)
                    : source;
    if (!leaf.ok()) {
      drop_replicas();
      return leaf.status();
    }
    sources.push_back(*source);
    info.replicas[basket] = *leaf;
    redirect[basket] = ReplicaBasketName(name, basket);
  }
  info.stmt = RedirectBasketSources(*info.stmt, redirect);
  Result<BuiltQuery> built = build_factory_(name, info.stmt, info.sink, false);
  if (!built.ok()) {
    drop_replicas();
    return built.status();
  }
  info.factory = std::move(built->factory);
  info.pipeline = std::move(built->pipeline);
  QueryInfo& q = queries_[name] = std::move(info);
  // Every source is resolved, so nothing below fails.
  for (size_t i = 0; i < read.size(); ++i) {
    NetFor(read[i]).replicas[name] = q.replicas.at(read[i]);
    SwapRoot(read[i], sources[i], nullptr);
  }
  engine_->scheduler().Register(q.factory);
  PublishDirect(name, q.pipeline);
  return Status::OK();
}

Status QuerySetOptimizer::AddShared(const std::string& name, QueryInfo info) {
  const std::string basket = info.cq.source_basket;  // survives the move below
  ASSIGN_OR_RETURN(core::BasketPtr source, engine_->GetBasket(basket));
  // The leaf runs the statement minus every conjunct the trie evaluates on
  // the way to it: all of its shared ones, wherever the layout puts them,
  // so the leaf stays as built while the query stands.
  std::set<std::string> strip;
  if (factoring_enabled_) {
    for (const Conjunct& c : info.cq.shared) strip.insert(c.fp);
  }
  // The leaf statement decides, before anything is prepared, whether the
  // leaf keeps state across firings. One that keeps none needs no basket
  // of its own: the root runs its chain. Either way it is prepared once.
  ASSIGN_OR_RETURN(std::shared_ptr<Statement> leaf_stmt,
                   MakeLeafStatement(engine_, info.cq, basket, strip));
  const bool pass_through = PassThroughLeaf(*leaf_stmt);
  BuiltQuery built;
  if (pass_through) {
    ASSIGN_OR_RETURN(built, build_factory_(name, leaf_stmt, info.sink, true));
  }
  if (built.run != nullptr) {
    info.run = std::move(built.run);
    info.run_counters = std::make_shared<obs::PlanCounters>();
    info.run_counters->shared_by.store(1, std::memory_order_relaxed);
  } else {
    // A builder that inlined nothing may keep the statement it was given.
    if (pass_through) leaf_stmt = CloneStatement(*leaf_stmt);
    RetargetLeaf(leaf_stmt.get(), LeafBasketName(name));
    ASSIGN_OR_RETURN(
        info.leaf,
        engine_->CreateBasket(LeafBasketName(name), source->schema(),
                              /*add_arrival_ts=*/false));
    Result<BuiltQuery> leaf = build_factory_(name, leaf_stmt, info.sink, false);
    if (!leaf.ok()) {
      // The old net was never touched: only the new leaf basket is undone.
      if (Status st = engine_->DropBasket(LeafBasketName(name)); !st.ok()) {
        DC_LOG(Warn) << "optimizer AddQuery rollback: drop leaf basket failed: "
                     << st.ToString();
      }
      return leaf.status();
    }
    built = std::move(*leaf);
    info.factory = std::move(built.factory);
  }
  info.pipeline = std::move(built.pipeline);
  QueryInfo& q = queries_[name] = std::move(info);
  Join(&NetFor(basket), name, &q);
  SwapRoot(basket, source, q.factory);
  return Status::OK();
}

Status QuerySetOptimizer::RemoveQuery(const std::string& name) {
  auto it = queries_.find(name);
  if (it == queries_.end()) {
    return Status::NotFound("no such continuous query: " + name);
  }
  QueryInfo& q = it->second;
  // The nets this query rides get a new root without it. Their sources are
  // resolved first: a net that cannot be rebuilt leaves it, and the old
  // nets, running.
  std::vector<std::string> nets;
  if (!q.direct) nets.push_back(q.cq.source_basket);
  for (const auto& [basket, leaf] : q.replicas) nets.push_back(basket);
  std::vector<core::BasketPtr> sources;
  for (const std::string& basket : nets) {
    const Subnet& net = subnets_.at(basket);
    core::BasketPtr source;
    if (net.members.size() + net.replicas.size() > 1) {
      ASSIGN_OR_RETURN(source, engine_->GetBasket(basket));
    }
    sources.push_back(std::move(source));
  }
  for (size_t i = 0; i < nets.size(); ++i) {
    Subnet& net = subnets_.at(nets[i]);
    if (q.direct) {
      net.replicas.erase(name);
    } else {
      Leave(&net, name, &q);
    }
    SwapRoot(nets[i], sources[i], nullptr);
  }
  Status dropped = Retire(name, q);
  queries_.erase(it);
  return dropped;
}

Status QuerySetOptimizer::Retire(const std::string& name, const QueryInfo& q) {
  if (q.factory != nullptr) {
    UnregisterOrWarn(engine_->scheduler(), q.factory, "Retire");
  }
  obs::PlansRegistry::Global().Retract(name);
  Status dropped;
  if (q.leaf != nullptr) {
    peak_retired_ = std::max(peak_retired_, q.leaf->stats().peak_rows);
    dropped = engine_->DropBasket(LeafBasketName(name));
  }
  for (const auto& [basket, leaf] : q.replicas) {
    peak_retired_ = std::max(peak_retired_, leaf->stats().peak_rows);
    Status st = engine_->DropBasket(ReplicaBasketName(name, basket));
    if (dropped.ok()) dropped = st;
  }
  return dropped;
}

QuerySetOptimizer::Subnet& QuerySetOptimizer::NetFor(
    const std::string& basket) {
  auto [it, fresh] = subnets_.try_emplace(basket);
  Subnet& net = it->second;
  if (fresh) {
    net.basket = basket;
    net.est_epoch = cost_epoch_;
    net.trie.id = next_proto_id_++;
    net.trie.name = "mqo." + basket + ".root";
    net.trie.counters = CountersFor(&node_counters_, net.trie.name);
  }
  return net;
}

void QuerySetOptimizer::Join(Subnet* net, const std::string& name,
                             QueryInfo* q) {
  if (factoring_enabled_) {
    for (const Conjunct& c : q->cq.shared) {
      auto [at, fresh] = net->ids.try_emplace(c.fp, 0);
      if (fresh) {
        if (net->free_ids.empty()) {
          at->second = static_cast<uint32_t>(net->conjs.size());
          net->conjs.emplace_back();
        } else {
          at->second = net->free_ids.back();
          net->free_ids.pop_back();
        }
        SharedConjunct& s = net->conjs[at->second];
        s.c = c;
        s.c.est_sel = cost_.EstimateSelectivity(*c.expr, c.fp);
        s.counters = CountersFor(&conjunct_counters_, c.fp);
      }
      SharedConjunct& s = net->conjs[at->second];
      ++s.share;
      s.users.insert(name);
      q->path.push_back(at->second);
    }
  }
  net->members.emplace(name, q);
  if (net->est_epoch != cost_epoch_) {
    Replan(net);
    return;
  }
  // Only members sharing a conjunct with the new one see a count change.
  std::set<std::string> moved;
  for (const uint32_t id : q->path) {
    moved.insert(net->conjs[id].users.begin(), net->conjs[id].users.end());
  }
  moved.erase(name);
  Reorder(net, moved);
  Order(*net, &q->path);
  Place(net, name, q);
}

void QuerySetOptimizer::Leave(Subnet* net, const std::string& name,
                              QueryInfo* q) {
  Unplace(net, name, q->path);
  net->members.erase(name);
  for (const uint32_t id : q->path) {
    --net->conjs[id].share;
    net->conjs[id].users.erase(name);
  }
  std::set<std::string> moved;
  for (const uint32_t id : q->path) {
    SharedConjunct& s = net->conjs[id];
    if (s.share > 0) {
      moved.insert(s.users.begin(), s.users.end());
    } else if (s.c.expr != nullptr) {
      net->ids.erase(s.c.fp);
      s = SharedConjunct();
      net->free_ids.push_back(id);
    }
  }
  q->path.clear();
  if (net->est_epoch != cost_epoch_) {
    Replan(net);
    return;
  }
  Reorder(net, moved);
}

void QuerySetOptimizer::Replan(Subnet* net) {
  for (SharedConjunct& s : net->conjs) {
    if (s.c.expr != nullptr) {
      s.c.est_sel = cost_.EstimateSelectivity(*s.c.expr, s.c.fp);
    }
  }
  net->est_epoch = cost_epoch_;
  net->trie.kids.clear();
  net->trie.attached.clear();
  net->protos = 1;
  for (const auto& [name, q] : net->members) {
    Order(*net, &q->path);
    Place(net, name, q);
  }
}

void QuerySetOptimizer::Reorder(Subnet* net,
                                const std::set<std::string>& members) {
  for (const std::string& name : members) {
    QueryInfo* q = net->members.at(name);
    std::vector<uint32_t> path = q->path;
    Order(*net, &path);
    if (path == q->path) continue;
    Unplace(net, name, q->path);
    q->path = std::move(path);
    Place(net, name, q);
  }
}

void QuerySetOptimizer::Order(const Subnet& net, std::vector<uint32_t>* path) {
  // Estimated selectivity (live observations override heuristics) breaks
  // ties; fingerprints make the order deterministic.
  std::sort(path->begin(), path->end(), [&](uint32_t a, uint32_t b) {
    const SharedConjunct& x = net.conjs[a];
    const SharedConjunct& y = net.conjs[b];
    if (x.share != y.share) return x.share > y.share;
    if (x.c.est_sel != y.c.est_sel) return x.c.est_sel < y.c.est_sel;
    return x.c.fp < y.c.fp;
  });
}

void QuerySetOptimizer::Place(Subnet* net, const std::string& name,
                              QueryInfo* q) {
  Proto* cur = &net->trie;
  for (size_t d = 0; d < q->path.size(); ++d) {
    auto [kid, fresh] = cur->kids.try_emplace(net->conjs[q->path[d]].c.fp);
    cur = &kid->second;
    if (!fresh) continue;
    // Named by the set of fingerprints evaluated at or above it.
    std::set<std::string> cum;
    for (size_t i = 0; i <= d; ++i) cum.insert(net->conjs[q->path[i]].c.fp);
    std::string joined;
    for (const std::string& fp : cum) joined += fp;
    ++net->protos;
    cur->id = next_proto_id_++;
    cur->edge = q->path[d];
    cur->name =
        "mqo." + net->basket + ".s" + FingerprintHex(joined).substr(0, 8);
    cur->counters = CountersFor(&node_counters_, cur->name);
  }
  cur->attached.emplace(name, q);
  cur->fresh = true;
}

void QuerySetOptimizer::Unplace(Subnet* net, const std::string& name,
                                const std::vector<uint32_t>& path) {
  std::vector<Proto*> chain = {&net->trie};
  for (const uint32_t id : path) {
    chain.push_back(&chain.back()->kids.at(net->conjs[id].c.fp));
  }
  chain.back()->attached.erase(name);
  for (size_t d = path.size(); d > 0; --d) {
    if (!chain[d]->attached.empty() || !chain[d]->kids.empty()) break;
    chain[d - 1]->kids.erase(net->conjs[path[d - 1]].c.fp);
    --net->protos;
  }
}

void QuerySetOptimizer::LayOut(Subnet* net, Trie* trie,
                               std::vector<Proto*>* ends) {
  const bool open_root = !net->replicas.empty();
  trie->num_conjuncts = net->conjs.size();
  trie->nodes.reserve(net->protos);
  trie->steps.reserve(net->protos - 1);
  trie->leaves.reserve(net->members.size() + net->replicas.size());
  trie->inlined.reserve(net->members.size());
  std::vector<std::pair<Proto*, size_t>> queue = {{&net->trie, 0}};
  queue.reserve(net->protos);
  for (size_t head = 0; head < queue.size(); ++head) {
    Proto* n = queue[head].first;
    const size_t idx = trie->nodes.size();
    auto step = [&](const Proto* p) {
      const SharedConjunct& s = net->conjs[p->edge];
      trie->steps.push_back(Trie::Step{s.c.expr, s.counters, p->edge});
    };
    Trie::Node node;
    node.parent = queue[head].second;
    node.steps = trie->steps.size();
    if (idx > 0) {
      node.level = trie->nodes[node.parent].level + 1;
      step(n);
    }
    while (!(open_root && idx == 0) && n->attached.empty() &&
           n->kids.size() == 1) {
      n->under = 0;  // inside a run: ends no node
      n = &n->kids.begin()->second;
      step(n);
    }
    node.steps_end = trie->steps.size();
    node.counters = idx == 0 ? net->trie.counters : n->counters;
    node.leaves = trie->leaves.size();
    node.inlined = trie->inlined.size();
    for (const auto& [qname, q] : n->attached) {
      if (q->run != nullptr) {
        trie->inlined.push_back(Trie::Inlined{q->run, q->run_counters, idx});
      } else {
        trie->leaves.push_back(q->leaf.get());
      }
    }
    // Replica leaves take every row: they hang off the root.
    if (idx == 0) {
      for (const auto& [qname, replica] : net->replicas) {
        trie->leaves.push_back(replica.get());
      }
    }
    node.leaves_end = trie->leaves.size();
    node.inlined_end = trie->inlined.size();
    node.gathers = node.leaves_end > node.leaves;
    trie->nodes.push_back(std::move(node));
    ends->push_back(n);
    for (auto& [fp, kid] : n->kids) queue.emplace_back(&kid, idx);
  }
}

void QuerySetOptimizer::SwapRoot(const std::string& basket,
                                 const core::BasketPtr& source,
                                 const core::FactoryPtr& joining) {
  core::Scheduler& scheduler = engine_->scheduler();
  Subnet& net = subnets_.at(basket);
  const bool empty = net.members.empty() && net.replicas.empty();
  auto trie = std::make_shared<Trie>();
  std::vector<Proto*> ends;
  core::FactoryPtr root;
  if (!empty) {
    LayOut(&net, trie.get(), &ends);
    root = std::make_shared<core::Factory>(
        net.trie.name, [trie = std::shared_ptr<const Trie>(trie),
                        scratch = WalkScratch()](
                           core::FactoryContext& ctx) mutable {
          return Walk(*trie, &scratch, ctx);
        });
    root->Reserve(1, trie->leaves.size());
    root->AddInput(source, 1);
    // Every leaf basket is an output place, so no leaf fires while the walk
    // runs. Inlined leaves have none: the root locks the source alone.
    for (const auto& [qname, q] : net.members) {
      if (q->leaf != nullptr) root->AddOutput(q->leaf);
    }
    for (const auto& [qname, replica] : net.replicas) root->AddOutput(replica);
  }

  // Swap. Unregister waits out the old root's in-flight firing; rows
  // resident in the source and leaf baskets carry over to the new root.
  if (net.root != nullptr) UnregisterOrWarn(scheduler, net.root, "SwapRoot");
  // Leaves before the fused transition, so its first firing signals
  // already-listening consumers (Register re-checks eligibility, so rows
  // already in a leaf wake it immediately).
  if (joining != nullptr) scheduler.Register(joining);
  if (empty) {
    subnets_.erase(basket);
    return;
  }
  scheduler.Register(root);
  net.root = std::move(root);
  double base = static_cast<double>(source->size());
  if (base <= 0) base = 1000;
  PublishChanged(&net, *trie, ends, base);
}

void QuerySetOptimizer::PublishChanged(Subnet* net, const Trie& trie,
                                       const std::vector<Proto*>& ends,
                                       double base) {
  const std::vector<Trie::Node>& nodes = trie.nodes;
  // The figures any change may move live on the nodes, where dc_plans
  // reads them.
  std::vector<int64_t> shared_by(nodes.size());
  std::vector<double> est(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    shared_by[i] = static_cast<int64_t>(ends[i]->attached.size());
    double e = i == 0 ? base : est[nodes[i].parent];
    for (const Trie::Step& c : trie.conjuncts(nodes[i])) {
      e *= net->conjs[c.id].c.est_sel;
    }
    est[i] = std::max(e, 1.0);
  }
  for (size_t i = nodes.size(); i-- > 1;) {
    shared_by[nodes[i].parent] += shared_by[i];
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    nodes[i].counters->shared_by.store(shared_by[i],
                                       std::memory_order_relaxed);
    nodes[i].counters->est_rows.store(est[i], std::memory_order_relaxed);
  }

  // A node's rows (name, conjunct run, counters) follow from the Proto
  // ending it and the one ending its parent, so a query's rows change only
  // when a node on its path hangs under another node than at the last
  // layout (or the root's run changed), or when it was attached anew.
  std::vector<char> moved(nodes.size());
  std::vector<size_t> path;
  for (size_t at = 0; at < nodes.size(); ++at) {
    Proto* end = ends[at];
    const uint64_t under = at == 0 ? 0 : ends[nodes[at].parent]->id;
    moved[at] = at == 0 ? end->id != net->root_end
                        : moved[nodes[at].parent] || end->under != under;
    end->under = under;
    if (!moved[at] && !end->fresh) continue;
    end->fresh = false;
    path.clear();
    for (size_t i = at; i != 0; i = nodes[i].parent) path.push_back(i);
    path.push_back(0);
    std::reverse(path.begin(), path.end());
    for (const auto& [qname, q] : end->attached) {
      std::vector<obs::PlanRow> rows;
      rows.reserve(path.size() + 1);
      for (const size_t i : path) {
        std::string text;
        std::string fps;
        for (const Trie::Step& c : trie.conjuncts(nodes[i])) {
          if (!text.empty()) text += " and ";
          text += c.expr->ToString();
          if (!fps.empty()) fps += ",";
          fps += net->conjs[c.id].c.fp;
        }
        if (text.empty()) text = "replicate";
        rows.push_back(obs::PlanRow{
            qname, i == 0 ? net->trie.name : ends[i]->name, "node",
            std::move(text), std::move(fps), shared_by[i], est[i],
            nodes[i].counters, nullptr});
      }
      // An inlined leaf runs under its node, with counters of its own.
      const bool inlined = q->run != nullptr;
      rows.push_back(obs::PlanRow{
          qname, inlined ? rows.back().stage : qname, "leaf", q->pipeline, "",
          1, est[at], inlined ? q->run_counters : nullptr,
          nodes[at].counters});
      obs::PlansRegistry::Global().Publish(qname, std::move(rows));
    }
  }
  net->root_end = ends[0]->id;
}

void QuerySetOptimizer::PublishDirect(const std::string& name,
                                      const std::string& pipeline) {
  obs::PlansRegistry::Global().Publish(
      name, {obs::PlanRow{name, name, "direct", pipeline, "", 1, 0, nullptr,
                          nullptr}});
}

size_t QuerySetOptimizer::SharedCount(const std::string& basket,
                                      const std::string& fp) const {
  size_t n = 0;
  for (const auto& [qname, q] : queries_) {
    if (q.direct || q.cq.source_basket != basket) continue;
    for (const Conjunct& c : q.cq.shared) {
      if (c.fp == fp) {
        ++n;
        break;
      }
    }
  }
  return n;
}

uint64_t QuerySetOptimizer::PeakResidentRows() const {
  uint64_t peak = peak_retired_;
  for (const auto& [qname, q] : queries_) {
    if (q.leaf != nullptr) peak = std::max(peak, q.leaf->stats().peak_rows);
    for (const auto& [basket, leaf] : q.replicas) {
      peak = std::max(peak, leaf->stats().peak_rows);
    }
  }
  return peak;
}

Result<size_t> QuerySetOptimizer::Reoptimize() {
  for (const auto& [fp, counters] : conjunct_counters_) {
    cost_.RecordObserved(fp,
                         counters->rows_in.load(std::memory_order_relaxed),
                         counters->rows_out.load(std::memory_order_relaxed));
  }
  ++cost_epoch_;
  std::vector<std::string> drifted;
  for (const auto& [basket, net] : subnets_) {
    bool dirty = false;
    for (const SharedConjunct& s : net.conjs) {
      dirty = dirty ||
              (s.c.expr != nullptr && cost_.Drifted(s.c.est_sel, s.c.fp));
    }
    if (dirty) drifted.push_back(basket);
  }
  for (const std::string& basket : drifted) {
    ASSIGN_OR_RETURN(core::BasketPtr source, engine_->GetBasket(basket));
    Replan(&subnets_.at(basket));
    SwapRoot(basket, source, nullptr);
  }
  return drifted.size();
}

}  // namespace datacell::sql::plan
