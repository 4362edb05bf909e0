#include "sql/plan/optimizer.h"

#include <algorithm>
#include <deque>
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

std::string ConjunctsText(const std::vector<Conjunct>& cs) {
  if (cs.empty()) return "replicate";
  std::string out;
  for (size_t i = 0; i < cs.size(); ++i) {
    if (i > 0) out += " and ";
    out += cs[i].expr->ToString();
  }
  return out;
}

std::string ConjunctsFps(const std::vector<Conjunct>& cs) {
  std::string out;
  for (size_t i = 0; i < cs.size(); ++i) {
    if (i > 0) out += ",";
    out += cs[i].fp;
  }
  return out;
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

// Takes every delivered row once and walks the trie level by level; every
// leaf gets exactly one AppendAligned per delivery, from the firing
// thread, once its node's level is done.
Status QuerySetOptimizer::Walk(const std::vector<TrieNode>& nodes,
                               WalkScratch* scratch,
                               core::FactoryContext& ctx) {
  const Table batch = ctx.input(0).TakeAll();
  if (batch.num_rows() == 0) return Status::OK();
  const EvalContext ectx = ctx.eval();
  std::vector<Table>& out = scratch->out;
  std::vector<SelVector>& sel = scratch->sel;
  if (out.size() != nodes.size()) {
    out.assign(nodes.size(), Table());
    sel.assign(2 * nodes.size(), SelVector());
  }
  auto input_of = [&](size_t i) -> const Table& {
    return i == 0 ? batch : out[nodes[i].parent];
  };
  auto eval = [&](size_t i) {
    return EvalNode(nodes[i], input_of(i), ectx, &sel[2 * i], &sel[2 * i + 1],
                    &out[i]);
  };
  // Survivor tables share the leaves' buffers once appended, so none may
  // outlive the firing: a leaf's next write would copy them instead.
  // Small selections keep their capacity for the next firing; a bulk
  // delivery's large ones go back to the recycler, where the next bulk
  // delivery (of this or any other transition) takes them again.
  auto release = [&]() {
    for (Table& t : out) {
      if (t.num_columns() > 0) t = Table();
    }
    for (SelVector& v : sel) recycler::Park(&v);
  };
  Status st = Status::OK();
  for (size_t begin = 0, prev = 0, end = 0; st.ok() && begin < nodes.size();
       prev = begin, begin = end) {
    size_t rows = 0;
    for (end = begin; end < nodes.size() &&
                      nodes[end].level == nodes[begin].level;
         ++end) {
      rows += input_of(end).num_rows();
    }
    // Siblings only read their parents' tables and write their own slot,
    // so a wide level runs as tasks on the scheduler's pool.
    ops::MorselExecutor* exec = ops::CurrentMorselExecutor();
    if (end - begin > 1 && rows >= ops::kMorselRows && exec != nullptr &&
        exec->parallelism() > 1) {
      st = exec->Run(end - begin, 1, [&](size_t m, size_t, size_t) {
        return eval(begin + m);
      });
    } else {
      for (size_t i = begin; i < end && st.ok(); ++i) st = eval(i);
    }
    for (size_t i = begin; i < end && st.ok(); ++i) {
      if (out[i].num_rows() == 0) continue;
      for (const core::BasketPtr& leaf : nodes[i].leaves) {
        Result<size_t> appended = leaf->AppendAligned(out[i], ctx.now());
        if (!appended.ok()) {
          st = appended.status();
          break;
        }
      }
    }
    // The previous level's survivors have no readers left.
    for (size_t i = prev; i < begin; ++i) {
      if (out[i].num_columns() > 0) out[i] = Table();
    }
  }
  release();
  return st;
}

Status QuerySetOptimizer::EvalNode(const TrieNode& node, const Table& in,
                                   const EvalContext& ectx, SelVector* a,
                                   SelVector* b, Table* out) {
  const size_t n = in.num_rows();
  if (n == 0) return Status::OK();
  node.counters->rows_in.fetch_add(n, std::memory_order_relaxed);
  // While every row survives, the next conjunct runs over the whole table,
  // where the dense compare kernel applies; compact with one Take only
  // when a conjunct dropped rows. `a` holds the latest selection.
  bool all = true;
  for (size_t k = 0; k < node.conjuncts.size() && (all || !a->empty());
       ++k) {
    obs::PlanCounters& c = *node.conjunct_counters[k];
    const Expr& e = *node.conjuncts[k].expr;
    c.rows_in.fetch_add(all ? n : a->size(), std::memory_order_relaxed);
    RETURN_NOT_OK(EvalPredicateInto(in, e, all ? nullptr : a, ectx, b));
    std::swap(a, b);
    all = a->size() == n;
    c.rows_out.fetch_add(a->size(), std::memory_order_relaxed);
  }
  const size_t kept = all ? n : a->size();
  node.counters->rows_out.fetch_add(kept, std::memory_order_relaxed);
  if (all) {
    *out = in;
  } else if (kept > 0) {
    *out = in.Take(*a);
  }
  return Status::OK();
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
    } else {
      RETURN_NOT_OK(AddReplicated(name, std::move(info)));
    }
    return queries_[name].factory;
  }
  RETURN_NOT_OK(AddDirect(name, std::move(info)));
  return queries_[name].factory;
}

Status QuerySetOptimizer::AddDirect(const std::string& name, QueryInfo info) {
  ASSIGN_OR_RETURN(BuiltQuery built, build_factory_(name, info.stmt, info.sink));
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
    info.replicas[basket] = *leaf;
    redirect[basket] = ReplicaBasketName(name, basket);
  }
  info.stmt = RedirectBasketSources(*info.stmt, redirect);
  Result<BuiltQuery> built = build_factory_(name, info.stmt, info.sink);
  if (!built.ok()) {
    drop_replicas();
    return built.status();
  }
  info.factory = std::move(built->factory);
  info.pipeline = std::move(built->pipeline);
  queries_[name] = info;
  if (Status st = RebuildSubnets(read, [&] { queries_.erase(name); });
      !st.ok()) {
    drop_replicas();
    return st;
  }
  engine_->scheduler().Register(info.factory);
  PublishDirect(name, info.pipeline);
  return Status::OK();
}

Status QuerySetOptimizer::RebuildSubnets(
    const std::vector<std::string>& baskets,
    const std::function<void()>& restore) {
  for (size_t i = 0; i < baskets.size(); ++i) {
    Status st = RebuildSubnet(baskets[i]);
    if (st.ok()) continue;
    // RebuildSubnet left baskets[i]'s old net running; the ones before it
    // already swapped, so rebuild them for the restored query set.
    restore();
    for (size_t j = 0; j < i; ++j) {
      if (Status undo = RebuildSubnet(baskets[j]); !undo.ok()) {
        DC_LOG(Warn) << "optimizer rollback: rebuild of " << baskets[j]
                     << " failed: " << undo.ToString();
      }
    }
    return st;
  }
  return Status::OK();
}

Status QuerySetOptimizer::AddShared(const std::string& name, QueryInfo info) {
  const std::string basket = info.cq.source_basket;  // survives the move below
  ASSIGN_OR_RETURN(core::BasketPtr source, engine_->GetBasket(basket));
  ASSIGN_OR_RETURN(
      info.leaf,
      engine_->CreateBasket(LeafBasketName(name), source->schema(),
                            /*add_arrival_ts=*/false));
  queries_[name] = std::move(info);
  Status rebuilt = RebuildSubnet(basket);
  if (!rebuilt.ok()) {
    // The old net was never touched: only the new query is undone.
    queries_.erase(name);
    if (Status st = engine_->DropBasket(LeafBasketName(name)); !st.ok()) {
      DC_LOG(Warn) << "optimizer AddQuery rollback: drop leaf basket failed: "
                   << st.ToString();
    }
    return rebuilt;
  }
  return Status::OK();
}

Status QuerySetOptimizer::RemoveQuery(const std::string& name) {
  auto it = queries_.find(name);
  if (it == queries_.end()) {
    return Status::NotFound("no such continuous query: " + name);
  }
  QueryInfo info = std::move(it->second);
  queries_.erase(it);
  // The nets this query rides are rebuilt without it; a failed rebuild
  // leaves the old net, this query included, running.
  std::vector<std::string> nets;
  if (!info.direct) nets.push_back(info.cq.source_basket);
  for (const auto& [basket, leaf] : info.replicas) nets.push_back(basket);
  RETURN_NOT_OK(RebuildSubnets(nets, [&] { queries_[name] = info; }));
  if (info.direct) {
    UnregisterOrWarn(engine_->scheduler(), info.factory, "RemoveQuery");
  }
  obs::PlansRegistry::Global().Retract(name);
  Status dropped;
  if (!info.direct) {
    peak_retired_ = std::max(peak_retired_, info.leaf->stats().peak_rows);
    dropped = engine_->DropBasket(LeafBasketName(name));
  }
  for (const auto& [basket, leaf] : info.replicas) {
    peak_retired_ = std::max(peak_retired_, leaf->stats().peak_rows);
    Status st = engine_->DropBasket(ReplicaBasketName(name, basket));
    if (dropped.ok()) dropped = st;
  }
  return dropped;
}

void QuerySetOptimizer::BuildTrie(const std::string& basket,
                                  const std::vector<std::string>& members,
                                  bool open_root, Subnet* out) {
  // How many members share each conjunct: widely shared conjuncts order
  // first so common prefixes factor into one node; estimated selectivity
  // (live observations override heuristics) breaks ties, fingerprints make
  // the order deterministic.
  std::map<std::string, size_t> share_count;
  for (const std::string& qname : members) {
    for (const Conjunct& c : queries_[qname].cq.shared) {
      share_count[c.fp] += 1;
    }
  }

  struct Proto {
    std::map<std::string, Proto> kids;  // edge fingerprint -> child
    Conjunct edge;                      // conjunct on the edge into this
    std::vector<std::string> attached;
  };
  Proto root;
  for (const std::string& qname : members) {
    std::vector<Conjunct> ordered;
    if (factoring_enabled_) {
      ordered = queries_[qname].cq.shared;
      for (Conjunct& c : ordered) {
        c.est_sel = cost_.EstimateSelectivity(*c.expr, c.fp);
      }
      std::sort(ordered.begin(), ordered.end(),
                [&](const Conjunct& a, const Conjunct& b) {
                  const size_t ca = share_count[a.fp];
                  const size_t cb = share_count[b.fp];
                  if (ca != cb) return ca > cb;
                  if (a.est_sel != b.est_sel) return a.est_sel < b.est_sel;
                  return a.fp < b.fp;
                });
    }
    Proto* cur = &root;
    for (const Conjunct& c : ordered) {
      cur = &cur->kids[c.fp];
      cur->edge = c;
    }
    cur->attached.push_back(qname);
  }

  // Breadth-first, so each level is contiguous, with path compression:
  // runs of unattached single-child nodes collapse into one node
  // evaluating the whole conjunct run.
  struct Pending {
    const Proto* proto;
    std::vector<Conjunct> lead;
    size_t parent;
  };
  std::deque<Pending> queue;
  queue.push_back({&root, {}, 0});
  while (!queue.empty()) {
    Pending p = std::move(queue.front());
    queue.pop_front();
    const Proto* n = p.proto;
    const bool keep_open = open_root && n == &root;
    while (!keep_open && n->attached.empty() && n->kids.size() == 1) {
      n = &n->kids.begin()->second;
      p.lead.push_back(n->edge);
    }
    const size_t idx = out->nodes.size();
    TrieNode node;
    node.parent = p.parent;
    if (idx > 0) {
      node.level = out->nodes[p.parent].level + 1;
      node.cum = out->nodes[p.parent].cum;
    }
    std::string path;
    for (const Conjunct& c : p.lead) node.cum.insert(c.fp);
    for (const std::string& fp : node.cum) path += fp;
    node.name = "mqo." + basket +
                (idx == 0 ? ".root" : ".s" + FingerprintHex(path).substr(0, 8));
    node.conjuncts = std::move(p.lead);
    for (const Conjunct& c : node.conjuncts) {
      node.conjunct_counters.push_back(CountersFor(&conjunct_counters_, c.fp));
    }
    node.counters = CountersFor(&node_counters_, node.name);
    node.attached = n->attached;
    node.shared_by = n->attached.size();
    for (const std::string& qname : n->attached) {
      node.leaves.push_back(queries_[qname].leaf);
    }
    out->nodes.push_back(std::move(node));
    for (const auto& [fp, kid] : n->kids) {
      queue.push_back({&kid, {kid.edge}, idx});
    }
  }
  for (size_t i = out->nodes.size(); i-- > 1;) {
    out->nodes[out->nodes[i].parent].shared_by += out->nodes[i].shared_by;
  }
}

Status QuerySetOptimizer::RebuildSubnet(const std::string& basket) {
  std::vector<std::string> members;
  std::vector<core::BasketPtr> replicas;
  for (const auto& [qname, q] : queries_) {
    if (!q.direct && q.cq.source_basket == basket) members.push_back(qname);
    if (auto r = q.replicas.find(basket); r != q.replicas.end()) {
      replicas.push_back(r->second);
    }
  }
  const bool empty = members.empty() && replicas.empty();

  // Build the complete new net before touching the old one.
  Subnet net;
  struct Leaf {
    BuiltQuery built;
    std::shared_ptr<Statement> stmt;
    std::set<std::string> cum;
  };
  std::map<std::string, Leaf> leaves;
  if (!empty) {
    ASSIGN_OR_RETURN(core::BasketPtr source, engine_->GetBasket(basket));
    BuildTrie(basket, members, /*open_root=*/!replicas.empty(), &net);
    // Replica leaves take every row: they hang off the root.
    for (const core::BasketPtr& r : replicas) net.nodes[0].leaves.push_back(r);
    // Leaf factories: the original statement with the conjuncts evaluated
    // on the way to its node stripped and its FROM redirected to the leaf.
    // A leaf whose stripped set is unchanged keeps its statement.
    for (const TrieNode& t : net.nodes) {
      for (const std::string& qname : t.attached) {
        const QueryInfo& q = queries_[qname];
        Leaf& leaf = leaves[qname];
        leaf.cum = t.cum;
        if (q.leaf_stmt != nullptr && q.leaf_cum == t.cum) {
          leaf.stmt = q.leaf_stmt;
        } else {
          ASSIGN_OR_RETURN(leaf.stmt, MakeLeafStatement(engine_, q.cq,
                                                        LeafBasketName(qname),
                                                        t.cum));
        }
        ASSIGN_OR_RETURN(leaf.built, build_factory_(qname, leaf.stmt, q.sink));
      }
    }
    auto walk = std::make_shared<core::Factory>(
        net.nodes[0].name,
        [nodes = net.nodes, scratch = WalkScratch()](
            core::FactoryContext& ctx) mutable {
          return Walk(nodes, &scratch, ctx);
        });
    walk->AddInput(source, 1);
    // Every leaf is an output place, so no leaf fires while the walk runs.
    for (const TrieNode& t : net.nodes) {
      for (const core::BasketPtr& leaf : t.leaves) walk->AddOutput(leaf);
    }
    net.transitions.push_back(std::move(walk));
    for (const auto& [qname, leaf] : leaves) {
      net.transitions.push_back(leaf.built.factory);
    }
  }

  // Swap. Unregister waits out in-flight firings; rows resident in the
  // source and leaf baskets carry over to the new transitions.
  if (auto old = subnets_.find(basket); old != subnets_.end()) {
    for (const core::FactoryPtr& t : old->second.transitions) {
      UnregisterOrWarn(engine_->scheduler(), t, "RebuildSubnet");
    }
    subnets_.erase(old);
  }
  if (empty) return Status::OK();
  for (auto& [qname, leaf] : leaves) {
    QueryInfo& q = queries_[qname];
    q.factory = std::move(leaf.built.factory);
    q.pipeline = std::move(leaf.built.pipeline);
    q.leaf_stmt = std::move(leaf.stmt);
    q.leaf_cum = std::move(leaf.cum);
  }
  // Leaves before the fused transition, so its first firing signals
  // already-listening consumers (Register re-checks eligibility, so rows
  // already in a leaf wake it immediately).
  for (size_t i = 1; i < net.transitions.size(); ++i) {
    engine_->scheduler().Register(net.transitions[i]);
  }
  engine_->scheduler().Register(net.transitions[0]);
  PublishPlans(net);
  subnets_[basket] = std::move(net);
  return Status::OK();
}

void QuerySetOptimizer::PublishDirect(const std::string& name,
                                      const std::string& pipeline) {
  obs::PlansRegistry::Global().Publish(
      name, {obs::PlanRow{name, name, "direct", pipeline, "", 1, 0, nullptr}});
}

void QuerySetOptimizer::PublishPlans(const Subnet& net) {
  double base = static_cast<double>(net.transitions[0]->input(0)->size());
  if (base <= 0) base = 1000;
  for (size_t at = 0; at < net.nodes.size(); ++at) {
    std::vector<size_t> path = {at};  // root first
    while (path.front() != 0) {
      path.insert(path.begin(), net.nodes[path.front()].parent);
    }
    for (const std::string& qname : net.nodes[at].attached) {
      std::vector<obs::PlanRow> rows;
      double est = base;
      for (const size_t i : path) {
        const TrieNode& t = net.nodes[i];
        for (const Conjunct& c : t.conjuncts) est *= c.est_sel;
        est = std::max(est, 1.0);
        rows.push_back(obs::PlanRow{
            qname, t.name, "node", ConjunctsText(t.conjuncts),
            ConjunctsFps(t.conjuncts), static_cast<int64_t>(t.shared_by),
            est, t.counters});
      }
      rows.push_back(obs::PlanRow{qname, qname, "leaf",
                                  queries_.at(qname).pipeline, "", 1, est,
                                  nullptr});
      obs::PlansRegistry::Global().Publish(qname, std::move(rows));
    }
  }
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
  std::vector<std::string> drifted;
  for (const auto& [basket, net] : subnets_) {
    bool dirty = false;
    for (const TrieNode& t : net.nodes) {
      for (const Conjunct& c : t.conjuncts) {
        dirty = dirty || cost_.Drifted(c.est_sel, c.fp);
      }
    }
    if (dirty) drifted.push_back(basket);
  }
  for (const std::string& basket : drifted) {
    RETURN_NOT_OK(RebuildSubnet(basket));
  }
  return drifted.size();
}

}  // namespace datacell::sql::plan
