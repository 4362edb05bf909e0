#ifndef DATACELL_SQL_PLAN_OPTIMIZER_H_
#define DATACELL_SQL_PLAN_OPTIMIZER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/factory.h"
#include "core/receptor.h"
#include "obs/plans.h"
#include "sql/ast.h"
#include "sql/plan/builder.h"
#include "sql/plan/cost.h"
#include "util/status.h"

/// The multi-query optimizer: owns the standing-query set and compiles it
/// into a shared Petri net. Queries whose shape the plan compiler accepts
/// are decomposed into
///
///   source basket -> one fused transition walking a trie of normalized
///   conjunct fingerprints (common prefixes factored into one node) ->
///   per-query leaf: the original statement with the shared conjuncts
///   stripped.
///
/// A leaf that keeps no state across firings (its statement reads the
/// stripped window with a pass-through `take`) is inlined: the fused
/// transition runs the rest of its chain on its node's survivors and hands
/// the result to the sink, so a net of such leaves fires once per delivery.
/// Any other leaf reads its own leaf basket "mqo.q.<name>" through its own
/// leaf factory (FROM redirected to the leaf).
///
/// Everything else — and everything while sharing is disabled, the default
/// — runs "direct": one factory per query, built by the injected factory
/// builder. With sharing disabled that is byte-for-byte the seed behavior
/// (including competing consumption when several queries read one basket).
/// Shared mode replicates tuples so every query sees the full stream, which
/// is the semantics the sharing ablation measures: a direct query in shared
/// mode reads, in place of each basket its basket expressions read, a
/// replica leaf "mqo.q.<name>.<basket>" attached to the root of that
/// basket's trie.
///
/// Thread-model: registration, removal and re-optimization happen on one
/// driver thread (the same discipline as sql::Session); the built net is
/// what scheduler workers execute. A registration builds what it changes
/// and nothing else: the new query's leaf (an inlined chain, or a leaf
/// factory registered once and kept until the query is removed) and a new
/// fused transition over the trie laid out again for the new member set.
/// Everything new is built before the old fused transition is unregistered
/// (the scheduler waits out its in-flight firing): a failed build leaves
/// the old net running. Only the source and the leaf baskets hold rows
/// between firings, and both carry over, so no tuple is lost, duplicated
/// or reordered across a swap. The optimizer's destructor takes down
/// everything it registered.
namespace datacell::sql::plan {

/// An inlined leaf's chain: runs the operators after the leaf statement's
/// pass-through `take` over the rows of `rows` that `sel` selects (every
/// row when null), with `now` as the value of now(); hands a non-empty
/// result to the sink and returns the result's row count. The chain's
/// first operator reads the selection, gathering only the columns it
/// reads (Executor::RunOver).
using LeafRun = std::function<Result<size_t>(
    const Table& rows, const SelVector* sel, Micros now)>;

/// What the factory builder returns: the (unregistered) factory that runs a
/// statement each firing, or for an inlined leaf only its chain; and the
/// operators that run (dc_plans).
struct BuiltQuery {
  core::FactoryPtr factory;
  std::shared_ptr<const LeafRun> run;
  std::string pipeline;
};

class QuerySetOptimizer {
 public:
  /// Builds (without registering) the factory of one statement — injected
  /// by the session so this layer needs no executor dependency. With
  /// `inline_leaf` (given only for a PassThroughLeaf statement) it builds
  /// only the leaf's chain `run`, or neither a chain nor a factory when it
  /// inlines nothing; the optimizer then gives the leaf a basket.
  using FactoryBuilder = std::function<Result<BuiltQuery>(
      const std::string& name, std::shared_ptr<Statement> stmt,
      core::Emitter::Sink sink, bool inline_leaf)>;

  QuerySetOptimizer(core::Engine* engine, FactoryBuilder builder);
  /// Unregisters every transition it registered, drops its baskets and
  /// retracts its dc_plans rows, so no sink of its queries runs after it.
  ~QuerySetOptimizer();
  QuerySetOptimizer(const QuerySetOptimizer&) = delete;
  QuerySetOptimizer& operator=(const QuerySetOptimizer&) = delete;

  /// Sharing is opt-in per session: off (default) keeps every query on the
  /// direct path.
  void set_sharing_enabled(bool on) { sharing_enabled_ = on; }
  bool sharing_enabled() const { return sharing_enabled_; }

  /// With factoring off (but sharing on) the shared net still replicates
  /// the stream to per-query leaf baskets but factors nothing — every leaf
  /// evaluates its full predicate. The sharing ablation's baseline: same
  /// delivery semantics, none of the shared work. Like sharing, it applies
  /// to queries registered afterwards.
  void set_factoring_enabled(bool on) { factoring_enabled_ = on; }
  bool factoring_enabled() const { return factoring_enabled_; }

  /// Registers a continuous query. Returns the transition that runs it: the
  /// direct factory, the leaf factory of its shared subnet, or for an
  /// inlined leaf the subnet's fused transition (replaced by the next
  /// change to the subnet). kAlreadyExists if the name is taken.
  Result<core::FactoryPtr> AddQuery(const std::string& name,
                                    std::shared_ptr<Statement> stmt,
                                    core::Emitter::Sink sink);

  /// Unregisters one query. In a shared subnet the remaining queries keep
  /// their leaves and only the fused transition is rebuilt, so their
  /// result streams are unaffected.
  Status RemoveQuery(const std::string& name);

  bool HasQuery(const std::string& name) const {
    return queries_.count(name) > 0;
  }
  size_t num_queries() const { return queries_.size(); }

  /// Feeds observed per-conjunct selectivities into the cost model and
  /// lays out again every subnet whose as-built estimates have drifted
  /// past CostModel::kDriftRatio. Returns the number of subnets rebuilt.
  Result<size_t> Reoptimize();

  /// Standing queries on `basket` sharing conjunct `fp` (EXPLAIN's
  /// standing count).
  size_t SharedCount(const std::string& basket, const std::string& fp) const;

  /// High-water mark of rows resident in optimizer-owned (leaf and
  /// replica) baskets: the sharing ablation's memory metric.
  uint64_t PeakResidentRows() const;

  const CostModel& cost() const { return cost_; }

 private:
  struct QueryInfo {
    CompiledQuery cq;  // meaningful only when !direct
    std::shared_ptr<Statement> stmt;
    core::Emitter::Sink sink;
    bool direct = true;
    /// The direct factory or the leaf factory: built and registered once.
    core::FactoryPtr factory;
    /// Shared mode, inlined leaf (no factory and no leaf basket): its
    /// chain, and its rows in and out (dc_plans).
    std::shared_ptr<const LeafRun> run;
    std::shared_ptr<obs::PlanCounters> run_counters;
    std::string pipeline;      // the operator chain `factory` or `run` runs
    core::BasketPtr leaf;      // stateful leaf: engine basket "mqo.q.<name>"
    /// Shared mode: the shared conjuncts the trie evaluates for the query,
    /// as ids into its subnet's conjunct table, in evaluation order (empty
    /// when it registered with factoring off).
    std::vector<uint32_t> path;
    /// Shared mode, direct query: source basket -> its replica leaf.
    std::map<std::string, core::BasketPtr> replicas;
  };

  /// One shared conjunct of a subnet's members, interned by fingerprint.
  struct SharedConjunct {
    Conjunct c;  // est_sel: the estimate the trie is ordered by
    size_t share = 0;             // occurrences in the members' paths
    std::set<std::string> users;  // members whose path holds it
    std::shared_ptr<obs::PlanCounters> counters;  // live selectivity feed
  };

  /// One node of a subnet's uncompressed trie: a conjunct per edge, kids
  /// by fingerprint. It persists across registrations, so a member's path
  /// is inserted and erased only when its order changes, and a node is
  /// named and its counters found once.
  struct Proto {
    uint64_t id = 0;    // never reused
    uint32_t edge = 0;  // conjunct on the edge into it
    std::string name;   // mqo.<basket>.s<hash of the fps at or above it>
    std::shared_ptr<obs::PlanCounters> counters;
    std::map<std::string, Proto> kids;
    std::map<std::string, QueryInfo*> attached;  // members ending here
    /// As of the last layout: the id of the Proto ending the node this one
    /// ended a node under (0 when it ended none, or the root node), and
    /// whether a member was attached here since.
    uint64_t under = 0;
    bool fresh = false;
  };

  /// What one fused transition walks: built whole when the net changes and
  /// never changed after, so the walk shares it. Nodes are in level order
  /// (index 0 is the root, each level is contiguous and parents precede
  /// children); node i evaluates a run of conjuncts once per delivery over
  /// its parent's survivors and feeds a run of leaves, both ranges of the
  /// flat arrays. A level's inlined leaves are contiguous too.
  struct Trie {
    struct Step {
      ExprPtr expr;
      /// The conjunct's feed: one per SharedConjunct, which several nodes
      /// may evaluate.
      std::shared_ptr<obs::PlanCounters> counters;
      uint32_t id = 0;  // SharedConjunct
    };
    /// An attached query's inlined chain and the node whose survivors it
    /// runs on. The trie shares ownership of the chain (and its sink), so
    /// a walk never reaches into a removed query.
    struct Inlined {
      std::shared_ptr<const LeafRun> run;
      std::shared_ptr<obs::PlanCounters> counters;
      size_t node = 0;
    };
    struct Node {
      size_t parent = 0;  // the root is its own parent
      size_t level = 0;
      size_t steps = 0, steps_end = 0;    // its conjuncts in `steps`
      size_t leaves = 0, leaves_end = 0;  // its leaf baskets in `leaves`
      size_t inlined = 0, inlined_end = 0;  // its chains in `inlined`
      /// Its survivors are gathered into a table: it feeds a leaf basket.
      bool gathers = false;
      std::shared_ptr<obs::PlanCounters> counters;
    };
    std::vector<Node> nodes;
    std::vector<Step> steps;
    size_t num_conjuncts = 0;  // bound on Step::id
    /// Attached stateful queries' leaves and replicas; the fused
    /// transition's output places own them.
    std::vector<core::Basket*> leaves;
    std::vector<Inlined> inlined;

    std::span<const Step> conjuncts(const Node& n) const {
      return {steps.data() + n.steps, n.steps_end - n.steps};
    }
    std::span<core::Basket* const> leaves_of(const Node& n) const {
      return {leaves.data() + n.leaves, n.leaves_end - n.leaves};
    }
  };

  struct Subnet {
    std::string basket;  // the source
    std::vector<SharedConjunct> conjs;
    std::unordered_map<std::string, uint32_t> ids;  // by fingerprint
    std::vector<uint32_t> free_ids;
    uint64_t est_epoch = 0;  // cost_epoch_ the estimates were taken at
    Proto trie;              // the root; named mqo.<basket>.root
    size_t protos = 1;       // in `trie`, the root included
    uint64_t root_end = 0;   // Proto::id ending the root node, last layout
    std::map<std::string, QueryInfo*> members;
    std::map<std::string, core::BasketPtr> replicas;  // by query
    core::FactoryPtr root;  // the registered fused transition
  };

  Status AddDirect(const std::string& name, QueryInfo info);
  /// Shared mode, plannable: an inlined chain when the stripped leaf keeps
  /// no state, else a leaf basket and a leaf factory.
  Status AddShared(const std::string& name, QueryInfo info);
  /// Shared mode, outside the plannable subset: a direct factory over
  /// replica leaves of every basket the query's basket expressions read.
  Status AddReplicated(const std::string& name, QueryInfo info);

  Subnet& NetFor(const std::string& basket);
  /// Adds member `name` to / removes it from `net`'s trie, moving only the
  /// members whose conjunct order its share counts change.
  void Join(Subnet* net, const std::string& name, QueryInfo* q);
  void Leave(Subnet* net, const std::string& name, QueryInfo* q);
  /// Re-estimates every conjunct and inserts every member's path again:
  /// the full re-plan, taken after Reoptimize records observations.
  void Replan(Subnet* net);
  void Reorder(Subnet* net, const std::set<std::string>& members);
  /// Sorts `path` by (share count, estimated selectivity, fingerprint):
  /// widely shared conjuncts first so common prefixes factor into one node.
  static void Order(const Subnet& net, std::vector<uint32_t>* path);
  void Place(Subnet* net, const std::string& name, QueryInfo* q);
  static void Unplace(Subnet* net, const std::string& name,
                      const std::vector<uint32_t>& path);

  /// Builds the fused transition walking `net`'s trie as laid out now and
  /// swaps it in: unregisters the old one (waiting out its firing), then
  /// registers `joining` (a new leaf factory, if any) and the new one, and
  /// republishes the dc_plans rows of the members whose path changed. With
  /// no member and no replica left it only tears the net down. Nothing
  /// here can fail: callers resolve `source` before they change the net.
  void SwapRoot(const std::string& basket, const core::BasketPtr& source,
                const core::FactoryPtr& joining);
  /// Takes down what query `name` owns once no root feeds it: unregisters
  /// its factory, retracts its dc_plans rows and drops its leaf and
  /// replica baskets. Returns the first drop failure.
  Status Retire(const std::string& name, const QueryInfo& q);
  /// Lays out `net`'s trie: breadth first, so each level is contiguous,
  /// with runs of unattached single-child nodes collapsed into one node.
  /// `ends[i]` is the Proto that node i's run ends at. With replicas the
  /// root evaluates no conjunct (they hang off it and take every row).
  static void LayOut(Subnet* net, Trie* trie, std::vector<Proto*>* ends);
  /// Stores every node's sharing count and estimate (`base` rows in the
  /// source) on its counters, and publishes the dc_plans rows of the
  /// members attached since the last layout and of those whose path now
  /// runs through a node that moved.
  static void PublishChanged(Subnet* net, const Trie& trie,
                             const std::vector<Proto*>& ends, double base);
  static void PublishDirect(const std::string& name,
                            const std::string& pipeline);

  /// A node's survivors in one firing: the rows of the delivered batch
  /// that `sel` selects (every row when null), `rows` of them.
  struct Kept {
    const SelVector* sel = nullptr;
    size_t rows = 0;
  };
  /// Rows into and out of one conjunct in one firing.
  struct StepRows {
    uint64_t in = 0;
    uint64_t out = 0;
  };
  /// The fused transition's body: one walk of `trie` over everything the
  /// source holds.
  /// Per-node working state one fused transition keeps across firings:
  /// node i's slots are written only by node i's evaluation, so a level's
  /// nodes can run on the pool side by side. Sized on the first firing,
  /// emptied of tables after every firing; between firings small
  /// selections keep their capacity and large ones are parked in the
  /// column kernel's recycler (column/recycler.h).
  struct WalkScratch {
    std::vector<SelVector> sel;  // node i's selections: 2i and 2i + 1
    std::vector<Kept> kept;      // node i's survivors, into `sel`
    std::vector<Table> out;      // node i's survivors gathered (gathers)
    std::vector<StepRows> steps;  // per Trie::Step, this firing
    std::vector<StepRows> feeds;  // per SharedConjunct id, when published
  };
  static Status Walk(const Trie& trie, WalkScratch* scratch,
                     core::FactoryContext& ctx);
  /// Evaluates one node's conjunct run over `in`, its parent's survivors
  /// in `batch`, ping-ponging between the selections `a` and `b`, and
  /// counts each conjunct's rows into `rows` (parallel to `conjuncts`).
  /// Sets `*out` to the node's survivors.
  static Status EvalNode(const Trie::Node& node,
                         std::span<const Trie::Step> conjuncts,
                         const Table& batch, Kept in, const EvalContext& ectx,
                         SelVector* a, SelVector* b, StepRows* rows, Kept* out);
  /// Adds one firing's conjunct rows to their feeds: one relaxed RMW per
  /// counter, none for a conjunct that got no rows. Zeroes `scratch`'s.
  static void PublishSteps(const Trie& trie, WalkScratch* scratch);

  core::Engine* engine_;
  FactoryBuilder build_factory_;
  bool sharing_enabled_ = false;
  bool factoring_enabled_ = true;
  CostModel cost_;

  std::map<std::string, QueryInfo> queries_;
  std::map<std::string, Subnet> subnets_;  // by source basket
  /// Bumped whenever Reoptimize records observations: a subnet estimated
  /// at an older epoch re-plans on its next change.
  uint64_t cost_epoch_ = 0;
  uint64_t next_proto_id_ = 1;
  /// Live per-conjunct selectivity feed, keyed by conjunct fingerprint.
  std::map<std::string, std::shared_ptr<obs::PlanCounters>>
      conjunct_counters_;
  /// Live per-node figures (dc_plans), keyed by node name so they survive
  /// layouts that keep the node.
  std::map<std::string, std::shared_ptr<obs::PlanCounters>> node_counters_;
  /// Peak rows of dropped queries' leaf baskets, for PeakResidentRows.
  uint64_t peak_retired_ = 0;
};

}  // namespace datacell::sql::plan

#endif  // DATACELL_SQL_PLAN_OPTIMIZER_H_
