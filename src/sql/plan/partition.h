#ifndef DATACELL_SQL_PLAN_PARTITION_H_
#define DATACELL_SQL_PLAN_PARTITION_H_

#include <functional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/merge.h"
#include "util/status.h"

/// Partition-aware factory instantiation for the sharded ingress path
/// (DESIGN.md §15): the sharded gateway delivers each shard's tuples into
/// its own bounded basket `<base>.s<k>`; this builder clones the stage
/// pipeline once per partition (whatever factories the caller's
/// StageBuilder wires, instantiated per shard) and re-joins the
/// partition outputs through the explicit core::MergeTransition so
/// cross-partition aggregates/joins run over one merged place.
///
/// Determinism: the merge consumes partitions in shard order 0..N-1 every
/// firing, so the merged basket's contents are byte-identical to running
/// the same per-partition arrival sequences unsharded (verified by
/// tests/partition_test.cc).
namespace datacell::sql::plan {

/// Reads the `dc_shards` session variable (`SET dc_shards = N` /
/// datacell_server's DATACELL_SHARDS): the number of ingress partitions
/// plans should be instantiated for. Unset, non-integer or < 1 → 1.
size_t ResolvePartitions(core::Engine* engine);

/// Clones one partition's stage pipeline: called once per partition with
/// the partition index and that partition's ingress basket; creates (and
/// registers with the engine's scheduler) whatever stage transitions the
/// plan needs, returning the partition's final output basket. A null
/// builder means no per-partition stages — the merge reads the ingress
/// baskets directly.
using StageBuilder = std::function<Result<core::BasketPtr>(
    size_t partition, const core::BasketPtr& in)>;

struct PartitionSpec {
  std::string base;          // basket name prefix, e.g. "b0"
  size_t partitions = 1;     // normally ResolvePartitions(engine)
  /// Total ingress capacity across partitions (0 = unbounded); each
  /// partition basket is bounded at capacity/partitions (>= 1) so the
  /// aggregate resident bound matches the unsharded configuration.
  size_t capacity = 0;
};

struct PartitionedChain {
  /// Per-shard ingress baskets `<base>.s<k>`, shard order — one per
  /// ShardedIngress shard receptor.
  std::vector<core::BasketPtr> inputs;
  /// Per-partition stage outputs (== inputs when no StageBuilder).
  std::vector<core::BasketPtr> outputs;
  /// `<base>.merged`: the single place downstream consumers read.
  core::BasketPtr merged;
  /// The fixed-shard-order merge transition (already registered).
  core::TransitionPtr merge;
};

/// Builds the partitioned ingress topology: `spec.partitions` bounded
/// baskets `<base>.s<k>` over `schema`, a cloned stage pipeline per
/// partition, and a fixed-order merge into `<base>.merged`. All baskets
/// are created through the engine (visible to SQL and ingest replay); the
/// merge transition is registered with the engine's scheduler. With
/// `spec.partitions == 1` the topology still works and is simply a
/// pass-through chain — callers need no special case.
Result<PartitionedChain> BuildPartitionedChain(core::Engine* engine,
                                               const PartitionSpec& spec,
                                               const Schema& schema,
                                               const StageBuilder& stage);

}  // namespace datacell::sql::plan

#endif  // DATACELL_SQL_PLAN_PARTITION_H_
