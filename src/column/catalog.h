#ifndef DATACELL_COLUMN_CATALOG_H_
#define DATACELL_COLUMN_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "column/table.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace datacell {

/// Thread-safe registry of persistent relational tables.
///
/// Continuous queries may reference persistent tables and baskets
/// interchangeably (a headline capability of the DataCell: predicate
/// windows over "multiple streams and persistent tables"). Streams live in
/// the core::BasketRegistry; ordinary tables live here.
class Catalog {
 public:
  Catalog() = default;

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates an empty table with the given schema.
  Result<std::shared_ptr<Table>> CreateTable(const std::string& name,
                                             Schema schema);

  /// Looks up a table by name.
  Result<std::shared_ptr<Table>> GetTable(const std::string& name) const;

  bool HasTable(const std::string& name) const;

  Status DropTable(const std::string& name);

  /// Names of all tables, sorted.
  std::vector<std::string> ListTables() const;

  /// Bumped by every successful CreateTable and DropTable. A prepared SQL
  /// statement that reads a table compares it before each run to notice
  /// a DROP and CREATE of that table since it was bound.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  mutable Mutex mu_{LockRank::kCatalog};
  std::map<std::string, std::shared_ptr<Table>> tables_ DC_GUARDED_BY(mu_);
  std::atomic<uint64_t> generation_{0};
};

}  // namespace datacell

#endif  // DATACELL_COLUMN_CATALOG_H_
