#ifndef DATACELL_STORAGE_PERSIST_H_
#define DATACELL_STORAGE_PERSIST_H_

#include <string>

#include "column/catalog.h"
#include "column/table.h"
#include "util/status.h"

namespace datacell::storage {

/// Text persistence for the DBMS side of the DataCell (persistent tables).
///
/// Baskets are deliberately *not* persisted — the paper's Basket ACID rule
/// is that stream contents do not survive a crash or session boundary;
/// only catalog tables do. The format is the network codec's: first line
/// the schema header ("name:type|..."), then one tuple per line, so files
/// are diffable and can even be replayed through the gateway
/// (net::ShardedIngress).

/// Writes `table` to `path`, replacing any existing file.
Status SaveTable(const Table& table, const std::string& path);

/// Reads a table previously written by SaveTable.
Result<Table> LoadTable(const std::string& path);

/// Saves every catalog table as `<dir>/<name>.dct` (creates `dir` if
/// needed; stale .dct files from dropped tables are removed).
Status SaveCatalog(const Catalog& catalog, const std::string& dir);

/// Loads every `<dir>/*.dct` into the catalog (tables must not already
/// exist).
Status LoadCatalog(Catalog* catalog, const std::string& dir);

}  // namespace datacell::storage

#endif  // DATACELL_STORAGE_PERSIST_H_
