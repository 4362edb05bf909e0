#include "column/catalog.h"

namespace datacell {

Result<std::shared_ptr<Table>> Catalog::CreateTable(const std::string& name,
                                                    Schema schema) {
  MutexLock lock(&mu_);
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  auto table = std::make_shared<Table>(std::move(schema));
  tables_[name] = table;
  generation_.fetch_add(1, std::memory_order_acq_rel);
  return table;
}

Result<std::shared_ptr<Table>> Catalog::GetTable(const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return it->second;
}

bool Catalog::HasTable(const std::string& name) const {
  MutexLock lock(&mu_);
  return tables_.count(name) > 0;
}

Status Catalog::DropTable(const std::string& name) {
  MutexLock lock(&mu_);
  if (tables_.erase(name) == 0) {
    return Status::NotFound("no table named '" + name + "'");
  }
  generation_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

std::vector<std::string> Catalog::ListTables() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

}  // namespace datacell
