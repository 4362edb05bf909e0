#include "sql/plan/plan.h"

#include <cinttypes>
#include <cstdio>

namespace datacell::sql::plan {

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string FingerprintHex(const std::string& s) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, Fnv1a64(s));
  return buf;
}

}  // namespace datacell::sql::plan
