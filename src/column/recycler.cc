#include "column/recycler.h"

#include <algorithm>
#include <array>
#include <bit>
#include <variant>

#include "util/mutex.h"

#if defined(__SANITIZE_ADDRESS__)
#define DC_RECYCLER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DC_RECYCLER_ASAN 1
#endif
#endif

#ifdef DC_RECYCLER_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace datacell::recycler {

namespace {

// Size classes: floor(log2(bytes)), from kMinBytes up to kCapBytes.
constexpr int kMinClass = std::bit_width(kMinBytes) - 1;
constexpr int kMaxClass = std::bit_width(kCapBytes) - 1;
constexpr int kClasses = kMaxClass - kMinClass + 1;
constexpr int kTypes = 4;

int ClassOf(size_t bytes) { return std::bit_width(bytes) - 1; }

template <typename T>
constexpr int TypeIndex() {
  if constexpr (std::is_same_v<T, int64_t>) return 0;
  if constexpr (std::is_same_v<T, double>) return 1;
  if constexpr (std::is_same_v<T, uint8_t>) return 2;
  return 3;
}

// A fresh buffer's capacity: the request rounded up to an eighth of its
// size class, so requests that vary a little between deliveries (a
// filter's survivor count) fit each other's buffers.
size_t FreshBytes(size_t need) {
  const size_t step = size_t{1} << (ClassOf(need) - 3);
  return (need + step - 1) / step * step;
}

void Poison(const void* p, size_t bytes) {
#ifdef DC_RECYCLER_ASAN
  ASAN_POISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

void Unpoison(const void* p, size_t bytes) {
#ifdef DC_RECYCLER_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

using Buffer = std::variant<std::vector<int64_t>, std::vector<double>,
                            std::vector<uint8_t>, std::vector<uint32_t>>;

struct Parked {
  Buffer buf;
  size_t bytes;  // capacity in bytes
  uint64_t seq;  // park order, for oldest-first eviction
};

const void* DataOf(const Buffer& b) {
  return std::visit([](const auto& v) -> const void* { return v.data(); }, b);
}

class Recycler {
 public:
  // Moves a parked vector of at least `need` bytes into `*out`; on a miss
  // `*out` is left for the caller to allocate FreshBytes(need) into.
  // Either way the bytes lent count as credit.
  template <typename T>
  bool Take(size_t need, std::vector<T>* out) {
    const int c0 = ClassOf(need);
    size_t bytes = 0;
    {
      MutexLock lock(&mu_);
      for (int c = c0; c <= c0 + 1 && c <= kMaxClass && bytes == 0; ++c) {
        std::vector<Parked>& list = lists_[TypeIndex<T>()][c - kMinClass];
        // Best fit, newest first among equals: a small request leaves the
        // larger buffers to the larger requests, which would otherwise
        // allocate afresh.
        size_t best = list.size();
        for (size_t i = 0; i < list.size(); ++i) {
          const Parked& p = list[i];
          if (p.bytes < need) continue;
          if (best == list.size() || p.bytes < list[best].bytes ||
              (p.bytes == list[best].bytes && p.seq > list[best].seq)) {
            best = i;
          }
        }
        if (best == list.size()) continue;
        *out = std::move(std::get<std::vector<T>>(list[best].buf));
        bytes = list[best].bytes;
        parked_bytes_ -= bytes;
        Remove(&list, best);
      }
      const size_t lent = bytes > 0 ? bytes : FreshBytes(need);
      credit_ = std::min(kCapBytes, credit_ + lent);
    }
    if (bytes == 0) return false;
    Unpoison(out->data(), bytes);
    return true;
  }

  template <typename T>
  void Park(std::vector<T>* v) {
    const size_t bytes = v->capacity() * sizeof(T);
    v->clear();
    std::vector<Parked> freed;  // released once the lock is dropped
    {
      MutexLock lock(&mu_);
      if (bytes > credit_) {
        // More than the recycler lent out: a vector it never handed out
        // (grown by push_back, say) is freed, so a workload that draws no
        // large buffers parks none.
        freed.push_back(Parked{Buffer(std::move(*v)), 0, 0});
      } else {
        credit_ -= bytes;
        while (parked_bytes_ + bytes > kCapBytes) {
          // Eviction is rare (the working set fits under the cap), so it
          // pays for a scan of every entry; lists stay unordered.
          std::vector<Parked>* oldest_list = nullptr;
          size_t oldest = 0;
          for (auto& per_type : lists_) {
            for (std::vector<Parked>& list : per_type) {
              for (size_t i = 0; i < list.size(); ++i) {
                if (oldest_list == nullptr ||
                    list[i].seq < (*oldest_list)[oldest].seq) {
                  oldest_list = &list;
                  oldest = i;
                }
              }
            }
          }
          Parked& victim = (*oldest_list)[oldest];
          parked_bytes_ -= victim.bytes;
          Unpoison(DataOf(victim.buf), victim.bytes);
          freed.push_back(std::move(victim));
          Remove(oldest_list, oldest);
        }
        // Poisoned before it is listed: once listed, another thread may
        // take (and unpoison) it.
        Poison(v->data(), bytes);
        lists_[TypeIndex<T>()][ClassOf(bytes) - kMinClass].push_back(
            Parked{Buffer(std::move(*v)), bytes, next_seq_++});
        parked_bytes_ += bytes;
      }
    }
  }

  size_t parked_bytes() {
    MutexLock lock(&mu_);
    return parked_bytes_;
  }

 private:
  // Drops entry i in O(1): the last entry takes its place.
  static void Remove(std::vector<Parked>* list, size_t i) {
    if (i + 1 != list->size()) (*list)[i] = std::move(list->back());
    list->pop_back();
  }

  Mutex mu_{LockRank::kBufferRecycler};
  // Per element type and size class, in no particular order.
  std::array<std::array<std::vector<Parked>, kClasses>, kTypes> lists_
      DC_GUARDED_BY(mu_);
  size_t parked_bytes_ DC_GUARDED_BY(mu_) = 0;
  // Bytes lent out and not yet parked again (at most kCapBytes).
  size_t credit_ DC_GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ DC_GUARDED_BY(mu_) = 0;
};

// Never destroyed: a column may drop its last buffer during static
// destruction.
Recycler& Global() {
  static Recycler* recycler = new Recycler();
  return *recycler;
}

}  // namespace

template <typename T>
std::vector<T> TakeLarge(size_t n) {
  std::vector<T> v;
  const size_t need = n * sizeof(T);
  if (ClassOf(need) > kMaxClass || !Global().Take(need, &v)) {
    v.reserve(FreshBytes(need) / sizeof(T));
  }
  return v;
}

template <typename T>
void ParkLarge(std::vector<T>* v) {
  Global().Park(v);
}

size_t ParkedBytes() { return Global().parked_bytes(); }

template std::vector<int64_t> TakeLarge<int64_t>(size_t);
template std::vector<double> TakeLarge<double>(size_t);
template std::vector<uint8_t> TakeLarge<uint8_t>(size_t);
template std::vector<uint32_t> TakeLarge<uint32_t>(size_t);
template void ParkLarge<int64_t>(std::vector<int64_t>*);
template void ParkLarge<double>(std::vector<double>*);
template void ParkLarge<uint8_t>(std::vector<uint8_t>*);
template void ParkLarge<uint32_t>(std::vector<uint32_t>*);

}  // namespace datacell::recycler
