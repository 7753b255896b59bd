#include "alloc_count.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

// One cache line per thread. A thread claims a slot on its first
// allocation and is then its only writer, so the increment is a plain
// load/store. Threads past the last slot share it and add atomically.
struct alignas(64) Slot {
  std::atomic<uint64_t> count{0};
};

constexpr size_t kSlots = 4096;
Slot g_slots[kSlots];
std::atomic<size_t> g_claimed{0};
thread_local Slot* t_slot = nullptr;

Slot* ThreadSlot() {
  if (t_slot == nullptr) {
    const size_t i = g_claimed.fetch_add(1, std::memory_order_relaxed);
    t_slot = &g_slots[i < kSlots ? i : kSlots - 1];
  }
  return t_slot;
}

inline void CountOne() {
  Slot* slot = ThreadSlot();
  if (slot == &g_slots[kSlots - 1]) {
    slot->count.fetch_add(1, std::memory_order_relaxed);
  } else {
    slot->count.store(slot->count.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  }
}

void* Allocate(std::size_t size) {
  CountOne();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  CountOne();
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

uint64_t ThreadAllocs() {
  return ThreadSlot()->count.load(std::memory_order_relaxed);
}

uint64_t TotalAllocs() {
  const size_t used = g_claimed.load(std::memory_order_relaxed);
  const size_t n = used < kSlots ? used : kSlots;
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += g_slots[i].count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace perfbench

// --- Global replacements -----------------------------------------------------

void* operator new(std::size_t size) { return perfbench::Allocate(size); }
void* operator new[](std::size_t size) { return perfbench::Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::AllocateAligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return perfbench::AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return perfbench::AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
