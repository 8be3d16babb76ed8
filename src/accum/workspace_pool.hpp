// Per-thread workspace pool: keeps one accumulator (dense/hash/bitmap —
// including its marker array) alive per OpenMP thread across execute()
// calls, so iterated workloads pay the allocation + first-touch cost once
// instead of once per call. Accumulators rely on their marker-based reset
// protocol to stay row-clean between uses, so a pooled instance is handed
// back exactly as reusable as a freshly constructed one.
//
// A slot is rebuilt only when its recorded capability (columns for
// dense/bitmap, row bound for hash) no longer covers the request — shrinking
// inputs (e.g. k-truss peeling) keep reusing the larger workspace. A
// workspace sized along two dimensions packs them into one key and
// supplies a static covers(have, want) (see capability_covers). The
// per-slot counters make reuse observable: tests and the iterated-workload
// bench assert `constructions` stays flat after warm-up.
//
// Thread safety: size the pool with reserve() before any concurrent use
// (reserve itself is NOT safe against in-flight acquires); after that,
// acquire() touches only the calling thread's slot, slots live in a deque
// so reserving more never moves existing ones, and the per-slot counters
// are relaxed atomics, so stats() may run concurrently with acquires (the
// batch engine polls it while pool workers hold workspaces).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "support/errors.hpp"
#include "support/fault.hpp"
#include "support/memory_governor.hpp"

namespace tilq {

/// Aggregated pool counters (summed over slots by WorkspacePool::stats()).
struct WorkspacePoolStats {
  std::uint64_t acquisitions = 0;   ///< accumulators handed out
  std::uint64_t constructions = 0;  ///< accumulators actually (re)built
  std::uint64_t retunes = 0;        ///< rebuilds forced by a capability bump
};

/// Whether a resident workspace built for capability `have` serves a
/// request for `want`: Acc::covers when the type defines one, else `have`
/// is at least `want`.
template <class Acc>
[[nodiscard]] bool capability_covers(std::uint64_t have,
                                     std::uint64_t want) noexcept {
  if constexpr (requires { Acc::covers(have, want); }) {
    return Acc::covers(have, want);
  } else {
    return have >= want;
  }
}

template <class Acc>
class WorkspacePool {
 public:
  /// Ensures a slot exists for thread numbers [0, threads). Never shrinks:
  /// a later smaller team keeps the extra warm slots around.
  void reserve(int threads) {
    if (threads > 0 && static_cast<std::size_t>(threads) > slots_.size()) {
      slots_.resize(static_cast<std::size_t>(threads));
    }
  }

  /// Attaches the engine's memory governor: (re)constructions charge the
  /// slot's byte estimate against the budget and drops release it. Set
  /// before any concurrent use, like reserve(). nullptr detaches.
  void set_governor(MemoryGovernor* governor) noexcept {
    governor_ = governor;
  }

  /// Returns thread `thread`'s accumulator, constructing it via `make()`
  /// only when the slot is empty or the resident instance's capability
  /// does not cover `capability`. Call only from the owning thread, after a
  /// reserve() that covers `thread`. Throws CapacityError when the
  /// pool-alloc fault site fires (or make() itself fails to allocate); the
  /// slot is left empty, not half-built, so the pool stays reusable.
  /// `bytes_estimate` is the slot's footprint charged to the governor when
  /// the construction happens (0 = unaccounted).
  template <class Make>
  Acc& acquire(int thread, std::uint64_t capability, Make&& make,
               std::uint64_t bytes_estimate = 0) {
    Slot& slot = slots_[static_cast<std::size_t>(thread)];
    slot.acquisitions.fetch_add(1, std::memory_order_relaxed);
    if (!slot.acc.has_value() ||
        !capability_covers<Acc>(slot.capability, capability)) {
      if (fault::should_fire(FaultSite::kPoolAllocation)) {
        throw CapacityError(
            "workspace allocation failed (injected fault: pool-alloc)");
      }
      if (slot.acc.has_value()) {
        slot.retunes.fetch_add(1, std::memory_order_relaxed);
      }
      if (governor_ != nullptr) {
        governor_->release(slot.bytes);
        slot.bytes = 0;
      }
      slot.acc.reset();  // old workspace freed before the replacement builds
      slot.acc.emplace(make());
      slot.capability = capability;
      if (governor_ != nullptr) {
        governor_->charge(bytes_estimate);
        slot.bytes = bytes_estimate;
      }
      slot.constructions.fetch_add(1, std::memory_order_relaxed);
    }
    return *slot.acc;
  }

  /// Drops every pooled workspace (counters survive — they describe the
  /// pool's lifetime, not its current contents). Releases the slots' byte
  /// charges. Like reserve(), NOT safe against in-flight acquires: the
  /// engine calls this only while no job is in flight.
  void release() {
    for (Slot& slot : slots_) {
      slot.acc.reset();
      slot.capability = 0;
      if (governor_ != nullptr) {
        governor_->release(slot.bytes);
      }
      slot.bytes = 0;
    }
  }

  [[nodiscard]] WorkspacePoolStats stats() const {
    WorkspacePoolStats total;
    for (const Slot& slot : slots_) {
      total.acquisitions +=
          slot.acquisitions.load(std::memory_order_relaxed);
      total.constructions +=
          slot.constructions.load(std::memory_order_relaxed);
      total.retunes += slot.retunes.load(std::memory_order_relaxed);
    }
    return total;
  }

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

 private:
  struct Slot {
    std::optional<Acc> acc;
    std::uint64_t capability = 0;
    std::uint64_t bytes = 0;  ///< governor charge held by this slot
    std::atomic<std::uint64_t> acquisitions{0};
    std::atomic<std::uint64_t> constructions{0};
    std::atomic<std::uint64_t> retunes{0};
  };
  // deque: growth constructs new slots in place without moving existing
  // ones (atomics are immovable, and worker threads hold references).
  std::deque<Slot> slots_;
  MemoryGovernor* governor_ = nullptr;
};

}  // namespace tilq
