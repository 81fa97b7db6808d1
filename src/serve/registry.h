// Hot-swap snapshot slot, RCU style over a shared_ptr.
//
// Readers call current() once per batch: a pointer copy under a mutex held
// only for the refcount increment, never across a forward. publish() swaps
// the pointer under the same mutex: the expensive snapshot build happens
// before, outside any shared state. The retired snapshot's grace period is
// the shared_ptr refcount itself — it is destroyed (replicas, CSR state,
// workspaces) precisely when the last in-flight request that loaded it drops
// its reference, never under a reader's feet and never leaked.
//
// Not std::atomic<std::shared_ptr>: libstdc++ 12's load() releases its
// internal lock bit with a relaxed store, so its read of the stored pointer
// is not ordered before the next publish()'s write. ThreadSanitizer reports
// that data race under the swap-storm test.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "serve/servable.h"

namespace fedtiny::serve {

class SnapshotRegistry {
 public:
  /// The snapshot to serve this request from; nullptr before first publish.
  [[nodiscard]] std::shared_ptr<const ServableModel> current() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return slot_;
  }

  /// Install `next` (may be nullptr to take the tier out of service). The
  /// previous snapshot drains naturally via refcount; if this held its last
  /// reference, it is destroyed here, outside the lock.
  void publish(std::shared_ptr<const ServableModel> next) {
    std::shared_ptr<const ServableModel> retired;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      retired = std::exchange(slot_, std::move(next));
    }
    publishes_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] uint64_t publishes() const {
    return publishes_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ServableModel> slot_;
  std::atomic<uint64_t> publishes_{0};
};

}  // namespace fedtiny::serve
