#ifndef NIMBUS_MARKET_CURVE_CACHE_H_
#define NIMBUS_MARKET_CURVE_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "common/clock.h"
#include "common/profiler.h"
#include "common/statusor.h"
#include "data/dataset.h"
#include "pricing/error_curve.h"

namespace nimbus::market {

// Identity of one error-transformation curve: everything that feeds the
// Monte-Carlo estimate. Two brokers (or two generations of one broker)
// that agree on every field would build bit-identical curves, so they
// may share the cached entry; any differing field — notably the seed,
// which Marketplace::AddOffering perturbs per offering — separates them.
struct CurveKey {
  // FingerprintDataset over the broker's evaluation split.
  uint64_t dataset_fingerprint = 0;
  std::string model;      // ml::ModelKindToString of the offering.
  std::string mechanism;  // mechanism::NoiseMechanism::name().
  std::string loss;       // Report loss ε name.
  uint64_t seed = 0;      // Broker master seed (per-offering).
  double min_inverse_ncp = 0.0;
  double max_inverse_ncp = 0.0;
  int grid_points = 0;
  int samples_per_point = 0;

  // Canonical map key. Doubles are rendered as bit patterns so keys
  // never collide through decimal rounding.
  std::string ToString() const;
};

// Order-insensitive-enough content hash of a dataset (FNV-1a over the
// task, shape, and every example's raw double bits) — the cache-key
// component standing in for "same evaluation data".
uint64_t FingerprintDataset(const data::Dataset& dataset);

// What a requester does when it finds another thread mid-build for its
// key: block until that build commits (kWait) or, when a previous
// version of the curve is still valid, take it immediately (kServeStale).
enum class StalePolicy {
  kWait,
  kServeStale,
};

// Shared, versioned, concurrency-safe cache of immutable error curves:
// every quote after the first is a shared_ptr copy instead of a
// Monte-Carlo build.
//
// Single-flight protocol, per key:
//   - The first requester of a missing (or invalidated) version becomes
//     the builder; it runs the caller-supplied builder outside the slot
//     lock, so hits on other keys never stall behind it.
//   - Concurrent requesters of the same key never start a second build:
//     they wait on the in-flight one (kWait) or are served the previous
//     committed version when one exists (kServeStale).
//   - A failed or deadline-cancelled build commits nothing; waiters of
//     that build get its status, and the next fresh requester retries.
//     RNG discipline is therefore the builder callback's alone: the
//     cache never re-runs a build whose result it already holds.
//
// Versioning: Invalidate bumps the key's target version. The previously
// committed curve remains available to kServeStale requesters until the
// rebuild commits; entries handed out earlier stay alive through their
// shared_ptr, so quotes in flight never dangle.
//
// Telemetry: curve_cache_{hits,misses,stale_served,inflight_waits,
// builds,build_failures,invalidations}_total counters, the
// curve_cache_entries gauge, and the curve_cache_build_latency_us
// histogram; per-instance Stats mirror them for tests.
class CurveCache {
 public:
  using Builder = std::function<StatusOr<pricing::ErrorCurve>()>;

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t stale_served = 0;
    int64_t inflight_waits = 0;
    int64_t builds = 0;
    int64_t build_failures = 0;
    int64_t invalidations = 0;
  };

  CurveCache() = default;
  CurveCache(const CurveCache&) = delete;
  CurveCache& operator=(const CurveCache&) = delete;

  // Returns the committed curve for `key`, building it with `build` when
  // missing or stale (single-flight; see class comment). `cancel`
  // (optional) bounds the in-flight wait — a waiter whose deadline
  // expires unwinds with kDeadlineExceeded without disturbing the build.
  StatusOr<std::shared_ptr<const pricing::ErrorCurve>> GetOrBuild(
      const CurveKey& key, const Builder& build,
      StalePolicy policy = StalePolicy::kWait,
      const CancelToken* cancel = nullptr);

  // Marks the key's committed version stale: the next GetOrBuild runs a
  // fresh build (kServeStale requesters keep getting the old curve until
  // the rebuild commits). No-op for keys never requested.
  void Invalidate(const CurveKey& key);

  // Committed version of the key: 0 = never built, then 1, 2, ... after
  // each committed (re)build.
  int64_t VersionOf(const CurveKey& key) const;

  size_t size() const;
  Stats stats() const;

 private:
  struct Slot {
    // Instrumented (mutex_*{mutex="curve_cache_slot"}): waiter convoys
    // behind an in-flight build are visible in the contention profile.
    // The outer map_mu_ shared_mutex stays plain — ProfiledMutex models
    // exclusive locking only, and the map lock is touched once per
    // lookup versus the slot's per-quote traffic.
    prof::ProfiledMutex mu{"curve_cache_slot"};
    std::condition_variable_any cv;
    std::shared_ptr<const pricing::ErrorCurve> curve;  // Last committed.
    int64_t version = 0;         // Version of `curve` (0 = none yet).
    int64_t target_version = 1;  // What a fresh build would commit as.
    bool building = false;       // Exactly one builder at a time.
    // Completed build attempts (success or failure); lets waiters tell
    // "the build I waited on failed" apart from spurious wakeups.
    uint64_t build_epoch = 0;
    Status last_build_error;
  };

  Slot* GetSlot(const CurveKey& key);

  mutable std::shared_mutex map_mu_;
  std::map<std::string, std::unique_ptr<Slot>> slots_;

  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> stale_served_{0};
  std::atomic<int64_t> inflight_waits_{0};
  std::atomic<int64_t> builds_{0};
  std::atomic<int64_t> build_failures_{0};
  std::atomic<int64_t> invalidations_{0};
};

}  // namespace nimbus::market

#endif  // NIMBUS_MARKET_CURVE_CACHE_H_
