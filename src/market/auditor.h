#ifndef NIMBUS_MARKET_AUDITOR_H_
#define NIMBUS_MARKET_AUDITOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "market/catalog.h"
#include "ml/model.h"

namespace nimbus::market {

// The economic invariants the online auditor certifies continuously.
enum class AuditInvariant {
  kMispricing,     // Committed price != pricing function at its 1/δ.
  kMonotonicity,   // p(x) not monotone in inverse-NCP on the grid.
  kSubadditivity,  // p(x+y) > p(x) + p(y) somewhere on the grid.
  kConservation,   // Booked revenue != sum of committed sale prices.
};
const char* AuditInvariantName(AuditInvariant invariant);

// Per-lane commit tap: the bridge between one lane's commit sequencer
// and the auditor. The committing thread is the ONLY writer (it owns
// the lane's sequencer slot while calling Auditor::OnCommit); the
// auditor's background thread reads the conservation fingerprint
// through the seqlock. All fields are atomics, so concurrent
// read/write is data-race-free and a torn read is detected and
// retried via `version`.
class AuditTap {
 public:
  AuditTap() = default;
  AuditTap(const AuditTap&) = delete;
  AuditTap& operator=(const AuditTap&) = delete;

 private:
  friend class Auditor;

  int32_t index = -1;  // Position in the auditor's tap table.
  // Pure per-product sampling stream: fork(ticket) makes the decision
  // a function of (auditor seed, product, ticket) alone — identical
  // across worker counts and never touching any lane RNG stream.
  Rng sample_rng{0};

  // Conservation fingerprint, maintained incrementally by the
  // committing thread: baseline (booked revenue before the first
  // tapped commit) + accumulated (sum of tapped sale prices) must
  // track booked_after (the ledger's booked total after the latest
  // commit) exactly — the same identity journal replay re-derives.
  std::atomic<uint64_t> version{0};  // Seqlock (odd = write in flight).
  std::atomic<bool> has_baseline{false};
  std::atomic<double> baseline{0.0};
  std::atomic<double> accumulated{0.0};
  std::atomic<double> booked_after{0.0};
  std::atomic<int64_t> sales_after{0};
  std::atomic<int64_t> commits{0};
  // Test hook: revenue skew injected by TamperForTest to prove the
  // conservation check fires (never written in production).
  std::atomic<double> tamper{0.0};
};

struct AuditorOptions {
  // Fraction of committed sales sampled into the ring (1.0 = all).
  // The per-commit decision is Fork(ticket)-deterministic.
  double sample_rate = 1.0;
  // Seed of the sampling streams (independent of every market seed).
  uint64_t seed = 0xA0D1706ULL;
  // Inverse-NCP grid size for the monotonicity / subadditivity spot
  // checks (grid pairs are O(n^2) price evaluations, off-path).
  int grid_points = 9;
  // Relative tolerance of the re-price check and the conservation
  // identity (floating-point summation-order slack, not economics).
  double price_tol = 1e-6;
  double revenue_tol = 1e-6;
  // Background pass cadence.
  double pass_interval_seconds = 0.02;
  // Committed-sample ring capacity; the slowest consumer only delays
  // detection — overflow drops samples (counted), never blocks commit.
  size_t ring_capacity = 4096;
  // Pump telemetry::TimeseriesRing::Global() from the audit loop so
  // /statz history accrues and first-failure timestamps resolve.
  bool pump_timeseries = true;
  // Recent violations retained for /auditz and health reports.
  size_t max_recent_violations = 16;
};

// Always-on marketplace auditor: verifies, off the sequencer path, the
// economic guarantees the serving layer sells — price monotonicity in
// inverse-NCP along the served curve, subadditivity/arbitrage-freeness
// spot checks (pricing::AuditPricingFunction on an AuditGrid over the
// broker's quote range), exact re-pricing of sampled committed sales,
// and cross-shard revenue conservation (per-lane fingerprint == booked
// ledger total == catalog rollup). Strictly detection-only and
// observation-only: it never blocks or perturbs the quote path, never
// touches lane RNG streams or ledgers, and per-shard ledgers are
// byte-identical with the auditor on or off.
//
// Violations emit audit_violations_total{invariant} and
// audit_offering_violations_total{offering}, file a flight-recorder
// record flagged audit_violation (joined by /tracez), auto-dump the
// flight ring once per invariant (reasons "audit-violation-<i>"), and
// annotate the owning shard's health report.
class Auditor {
 public:
  explicit Auditor(AuditorOptions options, const Clock* clock = nullptr);
  ~Auditor();

  // Optional: enables the cross-shard rollup conservation check and
  // shard-state-aware pricing audits. `catalog` must outlive the
  // auditor.
  void AttachCatalog(Catalog* catalog);

  // Registers one serving lane; called by the serving layer before
  // traffic starts. Exactly one of `shard` / `fixed_market` is set:
  // shard lanes resolve their marketplace through the shard (so audits
  // survive recovery swaps) and join the cross-shard rollup check;
  // fixed-market lanes audit against the stable Marketplace pointer
  // and get fingerprint conservation only. Both must outlive the
  // auditor. The returned tap is owned by the auditor and valid for
  // its lifetime.
  AuditTap* RegisterLane(const std::string& product_id, Shard* shard,
                         Marketplace* fixed_market);

  // What the commit path hands the auditor for one successful commit.
  struct CommitView {
    ml::ModelKind model = ml::ModelKind::kLinearRegression;
    double inverse_ncp = 0.0;
    double price = 0.0;
    // Ledger totals AFTER this commit, read by the committing thread
    // (the only thread allowed to touch the live ledger).
    double booked_revenue_after = 0.0;
    int64_t sales_after = 0;
    uint64_t trace_id = 0;
    int64_t ticket = -1;
    bool degraded = false;
  };

  // Called by the committing thread while it owns the lane's sequencer
  // slot, AFTER a successful commit. Cost: a handful of relaxed
  // atomics plus one pure RNG fork; a sampled commit additionally
  // copies ~64 bytes into the lock-free ring. Never blocks. The
  // `audit.verify` fault point corrupts the sampled COPY's price (the
  // ledger is untouched) so detection itself is drill-testable.
  void OnCommit(AuditTap* tap, const CommitView& view);

  // Background audit loop (Start is idempotent; Stop joins, and the
  // destructor calls it).
  void Start();
  void Stop();
  bool running() const;

  // One synchronous audit pass: drain the sample ring, run the
  // per-sample and per-offering checks, then the conservation checks.
  // Returns the number of violations found in this pass. The loop
  // calls this; tests and drills call it directly for determinism.
  int RunPass();

  struct Violation {
    AuditInvariant invariant = AuditInvariant::kMispricing;
    std::string product;   // Owning shard / lane.
    std::string offering;  // Model kind ("" for conservation).
    std::string detail;
    int64_t ticket = -1;     // Sampled commit (-1 for pass checks).
    uint64_t trace_id = 0;   // Joined by /tracez when nonzero.
    int64_t detected_t_ns = 0;
  };

  struct Status {
    bool running = false;
    int64_t passes = 0;
    int64_t samples_audited = 0;
    int64_t samples_dropped = 0;
    int64_t commits_observed = 0;
    int64_t violations = 0;
    int64_t last_pass_t_ns = 0;
    int64_t first_violation_t_ns = 0;  // 0 = clean so far.
    std::vector<Violation> recent;     // Oldest first, bounded.
  };
  Status GetStatus() const;

  // {"running":..,"passes":..,"violations":[...]} — the /auditz body,
  // including each violated invariant's first-failure timestamp from
  // the global timeseries ring.
  std::string ToJson() const;

  // Test/drill hook: skews one lane's conservation fingerprint by
  // `revenue_delta` so the next pass must flag kConservation. Never
  // touches the ledger.
  void TamperForTest(const std::string& product_id, double revenue_delta);

  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

 private:
  struct Slot;
  struct TapEntry;

  void Loop();
  // Drains published ring samples; returns violations found.
  int DrainAndCheck(std::vector<Violation>* out);
  int CheckConservation(std::vector<Violation>* out);
  void FileViolation(Violation violation);

  const AuditorOptions options_;
  const Clock* const clock_;
  // Tap table and catalog: registration happens before traffic
  // (serving-layer construction), possibly while the audit loop already
  // runs; both are guarded by taps_mu_ for that window.
  Catalog* catalog_ = nullptr;
  mutable std::mutex taps_mu_;
  std::vector<std::unique_ptr<TapEntry>> taps_;

  // Lock-free MPSC sample ring (writers: lane sequencers, consumer:
  // the audit loop).
  std::vector<Slot> slots_;
  std::atomic<int64_t> head_{0};
  int64_t consumed_ = 0;  // Audit-thread-only.
  std::atomic<int64_t> dropped_{0};

  // Status and violation log.
  mutable std::mutex status_mu_;
  int64_t passes_ = 0;
  int64_t samples_audited_ = 0;
  int64_t violations_ = 0;
  int64_t last_pass_t_ns_ = 0;
  int64_t first_violation_t_ns_ = 0;
  std::vector<Violation> recent_;

  // Per-offering curve-audit memo: the pricing function instance last
  // certified per (tap, model), so the O(grid^2) check runs once per
  // curve version rather than once per sample.
  std::map<std::pair<int32_t, int32_t>, const void*> audited_curves_;

  mutable std::mutex loop_mu_;
  std::condition_variable loop_cv_;
  bool stop_ = false;
  bool loop_running_ = false;
  std::thread loop_;
};

}  // namespace nimbus::market

#endif  // NIMBUS_MARKET_AUDITOR_H_
