#ifndef SITSTATS_COMMON_FAULT_INJECTION_H_
#define SITSTATS_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"
#include "common/sync.h"

namespace sitstats {

/// Deterministic, process-global fault injector for error-path testing.
///
/// Fallible operations declare *named sites* with
///
///   SITSTATS_FAULT_SITE("storage.scan.open");
///
/// at the point where an I/O, parse, or build failure would surface. In
/// normal operation a site is a single relaxed atomic load (and compiles
/// away entirely when the SITSTATS_FAULT_INJECTION CMake option is OFF).
/// A test arms the injector to fail the N-th hit of one site with a chosen
/// Status; the sweep driver (tools/fault_sweep.cc,
/// tests/fault_injection_test.cc) enumerates every reachable site x
/// ordinal for a workload and proves each injected failure surfaces as a
/// clean error with no crash, no hang, and no partially-registered state.
///
/// Allocation-failure (OOM) mode: sites named "oom.*" are declared with
/// SITSTATS_OOM_SITE at points that reserve memory proportional to data
/// size (sample vectors, histogram bucket arrays, cache insertions). Armed
/// via ArmAllocationFailure, they fail with kResourceExhausted carrying
/// the requested byte count — modelling the allocator saying no, so the
/// sweep can prove an out-of-memory surfaces as a clean error rather than
/// a crash or a half-registered statistic.
///
/// Determinism: sites are hit a fixed number of times for a fixed (seeded)
/// workload — site ordinals count *occurrences*, not wall-clock events, so
/// a sweep enumerated once replays identically. Under several executor
/// workers the per-site totals are stable even though the interleaving is
/// not; "fail hit N of site S" then fails one nondeterministically-chosen
/// occurrence, which is exactly the coverage concurrency needs.
///
/// Thread safety: Arm/Disarm/StartCounting/StopCounting are for the test
/// driver thread; MaybeFail may race freely from worker threads.
class FaultInjector {
 public:
  /// Per-site hit totals observed during a counting run.
  using SiteCounts = std::map<std::string, uint64_t>;

  static FaultInjector& Global();

  /// Arms the injector: the `ordinal`-th (1-based) hit of `site` fails
  /// with `status`. Resets all hit counters and the injected-fault count.
  /// `status` must not be OK.
  void Arm(const std::string& site, uint64_t ordinal, Status status);

  /// Arms an allocation failure: the `ordinal`-th hit of `site` fails with
  /// kResourceExhausted as if the reservation guarded by the site had been
  /// refused by the allocator. `detail` (e.g. a sweep marker) is folded
  /// into the status message; the firing site appends the byte count it
  /// was about to reserve.
  void ArmAllocationFailure(const std::string& site, uint64_t ordinal,
                            const std::string& detail = "");

  /// Disarms the injector and stops counting; sites become no-ops again.
  void Disarm();

  /// Starts a counting (enumeration) run: every site hit is tallied and
  /// nothing fails. Resets previous counts.
  void StartCounting();

  /// Stops counting and returns the per-site hit totals.
  SiteCounts StopCounting();

  /// Number of faults injected since the last Arm() (0 or 1 — an armed
  /// injector fires at most once).
  uint64_t faults_injected() const {
    return faults_injected_.load(std::memory_order_acquire);
  }

  bool armed() const;

  /// The hook behind SITSTATS_FAULT_SITE. Returns the armed Status when
  /// this hit is the armed site x ordinal, OK otherwise.
  Status MaybeFail(const char* site);

  /// The hook behind SITSTATS_OOM_SITE: like MaybeFail, but a firing
  /// kResourceExhausted status reports the `bytes` the caller was about
  /// to reserve.
  Status MaybeFailAlloc(const char* site, uint64_t bytes);

 private:
  FaultInjector() = default;

  Status MaybeFailLocked(const char* site) REQUIRES(mu_);

  /// Fast-path gate: true while armed or counting. Checked with a relaxed
  /// load before anything else so idle sites cost one branch.
  std::atomic<bool> active_{false};
  std::atomic<uint64_t> faults_injected_{0};

  mutable Mutex mu_;
  bool counting_ GUARDED_BY(mu_) = false;
  bool armed_ GUARDED_BY(mu_) = false;
  bool fired_ GUARDED_BY(mu_) = false;
  std::string armed_site_ GUARDED_BY(mu_);
  uint64_t armed_ordinal_ GUARDED_BY(mu_) = 0;
  Status injected_status_ GUARDED_BY(mu_);
  SiteCounts counts_ GUARDED_BY(mu_);
};

}  // namespace sitstats

/// Declares a fault-injection site inside a function returning Status or
/// Result<T>: when the injector is armed for this site's current ordinal,
/// the function returns the injected error. Compiles to nothing when the
/// SITSTATS_FAULT_INJECTION CMake option is OFF.
#if defined(SITSTATS_FAULT_INJECTION_ENABLED)
#define SITSTATS_FAULT_SITE(site)                                     \
  do {                                                                \
    ::sitstats::Status _fault_st =                                    \
        ::sitstats::FaultInjector::Global().MaybeFail(site);          \
    if (!_fault_st.ok()) return _fault_st;                            \
  } while (false)
#else
#define SITSTATS_FAULT_SITE(site) \
  do {                            \
  } while (false)
#endif

/// Expression form for call sites that must *survive* an injected fault
/// instead of returning it — the server's accept/read/write paths record
/// the Status and keep serving. Evaluates to the injected Status (or OK);
/// evaluates to OK with zero overhead when the option is OFF.
#if defined(SITSTATS_FAULT_INJECTION_ENABLED)
#define SITSTATS_FAULT_CHECK(site) \
  ::sitstats::FaultInjector::Global().MaybeFail(site)
#else
#define SITSTATS_FAULT_CHECK(site) ::sitstats::Status::OK()
#endif

/// Declares an allocation-failure (OOM) injection site guarding a memory
/// reservation of roughly `bytes` bytes, inside a function returning
/// Status or Result<T>. Site names use the "oom." prefix by convention
/// (checked by tools/sitstats_lint against the fault-site inventory).
/// When armed via ArmAllocationFailure, the function returns
/// kResourceExhausted before the reservation happens.
#if defined(SITSTATS_FAULT_INJECTION_ENABLED)
#define SITSTATS_OOM_SITE(site, bytes)                                \
  do {                                                                \
    ::sitstats::Status _oom_st =                                      \
        ::sitstats::FaultInjector::Global().MaybeFailAlloc(           \
            site, static_cast<uint64_t>(bytes));                      \
    if (!_oom_st.ok()) return _oom_st;                                \
  } while (false)
#else
#define SITSTATS_OOM_SITE(site, bytes) \
  do {                                 \
  } while (false)
#endif

#endif  // SITSTATS_COMMON_FAULT_INJECTION_H_
