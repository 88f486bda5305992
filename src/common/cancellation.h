#ifndef SITSTATS_COMMON_CANCELLATION_H_
#define SITSTATS_COMMON_CANCELLATION_H_

#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "common/status.h"

namespace sitstats {

namespace internal {
struct CancellationState;
}  // namespace internal

/// Read side of a cooperative cancellation signal. Tokens are cheap,
/// copyable handles onto shared state owned by a CancellationSource; a
/// default-constructed token is never cancelled and costs one null check
/// per poll, so hot loops can take a token unconditionally.
///
/// A token is cancelled once its source or any ancestor source is
/// cancelled, or once the earliest deadline on that chain has passed; no
/// thread has to fire a deadline. A poll costs one acquire load per source
/// on the chain, plus one steady_clock read when the chain has a deadline,
/// so long-running loops poll `cancelled()` or `CheckCancelled()` once per
/// batch of work. Blocking waits use `WaitForCancellation`, which every
/// Cancel() wakes at once and which times out at the deadline.
class CancellationToken {
 public:
  /// A token that can never be cancelled.
  CancellationToken() = default;

  [[nodiscard]] bool cancelled() const;

  /// OK while live. Once cancelled: Status::DeadlineExceeded("<what>
  /// deadline exceeded") if the chain's deadline has passed, otherwise
  /// Status::Cancelled("<what> cancelled"). Sprinkle into
  /// Status/Result-returning loops:
  ///   SITSTATS_RETURN_IF_ERROR(cancel.CheckCancelled("sweep scan"));
  Status CheckCancelled(const std::string& what) const;

  /// Blocks until the token is cancelled or `timeout` elapses, whichever
  /// is first. Returns true when the token is cancelled (its deadline
  /// passing counts), false on timeout. A token with no source sleeps the
  /// full timeout.
  bool WaitForCancellation(std::chrono::milliseconds timeout) const;

 private:
  friend class CancellationSource;
  explicit CancellationToken(
      std::shared_ptr<internal::CancellationState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::CancellationState> state_;
};

/// Write side: owns the shared state and fires the signal. A source built
/// from a parent token is *linked*: its token is also cancelled whenever
/// the parent is (the executor links its internal first-error source to
/// the caller's request token this way), and it inherits the parent's
/// deadline. Cancel() is idempotent and safe from any thread; it wakes
/// every WaitForCancellation waiter. Tokens keep the state alive, so a
/// source may be destroyed while its tokens are still in use.
class CancellationSource {
 public:
  using Clock = std::chrono::steady_clock;

  /// A source whose token is also cancelled whenever `parent` (default:
  /// none) is, and once `deadline` (default: none) or a deadline of the
  /// parent's chain passes.
  explicit CancellationSource(
      const CancellationToken& parent = CancellationToken(),
      Clock::time_point deadline = Clock::time_point::max());

  CancellationSource(const CancellationSource&) = delete;
  CancellationSource& operator=(const CancellationSource&) = delete;

  void Cancel();
  [[nodiscard]] bool cancelled() const { return token().cancelled(); }
  [[nodiscard]] CancellationToken token() const;

 private:
  std::shared_ptr<internal::CancellationState> state_;
};

}  // namespace sitstats

#endif  // SITSTATS_COMMON_CANCELLATION_H_
