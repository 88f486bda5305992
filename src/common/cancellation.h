#ifndef SITSTATS_COMMON_CANCELLATION_H_
#define SITSTATS_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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
/// Long-running loops poll `cancelled()` (two relaxed atomic loads) or
/// `CheckCancelled()` every batch of work; blocking waits use
/// `WaitForCancellation`, which is woken immediately by Cancel() rather
/// than polling.
class CancellationToken {
 public:
  /// A token that can never be cancelled.
  CancellationToken() = default;

  [[nodiscard]] bool cancelled() const;

  /// OK while live; Status::Cancelled("<what> cancelled") once cancelled.
  /// Sprinkle into Status/Result-returning loops:
  ///   SITSTATS_RETURN_IF_ERROR(cancel.CheckCancelled("sweep scan"));
  Status CheckCancelled(const std::string& what) const;

  /// Blocks until the token is cancelled or `timeout` elapses. Returns
  /// true when woken by cancellation, false on timeout. A token with no
  /// source sleeps the full timeout.
  bool WaitForCancellation(std::chrono::milliseconds timeout) const;

  /// Registers `fn` to run (on the cancelling thread) when the token is
  /// cancelled; runs it inline immediately if already cancelled. Returns a
  /// registration id for RemoveCallback, 0 for sourceless tokens.
  /// Callbacks must be fast and must not call back into the token.
  uint64_t OnCancel(std::function<void()> fn) const;
  void RemoveCallback(uint64_t id) const;

 private:
  friend class CancellationSource;
  explicit CancellationToken(
      std::shared_ptr<internal::CancellationState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::CancellationState> state_;
};

/// Write side: owns the shared state and fires the signal. A source built
/// from a parent token is *linked*: cancelling the parent cancels the
/// child (the executor links its internal first-error source to the
/// caller's request-timeout token this way). Cancel() is idempotent and
/// safe from any thread; it wakes every WaitForCancellation waiter and
/// runs registered callbacks once.
class CancellationSource {
 public:
  CancellationSource();
  /// A source whose token is also cancelled whenever `parent` is.
  explicit CancellationSource(const CancellationToken& parent);
  ~CancellationSource();

  CancellationSource(const CancellationSource&) = delete;
  CancellationSource& operator=(const CancellationSource&) = delete;

  void Cancel();
  [[nodiscard]] bool cancelled() const { return token().cancelled(); }
  [[nodiscard]] CancellationToken token() const;

 private:
  std::shared_ptr<internal::CancellationState> state_;
  // Registration on the parent state (unhooked on destruction so a
  // long-lived parent does not accumulate dead children).
  CancellationToken parent_;
  uint64_t parent_registration_ = 0;
};

}  // namespace sitstats

#endif  // SITSTATS_COMMON_CANCELLATION_H_
