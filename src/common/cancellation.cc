#include "common/cancellation.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/sync.h"

namespace sitstats {

namespace internal {

/// Shared between one source and its tokens. Immutable after construction
/// except for the flag.
struct CancellationState {
  std::atomic<bool> cancelled{false};
  /// Earliest deadline on the chain (this source's or an ancestor's);
  /// time_point::max() when there is none.
  CancellationSource::Clock::time_point deadline;
  std::shared_ptr<const CancellationState> parent;
};

}  // namespace internal

namespace {

using internal::CancellationState;

/// The one wake lock: every Cancel() sets its flag and broadcasts under
/// it, and every WaitForCancellation sleeps on it. Cancels are rare, so a
/// process-wide broadcast costs nothing, and a waiter on a linked token
/// wakes whichever ancestor is cancelled. Never destroyed, so a wait may
/// outlive static destruction.
struct WakeLock {
  Mutex mu;
  CondVar cv;
};

WakeLock& Wake() {
  static WakeLock* const wake = new WakeLock();
  return *wake;
}

bool DeadlinePassed(const CancellationState& state) {
  return state.deadline != CancellationSource::Clock::time_point::max() &&
         CancellationSource::Clock::now() >= state.deadline;
}

}  // namespace

bool CancellationToken::cancelled() const {
  if (state_ == nullptr) return false;
  for (const CancellationState* state = state_.get(); state != nullptr;
       state = state->parent.get()) {
    if (state->cancelled.load(std::memory_order_acquire)) return true;
  }
  return DeadlinePassed(*state_);
}

Status CancellationToken::CheckCancelled(const std::string& what) const {
  if (!cancelled()) return Status::OK();
  if (DeadlinePassed(*state_)) {
    return Status::DeadlineExceeded(what + " deadline exceeded");
  }
  return Status::Cancelled(what + " cancelled");
}

bool CancellationToken::WaitForCancellation(
    std::chrono::milliseconds timeout) const {
  if (state_ == nullptr) {
    // Sourceless tokens can never be woken; just sleep out the timeout.
    std::this_thread::sleep_for(timeout);
    return false;
  }
  const auto until =
      std::min(CancellationSource::Clock::now() + timeout, state_->deadline);
  WakeLock& wake = Wake();
  MutexLock lock(wake.mu);
  while (!cancelled()) {
    if (!wake.cv.WaitUntil(wake.mu, until)) return cancelled();
  }
  return true;
}

CancellationSource::CancellationSource(const CancellationToken& parent,
                                       Clock::time_point deadline)
    : state_(std::make_shared<CancellationState>()) {
  state_->deadline = deadline;
  if (parent.state_ != nullptr) {
    state_->deadline = std::min(deadline, parent.state_->deadline);
    state_->parent = parent.state_;
  }
}

void CancellationSource::Cancel() {
  WakeLock& wake = Wake();
  MutexLock lock(wake.mu);
  state_->cancelled.store(true, std::memory_order_release);
  wake.cv.NotifyAll();
}

CancellationToken CancellationSource::token() const {
  return CancellationToken(state_);
}

}  // namespace sitstats
