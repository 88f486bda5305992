#ifndef SITSTATS_SCHEDULER_PROBLEM_H_
#define SITSTATS_SCHEDULER_PROBLEM_H_

#include <limits>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace sitstats {

/// The multiple-SIT creation problem of Section 4, reduced to a weighted,
/// memory-constrained Shortest Common Supersequence instance:
///
///  - one *input sequence* per SIT: the tables its build scans, in scan
///    order (BuildSitSchedulingProblem; a chain's deepest internal
///    join-tree node first, root last);
///  - scanning table T costs Cost(T) regardless of how many sequences the
///    scan advances (that is the sharing being optimized);
///  - every sequence advanced by a scan of T needs its own in-memory
///    sample set of SampleSize(T) values, and the sum per scan is bounded
///    by the memory limit M.
///
/// Tables are interned: they are referred to by dense ids.
class SchedulingProblem {
 public:
  SchedulingProblem() = default;

  /// Registers a table; returns its id. Re-registering a name updates the
  /// costs and returns the existing id.
  int AddTable(const std::string& name, double scan_cost,
               double sample_size);

  /// Id of `name`, or -1.
  int FindTable(const std::string& name) const;

  /// Appends a dependency sequence given as table names (all must be
  /// registered). Returns the sequence index.
  Result<size_t> AddSequence(const std::vector<std::string>& tables);

  /// Appends a dependency sequence of table ids.
  Result<size_t> AddSequenceIds(std::vector<int> ids);

  void set_memory_limit(double limit) { memory_limit_ = limit; }
  double memory_limit() const { return memory_limit_; }

  size_t num_tables() const { return table_names_.size(); }
  size_t num_sequences() const { return sequences_.size(); }
  const std::string& table_name(int id) const {
    return table_names_[static_cast<size_t>(id)];
  }
  double scan_cost(int id) const {
    return scan_cost_[static_cast<size_t>(id)];
  }
  double sample_size(int id) const {
    return sample_size_[static_cast<size_t>(id)];
  }
  const std::vector<int>& sequence(size_t i) const { return sequences_[i]; }
  const std::vector<std::vector<int>>& sequences() const {
    return sequences_;
  }

  /// Sanity checks: non-negative costs, positive memory, every sequence
  /// non-empty, and M large enough to hold at least one sample set of
  /// every table that appears in some sequence (otherwise no schedule
  /// exists).
  Status Validate() const;

 private:
  std::vector<std::string> table_names_;
  std::vector<double> scan_cost_;
  std::vector<double> sample_size_;
  std::vector<std::vector<int>> sequences_;
  double memory_limit_ = std::numeric_limits<double>::infinity();
};

/// One scan in a schedule: the table scanned and which sequences advance.
struct ScheduleStep {
  int table = -1;
  std::vector<size_t> advanced;  // sequence indices
};

/// An executable schedule: ordered scans with advancing sets, plus its
/// total estimated cost (sum of scan costs).
struct Schedule {
  std::vector<ScheduleStep> steps;
  double cost = 0.0;

  /// Deep invariants relative to `problem`: everything ValidateSchedule
  /// enforces (feasibility, every sequence completed exactly once, memory
  /// fits, stated cost matches the steps) plus cost >= the trivial lower
  /// bound: every table appearing in some sequence must be scanned at
  /// least once, so cost >= sum of those tables' scan costs. Wired to
  /// solver exits via SITSTATS_DCHECK_OK.
  Status Validate(const SchedulingProblem& problem) const;
};

/// Verifies that `schedule` is feasible for `problem` and completes every
/// sequence: steps advance sequences in order (so each sequence element is
/// covered exactly once), per-step memory fits, and the stated cost
/// matches the steps.
Status ValidateSchedule(const SchedulingProblem& problem,
                        const Schedule& schedule);

}  // namespace sitstats

#endif  // SITSTATS_SCHEDULER_PROBLEM_H_
