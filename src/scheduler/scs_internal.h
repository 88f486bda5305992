#ifndef SITSTATS_SCHEDULER_SCS_INTERNAL_H_
#define SITSTATS_SCHEDULER_SCS_INTERNAL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "scheduler/problem.h"

/// SCS machinery shared by the A* search in solver.cc (every solver kind
/// but Naive) and the reduction rules in reduction.cc: the state
/// representation, the suffix-occurrence tables behind the admissible
/// heuristic, per-table advancing capacities under the memory limit, and
/// the instance-size entry checks. Internal to src/scheduler.
namespace sitstats::scs {

/// Per-sequence scan positions. uint16 bounds sequence length at 65535;
/// CheckInstanceForSearch rejects anything longer before a state is built,
/// so neither positions nor occurrence counts can wrap.
using ScsState = std::vector<uint16_t>;

inline constexpr size_t kMaxSequenceLength = 65535;

/// Successor-set budget per (node, table): enumerating C(n, k) advancing
/// sets beyond this is hopeless for an exact search and pointless for a
/// greedy one, which only keeps the best successor anyway.
inline constexpr uint64_t kMaxSuccessorsPerTable = 1ull << 22;

struct ScsStateHash {
  size_t operator()(const ScsState& s) const {
    // FNV-1a over the position bytes.
    size_t h = 1469598103934665603ull;
    for (uint16_t v : s) {
      h ^= v;
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// Precomputed occurrence counts: occ[i][p][t] = how many times table t
/// appears in sequence i from position p on. Drives the admissible
/// heuristic h(u) = sum_t Cost(t) * max_i occ[i][u_i][t].
inline std::vector<std::vector<std::vector<uint16_t>>> SuffixOccurrences(
    const SchedulingProblem& problem) {
  const size_t num_tables = problem.num_tables();
  std::vector<std::vector<std::vector<uint16_t>>> occ(
      problem.num_sequences());
  for (size_t i = 0; i < problem.num_sequences(); ++i) {
    const std::vector<int>& seq = problem.sequence(i);
    occ[i].assign(seq.size() + 1,
                  std::vector<uint16_t>(num_tables, 0));
    for (size_t p = seq.size(); p-- > 0;) {
      occ[i][p] = occ[i][p + 1];
      occ[i][p][static_cast<size_t>(seq[p])] += 1;
    }
  }
  return occ;
}

/// Per-scan advancing capacity of each table under the memory limit (how
/// many sequences one scan of t can serve); +inf when unconstrained.
inline std::vector<double> PerScanCaps(const SchedulingProblem& problem) {
  std::vector<double> caps(problem.num_tables(),
                           std::numeric_limits<double>::infinity());
  if (std::isfinite(problem.memory_limit())) {
    for (size_t t = 0; t < problem.num_tables(); ++t) {
      double sample = problem.sample_size(static_cast<int>(t));
      if (sample > 0.0) {
        caps[t] = std::floor(problem.memory_limit() / sample + 1e-9);
      }
    }
  }
  return caps;
}

/// Admissible lower bound on the remaining cost. Every common
/// supersequence of the remaining suffixes must scan table t at least
///   max( max_i occ_i(t),                  -- some sequence needs it
///        ceil( sum_i occ_i(t) / cap_t ) ) -- one scan serves <= cap_t
/// times; both bounds are exact counts of mandatory scans, so their max
/// weighted by Cost(t) never overestimates.
inline double Heuristic(
    const SchedulingProblem& problem,
    const std::vector<std::vector<std::vector<uint16_t>>>& occ,
    const std::vector<double>& caps, const ScsState& state) {
  const size_t num_tables = problem.num_tables();
  std::vector<uint16_t> needed(num_tables, 0);
  std::vector<double> total(num_tables, 0.0);
  for (size_t i = 0; i < state.size(); ++i) {
    const std::vector<uint16_t>& counts = occ[i][state[i]];
    for (size_t t = 0; t < num_tables; ++t) {
      needed[t] = std::max(needed[t], counts[t]);
      total[t] += counts[t];
    }
  }
  double h = 0.0;
  for (size_t t = 0; t < num_tables; ++t) {
    double scans = needed[t];
    if (std::isfinite(caps[t]) && caps[t] >= 1.0) {
      scans = std::max(scans, std::ceil(total[t] / caps[t] - 1e-9));
    }
    h += scans * problem.scan_cost(static_cast<int>(t));
  }
  return h;
}

/// C(n, k), saturating at `limit` (C(n, i) grows monotonically up to
/// i = n/2, so once the running value passes `limit` the final value is at
/// least `limit` too). Exact integer arithmetic; no overflow because the
/// running value is capped near 2^22 and each factor fits in 16 bits.
inline uint64_t CombinationCount(size_t n, size_t k, uint64_t limit) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  uint64_t c = 1;
  for (size_t i = 1; i <= k; ++i) {
    c = c * (n - k + i) / i;
    if (c >= limit) return limit;
  }
  return c;
}

/// Entry checks for the search, run after
/// SchedulingProblem::Validate:
///  - sequences longer than kMaxSequenceLength overflow the uint16 state
///    and suffix-occurrence representation -> kOutOfRange;
///  - a used table whose advancing capacity rounds to zero could advance
///    nothing, turning the search degenerate -> kInvalidArgument.
///    (Validate's sample-fits-in-memory check makes this unreachable
///    today; it stays as a guard against the two checks drifting apart.)
inline Status CheckInstanceForSearch(const SchedulingProblem& problem) {
  for (size_t i = 0; i < problem.num_sequences(); ++i) {
    if (problem.sequence(i).size() > kMaxSequenceLength) {
      return Status::OutOfRange(
          "dependency sequence " + std::to_string(i) + " has " +
          std::to_string(problem.sequence(i).size()) +
          " steps; the solver state representation caps sequences at " +
          std::to_string(kMaxSequenceLength));
    }
  }
  const std::vector<double> caps = PerScanCaps(problem);
  for (const std::vector<int>& seq : problem.sequences()) {
    for (int t : seq) {
      if (caps[static_cast<size_t>(t)] < 1.0) {
        return Status::InvalidArgument(
            "memory limit admits no scan of table " + problem.table_name(t) +
            " (advancing capacity 0)");
      }
    }
  }
  return Status::OK();
}

}  // namespace sitstats::scs

#endif  // SITSTATS_SCHEDULER_SCS_INTERNAL_H_
