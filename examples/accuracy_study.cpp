// Ablation study: how SIT accuracy depends on the knobs the paper holds
// fixed — histogram type, bucket count, sampling rate, and the
// distinct-value estimator used under sampling. Uses one 2-way correlated
// chain join and the Sweep technique throughout.

#include <cstdio>

#include "datagen/synthetic_db.h"
#include "estimator/accuracy.h"
#include "sit/creator.h"

using namespace sitstats;  // NOLINT: example brevity

namespace {

struct Setup {
  ChainDatabase db;
  TrueDistribution truth;
};

Setup MakeSetup() {
  ChainDbSpec spec;
  spec.num_tables = 2;
  spec.table_rows = {20'000, 20'000};
  spec.join_domain = 1'000;
  spec.zipf_z = 1.0;
  spec.seed = 7;
  ChainDatabase db = MakeChainJoinDatabase(spec).ValueOrDie();
  TrueDistribution truth =
      TrueDistribution::Compute(*db.catalog, db.query, db.sit_attribute)
          .ValueOrDie();
  return Setup{std::move(db), std::move(truth)};
}

double Measure(Setup* setup, const SitBuildOptions& options) {
  BaseStatsCache stats(options.histogram_spec);
  Sit sit = CreateSit(setup->db.catalog.get(), &stats,
                      SitDescriptor(setup->db.sit_attribute,
                                    setup->db.query),
                      options)
                .ValueOrDie();
  Rng rng(1234);
  AccuracyOptions aopts;
  aopts.num_queries = 1'000;
  aopts.min_actual_fraction = 0.001;
  return EvaluateHistogramAccuracy(setup->truth, sit.histogram, aopts, &rng)
      .mean_relative_error;
}

}  // namespace

int main() {
  Setup setup = MakeSetup();
  std::printf("ablations for SIT(R2.a | R1 x R2), correlated zipf(1) data\n");
  std::printf("true |join| = %.0f\n", setup.truth.total_cardinality());

  std::printf("\n1. histogram type (Sweep, 100 buckets, 10%% sampling):\n");
  for (HistogramType type : {HistogramType::kEquiWidth,
                             HistogramType::kEquiDepth,
                             HistogramType::kMaxDiff}) {
    SitBuildOptions options;
    options.histogram_spec.type = type;
    std::printf("   %-10s mean rel err = %6.1f%%\n",
                HistogramTypeToString(type), 100.0 * Measure(&setup, options));
  }

  std::printf("\n2. bucket count (Sweep, MaxDiff):\n");
  for (int nb : {25, 50, 100, 200, 400}) {
    SitBuildOptions options;
    options.histogram_spec.num_buckets = nb;
    std::printf("   nb=%-4d    mean rel err = %6.1f%%\n", nb,
                100.0 * Measure(&setup, options));
  }

  std::printf("\n3. sampling rate (Sweep, MaxDiff, 100 buckets):\n");
  for (double rate : {0.01, 0.05, 0.1, 0.25, 0.5}) {
    SitBuildOptions options;
    options.sampling_rate = rate;
    std::printf("   s=%-5.2f    mean rel err = %6.1f%%\n", rate,
                100.0 * Measure(&setup, options));
  }

  std::printf("\n4. distinct-value estimator under sampling (Sweep):\n");
  for (DistinctEstimator estimator :
       {DistinctEstimator::kSampleCount, DistinctEstimator::kLinearScale,
        DistinctEstimator::kGee}) {
    SitBuildOptions options;
    options.histogram_spec.distinct_estimator = estimator;
    std::printf("   %-12s mean rel err = %6.1f%%\n",
                DistinctEstimatorToString(estimator),
                100.0 * Measure(&setup, options));
  }

  std::printf(
      "\nTakeaways: MaxDiff dominates equi-width; accuracy saturates "
      "around 100\nbuckets and ~10%% sampling — the paper's default "
      "operating point.\n");
  return 0;
}
