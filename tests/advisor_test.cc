#include "advisor/advisor.h"

#include <gtest/gtest.h>

#include "datagen/synthetic_db.h"
#include "estimator/sit_estimator.h"
#include "exec/query_executor.h"

namespace sitstats {
namespace {

/// A 3-way correlated chain plus a workload of range queries over both
/// the full chain and its 2-way suffix.
struct Fixture {
  ChainDatabase db;
  BaseStatsCache stats;
  Workload workload;
  GeneratingQuery two_way;

  static Fixture Make() {
    ChainDbSpec spec;
    spec.num_tables = 3;
    spec.table_rows = {6'000, 6'000, 6'000};
    spec.join_domain = 300;
    spec.zipf_z = 1.0;
    spec.seed = 7;
    ChainDatabase db = MakeChainJoinDatabase(spec).ValueOrDie();
    GeneratingQuery two_way =
        GeneratingQuery::Create(
            {"R2", "R3"},
            {JoinPredicate{ColumnRef{"R2", "jn"}, ColumnRef{"R3", "jp"}}})
            .ValueOrDie();
    Fixture f{std::move(db), BaseStatsCache{}, Workload{},
              std::move(two_way)};
    // Weighted workload over the correlated attribute.
    for (double lo : {10.0, 50.0, 120.0}) {
      f.workload.push_back(
          WorkloadQuery{f.db.query, f.db.sit_attribute, lo, lo + 80, 1.0});
      f.workload.push_back(
          WorkloadQuery{f.two_way, f.db.sit_attribute, lo, lo + 80, 0.5});
    }
    return f;
  }
};

TEST(AdvisorTest, EnumeratesRootedSubexpressions) {
  Fixture f = Fixture::Make();
  SitAdvisor advisor(f.db.catalog.get(), &f.stats, SitAdvisor::Options{});
  std::vector<SitDescriptor> candidates =
      advisor.EnumerateCandidates(f.workload).ValueOrDie();
  // Chain R1-R2-R3 rooted at R3 has rooted subtrees {R3,R2} and
  // {R3,R2,R1}; the 2-way workload query adds nothing new ({R3,R2} is a
  // duplicate).
  ASSERT_EQ(candidates.size(), 2u);
  std::set<size_t> table_counts;
  for (const SitDescriptor& c : candidates) {
    EXPECT_EQ(c.attribute(), f.db.sit_attribute);
    table_counts.insert(c.query().num_tables());
  }
  EXPECT_EQ(table_counts, (std::set<size_t>{2, 3}));
}

TEST(AdvisorTest, BaseTableQueriesYieldNoCandidates) {
  Fixture f = Fixture::Make();
  Workload base_only = {WorkloadQuery{GeneratingQuery::BaseTable("R1"),
                                      ColumnRef{"R1", "a"}, 0, 100, 1.0}};
  SitAdvisor advisor(f.db.catalog.get(), &f.stats, SitAdvisor::Options{});
  EXPECT_TRUE(
      advisor.EnumerateCandidates(base_only).ValueOrDie().empty());
}

TEST(AdvisorTest, RecommendsBeneficialCandidatesWithinBudget) {
  Fixture f = Fixture::Make();
  SitAdvisor::Options options;
  options.pilot_sampling_rate = 0.05;
  SitAdvisor advisor(f.db.catalog.get(), &f.stats, options);
  SitAdvisor::Recommendation rec =
      advisor.Recommend(f.workload).ValueOrDie();
  // The data is strongly correlated, so propagation disagrees with the
  // pilots and both candidates should be selected under an unbounded
  // budget.
  ASSERT_EQ(rec.selected.size(), 2u);
  for (const SitAdvisor::Candidate& c : rec.selected) {
    EXPECT_GT(c.benefit, 0.05);
    EXPECT_GT(c.cost, 0.0);
    EXPECT_GT(c.applicable_queries, 0);
  }
  EXPECT_GT(rec.total_cost, 0.0);

  // A budget that fits only the cheaper candidate.
  double min_cost = std::min(rec.selected[0].cost, rec.selected[1].cost);
  SitAdvisor::Options tight = options;
  tight.budget = min_cost;
  SitAdvisor tight_advisor(f.db.catalog.get(), &f.stats, tight);
  SitAdvisor::Recommendation tight_rec =
      tight_advisor.Recommend(f.workload).ValueOrDie();
  EXPECT_EQ(tight_rec.selected.size(), 1u);
  EXPECT_LE(tight_rec.total_cost, min_cost + 1e-9);
  EXPECT_EQ(tight_rec.rejected.size(), 1u);
}

TEST(AdvisorTest, UncorrelatedWorkloadGetsNothing) {
  // Independent uniform data: propagation is already right, so no
  // candidate clears the min-benefit bar.
  ChainDbSpec spec;
  spec.num_tables = 2;
  spec.table_rows = {5'000, 5'000};
  spec.join_domain = 200;
  spec.zipf_z = 0.0;
  spec.correlation = AttributeCorrelation::kIndependent;
  spec.seed = 11;
  ChainDatabase db = MakeChainJoinDatabase(spec).ValueOrDie();
  Workload workload = {
      WorkloadQuery{db.query, db.sit_attribute, 20, 120, 1.0}};
  BaseStatsCache stats;
  SitAdvisor::Options options;
  options.min_benefit = 0.15;
  SitAdvisor advisor(db.catalog.get(), &stats, options);
  SitAdvisor::Recommendation rec = advisor.Recommend(workload).ValueOrDie();
  EXPECT_TRUE(rec.selected.empty());
  EXPECT_FALSE(rec.rejected.empty());
}

TEST(AdvisorTest, TreeCandidateCostCountsSharedScansOnce) {
  // The attribute sits mid-chain, so R2 ⋈ R1 ⋈ R3 is rooted at R2 with
  // two leaf children: its build is one scan of R2, Cost = 5000/1000.
  ChainDbSpec spec;
  spec.num_tables = 3;
  spec.table_rows = {5'000, 5'000, 5'000};
  spec.join_domain = 300;
  spec.seed = 13;
  ChainDatabase db = MakeChainJoinDatabase(spec).ValueOrDie();
  const ColumnRef attribute{"R2", "a"};
  Workload workload = {WorkloadQuery{db.query, attribute, 20, 120, 1.0}};
  BaseStatsCache stats;
  SitAdvisor advisor(db.catalog.get(), &stats, SitAdvisor::Options{});
  SitAdvisor::Recommendation rec = advisor.Recommend(workload).ValueOrDie();
  std::vector<SitAdvisor::Candidate> all = rec.selected;
  all.insert(all.end(), rec.rejected.begin(), rec.rejected.end());
  // {R2,R1}, {R2,R3} and {R2,R1,R3}: each is one scan of R2.
  ASSERT_EQ(all.size(), 3u);
  for (const SitAdvisor::Candidate& c : all) {
    EXPECT_DOUBLE_EQ(c.cost, 5.0) << c.descriptor.ToString();
  }
}

TEST(AdvisorTest, EndToEndImprovesWorkloadEstimates) {
  Fixture f = Fixture::Make();
  SitAdvisor::Options options;
  options.pilot_sampling_rate = 0.05;
  SitAdvisor advisor(f.db.catalog.get(), &f.stats, options);
  SitAdvisor::Recommendation rec =
      advisor.Recommend(f.workload).ValueOrDie();
  SitCatalog sits;
  ASSERT_TRUE(advisor.CreateSelected(rec, SweepVariant::kSweepExact, &sits)
                  .ok());
  EXPECT_EQ(sits.size(), rec.selected.size());

  CardinalityEstimator with(f.db.catalog.get(), &f.stats, &sits);
  CardinalityEstimator without(f.db.catalog.get(), &f.stats, nullptr);
  double err_with = 0.0;
  double err_without = 0.0;
  for (const WorkloadQuery& wq : f.workload) {
    double actual = ExactRangeCardinality(*f.db.catalog, wq.query,
                                          wq.attribute, wq.lo, wq.hi)
                        .ValueOrDie();
    auto a = with.EstimateRangeQuery(wq.query, wq.attribute, wq.lo, wq.hi)
                 .ValueOrDie();
    auto b =
        without.EstimateRangeQuery(wq.query, wq.attribute, wq.lo, wq.hi)
            .ValueOrDie();
    EXPECT_TRUE(a.used_sit) << wq.ToString();
    err_with += std::fabs(a.cardinality - actual) / std::max(actual, 1.0);
    err_without +=
        std::fabs(b.cardinality - actual) / std::max(actual, 1.0);
  }
  EXPECT_LT(err_with, err_without * 0.5)
      << "with=" << err_with << " without=" << err_without;
}

}  // namespace
}  // namespace sitstats
