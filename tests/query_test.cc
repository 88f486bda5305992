#include <gtest/gtest.h>

#include "query/generating_query.h"
#include "query/join_graph.h"
#include "query/join_tree.h"

namespace sitstats {
namespace {

JoinPredicate Join(const std::string& lt, const std::string& lc,
                   const std::string& rt, const std::string& rc) {
  return JoinPredicate{ColumnRef{lt, lc}, ColumnRef{rt, rc}};
}

TEST(ColumnRefTest, Basics) {
  ColumnRef a{"R", "x"};
  ColumnRef b{"R", "x"};
  ColumnRef c{"S", "x"};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_EQ(a.ToString(), "R.x");
}

TEST(JoinPredicateTest, SideSelectors) {
  JoinPredicate j = Join("R", "x", "S", "y");
  EXPECT_TRUE(j.References("R"));
  EXPECT_TRUE(j.References("S"));
  EXPECT_FALSE(j.References("T"));
  EXPECT_EQ(j.SideOf("R").column, "x");
  EXPECT_EQ(j.SideOf("S").column, "y");
  EXPECT_EQ(j.OtherSideOf("R").table, "S");
  // Equality is side-order independent.
  EXPECT_EQ(j, Join("S", "y", "R", "x"));
}

TEST(JoinGraphTest, ChainProperties) {
  JoinGraph g({"R", "S", "T"},
              {Join("R", "a", "S", "b"), Join("S", "c", "T", "d")});
  EXPECT_TRUE(g.IsConnected());
  EXPECT_TRUE(g.IsAcyclic());
  EXPECT_EQ(g.Neighbors("R").size(), 1u);
  EXPECT_EQ(g.Neighbors("S").size(), 2u);
  EXPECT_EQ(g.IncidentJoins("T").size(), 1u);
}

TEST(JoinGraphTest, DetectsCycle) {
  JoinGraph g({"R", "S", "T"},
              {Join("R", "a", "S", "b"), Join("S", "c", "T", "d"),
               Join("T", "e", "R", "f")});
  EXPECT_TRUE(g.IsConnected());
  EXPECT_FALSE(g.IsAcyclic());
}

TEST(JoinGraphTest, DetectsDisconnected) {
  JoinGraph g({"R", "S", "T"}, {Join("R", "a", "S", "b")});
  EXPECT_FALSE(g.IsConnected());
  EXPECT_TRUE(g.IsAcyclic());
}

TEST(JoinGraphTest, ParallelPredicatesAreOneLogicalEdge) {
  // R ⋈_{a=b ∧ c=d} S: a composite equality join, still acyclic.
  JoinGraph g({"R", "S"},
              {Join("R", "a", "S", "b"), Join("R", "c", "S", "d")});
  EXPECT_TRUE(g.IsAcyclic());
  EXPECT_TRUE(g.IsConnected());
}

TEST(JoinGraphTest, DuplicateIdenticalPredicateIsRejected) {
  JoinGraph g({"R", "S"},
              {Join("R", "a", "S", "b"), Join("R", "a", "S", "b")});
  EXPECT_FALSE(g.IsAcyclic());
}

TEST(GeneratingQueryTest, ValidChain) {
  auto q = GeneratingQuery::Create(
      {"R", "S", "T"}, {Join("R", "a", "S", "b"), Join("S", "c", "T", "d")});
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->IsBaseTable());
  EXPECT_TRUE(q->ReferencesTable("S"));
  EXPECT_FALSE(q->ReferencesTable("U"));
  EXPECT_NE(q->ToString().find("JOIN"), std::string::npos);
}

TEST(GeneratingQueryTest, BaseTable) {
  GeneratingQuery q = GeneratingQuery::BaseTable("R");
  EXPECT_TRUE(q.IsBaseTable());
}

TEST(GeneratingQueryTest, RejectsInvalid) {
  // No tables.
  EXPECT_FALSE(GeneratingQuery::Create({}, {}).ok());
  // Duplicate table.
  EXPECT_FALSE(GeneratingQuery::Create({"R", "R"}, {}).ok());
  // Join over unlisted table.
  EXPECT_FALSE(
      GeneratingQuery::Create({"R", "S"}, {Join("R", "a", "T", "b")}).ok());
  // Self join predicate.
  EXPECT_FALSE(
      GeneratingQuery::Create({"R", "S"}, {Join("R", "a", "R", "b")}).ok());
  // Cycle.
  EXPECT_FALSE(GeneratingQuery::Create(
                   {"R", "S", "T"},
                   {Join("R", "a", "S", "b"), Join("S", "c", "T", "d"),
                    Join("T", "e", "R", "f")})
                   .ok());
  // Cross product (disconnected).
  EXPECT_FALSE(GeneratingQuery::Create({"R", "S"}, {}).ok());
}

TEST(GeneratingQueryTest, StarIsNotChain) {
  auto q = GeneratingQuery::Create(
      {"R", "S", "T", "U"},
      {Join("R", "a", "S", "b"), Join("R", "c", "T", "d"),
       Join("R", "e", "U", "f")});
  ASSERT_TRUE(q.ok());
  // The centre joins three tables, which no path does: rooted there, the
  // join tree has three children below its root.
  JoinTree tree = JoinTree::Build(*q, "R").ValueOrDie();
  EXPECT_EQ(tree.node(tree.root()).children.size(), 3u);
}

TEST(GeneratingQueryTest, EquivalenceIgnoresOrder) {
  auto q1 = GeneratingQuery::Create(
      {"R", "S", "T"}, {Join("R", "a", "S", "b"), Join("S", "c", "T", "d")});
  auto q2 = GeneratingQuery::Create(
      {"T", "R", "S"}, {Join("T", "d", "S", "c"), Join("S", "b", "R", "a")});
  auto q3 = GeneratingQuery::Create(
      {"R", "S", "T"}, {Join("R", "a", "S", "b"), Join("S", "x", "T", "d")});
  ASSERT_TRUE(q1.ok() && q2.ok() && q3.ok());
  EXPECT_TRUE(q1->EquivalentTo(*q2));
  EXPECT_FALSE(q1->EquivalentTo(*q3));  // different join column
}

TEST(JoinTreeTest, ChainRootedAtEnd) {
  // R -x- S -y- T, rooted at T.
  auto q = GeneratingQuery::Create(
      {"R", "S", "T"},
      {Join("R", "jn", "S", "jp"), Join("S", "jn", "T", "jp")});
  ASSERT_TRUE(q.ok());
  JoinTree tree = JoinTree::Build(*q, "T").ValueOrDie();
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.node(tree.root()).table, "T");
  // Post-order visits R, S, T.
  std::vector<int> order = tree.PostOrder();
  EXPECT_EQ(tree.node(order[0]).table, "R");
  EXPECT_EQ(tree.node(order[1]).table, "S");
  EXPECT_EQ(tree.node(order[2]).table, "T");
  // Join columns recorded on children.
  const JoinTree::Node& s = tree.node(order[1]);
  EXPECT_FALSE(s.HasCompositeParentEdge());
  EXPECT_EQ(s.column_to_parent(), "jn");
  EXPECT_EQ(s.parent_column(), "jp");
}

/// Tables of `tree`'s scan plan, in scan order.
std::vector<std::string> ScanTables(const JoinTree& tree) {
  std::vector<std::string> tables;
  for (int node_index : tree.ScanNodes()) {
    tables.push_back(tree.node(node_index).table);
  }
  return tables;
}

TEST(JoinTreeTest, ScanNodesForChain) {
  auto q = GeneratingQuery::Create(
      {"R", "S", "T"},
      {Join("R", "jn", "S", "jp"), Join("S", "jn", "T", "jp")});
  JoinTree tree = JoinTree::Build(*q, "T").ValueOrDie();
  // Scan order: S then T (leaf R omitted).
  EXPECT_EQ(ScanTables(tree), (std::vector<std::string>{"S", "T"}));
  EXPECT_EQ(tree.ScanNodes().back(), tree.root());
}

TEST(JoinTreeTest, SingleJoinSequence) {
  auto q =
      GeneratingQuery::Create({"R", "S"}, {Join("R", "x", "S", "y")});
  JoinTree tree = JoinTree::Build(*q, "S").ValueOrDie();
  EXPECT_EQ(ScanTables(tree), std::vector<std::string>{"S"});
}

TEST(JoinTreeTest, ScanNodesForStar) {
  // R joins S and T; both are leaves, so the star is one scan of R. The
  // same chain rooted at its middle table S-R-T is this star.
  auto q = GeneratingQuery::Create(
      {"R", "S", "T"},
      {Join("R", "x", "S", "x"), Join("R", "y", "T", "y")});
  JoinTree tree = JoinTree::Build(*q, "R").ValueOrDie();
  EXPECT_EQ(ScanTables(tree), std::vector<std::string>{"R"});
}

TEST(JoinTreeTest, BaseTableHasNoSequences) {
  GeneratingQuery q = GeneratingQuery::BaseTable("R");
  JoinTree tree = JoinTree::Build(q, "R").ValueOrDie();
  EXPECT_TRUE(tree.ScanNodes().empty());
}

TEST(JoinTreeTest, PaperFigure6Sequences) {
  // Figure 6(b): R joins S and U; S joins T; U joins V. Rooted at R.
  auto q = GeneratingQuery::Create(
      {"R", "S", "T", "U", "V"},
      {Join("R", "r1", "S", "s1"), Join("S", "s2", "T", "t1"),
       Join("R", "r2", "U", "u1"), Join("U", "u2", "V", "v1")});
  ASSERT_TRUE(q.ok());
  JoinTree tree = JoinTree::Build(*q, "R").ValueOrDie();
  // The paper's two paths (S,R) and (U,R) become one post-order sequence
  // that scans the shared root once, after both of its children.
  EXPECT_EQ(ScanTables(tree), (std::vector<std::string>{"S", "U", "R"}));
}

TEST(JoinTreeTest, RootMustBeReferenced) {
  auto q =
      GeneratingQuery::Create({"R", "S"}, {Join("R", "x", "S", "y")});
  EXPECT_FALSE(JoinTree::Build(*q, "Z").ok());
}

}  // namespace
}  // namespace sitstats
