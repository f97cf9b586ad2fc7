// The parallel evaluation path must return exactly the sequential answers,
// in the same order, for both TAX and TOSS semantics.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/toss.h"
#include "data/bib_generator.h"
#include "data/workload.h"
#include "eval/metrics.h"

namespace toss::core {
namespace {

class ParallelExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::BibConfig cfg;
    cfg.seed = 314;
    cfg.num_papers = 120;
    cfg.num_people = 30;
    world_ = data::GenerateWorld(cfg);
    ASSERT_TRUE(data::LoadIntoCollection(
                    &db_, "dblp", data::EmitDblp(world_, 0, 120, cfg))
                    .ok());
    auto coll = db_.GetCollection("dblp");
    ASSERT_TRUE(coll.ok());
    std::vector<const xml::XmlDocument*> docs;
    for (store::DocId id : (*coll)->AllDocs()) {
      docs.push_back(&(*coll)->document(id));
    }
    ontology::OntologyMakerOptions opts;
    opts.content_tags = data::DblpContentTags();
    auto onto = ontology::MakeOntologyForDocuments(
        docs, lexicon::BuiltinBibliographicLexicon(), opts);
    ASSERT_TRUE(onto.ok());
    SeoBuilder b;
    b.AddInstanceOntology(std::move(onto).value());
    b.SetMeasure(*sim::MakeMeasure("guarded-levenshtein"));
    b.SetEpsilon(3.0);
    auto seo = b.Build();
    ASSERT_TRUE(seo.ok()) << seo.status();
    seo_ = std::move(seo).value();
    types_ = MakeBibliographicTypeSystem();

    auto queries = data::MakeSelectionWorkload(world_, 0, 120, 5, 7);
    ASSERT_TRUE(queries.ok());
    queries_ = std::move(queries).value();
  }

  /// The options-path width knob for one call.
  static QueryOptions Width(size_t threads) {
    QueryOptions o;
    o.parallelism = threads;
    return o;
  }

  data::BibWorld world_;
  store::Database db_;
  Seo seo_;
  TypeSystem types_;
  std::vector<data::SelectionQuery> queries_;
};

TEST_F(ParallelExecTest, ParallelSelectMatchesSequentialExactly) {
  for (bool use_toss : {false, true}) {
    QueryExecutor seq(&db_, use_toss ? &seo_ : nullptr,
                      use_toss ? &types_ : nullptr);
    QueryExecutor par(&db_, use_toss ? &seo_ : nullptr,
                      use_toss ? &types_ : nullptr);
    for (const auto& q : queries_) {
      auto rs = seq.Select("dblp", q.pattern, q.sl, Width(1));
      auto rp = par.Select("dblp", q.pattern, q.sl, Width(4));
      ASSERT_TRUE(rs.ok()) << rs.status();
      ASSERT_TRUE(rp.ok()) << rp.status();
      ASSERT_EQ(rs->size(), rp->size()) << q.name;
      for (size_t i = 0; i < rs->size(); ++i) {
        EXPECT_TRUE((*rs)[i].Equals((*rp)[i]))
            << q.name << " tree " << i << " differs";
      }
    }
  }
}

TEST_F(ParallelExecTest, ParallelismOfOneIsSequentialPath) {
  // Default options (0 = the scheduler's full width) and an explicit 1
  // (inline) return the same trees.
  QueryExecutor exec(&db_, &seo_, &types_);
  auto inline_run = exec.Select("dblp", queries_[0].pattern, queries_[0].sl,
                                Width(1));
  auto full_width = exec.Select("dblp", queries_[0].pattern, queries_[0].sl,
                                QueryOptions{});
  ASSERT_TRUE(inline_run.ok()) << inline_run.status();
  ASSERT_TRUE(full_width.ok()) << full_width.status();
  ASSERT_EQ(inline_run->size(), full_width->size());
  for (size_t i = 0; i < inline_run->size(); ++i) {
    EXPECT_TRUE((*inline_run)[i].Equals((*full_width)[i])) << "tree " << i;
  }
}

TEST_F(ParallelExecTest, StatsStillPopulatedInParallelMode) {
  QueryExecutor par(&db_, &seo_, &types_);
  ExecStats stats;
  auto r = par.Select("dblp", queries_[0].pattern, queries_[0].sl, Width(4),
                      &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(stats.xpath_queries, 0u);
  EXPECT_EQ(stats.result_trees, r->size());
  EXPECT_GE(stats.eval_ms, 0.0);
}

TEST_F(ParallelExecTest, ManyThreadsOnFewDocsFallsBack) {
  // A cap far above the scheduler's width is just a cap; results valid.
  QueryExecutor par(&db_, &seo_, &types_);
  auto r = par.Select("dblp", queries_[0].pattern, queries_[0].sl,
                      Width(64));
  ASSERT_TRUE(r.ok());
}

void ExpectSameTrees(const tax::TreeCollection& a,
                     const tax::TreeCollection& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].Equals(b[i])) << what << " tree " << i << " differs";
  }
}

TEST_F(ParallelExecTest, ParallelProjectMatchesSequentialExactly) {
  for (bool use_toss : {false, true}) {
    QueryExecutor seq(&db_, use_toss ? &seo_ : nullptr,
                      use_toss ? &types_ : nullptr);
    QueryExecutor par(&db_, use_toss ? &seo_ : nullptr,
                      use_toss ? &types_ : nullptr);
    for (const auto& q : queries_) {
      std::vector<tax::ProjectItem> pl;
      for (int label : q.sl) pl.push_back({label, false});
      if (pl.empty()) pl.push_back({1, true});
      auto rs = seq.Project("dblp", q.pattern, pl, Width(1));
      auto rp = par.Project("dblp", q.pattern, pl, Width(4));
      ASSERT_TRUE(rs.ok()) << rs.status();
      ASSERT_TRUE(rp.ok()) << rp.status();
      ExpectSameTrees(*rs, *rp, q.name.c_str());
    }
  }
}

TEST_F(ParallelExecTest, ParallelGroupByMatchesSequentialExactly) {
  // Group papers by publication year; groups must come back in the same
  // first-occurrence order with identical members.
  tax::PatternTree pt;
  int root = pt.AddRoot();
  pt.AddChild(root, tax::EdgeKind::kPc);
  pt.SetCondition(tax::ParseCondition(
                      "$1.tag = \"inproceedings\" & $2.tag = \"year\"")
                      .value());
  for (bool use_toss : {false, true}) {
    QueryExecutor seq(&db_, use_toss ? &seo_ : nullptr,
                      use_toss ? &types_ : nullptr);
    QueryExecutor par(&db_, use_toss ? &seo_ : nullptr,
                      use_toss ? &types_ : nullptr);
    auto rs = seq.GroupBy("dblp", pt, 2, {1}, Width(1));
    auto rp = par.GroupBy("dblp", pt, 2, {1}, Width(4));
    ASSERT_TRUE(rs.ok()) << rs.status();
    ASSERT_TRUE(rp.ok()) << rp.status();
    EXPECT_GT(rs->size(), 1u) << "fixture should span several years";
    ExpectSameTrees(*rs, *rp, "group-by-year");
  }
}

TEST_F(ParallelExecTest, ParallelJoinMatchesSequentialExactly) {
  // Self-join a small slice on equal publication year: enough pairs to
  // exercise the scheduler on both sides without a quadratic blowup.
  data::BibConfig cfg;
  cfg.seed = 314;
  cfg.num_papers = 120;
  cfg.num_people = 30;
  ASSERT_TRUE(data::LoadIntoCollection(&db_, "mini",
                                       data::EmitDblp(world_, 0, 15, cfg))
                  .ok());
  tax::PatternTree pt;
  int root = pt.AddRoot();
  int left = pt.AddChild(root, tax::EdgeKind::kPc);
  pt.AddChild(left, tax::EdgeKind::kPc);
  int right_sub = pt.AddChild(root, tax::EdgeKind::kPc);
  pt.AddChild(right_sub, tax::EdgeKind::kPc);
  pt.SetCondition(
      tax::ParseCondition("$1.tag = \"tax_prod_root\" & "
                          "$2.tag = \"inproceedings\" & $3.tag = \"year\" & "
                          "$4.tag = \"inproceedings\" & $5.tag = \"year\" & "
                          "$3.content = $5.content")
          .value());
  for (bool use_toss : {false, true}) {
    QueryExecutor seq(&db_, use_toss ? &seo_ : nullptr,
                      use_toss ? &types_ : nullptr);
    QueryExecutor par(&db_, use_toss ? &seo_ : nullptr,
                      use_toss ? &types_ : nullptr);
    auto rs = seq.Join("mini", "mini", pt, {2, 4}, Width(1));
    auto rp = par.Join("mini", "mini", pt, {2, 4}, Width(4));
    ASSERT_TRUE(rs.ok()) << rs.status();
    ASSERT_TRUE(rp.ok()) << rp.status();
    EXPECT_GT(rs->size(), 0u) << "same-year pairs must exist";
    ExpectSameTrees(*rs, *rp, "join-on-year");
  }
}

TEST_F(ParallelExecTest, WorkerErrorAbortsPoolAndMatchesSequentialError) {
  // An ill-typed ordering atom (unknown literal type) raises the same
  // TypeError in every document; the fan-out must stop and surface it.
  tax::PatternTree pt;
  int root = pt.AddRoot();
  pt.AddChild(root, tax::EdgeKind::kPc);
  pt.SetCondition(tax::ParseCondition(
                      "$1.tag = \"inproceedings\" & $2.tag = \"year\" & "
                      "$2.content < \"2525\":bogus_type")
                      .value());
  QueryExecutor seq(&db_, &seo_, &types_);
  QueryExecutor par(&db_, &seo_, &types_);
  auto rs = seq.Select("dblp", pt, {1}, Width(1));
  auto rp = par.Select("dblp", pt, {1}, Width(4));
  ASSERT_FALSE(rs.ok());
  ASSERT_FALSE(rp.ok());
  EXPECT_EQ(rs.status().code(), rp.status().code());
  EXPECT_EQ(rs.status().message(), rp.status().message());
}

TEST_F(ParallelExecTest, ConcurrentQueriesOnOneExecutorMatchSequential) {
  // One executor, many client threads: construction froze the shared
  // read-only state, so concurrent Select calls must return exactly the
  // sequential answers (the service layer's core guarantee).
  QueryExecutor exec(&db_, &seo_, &types_);
  std::vector<tax::TreeCollection> want;
  for (const auto& q : queries_) {
    auto r = exec.Select("dblp", q.pattern, q.sl, Width(1));
    ASSERT_TRUE(r.ok()) << r.status();
    want.push_back(std::move(r).value());
  }
  constexpr size_t kThreads = 4;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (size_t qi = 0; qi < queries_.size(); ++qi) {
        auto r = exec.Select("dblp", queries_[qi].pattern, queries_[qi].sl,
                             Width(1));
        if (!r.ok() || r->size() != want[qi].size()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < want[qi].size(); ++i) {
          if (!(*r)[i].Equals(want[qi][i])) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST_F(ParallelExecTest, RepeatedQueriesHitTheDecodedTreeCache) {
  auto coll = db_.GetCollection("dblp");
  ASSERT_TRUE(coll.ok());
  QueryExecutor par(&db_, &seo_, &types_);
  ASSERT_TRUE(par.Select("dblp", queries_[0].pattern, queries_[0].sl,
                         Width(4))
                  .ok());
  auto first = (*coll)->GetTreeCacheStats();
  EXPECT_GT(first.misses, 0u);
  ASSERT_TRUE(par.Select("dblp", queries_[0].pattern, queries_[0].sl,
                         Width(4))
                  .ok());
  auto second = (*coll)->GetTreeCacheStats();
  EXPECT_EQ(second.misses, first.misses) << "second run must decode nothing";
  EXPECT_GT(second.hits, first.hits);
}

}  // namespace
}  // namespace toss::core
