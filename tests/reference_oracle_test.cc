// Executor answers against the reference evaluator (reference_eval.h)
// across every path the executor can take: index planning and symbol ids
// (select / project / group-by), the twig join with its value filter, the
// pairwise fallback, durable mutations through the service front door,
// and concurrent clients sharing one service.

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/toss.h"
#include "obs/metrics.h"
#include "reference_eval.h"
#include "service/toss_service.h"
#include "xml/xml_parser.h"

namespace toss {
namespace {

namespace fs = std::filesystem;

const char* kPapers[] = {
    "<inproceedings gtid=\"10001\">"
    "<author gtid=\"1001\">Jeffrey Ullman</author>"
    "<title>Views</title>"
    "<booktitle>SIGMOD Conference</booktitle><year>1999</year>"
    "</inproceedings>",
    "<inproceedings gtid=\"10002\">"
    "<author gtid=\"1001\">Jeffrey D. Ullman</author>"
    "<title>Indexes</title>"
    "<booktitle>ACM SIGMOD International Conference on Management of "
    "Data</booktitle><year>2000</year>"
    "</inproceedings>",
    "<inproceedings gtid=\"10003\">"
    "<author gtid=\"1002\">Serge Abiteboul</author>"
    "<title>Trees</title>"
    "<booktitle>SIGMOD Conference</booktitle><year>2000</year>"
    "</inproceedings>",
    "<inproceedings gtid=\"10004\">"
    "<author gtid=\"1001\">Jeffrey Ullman</author>"
    "<title>Joins</title>"
    "<booktitle>SIGIR</booktitle><year>1998</year>"
    "</inproceedings>",
    "<misc gtid=\"10005\"><note>nothing to join</note></misc>",
};

const char* kPages[] = {
    "<proceedingsPage><articles>"
    "<article gtid=\"10001\"><title>Views.</title></article>"
    "<article gtid=\"99\"><title>Nothing Alike Here</title></article>"
    "</articles></proceedingsPage>",
    "<proceedingsPage><articles>"
    "<article gtid=\"10003\"><title>Trees</title></article>"
    "</articles></proceedingsPage>",
};

/// An SEO made from `docs` (their author / booktitle / title / year
/// terms), levenshtein with epsilon 3.
core::Seo MakeSeo(const std::vector<const xml::XmlDocument*>& docs) {
  ontology::OntologyMakerOptions opts;
  opts.content_tags = {"author", "booktitle", "title", "year"};
  auto o = ontology::MakeOntologyForDocuments(
      docs, lexicon::BuiltinBibliographicLexicon(), opts);
  EXPECT_TRUE(o.ok()) << o.status();
  core::SeoBuilder builder;
  builder.AddInstanceOntology(std::move(o).value());
  builder.SetMeasure(*sim::MakeMeasure("levenshtein"));
  builder.SetEpsilon(3.0);
  auto seo = builder.Build();
  EXPECT_TRUE(seo.ok()) << seo.status();
  return std::move(seo).value();
}

/// The SEO of the paper fixture (the instance the queries run over).
core::Seo MakeSeo() {
  std::vector<xml::XmlDocument> parsed;
  for (const char* p : kPapers) parsed.push_back(*xml::Parse(p));
  std::vector<const xml::XmlDocument*> docs;
  for (const auto& d : parsed) docs.push_back(&d);
  return MakeSeo(docs);
}

/// A pattern whose node i + 1 hangs below node nodes[i].first by edge
/// nodes[i].second (node 0 is the root), with condition `cond`.
tax::PatternTree Pattern(
    const std::vector<std::pair<int, tax::EdgeKind>>& nodes,
    const std::string& cond) {
  tax::PatternTree pt;
  std::vector<int> ids{pt.AddRoot()};
  for (const auto& [parent, edge] : nodes) {
    ids.push_back(pt.AddChild(ids[parent], edge));
  }
  auto parsed = tax::ParseCondition(cond);
  EXPECT_TRUE(parsed.ok()) << cond << ": " << parsed.status();
  pt.SetCondition(std::move(parsed).value());
  return pt;
}

constexpr tax::EdgeKind kPc = tax::EdgeKind::kPc;
constexpr tax::EdgeKind kAd = tax::EdgeKind::kAd;

/// The Fig. 16b-style title join: dblp paper / title against sigmod
/// article / title.
tax::PatternTree TitleJoin(const std::string& op) {
  return Pattern({{0, kPc}, {1, kPc}, {0, kAd}, {3, kPc}},
                 "$1.tag = \"tax_prod_root\" & $2.tag = \"inproceedings\" & "
                 "$3.tag = \"title\" & $4.tag = \"article\" & "
                 "$5.tag = \"title\" & $3.content " + op + " $5.content");
}

/// Selections over the papers: pushdown with SEO expansion, contains(),
/// ordering ranges, empty literals, and a non-pushdown residue.
std::vector<tax::PatternTree> SelectPatterns() {
  const std::vector<std::pair<int, tax::EdgeKind>> two_kids = {{0, kPc},
                                                               {0, kPc}};
  return {
      Pattern(two_kids,
              "$1.tag = \"inproceedings\" & $2.tag = \"author\" & "
              "$2.content ~ \"Jeffrey Ullman\" & $3.tag = \"booktitle\" & "
              "$3.content ~ \"SIGMOD Conference\""),
      Pattern(two_kids,
              "$1.tag = \"inproceedings\" & $2.tag = \"booktitle\" & "
              "$2.content = \"*SIGMOD*\" & $3.tag = \"year\" & "
              "$3.content >= \"2000\""),
      Pattern(two_kids,
              "$1.tag = \"inproceedings\" & $2.tag = \"title\" & "
              "$3.tag = \"year\" & $3.content < \"2000\""),
      Pattern({{0, kAd}}, "$2.tag = \"note\" | $2.content = \"\""),
      Pattern(two_kids,
              "$1.tag = \"inproceedings\" & $2.tag = \"author\" & "
              "$3.tag = \"title\" & $2.content != $3.content"),
  };
}

void ExpectSame(const Result<tax::TreeCollection>& got,
                const Result<tax::TreeCollection>& want,
                const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok())
      << what << ": " << got.status() << " vs " << want.status();
  if (got.ok()) {
    EXPECT_EQ(reference::Keys(*got), reference::Keys(*want)) << what;
  }
}

class ReferenceOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dblp = db_.CreateCollection("dblp");
    ASSERT_TRUE(dblp.ok());
    int i = 0;
    for (const char* p : kPapers) {
      ASSERT_TRUE((*dblp)->InsertXml("p" + std::to_string(i++), p).ok());
    }
    auto sigmod = db_.CreateCollection("sigmod");
    ASSERT_TRUE(sigmod.ok());
    i = 0;
    for (const char* p : kPages) {
      ASSERT_TRUE((*sigmod)->InsertXml("page" + std::to_string(i++), p).ok());
    }
    seo_ = MakeSeo();
    types_ = core::MakeBibliographicTypeSystem();
  }

  store::Database db_;
  core::Seo seo_;
  core::TypeSystem types_;
};

TEST_F(ReferenceOracleTest, SingleCollectionOperatorsMatchUnderTaxAndToss) {
  core::QueryExecutor tax_exec(&db_, nullptr, nullptr);
  core::QueryExecutor toss_exec(&db_, &seo_, &types_);
  core::PreparedQueryCache prepared(64);
  size_t nonempty = 0;
  // At the scheduler's full width (0) and inline (1).
  for (size_t width : {0, 1})
  for (const core::QueryExecutor* exec : {&tax_exec, &toss_exec}) {
    reference::ReferenceEvaluator ref(&db_, &exec->semantics());
    prepared.Clear();
    core::QueryOptions options;
    options.prepared = &prepared;
    options.parallelism = width;
    const std::string system = (exec->is_toss() ? "TOSS " : "TAX ") +
                               std::string("width ") + std::to_string(width) +
                               " ";
    int n = 0;
    for (const tax::PatternTree& pt : SelectPatterns()) {
      const std::string what = system + "pattern " + std::to_string(n++);
      // Twice: the second run is served from the prepared cache.
      for (int round = 0; round < 2; ++round) {
        auto s = exec->Select("dblp", pt, {1}, options);
        ExpectSame(s, ref.Select("dblp", pt, {1}), what + " select");
        if (s.ok() && !s->empty()) ++nonempty;
      }
      ExpectSame(exec->Project("dblp", pt, {{2, true}}, options),
                 ref.Project("dblp", pt, {{2, true}}),
                 what + " project");
      ExpectSame(exec->GroupBy("dblp", pt, 2, {1}, options),
                 ref.GroupBy("dblp", pt, 2, {1}), what + " groupby");
    }
  }
  EXPECT_GT(nonempty, 10u);
}

TEST_F(ReferenceOracleTest, TwigJoinMatchesUnderTaxAndToss) {
  core::QueryExecutor tax_exec(&db_, nullptr, nullptr);
  core::QueryExecutor toss_exec(&db_, &seo_, &types_);
  // At the scheduler's full width (0) and inline (1).
  for (size_t width : {0, 1})
  for (const core::QueryExecutor* exec : {&tax_exec, &toss_exec}) {
    reference::ReferenceEvaluator ref(&db_, &exec->semantics());
    core::QueryOptions options;
    options.parallelism = width;
    for (const char* op : {"~", "=", "!="}) {
      for (const std::vector<int>& sl :
           {std::vector<int>{2, 4}, std::vector<int>{1}}) {
        core::ExecStats stats;
        auto got = exec->Join("dblp", "sigmod", TitleJoin(op), sl, options,
                              &stats);
        const std::string what = std::string(exec->is_toss() ? "TOSS" : "TAX") +
                                 " width " + std::to_string(width) + " op " +
                                 op + " sl " + std::to_string(sl.size());
        ExpectSame(got, ref.Join("dblp", "sigmod", TitleJoin(op), sl), what);
        EXPECT_EQ(stats.join_engine, 2) << what;
        if (got.ok() && std::string(op) == "~") {
          EXPECT_FALSE(got->empty()) << what;
        }
      }
    }
  }
}

TEST(ReferenceOracleFallbackTest, PairwiseFallbackMatchesTheReference) {
  // The executor leaves the twig engine when a document's posting list
  // passes the 100k cap. Here the right subtree is three unpinned nodes on
  // ad edges, and one right document is an 88-deep chain: C(88, 3) =
  // 109,736 partial matches.
  store::Database db;
  auto papers = db.CreateCollection("papers");
  ASSERT_TRUE(papers.ok());
  ASSERT_TRUE(
      (*papers)->InsertXml("a", "<paper><title>Views</title></paper>").ok());
  ASSERT_TRUE(
      (*papers)->InsertXml("b", "<paper><title>Trees</title></paper>").ok());
  auto chains = db.CreateCollection("chains");
  ASSERT_TRUE(chains.ok());
  std::string chain;
  for (int i = 0; i < 87; ++i) chain += "<c>";
  chain += "<c>Views</c>";
  for (int i = 0; i < 87; ++i) chain += "</c>";
  ASSERT_TRUE((*chains)->InsertXml("deep", chain).ok());
  ASSERT_TRUE((*chains)->InsertXml("flat", "<c><c><c>Trees</c></c></c>").ok());
  tax::PatternTree pt = Pattern(
      {{0, kPc}, {1, kPc}, {0, kAd}, {3, kAd}, {4, kAd}},
      "$1.tag = \"tax_prod_root\" & $2.tag = \"paper\" & "
      "$3.tag = \"title\" & $3.content = $6.content");

  core::QueryExecutor exec(&db, nullptr, nullptr);
  reference::ReferenceEvaluator ref(&db, &exec.semantics());
  obs::Counter& fallbacks =
      obs::Metrics().GetCounter("core.query.join.twig.fallbacks");
  const uint64_t before = fallbacks.Value();
  core::ExecStats stats;
  auto got = exec.Join("papers", "chains", pt, {2, 4}, core::QueryOptions{},
                       &stats);
  EXPECT_EQ(stats.join_engine, 1);
  EXPECT_EQ(fallbacks.Value(), before + 1);
  ExpectSame(got, ref.Join("papers", "chains", pt, {2, 4}), "fallback join");
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->empty());
}

TEST(ReferenceOracleJoinTest, OperandPruningKeepsOtherSideEmbeddings) {
  // Both subtrees of the pattern embed inside the right document, so the
  // pair (misc, page) is an answer of Select over Product even though the
  // left document "misc" has no paper/title: the left operand's queries
  // must not prune it while the right operand also carries those tags.
  store::Database db;
  auto lhs = db.CreateCollection("lhs");
  auto rhs = db.CreateCollection("rhs");
  ASSERT_TRUE(lhs.ok() && rhs.ok());
  ASSERT_TRUE((*lhs)
                  ->InsertXml("paper", "<root><paper><title>alpha</title>"
                                       "</paper></root>")
                  .ok());
  ASSERT_TRUE((*lhs)->InsertXml("misc", "<root><misc/></root>").ok());
  ASSERT_TRUE((*rhs)
                  ->InsertXml("page",
                              "<root><paper><title>beta</title></paper>"
                              "<note><author>gamma</author></note></root>")
                  .ok());
  tax::PatternTree pt =
      Pattern({{0, kAd}, {1, kPc}, {0, kAd}, {3, kPc}},
              "$1.tag = \"tax_prod_root\" & $2.tag = \"paper\" & "
              "$3.tag = \"title\" & $4.tag = \"note\" & "
              "$5.tag = \"author\"");
  core::QueryExecutor exec(&db, nullptr, nullptr);
  reference::ReferenceEvaluator ref(&db, &exec.semantics());
  auto got = exec.Join("lhs", "rhs", pt, {1}, core::QueryOptions{});
  ExpectSame(got, ref.Join("lhs", "rhs", pt, {1}), "join");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 2u);  // one product tree per left document
}

TEST(ReferenceOracleRandomTest, RandomSelectionsMatchUnderTaxAndToss) {
  // Random documents over a small vocabulary and random 2-3 node patterns
  // whose atoms all push down (tag pins, =, ~, contains, ranges), so the
  // executor's index planning is exercised against the full scan.
  std::mt19937 rng(8080);
  auto pick = [&](const std::vector<std::string>& v) {
    return v[std::uniform_int_distribution<size_t>(0, v.size() - 1)(rng)];
  };
  const std::vector<std::string> kTags = {"paper", "note"};
  const std::vector<std::string> kLeaves = {"title", "year", "author"};
  const std::vector<std::string> kTexts = {"alpha", "alpha.", "beta",
                                           "1999",  "2001",   ""};
  store::Database db;
  auto coll = db.CreateCollection("c");
  ASSERT_TRUE(coll.ok());
  for (int d = 0; d < 12; ++d) {
    const std::string root = pick(kTags);
    std::string xml = "<" + root + ">";
    const int leaves = std::uniform_int_distribution<int>(1, 3)(rng);
    for (int l = 0; l < leaves; ++l) {
      const std::string leaf = pick(kLeaves);
      xml += "<" + leaf + ">" + pick(kTexts) + "</" + leaf + ">";
    }
    xml += "</" + root + ">";
    ASSERT_TRUE((*coll)->InsertXml("d" + std::to_string(d), xml).ok());
  }
  // The SEO is made from the queried instance, as the offline pipeline
  // does: ~ pushdown expands a literal only into SEO terms.
  std::vector<const xml::XmlDocument*> docs;
  for (store::DocId id : (*coll)->AllDocs()) {
    docs.push_back(&(*coll)->document(id));
  }
  core::Seo seo = MakeSeo(docs);
  core::TypeSystem types = core::MakeBibliographicTypeSystem();
  core::QueryExecutor tax_exec(&db, nullptr, nullptr);
  core::QueryExecutor toss_exec(&db, &seo, &types);
  const std::vector<std::string> kOps = {"=", "~", "<", ">=", "!="};
  size_t nonempty = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::string cond = "$1.tag = \"" + pick(kTags) + "\"";
    for (int label : {2, 3}) {
      const std::string l = "$" + std::to_string(label);
      cond += " & " + l + ".tag = \"" + pick(kLeaves) + "\"";
      std::string lit = pick(kTexts);
      if (std::uniform_int_distribution<int>(0, 4)(rng) == 0) {
        lit = "*" + lit + "*";
      }
      cond += " & " + l + ".content " + pick(kOps) + " \"" + lit + "\"";
    }
    tax::PatternTree pt = Pattern({{0, kPc}, {0, kAd}}, cond);
    for (const core::QueryExecutor* exec : {&tax_exec, &toss_exec}) {
      reference::ReferenceEvaluator ref(&db, &exec->semantics());
      auto got = exec->Select("c", pt, {1}, core::QueryOptions{});
      ExpectSame(got, ref.Select("c", pt, {1}),
                 "trial " + std::to_string(trial) + ": " + cond);
      if (got.ok() && !got->empty()) ++nonempty;
    }
  }
  EXPECT_GT(nonempty, 5u);
}

// --- Through the service front door ------------------------------------------

class ServiceOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    seo_ = MakeSeo();
    types_ = core::MakeBibliographicTypeSystem();
  }

  /// Checks the service's select and join answers against the reference
  /// over the database as it is now.
  void ExpectServiceMatches(service::TossService* svc,
                            const store::Database& db,
                            const std::string& step) {
    core::QueryExecutor exec(&db, &seo_, &types_);
    reference::ReferenceEvaluator ref(&db, &exec.semantics());
    for (const tax::PatternTree& pt : SelectPatterns()) {
      service::QueryResponse resp =
          svc->Run(service::QueryRequest::Select("dblp", pt, {1}));
      ExpectSame(resp.ok() ? Result<tax::TreeCollection>(resp.trees)
                           : Result<tax::TreeCollection>(resp.status),
                 ref.Select("dblp", pt, {1}), step + " select");
    }
    service::QueryResponse joined = svc->Run(
        service::QueryRequest::Join("dblp", "sigmod", TitleJoin("~"), {2, 4}));
    ASSERT_TRUE(joined.ok()) << step << ": " << joined.status;
    ExpectSame(joined.trees,
               ref.Join("dblp", "sigmod", TitleJoin("~"), {2, 4}),
               step + " join");
  }

  /// Inserts, replaces and removes documents through TossService::Run on a
  /// durable database in `dir`, checking answers after every step.
  void RunMutationSteps(const std::string& dir);

  core::Seo seo_;
  core::TypeSystem types_;
};

TEST_F(ServiceOracleTest, MutationsKeepAnswersInStepWithTheReference) {
  const fs::path dir = fs::temp_directory_path() / "toss_reference_oracle";
  fs::remove_all(dir);
  RunMutationSteps(dir.string());
  fs::remove_all(dir);
}

void ServiceOracleTest::RunMutationSteps(const std::string& dir) {
  auto db = store::Database::OpenDurable(dir, store::Env::Default());
  ASSERT_TRUE(db.ok()) << db.status();
  service::TossService svc(&*db, &seo_, &types_);
  auto apply = [&](const service::QueryRequest& req) {
    service::QueryResponse resp = svc.Run(req);
    ASSERT_TRUE(resp.ok()) << req.OpName() << ": " << resp.status;
  };
  for (size_t i = 0; i < std::size(kPapers); ++i) {
    apply(service::QueryRequest::Insert("dblp", "p" + std::to_string(i),
                                        kPapers[i]));
  }
  for (size_t i = 0; i < std::size(kPages); ++i) {
    apply(service::QueryRequest::Insert("sigmod", "page" + std::to_string(i),
                                        kPages[i]));
  }
  ExpectServiceMatches(&svc, *db, "after inserts");

  // Replace a decoded (cached) document: the new text must be what answers.
  apply(service::QueryRequest::Replace(
      "dblp", "p2",
      "<inproceedings gtid=\"10003\"><author>Serge Abiteboul</author>"
      "<title>Views</title><booktitle>SIGMOD Conference</booktitle>"
      "<year>1997</year></inproceedings>"));
  ExpectServiceMatches(&svc, *db, "after replace");

  // Remove a matching document: it must leave every index and answer.
  apply(service::QueryRequest::Remove("dblp", "p0"));
  ExpectServiceMatches(&svc, *db, "after remove");

  // A new right-side page that joins with the replaced paper.
  apply(service::QueryRequest::Replace(
      "sigmod", "page1",
      "<proceedingsPage><articles><article><title>Views!</title></article>"
      "</articles></proceedingsPage>"));
  ExpectServiceMatches(&svc, *db, "after sigmod replace");
}

TEST_F(ServiceOracleTest, ConcurrentClientsMatchTheReference) {
  store::Database db;
  auto dblp = db.CreateCollection("dblp");
  auto sigmod = db.CreateCollection("sigmod");
  ASSERT_TRUE(dblp.ok() && sigmod.ok());
  for (size_t i = 0; i < std::size(kPapers); ++i) {
    ASSERT_TRUE((*dblp)->InsertXml("p" + std::to_string(i), kPapers[i]).ok());
  }
  for (size_t i = 0; i < std::size(kPages); ++i) {
    ASSERT_TRUE(
        (*sigmod)->InsertXml("page" + std::to_string(i), kPages[i]).ok());
  }
  // Requests and their reference answers, computed up front.
  core::QueryExecutor exec(&db, &seo_, &types_);
  reference::ReferenceEvaluator ref(&db, &exec.semantics());
  std::vector<service::QueryRequest> requests;
  std::vector<std::vector<std::string>> expected;
  for (const tax::PatternTree& pt : SelectPatterns()) {
    requests.push_back(service::QueryRequest::Select("dblp", pt, {1}));
    expected.push_back(reference::Keys(*ref.Select("dblp", pt, {1})));
    requests.push_back(service::QueryRequest::GroupBy("dblp", pt, 2, {1}));
    expected.push_back(reference::Keys(*ref.GroupBy("dblp", pt, 2, {1})));
  }
  for (const char* op : {"~", "="}) {
    requests.push_back(service::QueryRequest::Join("dblp", "sigmod",
                                                   TitleJoin(op), {2, 4}));
    expected.push_back(
        reference::Keys(*ref.Join("dblp", "sigmod", TitleJoin(op), {2, 4})));
  }
  for (auto& r : requests) r.parallelism = 2;

  service::TossService svc(&static_cast<const store::Database&>(db), &seo_,
                           &types_);
  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<std::string>> failures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t k = 0; k < requests.size(); ++k) {
          // Each client walks the requests from a different offset.
          const size_t i = (k + static_cast<size_t>(c) * 3) % requests.size();
          service::QueryResponse resp = svc.Run(requests[i]);
          if (!resp.ok()) {
            failures[c].push_back(requests[i].OpName() + ": " +
                                  resp.status.ToString());
          } else if (reference::Keys(resp.trees) != expected[i]) {
            failures[c].push_back(requests[i].OpName() + " #" +
                                  std::to_string(i) + " differs");
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty())
        << "client " << c << ": " << failures[c].front();
  }
}

}  // namespace
}  // namespace toss
