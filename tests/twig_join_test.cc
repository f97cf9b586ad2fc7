// The structural (twig) join engine, three ways:
//   1. Unit tests of tax::TwigJoiner itself -- postings, pruning, the
//      stack-based merge, cancellation.
//   2. Golden executor tests: executor joins must produce byte-identical
//      answers in identical order to the reference evaluator
//      (reference_eval.h), under TAX and TOSS.
//   3. Randomized property tests: seeded random corpora and patterns
//      (ad edges, Or conditions, unpinned roots, root in the selection
//      list) against the same reference.

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/seo_oracle.h"
#include "core/toss.h"
#include "reference_eval.h"
#include "tax/tax_semantics.h"
#include "tax/twig_join.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace toss {
namespace {

std::shared_ptr<const tax::DataTree> Tree(const std::string& xml) {
  auto doc = xml::Parse(xml);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return std::make_shared<tax::DataTree>(
      tax::DataTree::FromXml(*doc, doc->root()));
}

tax::PatternTree JoinPattern(const std::string& cond) {
  tax::PatternTree pt;
  int root = pt.AddRoot();
  int left = pt.AddChild(root, tax::EdgeKind::kPc);
  pt.AddChild(left, tax::EdgeKind::kPc);
  int right = pt.AddChild(root, tax::EdgeKind::kAd);
  pt.AddChild(right, tax::EdgeKind::kPc);
  auto parsed = tax::ParseCondition(cond);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  pt.SetCondition(std::move(parsed).value());
  return pt;
}

std::vector<std::string> Serialize(const tax::TreeCollection& trees) {
  std::vector<std::string> out;
  out.reserve(trees.size());
  for (const auto& t : trees) out.push_back(xml::Write(t.ToXml()));
  return out;
}

// ---------------------------------------------------------------------------
// TwigJoiner units
// ---------------------------------------------------------------------------

class TwigJoinerTest : public ::testing::Test {
 protected:
  tax::PatternTree pattern_ = JoinPattern(
      "$1.tag = \"tax_prod_root\" & "
      "$2.tag = \"paper\" & $3.tag = \"title\" & "
      "$4.tag = \"article\" & $5.tag = \"title\" & "
      "$3.content = $5.content");
  std::set<int> expand_{2, 4};
  tax::TaxSemantics sem_;
  tax::ExactSimilarOracle oracle_;
};

TEST_F(TwigJoinerTest, PlanRejectsDegeneratePatterns) {
  tax::PatternTree empty;
  EXPECT_EQ(tax::TwigJoiner::Plan(empty, {}, sem_, &oracle_), nullptr);
  tax::PatternTree bare;
  bare.AddRoot();
  EXPECT_EQ(tax::TwigJoiner::Plan(bare, {}, sem_, &oracle_), nullptr);
  EXPECT_NE(tax::TwigJoiner::Plan(pattern_, expand_, sem_, &oracle_),
            nullptr);
}

TEST_F(TwigJoinerTest, EmptyPostingsShortCircuitTheMerge) {
  auto joiner = tax::TwigJoiner::Plan(pattern_, expand_, sem_, &oracle_);
  ASSERT_NE(joiner, nullptr);
  tax::TwigJoinStats stats;
  // Neither doc carries the pattern's tags: no postings anywhere.
  auto l = joiner->Prepare(Tree("<misc><x>1</x></misc>"), &stats);
  auto r = joiner->Prepare(Tree("<misc><y>2</y></misc>"), &stats);
  ASSERT_TRUE(l.ok()) << l.status();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(l->HasPostings());
  const tax::TwigDoc* rp = &*r;
  auto out = joiner->JoinLeft(*l, {rp}, /*combos_enabled=*/true, /*first_part=*/true,
                       /*value_filter=*/nullptr, nullptr, &stats);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->empty());
  EXPECT_EQ(stats.stack_pushes.load(), 0u);
}

TEST_F(TwigJoinerTest, SingleDocPairProducesTheProduct) {
  auto joiner = tax::TwigJoiner::Plan(pattern_, expand_, sem_, &oracle_);
  ASSERT_NE(joiner, nullptr);
  tax::TwigJoinStats stats;
  // The left head's edge from the product root is pc, so in pair-tree
  // semantics it can only be the document root itself.
  auto l = joiner->Prepare(
      Tree("<paper><title>Views</title></paper>"), &stats);
  auto r = joiner->Prepare(
      Tree("<page><article><title>Views</title></article></page>"), &stats);
  ASSERT_TRUE(l.ok()) << l.status();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(l->HasPostings());
  const tax::TwigDoc* rp = &*r;
  auto out =
      joiner->JoinLeft(*l, {rp}, /*combos_enabled=*/true, /*first_part=*/true,
                       /*value_filter=*/nullptr, nullptr, &stats);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->size(), 1u);
  const std::string xml = xml::Write((*out)[0].ToXml());
  EXPECT_NE(xml.find("tax_prod_root"), std::string::npos) << xml;
  EXPECT_NE(xml.find("paper"), std::string::npos) << xml;
  EXPECT_NE(xml.find("article"), std::string::npos) << xml;
  EXPECT_GT(stats.combos_emitted.load(), 0u);
  EXPECT_GT(stats.stack_pushes.load(), 0u);
}

TEST_F(TwigJoinerTest, DuplicateTermsGroupInOneRun) {
  auto joiner = tax::TwigJoiner::Plan(pattern_, expand_, sem_, &oracle_);
  ASSERT_NE(joiner, nullptr);
  tax::TwigJoinStats stats;
  // Two identical titles on each side: 4 combos pass, but the sorted runs
  // group the duplicate values, so stream advances stay sub-quadratic in
  // the duplicate count at the value-comparison level.
  auto l = joiner->Prepare(Tree("<paper>"
                                "<title>Same</title>"
                                "<title>Same</title>"
                                "</paper>"),
                           &stats);
  auto r = joiner->Prepare(Tree("<page>"
                                "<article><title>Same</title></article>"
                                "<article><title>Same</title></article>"
                                "</page>"),
                           &stats);
  ASSERT_TRUE(l.ok()) << l.status();
  ASSERT_TRUE(r.ok()) << r.status();
  const tax::TwigDoc* rp = &*r;
  auto out =
      joiner->JoinLeft(*l, {rp}, /*combos_enabled=*/true, /*first_part=*/true,
                       /*value_filter=*/nullptr, nullptr, &stats);
  ASSERT_TRUE(out.ok()) << out.status();
  // All 2x2 combinations are checked and pass, but their witness trees are
  // byte-identical, so dedup collapses them to one answer -- exactly what
  // the pairwise engine produces.
  EXPECT_EQ(stats.combos_checked.load(), 4u);
  EXPECT_EQ(stats.combos_emitted.load(), 4u);
  EXPECT_EQ(out->size(), 1u);
}

TEST_F(TwigJoinerTest, CancellationMidMergeAborts) {
  auto joiner = tax::TwigJoiner::Plan(pattern_, expand_, sem_, &oracle_);
  ASSERT_NE(joiner, nullptr);
  tax::TwigJoinStats stats;
  auto l = joiner->Prepare(
      Tree("<paper><title>Views</title></paper>"), &stats);
  auto r = joiner->Prepare(
      Tree("<page><article><title>Views</title></article></page>"), &stats);
  ASSERT_TRUE(l.ok());
  ASSERT_TRUE(r.ok());
  CancelToken cancel;
  cancel.Cancel();
  const tax::TwigDoc* rp = &*r;
  auto out =
      joiner->JoinLeft(*l, {rp}, /*combos_enabled=*/true, /*first_part=*/true,
                       /*value_filter=*/nullptr, &cancel, &stats);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsCancelled()) << out.status();
}

TEST_F(TwigJoinerTest, PruneFiltersExposeThePinnedTags) {
  auto joiner = tax::TwigJoiner::Plan(pattern_, expand_, sem_, &oracle_);
  ASSERT_NE(joiner, nullptr);
  auto filters = joiner->PruneFilters();
  // Both subtree heads are tag-pinned and the root's pin is the product
  // tag, so pruning is available.
  ASSERT_FALSE(filters.empty());
  bool saw_paper = false, saw_article = false;
  for (const auto* f : filters) {
    if (f->count("paper")) saw_paper = true;
    if (f->count("article")) saw_article = true;
  }
  EXPECT_TRUE(saw_paper);
  EXPECT_TRUE(saw_article);

  // An unpinned head disables doc pruning (any node could match).
  tax::PatternTree loose = JoinPattern(
      "$1.tag = \"tax_prod_root\" & $3.tag = \"title\" & "
      "$5.tag = \"title\" & $3.content = $5.content");
  auto loose_joiner = tax::TwigJoiner::Plan(loose, expand_, sem_, &oracle_);
  ASSERT_NE(loose_joiner, nullptr);
  EXPECT_TRUE(loose_joiner->PruneFilters().empty());
}

// ---------------------------------------------------------------------------
// Golden executor comparisons (executor vs. reference evaluator)
// ---------------------------------------------------------------------------

class TwigGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dblp = db_.CreateCollection("dblp");
    ASSERT_TRUE(dblp.ok());
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
        // A doc with none of the join tags: exercises document pruning.
        "<misc gtid=\"10005\"><note>nothing to join</note></misc>",
        // Duplicate titles inside one doc: exercises run grouping.
        "<inproceedings gtid=\"10006\">"
        "<title>Views</title><title>Views</title>"
        "<booktitle>SIGMOD Conference</booktitle>"
        "</inproceedings>",
    };
    int i = 0;
    for (const char* p : kPapers) {
      ASSERT_TRUE((*dblp)->InsertXml("p" + std::to_string(i++), p).ok());
    }

    auto sigmod = db_.CreateCollection("sigmod");
    ASSERT_TRUE(sigmod.ok());
    ASSERT_TRUE((*sigmod)
                    ->InsertXml("page0",
                                "<proceedingsPage><articles>"
                                "<article gtid=\"10001\">"
                                "<title>Views.</title></article>"
                                "<article gtid=\"99\">"
                                "<title>Nothing Alike Here</title></article>"
                                "</articles></proceedingsPage>")
                    .ok());
    ASSERT_TRUE((*sigmod)
                    ->InsertXml("page1",
                                "<proceedingsPage><articles>"
                                "<article gtid=\"10003\">"
                                "<title>Trees</title></article>"
                                "</articles></proceedingsPage>")
                    .ok());

    ontology::OntologyMakerOptions opts;
    opts.content_tags = {"author", "booktitle", "title"};
    std::vector<const xml::XmlDocument*> docs;
    for (store::DocId id : (*dblp)->AllDocs()) {
      docs.push_back(&(*dblp)->document(id));
    }
    auto o = ontology::MakeOntologyForDocuments(
        docs, lexicon::BuiltinBibliographicLexicon(), opts);
    ASSERT_TRUE(o.ok()) << o.status();
    core::SeoBuilder builder;
    builder.AddInstanceOntology(std::move(o).value());
    builder.SetMeasure(*sim::MakeMeasure("levenshtein"));
    builder.SetEpsilon(3.0);
    auto seo = builder.Build();
    ASSERT_TRUE(seo.ok()) << seo.status();
    seo_ = std::move(seo).value();
    types_ = core::MakeBibliographicTypeSystem();
  }

  /// Runs the join through the executor and the reference evaluator and
  /// requires byte-identical output in identical order (or errors on
  /// both). Returns the answer size.
  size_t ExpectMatchesReference(const core::QueryExecutor& exec,
                                const tax::PatternTree& pt,
                                const std::vector<int>& sl) {
    reference::ReferenceEvaluator ref(&db_, &exec.semantics());
    auto a = exec.Join("dblp", "sigmod", pt, sl, core::QueryOptions{});
    auto b = ref.Join("dblp", "sigmod", pt, sl);
    EXPECT_EQ(a.ok(), b.ok()) << a.status() << " vs " << b.status();
    if (!a.ok() || !b.ok()) return 0;
    EXPECT_EQ(reference::Keys(*a), reference::Keys(*b));
    return a->size();
  }

  store::Database db_;
  core::Seo seo_;
  core::TypeSystem types_;
};

TEST_F(TwigGoldenTest, Fig16StylePatternUnderTaxAndToss) {
  tax::PatternTree pt = JoinPattern(
      "$1.tag = \"tax_prod_root\" & "
      "$2.tag = \"inproceedings\" & $3.tag = \"title\" & "
      "$4.tag = \"article\" & $5.tag = \"title\" & "
      "$3.content ~ $5.content");
  core::QueryExecutor tax_exec(&db_, nullptr, nullptr);
  core::QueryExecutor toss_exec(&db_, &seo_, &types_);
  size_t tax_n = ExpectMatchesReference(tax_exec, pt, {2, 4});
  size_t toss_n = ExpectMatchesReference(toss_exec, pt, {2, 4});
  // TOSS's ~ admits "Views"/"Views." on top of TAX's exact "Trees".
  EXPECT_GT(toss_n, tax_n);
  EXPECT_GT(tax_n, 0u);
}

TEST_F(TwigGoldenTest, AdEdgesOrConditionsAndUnpinnedRoot) {
  // No root tag pin, Or across the sides, one unpinned head.
  tax::PatternTree pt = JoinPattern(
      "$3.tag = \"title\" & $5.tag = \"title\" & "
      "($3.content = $5.content | $3.content = \"Trees\")");
  core::QueryExecutor toss_exec(&db_, &seo_, &types_);
  EXPECT_GT(ExpectMatchesReference(toss_exec, pt, {2, 4}), 0u);
}

TEST_F(TwigGoldenTest, RootInSelectionListCopiesWholePairs) {
  tax::PatternTree pt = JoinPattern(
      "$1.tag = \"tax_prod_root\" & "
      "$2.tag = \"inproceedings\" & $3.tag = \"title\" & "
      "$4.tag = \"article\" & $5.tag = \"title\" & "
      "$3.content = $5.content");
  core::QueryExecutor toss_exec(&db_, &seo_, &types_);
  EXPECT_GT(ExpectMatchesReference(toss_exec, pt, {1}), 0u);
}

TEST_F(TwigGoldenTest, ValueFilteredSimilarityJoinMatchesTheReference) {
  // The similarity join is inside the value filter's envelope: the filter
  // is built (traced) and the answer still equals the reference, which has
  // no filter, no twig engine and no symbol ids.
  tax::PatternTree pt = JoinPattern(
      "$1.tag = \"tax_prod_root\" & "
      "$2.tag = \"inproceedings\" & $3.tag = \"title\" & "
      "$4.tag = \"article\" & $5.tag = \"title\" & "
      "$3.content ~ $5.content");
  core::QueryExecutor toss_exec(&db_, &seo_, &types_);
  EXPECT_GT(ExpectMatchesReference(toss_exec, pt, {2, 4}), 0u);
  obs::Trace trace("join(dblp,sigmod)");
  {
    obs::Span root_span = trace.RootSpan();
    ASSERT_TRUE(toss_exec
                    .Join("dblp", "sigmod", pt, {2, 4}, core::QueryOptions{},
                          nullptr, &root_span)
                    .ok());
  }
  EXPECT_NE(trace.Pretty().find("built=yes"), std::string::npos)
      << trace.Pretty();
}

TEST_F(TwigGoldenTest, NoMatchesStaysEmpty) {
  tax::PatternTree pt = JoinPattern(
      "$1.tag = \"tax_prod_root\" & "
      "$2.tag = \"phantom\" & $3.tag = \"title\" & "
      "$4.tag = \"article\" & $5.tag = \"title\" & "
      "$3.content = $5.content");
  core::QueryExecutor toss_exec(&db_, &seo_, &types_);
  EXPECT_EQ(ExpectMatchesReference(toss_exec, pt, {2, 4}), 0u);
}

TEST_F(TwigGoldenTest, CancelledTokenAbortsTheTwigJoin) {
  tax::PatternTree pt = JoinPattern(
      "$1.tag = \"tax_prod_root\" & "
      "$2.tag = \"inproceedings\" & $3.tag = \"title\" & "
      "$4.tag = \"article\" & $5.tag = \"title\" & "
      "$3.content = $5.content");
  core::QueryExecutor toss_exec(&db_, &seo_, &types_);
  CancelToken cancel;
  cancel.Cancel();
  core::QueryOptions options;
  options.cancel = &cancel;
  auto r = toss_exec.Join("dblp", "sigmod", pt, {2, 4}, options);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status();
}

TEST_F(TwigGoldenTest, TracedJoinAnnotatesTheTwigPhases) {
  tax::PatternTree pt = JoinPattern(
      "$1.tag = \"tax_prod_root\" & "
      "$2.tag = \"inproceedings\" & $3.tag = \"title\" & "
      "$4.tag = \"article\" & $5.tag = \"title\" & "
      "$3.content ~ $5.content");
  core::QueryExecutor toss_exec(&db_, &seo_, &types_);
  obs::Trace trace("join(dblp,sigmod)");
  {
    obs::Span root_span = trace.RootSpan();
    auto joined = toss_exec.Join("dblp", "sigmod", pt, {2, 4},
                                 core::QueryOptions{}, nullptr, &root_span);
    ASSERT_TRUE(joined.ok()) << joined.status();
  }
  const std::string pretty = trace.Pretty();
  EXPECT_NE(pretty.find("twig_postings"), std::string::npos) << pretty;
  EXPECT_NE(pretty.find("twig_merge"), std::string::npos) << pretty;
  EXPECT_NE(pretty.find("stream_advances"), std::string::npos) << pretty;
  EXPECT_NE(pretty.find("join_engine"), std::string::npos) << pretty;
  // The value filter's closure build is its own span under twig_merge.
  EXPECT_NE(pretty.find("value_filter"), std::string::npos) << pretty;
  EXPECT_NE(pretty.find("pairs_checked"), std::string::npos) << pretty;
}

// ---------------------------------------------------------------------------
// Randomized property equivalence
// ---------------------------------------------------------------------------

class TwigPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::mt19937 rng(4242);
    auto load = [&](const std::string& name, size_t docs) {
      auto coll = db_.CreateCollection(name);
      ASSERT_TRUE(coll.ok());
      for (size_t i = 0; i < docs; ++i) {
        ASSERT_TRUE(
            (*coll)->InsertXml("d" + std::to_string(i), RandomDoc(&rng)).ok());
      }
    };
    load("lhs", 6);
    load("rhs", 5);
  }

  std::string RandomDoc(std::mt19937* rng) {
    static const char* kTags[] = {"paper", "note", "entry"};
    static const char* kLeafTags[] = {"title", "author", "extra"};
    static const char* kTexts[] = {"alpha", "alpha.", "beta", "gamma", "Alph"};
    auto pick = [&](auto& arr) {
      return arr[std::uniform_int_distribution<size_t>(
          0, std::size(arr) - 1)(*rng)];
    };
    std::string xml = "<root>";
    const int blocks = std::uniform_int_distribution<int>(1, 3)(*rng);
    for (int b = 0; b < blocks; ++b) {
      const char* tag = pick(kTags);
      xml += std::string("<") + tag + ">";
      const int leaves = std::uniform_int_distribution<int>(1, 2)(*rng);
      for (int l = 0; l < leaves; ++l) {
        const char* leaf = pick(kLeafTags);
        xml += std::string("<") + leaf + ">" + pick(kTexts) + "</" + leaf +
               ">";
      }
      xml += std::string("</") + tag + ">";
    }
    xml += "</root>";
    return xml;
  }

  /// A random 2-subtree join pattern + selection list. Covers pc and ad
  /// edges, pinned and unpinned roots/heads, cross-side ~ and =, Or
  /// clauses, and root-in-selection-list.
  std::pair<tax::PatternTree, std::vector<int>> RandomPattern(
      std::mt19937* rng) {
    auto chance = [&](double p) {
      return std::uniform_real_distribution<double>(0, 1)(*rng) < p;
    };
    auto edge = [&] {
      return chance(0.5) ? tax::EdgeKind::kPc : tax::EdgeKind::kAd;
    };
    tax::PatternTree pt;
    int root = pt.AddRoot();
    int l1 = pt.AddChild(root, edge());
    int l2 = pt.AddChild(l1, edge());
    int r1 = pt.AddChild(root, edge());
    int r2 = pt.AddChild(r1, edge());

    static const char* kTags[] = {"paper", "note", "entry"};
    static const char* kLeafTags[] = {"title", "author", "extra"};
    auto pick = [&](auto& arr) {
      return arr[std::uniform_int_distribution<size_t>(
          0, std::size(arr) - 1)(*rng)];
    };
    std::vector<std::string> atoms;
    if (chance(0.6)) atoms.push_back("$1.tag = \"tax_prod_root\"");
    auto pin = [&](int label, auto& arr, double p) {
      if (chance(p)) {
        atoms.push_back("$" + std::to_string(label) + ".tag = \"" +
                        pick(arr) + "\"");
      }
    };
    pin(l1, kTags, 0.7);
    pin(l2, kLeafTags, 0.7);
    pin(r1, kTags, 0.7);
    pin(r2, kLeafTags, 0.7);
    if (chance(0.6)) {
      atoms.push_back("$" + std::to_string(l2) + ".content " +
                      (chance(0.5) ? "~ $" : "= $") + std::to_string(r2) +
                      ".content");
    }
    if (chance(0.3)) {
      atoms.push_back("($" + std::to_string(l2) +
                      ".content = \"alpha\" | $" + std::to_string(r2) +
                      ".content = \"beta\")");
    }
    if (atoms.empty()) atoms.push_back("$1.tag = \"tax_prod_root\"");
    std::string cond = atoms[0];
    for (size_t i = 1; i < atoms.size(); ++i) cond += " & " + atoms[i];
    auto parsed = tax::ParseCondition(cond);
    EXPECT_TRUE(parsed.ok()) << cond << ": " << parsed.status();
    pt.SetCondition(std::move(parsed).value());

    std::vector<int> sl;
    if (chance(0.2)) sl.push_back(1);
    for (int label : {l1, r1}) {
      if (chance(0.5)) sl.push_back(label);
    }
    if (sl.empty()) sl = {l1, r1};
    return {std::move(pt), std::move(sl)};
  }

  store::Database db_;
};

TEST_F(TwigPropertyTest, RandomPatternsMatchTheReferenceUnderTax) {
  core::QueryExecutor exec(&db_, nullptr, nullptr);
  reference::ReferenceEvaluator ref(&db_, &exec.semantics());
  std::mt19937 rng(777);
  for (int trial = 0; trial < 40; ++trial) {
    auto [pt, sl] = RandomPattern(&rng);
    auto a = exec.Join("lhs", "rhs", pt, sl, core::QueryOptions{});
    auto b = ref.Join("lhs", "rhs", pt, sl);
    ASSERT_EQ(a.ok(), b.ok())
        << "trial " << trial << ": " << a.status() << " vs " << b.status();
    if (a.ok()) {
      EXPECT_EQ(Serialize(*a), Serialize(*b))
          << "trial " << trial << ": " << pt.condition().ToString();
    }
  }
}

TEST_F(TwigPropertyTest, RandomPatternsAgreeAcrossParallelism) {
  // The twig merge fans out per left doc; answers must not depend on the
  // worker count.
  core::QueryExecutor exec(&db_, nullptr, nullptr);
  std::mt19937 rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    auto [pt, sl] = RandomPattern(&rng);
    core::QueryOptions seq;
    seq.parallelism = 1;
    core::QueryOptions par;
    par.parallelism = 4;
    auto a = exec.Join("lhs", "rhs", pt, sl, seq);
    auto b = exec.Join("lhs", "rhs", pt, sl, par);
    ASSERT_EQ(a.ok(), b.ok())
        << "trial " << trial << ": " << a.status() << " vs " << b.status();
    if (a.ok()) {
      EXPECT_EQ(Serialize(*a), Serialize(*b)) << "trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// The value filter's closure kernel (SeoSimilarOracle::FreePairs) against a
// brute-force SimilarSym closure
// ---------------------------------------------------------------------------

class ValueFilterKernelTest : public ::testing::Test {
 protected:
  /// Short words over a small alphabet (with some capitals), so every edit
  /// distance from 0 to past 3 is common among them.
  static std::string RandomWord(std::mt19937* rng) {
    static const char kChars[] = "abcdAB";
    const int len = std::uniform_int_distribution<int>(2, 8)(*rng);
    std::string w;
    for (int i = 0; i < len; ++i) {
      w += kChars[std::uniform_int_distribution<int>(0, 5)(*rng)];
    }
    return w;
  }

  /// One document hosting `lhs` titles under the join's left subtree
  /// (paper/title at the root) and `rhs` titles under its right subtree
  /// (article/title anywhere).
  static std::shared_ptr<const tax::DataTree> Doc(
      const std::vector<std::string>& lhs,
      const std::vector<std::string>& rhs) {
    std::string xml = "<paper>";
    for (const auto& t : lhs) xml += "<title>" + t + "</title>";
    for (const auto& t : rhs) {
      xml += "<article><title>" + t + "</title></article>";
    }
    return Tree(xml + "</paper>");
  }

  /// An SEO whose isa ontology holds `terms` (they get CompatBuckets; all
  /// other words stay free), or one without a measure when `measure` is
  /// empty (every word free, nothing similar but equal texts).
  static std::optional<core::Seo> MakeSeo(
      const std::string& measure, double epsilon,
      const std::vector<std::string>& terms) {
    if (measure.empty()) return core::Seo();
    std::vector<xml::XmlDocument> parsed;
    for (const auto& t : terms) {
      auto doc = xml::Parse("<inproceedings><title>" + t +
                            "</title></inproceedings>");
      EXPECT_TRUE(doc.ok()) << doc.status();
      parsed.push_back(std::move(doc).value());
    }
    std::vector<const xml::XmlDocument*> docs;
    for (const auto& d : parsed) docs.push_back(&d);
    ontology::OntologyMakerOptions opts;
    opts.content_tags = {"title"};
    auto o = ontology::MakeOntologyForDocuments(
        docs, lexicon::BuiltinBibliographicLexicon(), opts);
    EXPECT_TRUE(o.ok()) << o.status();
    core::SeoBuilder builder;
    builder.AddInstanceOntology(std::move(o).value());
    builder.SetMeasure(*sim::MakeMeasure(measure));
    builder.SetEpsilon(epsilon);
    auto seo = builder.Build();
    if (!seo.ok()) return std::nullopt;  // similarity-inconsistent draw
    return std::move(seo).value();
  }

  /// Builds the filter over random documents and compares CanSkipPair on
  /// every document pair with the brute-force closure. Returns the number
  /// of skippable pairs.
  size_t CheckOneUniverse(const core::Seo& seo, std::mt19937* rng,
                          const std::vector<std::string>& vocab) {
    seo.WarmCaches();
    core::SeoSimilarOracle kernel(&seo);
    core::SeoSimilarOracle reference(&seo);
    tax::TaxSemantics sem;
    tax::PatternTree pt = JoinPattern(
        "$1.tag = \"tax_prod_root\" & "
        "$2.tag = \"paper\" & $3.tag = \"title\" & "
        "$4.tag = \"article\" & $5.tag = \"title\" & "
        "$3.content ~ $5.content");
    auto joiner = tax::TwigJoiner::Plan(pt, {2, 4}, sem, &kernel);
    EXPECT_NE(joiner, nullptr);
    if (joiner == nullptr) return 0;
    auto pick = [&] {
      return vocab[std::uniform_int_distribution<size_t>(
          0, vocab.size() - 1)(*rng)];
    };
    auto some = [&](int max) {
      std::vector<std::string> out(
          std::uniform_int_distribution<int>(0, max)(*rng));
      for (auto& w : out) w = pick();
      return out;
    };
    struct Side {
      std::vector<std::string> lhs, rhs;
    };
    std::vector<Side> sides(16);
    std::vector<tax::TwigDoc> docs;
    tax::TwigJoinStats stats;
    for (Side& side : sides) {
      side.lhs = some(3);
      side.rhs = some(2);
      auto d = joiner->Prepare(Doc(side.lhs, side.rhs), &stats);
      EXPECT_TRUE(d.ok()) << d.status();
      docs.push_back(std::move(d).value());
    }
    std::vector<tax::TwigDoc*> ptrs;
    for (auto& d : docs) ptrs.push_back(&d);
    auto filter = joiner->BuildValueFilter(ptrs);
    EXPECT_NE(filter, nullptr);
    if (filter == nullptr) return 0;

    Interner& interner = Interner::Global();
    auto similar = [&](const std::string& x, const std::string& y) {
      return reference.SimilarSym(interner.Intern(x), x, interner.Intern(y),
                                  y);
    };
    auto compatible = [&](const Side& l, const Side& r) {
      for (const auto& a : l.lhs) {
        for (const auto& b : r.rhs) {
          if (similar(a, b)) return true;
        }
      }
      return false;
    };
    size_t skippable = 0;
    for (size_t l = 0; l < docs.size(); ++l) {
      for (size_t r = 0; r < docs.size(); ++r) {
        const bool expect =
            !compatible(sides[l], sides[r]) && !compatible(sides[r], sides[l]);
        EXPECT_EQ(filter->CanSkipPair(docs[l], docs[r]), expect)
            << "docs " << l << ", " << r;
        skippable += expect ? 1 : 0;
      }
    }
    return skippable;
  }

  /// The kernel on a hand-built universe whose ids are a random mix of
  /// interned ids and kInvalidSymbol: FreePairs must return exactly the
  /// pairs, among those needing a verdict, that the text-only Similar
  /// accepts, each once. Returns the number of similar pairs.
  size_t CheckInvalidIdUniverse(const core::Seo& seo, std::mt19937* rng,
                                const std::vector<std::string>& vocab) {
    seo.WarmCaches();
    core::SeoSimilarOracle kernel(&seo);
    core::SeoSimilarOracle reference(&seo);
    auto draw = [&](int n) {
      return std::uniform_int_distribution<int>(0, n - 1)(*rng);
    };
    const std::set<std::string> distinct(vocab.begin(), vocab.end());
    tax::PairUniverse universe;
    for (const std::string& w : distinct) {
      universe.ids.push_back(draw(2) == 0 ? Interner::Global().Intern(w)
                                          : kInvalidSymbol);
      universe.texts.push_back(w);
      uint8_t role = kernel.CompatBuckets(w).empty()
                         ? tax::PairUniverse::kFree
                         : 0;
      const int slot = draw(3);  // lhs, rhs, or both
      if (slot != 1) role |= tax::PairUniverse::kLhs;
      if (slot != 0) role |= tax::PairUniverse::kRhs;
      universe.roles.push_back(role);
    }
    std::set<std::pair<uint32_t, uint32_t>> expect;
    for (uint32_t a = 0; a < universe.size(); ++a) {
      for (uint32_t b = a + 1; b < universe.size(); ++b) {
        if (universe.NeedsVerdict(a, b) &&
            reference.Similar(universe.texts[a], universe.texts[b])) {
          expect.emplace(a, b);
        }
      }
    }
    std::set<std::pair<uint32_t, uint32_t>> got;
    for (auto [a, b] : kernel.FreePairs(universe, 0).similar) {
      if (a > b) std::swap(a, b);
      EXPECT_TRUE(got.emplace(a, b).second)
          << "pair reported twice: " << universe.texts[a] << ", "
          << universe.texts[b];
    }
    EXPECT_EQ(got, expect);
    return expect.size();
  }
};

TEST_F(ValueFilterKernelTest, MatchesBruteForceClosureAcrossMeasures) {
  // jaro has no signatures (the unsorted kernel path); "" is an SEO with no
  // measure at all.
  const char* kMeasures[] = {"levenshtein", "damerau", "ci-levenshtein",
                             "jaro", ""};
  std::mt19937 rng(2024);
  size_t skippable = 0, bucketed = 0, free_terms = 0, similar = 0;
  for (const char* measure : kMeasures) {
    int seos_built = 0;
    for (double epsilon : {0.0, 1.0, 2.0, 3.0}) {
      // Documents carry valid ids; the hand-built universes mix in
      // kInvalidSymbol, which sends the kernel down its text path.
      for (bool doc_ids : {true, false}) {
        std::vector<std::string> vocab(40);
        for (auto& w : vocab) w = RandomWord(&rng);
        // The first dozen words (before dedup) join the ontology.
        std::vector<std::string> terms(vocab.begin(), vocab.begin() + 12);
        std::optional<core::Seo> seo = MakeSeo(measure, epsilon, terms);
        if (!seo.has_value()) continue;
        ++seos_built;
        SCOPED_TRACE(std::string("measure=") + measure +
                     " epsilon=" + std::to_string(epsilon) +
                     " doc_ids=" + std::to_string(doc_ids));
        core::SeoSimilarOracle probe(&*seo);
        for (const auto& w : vocab) {
          (probe.CompatBuckets(w).empty() ? free_terms : bucketed) += 1;
        }
        for (int round = 0; round < 3; ++round) {
          if (doc_ids) {
            skippable += CheckOneUniverse(*seo, &rng, vocab);
          } else {
            similar += CheckInvalidIdUniverse(*seo, &rng, vocab);
          }
        }
      }
    }
    EXPECT_GT(seos_built, 0) << measure;
  }
  // The draws must exercise both kinds of term and both verdicts.
  EXPECT_GT(bucketed, 0u);
  EXPECT_GT(free_terms, 0u);
  EXPECT_GT(skippable, 0u);
  EXPECT_GT(similar, 0u);
}

// ---------------------------------------------------------------------------
// Myers bit-parallel Levenshtein (rides along: the similarity fast path the
// twig join's oracle leans on)
// ---------------------------------------------------------------------------

TEST(MyersLevenshteinTest, MatchesTheReferenceDpOnFixedCases) {
  using sim::internal::LevenshteinDp;
  using sim::internal::LevenshteinMyers64;
  const std::pair<const char*, const char*> kCases[] = {
      {"", ""},           {"", "abc"},          {"abc", ""},
      {"abc", "abc"},     {"kitten", "sitting"}, {"flaw", "lawn"},
      {"Views", "Views."}, {"a", "b"},           {"ab", "ba"},
  };
  for (const auto& [a, b] : kCases) {
    EXPECT_EQ(LevenshteinMyers64(a, b), LevenshteinDp(a, b))
        << "\"" << a << "\" vs \"" << b << "\"";
  }
}

TEST(MyersLevenshteinTest, PropertyEqualToDpOnRandomStrings) {
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> len(0, 64);
  std::uniform_int_distribution<int> chr(0, 5);  // tiny alphabet: collisions
  auto make = [&] {
    std::string s;
    const int n = len(rng);
    for (int i = 0; i < n; ++i) s += static_cast<char>('a' + chr(rng));
    return s;
  };
  for (int trial = 0; trial < 500; ++trial) {
    const std::string a = make();
    const std::string b = make();
    EXPECT_EQ(sim::internal::LevenshteinMyers64(a, b),
              sim::internal::LevenshteinDp(a, b))
        << "\"" << a << "\" vs \"" << b << "\"";
  }
}

TEST(MyersLevenshteinTest, MeasureUsesTheFastPathTransparently) {
  auto measure = sim::MakeMeasure("levenshtein");
  ASSERT_TRUE(measure.ok());
  EXPECT_EQ((*measure)->Distance("kitten", "sitting"), 3.0);
  // 65+ chars takes the blocked bit-parallel path; same answer.
  const std::string long_a(100, 'a');
  std::string long_b = long_a;
  long_b[50] = 'b';
  EXPECT_EQ((*measure)->Distance(long_a, long_b), 1.0);
}

TEST(MyersLevenshteinTest, BlockedMatchesTheReferenceDpOnFixedCases) {
  using sim::internal::LevenshteinDp;
  using sim::internal::LevenshteinMyersBlocked;
  const std::string a64(64, 'x');
  const std::string a65(65, 'x');
  const std::string a128(128, 'x');
  const std::string a129(129, 'x');
  const std::pair<std::string, std::string> kCases[] = {
      {"", ""},
      {"", a129},
      {a65, ""},
      {a65, a65},
      {a64, a65},                       // word-boundary straddle
      {a128, a129},                     // two-word boundary straddle
      {a65 + "abc", a65 + "acb"},
      {a128 + "kitten", a128 + "sitting"},
      {"kitten", "sitting"},            // also valid below the block limit
  };
  for (const auto& [a, b] : kCases) {
    EXPECT_EQ(LevenshteinMyersBlocked(a, b), LevenshteinDp(a, b))
        << a.size() << " vs " << b.size();
  }
}

TEST(MyersLevenshteinTest, PropertyBlockedEqualToDpOnRandomStrings) {
  std::mt19937 rng(4321);
  // Lengths hug the 64/128/192 block boundaries where the carry and
  // shift-chaining bugs live, on a tiny alphabet to force dense matches.
  std::uniform_int_distribution<int> block(0, 2);
  std::uniform_int_distribution<int> jitter(-3, 3);
  std::uniform_int_distribution<int> chr(0, 5);
  auto make = [&] {
    int n = std::max(0, 64 * (block(rng) + 1) + jitter(rng));
    std::string s;
    for (int i = 0; i < n; ++i) s += static_cast<char>('a' + chr(rng));
    return s;
  };
  for (int trial = 0; trial < 200; ++trial) {
    const std::string a = make();
    const std::string b = make();
    EXPECT_EQ(sim::internal::LevenshteinMyersBlocked(a, b),
              sim::internal::LevenshteinDp(a, b))
        << "trial " << trial << ": " << a.size() << " vs " << b.size();
  }
}

}  // namespace
}  // namespace toss
