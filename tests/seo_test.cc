#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/interner.h"
#include "core/seo.h"
#include "core/seo_oracle.h"
#include "lexicon/lexicon.h"
#include "ontology/ontology_maker.h"
#include "sim/measure_registry.h"
#include "tax/condition.h"
#include "tax/tax_semantics.h"
#include "tax/twig_join.h"
#include "xml/xml_parser.h"

namespace toss::core {
namespace {

ontology::Ontology MakeDblpOntology() {
  auto doc = xml::Parse(
      "<dblp>"
      "<inproceedings>"
      "<author>Jeffrey Ullman</author>"
      "<author>Jeffrey D. Ullman</author>"
      "<author>Marco Ferrari</author>"
      "<booktitle>SIGMOD Conference</booktitle>"
      "</inproceedings>"
      "<inproceedings>"
      "<author>Mauro Ferrari</author>"
      "<booktitle>ACM SIGMOD International Conference on Management of "
      "Data</booktitle>"
      "</inproceedings>"
      "</dblp>");
  EXPECT_TRUE(doc.ok());
  ontology::OntologyMakerOptions opts;
  opts.content_tags = {"author", "booktitle"};
  auto onto = ontology::MakeOntology(
      *doc, lexicon::BuiltinBibliographicLexicon(), opts);
  EXPECT_TRUE(onto.ok()) << onto.status();
  return std::move(onto).value();
}

Seo BuildSeo(double epsilon) {
  SeoBuilder b;
  b.AddInstanceOntology(MakeDblpOntology());
  b.SetMeasure(*sim::MakeMeasure("levenshtein"));
  b.SetEpsilon(epsilon);
  auto seo = b.Build();
  EXPECT_TRUE(seo.ok()) << seo.status();
  return std::move(seo).value();
}

TEST(SeoBuilderTest, RequiresInputs) {
  SeoBuilder empty;
  EXPECT_TRUE(empty.Build().status().IsInvalidArgument());
  SeoBuilder no_measure;
  no_measure.AddInstanceOntology(MakeDblpOntology());
  EXPECT_TRUE(no_measure.Build().status().IsInvalidArgument());
  SeoBuilder negative;
  negative.AddInstanceOntology(MakeDblpOntology());
  negative.SetMeasure(*sim::MakeMeasure("levenshtein"));
  negative.SetEpsilon(-2);
  EXPECT_TRUE(negative.Build().status().IsInvalidArgument());
}

TEST(SeoTest, EnhancedHierarchiesExistPerRelation) {
  Seo seo = BuildSeo(2.0);
  EXPECT_NE(seo.EnhancedHierarchy(ontology::kIsa), nullptr);
  EXPECT_NE(seo.EnhancedHierarchy(ontology::kPartOf), nullptr);
  EXPECT_EQ(seo.EnhancedHierarchy("nosuch"), nullptr);
  EXPECT_NE(seo.Enhancement(ontology::kIsa), nullptr);
  EXPECT_GT(seo.TotalNodeCount(), 0u);
  EXPECT_DOUBLE_EQ(seo.epsilon(), 2.0);
}

TEST(SeoTest, SimilarGroupsCloseOntologyTerms) {
  Seo seo = BuildSeo(2.0);
  // d(Marco Ferrari, Mauro Ferrari) = 2: similar at eps=2.
  EXPECT_TRUE(seo.Similar("Marco Ferrari", "Mauro Ferrari"));
  // d(Jeffrey Ullman, Jeffrey D. Ullman) = 3: not at eps=2.
  EXPECT_FALSE(seo.Similar("Jeffrey Ullman", "Jeffrey D. Ullman"));
  EXPECT_TRUE(seo.Similar("Jeffrey Ullman", "Jeffrey Ullman"));

  Seo seo3 = BuildSeo(3.0);
  EXPECT_TRUE(seo3.Similar("Jeffrey Ullman", "Jeffrey D. Ullman"));
}

TEST(SeoTest, SimilarFallsBackToMeasureForUnknownTerms) {
  Seo seo = BuildSeo(2.0);
  // Neither string is an ontology term.
  EXPECT_TRUE(seo.Similar("zzzz", "zzzx"));
  EXPECT_FALSE(seo.Similar("zzzz", "aaaa"));
}

TEST(SeoTest, LeqFollowsEnhancedHierarchy) {
  Seo seo = BuildSeo(2.0);
  EXPECT_TRUE(
      seo.Leq(ontology::kIsa, "SIGMOD Conference", "database conference"));
  EXPECT_TRUE(seo.Leq(ontology::kIsa, "inproceedings", "publication"));
  EXPECT_FALSE(
      seo.Leq(ontology::kIsa, "database conference", "SIGMOD Conference"));
  EXPECT_FALSE(seo.Leq("nosuch", "a", "b"));
  // partof from document structure.
  EXPECT_TRUE(seo.Leq(ontology::kPartOf, "author", "inproceedings"));
}

TEST(SeoTest, VenueSurfaceFormsAreInterchangeable) {
  Seo seo = BuildSeo(2.0);
  // The full venue name shares a node with the short one (lexicon synonym
  // merging), so both sit below the category.
  EXPECT_TRUE(seo.Leq(
      ontology::kIsa,
      "ACM SIGMOD International Conference on Management of Data",
      "database conference"));
  auto below = seo.TermsBelow(ontology::kIsa, "SIGMOD Conference");
  EXPECT_NE(std::find(below.begin(), below.end(),
                      "ACM SIGMOD International Conference on Management "
                      "of Data"),
            below.end());
}

TEST(SeoTest, SimilarTermsExpandsThroughSharedNodes) {
  Seo seo = BuildSeo(2.0);
  auto terms = seo.SimilarTerms("Marco Ferrari");
  EXPECT_NE(std::find(terms.begin(), terms.end(), "Mauro Ferrari"),
            terms.end());
  EXPECT_NE(std::find(terms.begin(), terms.end(), "Marco Ferrari"),
            terms.end());
  // Unknown literal: fallback full scan against ontology terms.
  auto fallback = seo.SimilarTerms("Mxrco Ferrari");
  EXPECT_NE(std::find(fallback.begin(), fallback.end(), "Marco Ferrari"),
            fallback.end());
}

TEST(SeoTest, TermsBelowCollectsCategorySubtree) {
  Seo seo = BuildSeo(2.0);
  auto below = seo.TermsBelow(ontology::kIsa, "database conference");
  EXPECT_NE(std::find(below.begin(), below.end(), "SIGMOD Conference"),
            below.end());
  // The category term itself is included.
  EXPECT_NE(std::find(below.begin(), below.end(), "database conference"),
            below.end());
}

TEST(SeoBuilderTest, MultiInstanceFusionWithConstraints) {
  auto doc2 = xml::Parse(
      "<proceedingsPage>"
      "<conference>ACM SIGMOD International Conference on Management of "
      "Data</conference>"
      "<articles><article><authors><author>J. Ullman</author></authors>"
      "</article></articles>"
      "</proceedingsPage>");
  ASSERT_TRUE(doc2.ok());
  ontology::OntologyMakerOptions opts;
  opts.content_tags = {"author", "conference"};
  auto onto2 = ontology::MakeOntology(
      *doc2, lexicon::BuiltinBibliographicLexicon(), opts);
  ASSERT_TRUE(onto2.ok());

  SeoBuilder b;
  b.AddInstanceOntology(MakeDblpOntology());
  b.AddInstanceOntology(std::move(onto2).value());
  b.AddConstraints(ontology::kPartOf,
                   ontology::Eq("booktitle", 0, "conference", 1));
  b.SetMeasure(*sim::MakeMeasure("levenshtein"));
  b.SetEpsilon(2.0);
  auto seo = b.Build();
  ASSERT_TRUE(seo.ok()) << seo.status();
  // Fused partof: booktitle and conference merged.
  const auto* partof = seo->EnhancedHierarchy(ontology::kPartOf);
  ASSERT_NE(partof, nullptr);
  EXPECT_EQ(partof->FindTerm("booktitle"), partof->FindTerm("conference"));
}


// --- Id-aware verdicts against their text-only counterparts ----------------
//
// Every *Sym entry point may use interned ids to decide faster; none may
// decide differently. Random term pairs mix ontology terms, near misses,
// case variants, '*' globs and unknown words, and give each side either
// its interned id or kInvalidSymbol.

class SymbolVerdictPropertyTest : public ::testing::Test {
 protected:
  struct Term {
    std::string text;
    SymbolId id;
  };

  static std::vector<std::string> Vocabulary(const Seo& seo) {
    std::vector<std::string> words = {
        "", "*", "Jeff*", "*Ullman*", "*SIGMOD*", "J. Ullman",
        "jeffrey ullman", "Mauro Ferari", "SIGMOD Conf", "zzzz", "zzzx",
        "publication", "conference", "inproceedings", "author"};
    for (const char* rel : {ontology::kIsa, ontology::kPartOf}) {
      for (const std::string& t : seo.EnhancedHierarchy(rel)->AllTerms()) {
        words.push_back(t);
        if (t.size() > 2) words.push_back(t.substr(1));  // near miss
      }
    }
    return words;
  }

  /// `draws` random pairs over the vocabulary; each side carries its id
  /// or kInvalidSymbol with equal odds.
  static std::vector<std::pair<Term, Term>> Pairs(const Seo& seo,
                                                  size_t draws) {
    const std::vector<std::string> words = Vocabulary(seo);
    std::mt19937 rng(20260);
    auto term = [&] {
      const std::string& w = words[std::uniform_int_distribution<size_t>(
          0, words.size() - 1)(rng)];
      const bool with_id = std::uniform_int_distribution<int>(0, 1)(rng);
      return Term{w, with_id ? Interner::Global().Intern(w) : kInvalidSymbol};
    };
    std::vector<std::pair<Term, Term>> out;
    for (size_t i = 0; i < draws; ++i) out.emplace_back(term(), term());
    return out;
  }
};

TEST_F(SymbolVerdictPropertyTest, SeoSymMatchesTextVerdicts) {
  for (double epsilon : {2.0, 3.0}) {
    Seo seo = BuildSeo(epsilon);
    seo.WarmCaches();  // builds the symbol-keyed term index
    size_t similar = 0, leq = 0;
    for (const auto& [x, y] : Pairs(seo, 4000)) {
      const bool want = seo.Similar(x.text, y.text);
      EXPECT_EQ(seo.SimilarSym(x.id, x.text, y.id, y.text), want)
          << "'" << x.text << "' ~ '" << y.text << "'";
      similar += want ? 1 : 0;
      for (const char* rel : {ontology::kIsa, ontology::kPartOf}) {
        const bool below = seo.Leq(rel, x.text, y.text);
        EXPECT_EQ(seo.LeqSym(rel, x.id, x.text, y.id, y.text), below)
            << rel << ": '" << x.text << "' <= '" << y.text << "'";
        leq += below ? 1 : 0;
      }
    }
    EXPECT_GT(similar, 0u);
    EXPECT_GT(leq, 0u);
  }
}

TEST_F(SymbolVerdictPropertyTest, OraclesSymMatchTextVerdicts) {
  Seo seo = BuildSeo(3.0);
  seo.WarmCaches();
  SeoSimilarOracle seo_oracle(&seo);
  tax::ExactSimilarOracle exact;
  size_t similar = 0, equal = 0;
  for (const auto& [x, y] : Pairs(seo, 4000)) {
    const bool want = seo_oracle.Similar(x.text, y.text);
    EXPECT_EQ(want, seo.Similar(x.text, y.text))
        << "'" << x.text << "' ~ '" << y.text << "'";
    EXPECT_EQ(seo_oracle.SimilarSym(x.id, x.text, y.id, y.text), want)
        << "'" << x.text << "' ~ '" << y.text << "'";
    EXPECT_EQ(exact.SimilarSym(x.id, x.text, y.id, y.text), x.text == y.text)
        << "'" << x.text << "' == '" << y.text << "'";
    similar += want ? 1 : 0;
    equal += x.text == y.text ? 1 : 0;
  }
  EXPECT_GT(similar, 0u);
  EXPECT_GT(equal, 0u);
}

TEST_F(SymbolVerdictPropertyTest, SymbolEqualityMatchesTextComparison) {
  Seo seo = BuildSeo(2.0);
  size_t decided_text = 0, decided_glob = 0, glob_matches = 0;
  auto value = [](const Term& t) {
    tax::TermValue v;
    v.text = t.text;
    v.type = tax::kStringType;
    v.symbol = t.id;
    return v;
  };
  for (const auto& [x, y] : Pairs(seo, 4000)) {
    const tax::TermValue vx = value(x), vy = value(y);
    if (auto eq = tax::SymbolTextEquality(vx, vy)) {
      EXPECT_EQ(*eq, x.text == y.text)
          << "'" << x.text << "' vs '" << y.text << "'";
      ++decided_text;
    }
    auto glob = tax::CompareValues(x.text, tax::CondOp::kEq, y.text);
    ASSERT_TRUE(glob.ok());
    glob_matches += (*glob && x.text != y.text) ? 1 : 0;
    if (auto eq = tax::SymbolGlobEquality(vx, vy)) {
      EXPECT_EQ(*eq, *glob) << "'" << x.text << "' vs '" << y.text << "'";
      ++decided_glob;
    }
  }
  // Both fast paths decide some pairs, and the draws include real glob
  // matches between distinct texts (which ids alone must not decide).
  EXPECT_GT(decided_text, 0u);
  EXPECT_GT(decided_glob, 0u);
  EXPECT_GT(glob_matches, 0u);
}

}  // namespace
}  // namespace toss::core
