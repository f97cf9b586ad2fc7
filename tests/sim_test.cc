#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "sim/measure_registry.h"
#include "sim/node_measure.h"
#include "sim/soft_tfidf.h"
#include "sim/string_measure.h"

namespace toss::sim {
namespace {

// ---------------------------------------------------------------------------
// Known values
// ---------------------------------------------------------------------------

TEST(LevenshteinTest, KnownDistances) {
  LevenshteinMeasure m;
  EXPECT_DOUBLE_EQ(m.Distance("", ""), 0);
  EXPECT_DOUBLE_EQ(m.Distance("abc", ""), 3);
  EXPECT_DOUBLE_EQ(m.Distance("kitten", "sitting"), 3);
  EXPECT_DOUBLE_EQ(m.Distance("flaw", "lawn"), 2);
  // The paper's Example 11 pairs:
  EXPECT_DOUBLE_EQ(m.Distance("relation", "relational"), 2);
  EXPECT_DOUBLE_EQ(m.Distance("model", "models"), 1);
  // Section 2.2 motivating names:
  EXPECT_DOUBLE_EQ(m.Distance("Gian Luigi Ferrari", "GianLuigi Ferrari"), 1);
  EXPECT_DOUBLE_EQ(m.Distance("Marco Ferrari", "Mauro Ferrari"), 2);
}

TEST(LevenshteinTest, BoundedMatchesExactWithinBound) {
  LevenshteinMeasure m;
  Random rng(123);
  for (int i = 0; i < 300; ++i) {
    std::string a = rng.AlphaString(1 + rng.Uniform(20));
    std::string b = rng.AlphaString(1 + rng.Uniform(20));
    double exact = m.Distance(a, b);
    for (double bound : {0.0, 1.0, 2.0, 3.0, 5.0, 30.0}) {
      double bounded = m.BoundedDistance(a, b, bound);
      if (exact <= bound) {
        EXPECT_DOUBLE_EQ(bounded, exact) << a << " vs " << b;
      } else {
        EXPECT_GT(bounded, bound) << a << " vs " << b;
      }
    }
  }
}

TEST(DamerauTest, TranspositionCostsOne) {
  DamerauLevenshteinMeasure m;
  EXPECT_DOUBLE_EQ(m.Distance("ab", "ba"), 1);
  EXPECT_DOUBLE_EQ(m.Distance("ullman", "ulmlan"), 1);
  LevenshteinMeasure lev;
  EXPECT_DOUBLE_EQ(lev.Distance("ab", "ba"), 2);
}

TEST(CaseInsensitiveTest, IgnoresCase) {
  CaseInsensitiveLevenshteinMeasure m;
  EXPECT_DOUBLE_EQ(m.Distance("SIGMOD", "sigmod"), 0);
  EXPECT_DOUBLE_EQ(m.Distance("VLDB", "vldbx"), 1);
}

TEST(JaroTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.9444, 1e-3);
  EXPECT_NEAR(JaroSimilarity("dwayne", "duane"), 0.8222, 1e-3);
}

TEST(JaroWinklerTest, PrefixBoost) {
  double jaro = JaroSimilarity("martha", "marhta");
  double jw = JaroWinklerSimilarity("martha", "marhta");
  EXPECT_GT(jw, jaro);
  EXPECT_NEAR(jw, 0.9611, 1e-3);
  // No boost below the 0.7 gate.
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("abc", "xyz"), 0.0);
}

TEST(MongeElkanTest, TokenLevelMatching) {
  MongeElkanMeasure m;
  // Reordered tokens are near-zero distance.
  EXPECT_LT(m.Distance("Ullman Jeffrey", "Jeffrey Ullman"), 0.5);
  EXPECT_DOUBLE_EQ(m.Distance("same words", "same words"), 0.0);
  EXPECT_GT(m.Distance("completely different", "unrelated thing"), 3.0);
}

TEST(JaccardTest, TokenSets) {
  JaccardMeasure m(10.0);
  EXPECT_DOUBLE_EQ(m.Distance("a b c", "a b c"), 0.0);
  EXPECT_DOUBLE_EQ(m.Distance("a b", "b c"), 10.0 * (1.0 - 1.0 / 3.0));
  EXPECT_DOUBLE_EQ(m.Distance("a", "b"), 10.0);
  EXPECT_DOUBLE_EQ(m.Distance("", ""), 0.0);
}

TEST(QGramCosineTest, Basics) {
  QGramCosineMeasure m(3, 10.0);
  EXPECT_DOUBLE_EQ(m.Distance("abcdef", "abcdef"), 0.0);
  EXPECT_GT(m.Distance("abcdef", "zzzzzz"), 9.0);
  double close = m.Distance("conference", "conferences");
  EXPECT_LT(close, 3.0);
}

TEST(PersonNameTest, DomainRules) {
  PersonNameMeasure m;
  EXPECT_DOUBLE_EQ(m.Distance("Jeffrey Ullman", "Jeffrey Ullman"), 0.0);
  // Initial-compatible forms are very close under the rules.
  EXPECT_LE(m.Distance("J. Ullman", "Jeffrey Ullman"), 2.0);
  EXPECT_LE(m.Distance("J. D. Ullman", "Jeffrey D. Ullman"), 2.0);
  EXPECT_DOUBLE_EQ(m.Distance("Gian Luigi Ferrari", "GianLuigi Ferrari"),
                   0.0);  // same tokens after camel-case splitting
  // Same last name, different given names: moderately far.
  double marco = m.Distance("Marco Ferrari", "Mauro Ferrari");
  EXPECT_GT(marco, 2.0);
  // Different last names: far.
  EXPECT_GE(m.Distance("Marco Ferrari", "Jeffrey Ullman"), 4.0);
}

TEST(SoftTfIdfTest, UntrainedSoftMatching) {
  SoftTfIdfMeasure m;
  EXPECT_FALSE(m.trained());
  EXPECT_DOUBLE_EQ(m.Distance("jeffrey ullman", "jeffrey ullman"), 0.0);
  // Token typo within the 0.9 Jaro-Winkler gate still soft-matches.
  EXPECT_LT(m.Distance("jeffrey ullman", "jeffery ullman"), 2.0);
  // Token order does not matter.
  EXPECT_LT(m.Distance("ullman jeffrey", "jeffrey ullman"), 0.5);
  EXPECT_GT(m.Distance("jeffrey ullman", "serge abiteboul"), 8.0);
  EXPECT_DOUBLE_EQ(m.Distance("", ""), 0.0);
  EXPECT_DOUBLE_EQ(m.Distance("x", ""), 10.0);
}

TEST(SoftTfIdfTest, TrainingDownweightsUbiquitousTokens) {
  // "conference" appears everywhere; "sigmod" is discriminative. After
  // training, sharing only the ubiquitous token is a much weaker match
  // than sharing the rare one.
  std::vector<std::string> corpus = {
      "sigmod conference", "vldb conference", "icde conference",
      "pods conference",   "kdd conference",  "sigir conference",
  };
  SoftTfIdfMeasure trained;
  trained.Train(corpus);
  EXPECT_TRUE(trained.trained());
  EXPECT_GT(trained.vocabulary_size(), 5u);
  double shares_rare =
      trained.Distance("sigmod conference", "sigmod workshop");
  double shares_common =
      trained.Distance("sigmod conference", "vldb conference");
  EXPECT_LT(shares_rare, shares_common);

  // Untrained, the comparison is weight-symmetric.
  SoftTfIdfMeasure untrained;
  double u_rare = untrained.Distance("sigmod conference", "sigmod workshop");
  double u_common = untrained.Distance("sigmod conference",
                                       "vldb conference");
  EXPECT_NEAR(u_rare, u_common, 1e-9);
}

TEST(SoftTfIdfTest, RegisteredUntrained) {
  auto m = MakeMeasure("soft-tfidf");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ((*m)->name(), "soft-tfidf");
  EXPECT_FALSE((*m)->is_strong());
}

// ---------------------------------------------------------------------------
// Measure axioms (property tests over the registry)
// ---------------------------------------------------------------------------

class MeasureAxiomsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MeasureAxiomsTest, IdentitySymmetryNonNegativity) {
  auto m = MakeMeasure(GetParam());
  ASSERT_TRUE(m.ok());
  Random rng(99);
  std::vector<std::string> samples = {
      "",          "a",        "SIGMOD Conference", "J. Ullman",
      "J. Ullman", "database", "Jeffrey D. Ullman",
  };
  for (int i = 0; i < 30; ++i) {
    samples.push_back(rng.AlphaString(rng.Uniform(15)));
  }
  for (const auto& x : samples) {
    EXPECT_DOUBLE_EQ((*m)->Distance(x, x), 0.0) << GetParam() << " " << x;
    for (const auto& y : samples) {
      double d1 = (*m)->Distance(x, y);
      double d2 = (*m)->Distance(y, x);
      EXPECT_GE(d1, 0.0) << GetParam();
      EXPECT_DOUBLE_EQ(d1, d2) << GetParam() << ": " << x << " / " << y;
    }
  }
}

TEST_P(MeasureAxiomsTest, StrongMeasuresSatisfyTriangleInequality) {
  auto m = MakeMeasure(GetParam());
  ASSERT_TRUE(m.ok());
  if (!(*m)->is_strong()) GTEST_SKIP() << GetParam() << " is not strong";
  Random rng(7);
  std::vector<std::string> samples;
  for (int i = 0; i < 12; ++i) {
    samples.push_back(rng.AlphaString(1 + rng.Uniform(10)));
  }
  samples.push_back("relation");
  samples.push_back("relational");
  samples.push_back("relations");
  for (const auto& x : samples) {
    for (const auto& y : samples) {
      for (const auto& z : samples) {
        EXPECT_LE((*m)->Distance(x, z),
                  (*m)->Distance(x, y) + (*m)->Distance(y, z) + 1e-9)
            << GetParam() << ": " << x << "," << y << "," << z;
      }
    }
  }
}

TEST_P(MeasureAxiomsTest, BoundedDistanceContract) {
  auto m = MakeMeasure(GetParam());
  ASSERT_TRUE(m.ok());
  Random rng(13);
  for (int i = 0; i < 50; ++i) {
    std::string a = rng.AlphaString(rng.Uniform(12));
    std::string b = rng.AlphaString(rng.Uniform(12));
    double exact = (*m)->Distance(a, b);
    double bound = static_cast<double>(rng.Uniform(6));
    double bounded = (*m)->BoundedDistance(a, b, bound);
    if (exact <= bound) {
      EXPECT_DOUBLE_EQ(bounded, exact);
    } else {
      EXPECT_GT(bounded, bound);
    }
  }
}

TEST_P(MeasureAxiomsTest, SignatureLowerBoundCoversLengthDifference) {
  // The signature-length rule (StringMeasure::SignatureLowerBound): the
  // twig value filter's closure kernel never examines pairs whose
  // signature lengths differ by more than epsilon.
  auto m = MakeMeasure(GetParam());
  ASSERT_TRUE(m.ok());
  StringSignature probe;
  if (!(*m)->ComputeSignature("", &probe)) {
    GTEST_SKIP() << GetParam() << " has no signatures";
  }
  Random rng(21);
  std::vector<std::string> samples = {"", "a", "Views", "Views.", "VIEWS"};
  for (int i = 0; i < 40; ++i) {
    samples.push_back(rng.AlphaString(rng.Uniform(20)));
  }
  for (const auto& a : samples) {
    for (const auto& b : samples) {
      StringSignature sa, sb;
      ASSERT_TRUE((*m)->ComputeSignature(a, &sa));
      ASSERT_TRUE((*m)->ComputeSignature(b, &sb));
      EXPECT_EQ(sa.length, a.size());
      const double len_diff =
          a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
      const double lb = (*m)->SignatureLowerBound(sa, sb);
      EXPECT_GE(lb, len_diff) << GetParam() << ": " << a << " / " << b;
      EXPECT_LE(lb, (*m)->Distance(a, b) + 1e-9)
          << GetParam() << ": " << a << " / " << b;
    }
  }
}

TEST(SignatureTest, EditFamilyMeasuresHaveSignatures) {
  for (const char* name : {"levenshtein", "damerau", "ci-levenshtein"}) {
    auto m = MakeMeasure(name);
    ASSERT_TRUE(m.ok()) << name;
    StringSignature sig;
    EXPECT_TRUE((*m)->ComputeSignature("Views", &sig)) << name;
    EXPECT_EQ(sig.length, 5u) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllMeasures, MeasureAxiomsTest,
                         ::testing::ValuesIn(MeasureNames()));

TEST(MeasureRegistryTest, UnknownNameIsNotFound) {
  EXPECT_TRUE(MakeMeasure("no-such-measure").status().IsNotFound());
}

TEST(MeasureRegistryTest, AllListedNamesResolve) {
  for (const auto& name : MeasureNames()) {
    auto m = MakeMeasure(name);
    ASSERT_TRUE(m.ok()) << name;
    EXPECT_EQ((*m)->name(), name);
  }
}

// ---------------------------------------------------------------------------
// Node-level distance (Def. 7, Lemma 1)
// ---------------------------------------------------------------------------

TEST(NodeMeasureTest, MinOverCrossPairs) {
  LevenshteinMeasure m;
  std::vector<std::string> a{"model", "xxxxxxx"};
  std::vector<std::string> b{"models", "yyyyyyyy"};
  EXPECT_DOUBLE_EQ(NodeDistance(a, b, m), 1.0);
}

TEST(NodeMeasureTest, EmptyNodeIsInfinitelyFar) {
  LevenshteinMeasure m;
  EXPECT_TRUE(std::isinf(NodeDistance({}, {"x"}, m)));
}

TEST(NodeMeasureTest, Lemma1FastPathAgreesWhenWithinNodeDistanceZero) {
  // Strong measure + all strings within a node equal => one representative
  // pair suffices (Lemma 1).
  CaseInsensitiveLevenshteinMeasure m;  // "VLDB" ~ "vldb" at distance 0
  std::vector<std::string> a{"VLDB", "vldb"};
  std::vector<std::string> b{"vldbx", "VLDBX"};
  double slow = NodeDistance(a, b, m, /*assume_zero_within=*/false);
  double fast = NodeDistance(a, b, m, /*assume_zero_within=*/true);
  EXPECT_DOUBLE_EQ(slow, fast);
  EXPECT_DOUBLE_EQ(fast, 1.0);
}

TEST(NodeMeasureTest, BoundedNodeDistanceContract) {
  LevenshteinMeasure m;
  std::vector<std::string> a{"relation"};
  std::vector<std::string> b{"relational"};
  EXPECT_DOUBLE_EQ(BoundedNodeDistance(a, b, m, 5.0), 2.0);
  EXPECT_GT(BoundedNodeDistance(a, b, m, 1.0), 1.0);
}

}  // namespace
}  // namespace toss::sim
