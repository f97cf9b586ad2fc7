// Ablation: speedup of the executor's fan-out over the scheduler as the
// per-request cap (QueryOptions::parallelism) grows.
//
// Part 1, a broad selection: the per-document work (decoded-tree lookup +
// embedding enumeration) is embarrassingly parallel. The first (1-thread)
// timing loop warms the decoded-tree cache, so higher thread counts
// measure evaluation, not XML decoding.
//
// Part 2, the Fig. 16b title join at 400 x 400 papers, with per-phase
// medians read off the query's trace: store (both operands' candidate
// scans, which run side by side), decode_right, postings (twig_postings),
// value_filter, and merge (the rest of twig_merge, dedup included). The
// answer's wire encoding (service::wire::ResponseJson, which renders the
// trees in parallel) is timed on its own as encode.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "obs/trace.h"
#include "service/wire.h"

using namespace toss;

namespace {

/// Every node named `name` under `node`, depth first.
void FindSpans(const obs::TraceNode& node, const std::string& name,
               std::vector<const obs::TraceNode*>* out) {
  if (node.name == name) out->push_back(&node);
  for (const auto& child : node.children) FindSpans(*child, name, out);
}

double SpanMs(const obs::TraceNode& root, const std::string& name) {
  std::vector<const obs::TraceNode*> found;
  FindSpans(root, name, &found);
  return found.empty() ? 0.0 : found[0]->DurationMillis();
}

/// Wall time from the first `name` span's start to the last one's end.
double StageMs(const obs::TraceNode& root, const std::vector<std::string>& names) {
  uint64_t begin = UINT64_MAX, end = 0;
  for (const std::string& name : names) {
    std::vector<const obs::TraceNode*> found;
    FindSpans(root, name, &found);
    for (const obs::TraceNode* n : found) {
      begin = std::min(begin, n->start_nanos);
      end = std::max(end, n->start_nanos + n->duration_nanos);
    }
  }
  return end > begin ? static_cast<double>(end - begin) / 1e6 : 0.0;
}

/// Part 2: the Fig. 16b join at widths 1/2/4 with per-phase medians.
void JoinAblation(bool smoke) {
  const size_t papers = smoke ? 50 : 400;
  data::BibConfig cfg;
  cfg.seed = 17;
  cfg.num_people = smoke ? 25 : 120;
  cfg.num_papers = papers;
  data::BibWorld world = data::GenerateWorld(cfg);
  store::Database db;
  bench::CheckOk(data::LoadIntoCollection(
                     &db, "dblp", data::EmitDblp(world, 0, papers, cfg)),
                 "load dblp");
  bench::CheckOk(data::LoadIntoCollection(
                     &db, "sigmod", data::EmitSigmod(world, 0, papers, cfg)),
                 "load sigmod");
  core::SeoBuilder builder;
  builder.AddInstanceOntology(
      bench::CollectionOntology(db, "dblp", data::DblpContentTags()));
  builder.AddInstanceOntology(
      bench::CollectionOntology(db, "sigmod", data::SigmodContentTags()));
  builder.AddConstraints(ontology::kPartOf,
                         ontology::Eq("booktitle", 0, "conference", 1));
  builder.SetMeasure(*sim::MakeMeasure("levenshtein"));
  builder.SetEpsilon(2.0);
  core::Seo seo = bench::CheckResult(builder.Build(), "seo");
  core::TypeSystem types = core::MakeBibliographicTypeSystem();
  tax::PatternTree pattern = data::MakeTitleJoinPattern();
  core::QueryExecutor exec(&db, &seo, &types);

  std::printf("\nFig 16(b) join, %zu x %zu papers (median ms per phase)\n",
              papers, papers);
  std::printf("%8s %8s %8s %8s %9s %8s %8s %8s %8s\n", "threads", "total",
              "store", "decode_r", "postings", "vfilter", "merge", "speedup",
              "encode");
  const std::vector<std::pair<std::string, std::function<double(
                                               const obs::TraceNode&)>>>
      phases = {
          {"store",
           [](const obs::TraceNode& r) {
             return StageMs(r, {"candidates_left", "candidates_right"});
           }},
          {"decode_right",
           [](const obs::TraceNode& r) { return SpanMs(r, "decode_right"); }},
          {"postings",
           [](const obs::TraceNode& r) { return SpanMs(r, "twig_postings"); }},
          {"value_filter",
           [](const obs::TraceNode& r) { return SpanMs(r, "value_filter"); }},
          {"merge",
           [](const obs::TraceNode& r) {
             return SpanMs(r, "twig_merge") - SpanMs(r, "value_filter");
           }},
      };
  double base_ms = 0;
  for (size_t threads : smoke ? std::vector<size_t>{1, 2}
                              : std::vector<size_t>{1, 2, 4}) {
    core::QueryOptions opts;
    opts.parallelism = threads;
    service::QueryResponse response;
    response.trees = bench::CheckResult(
        exec.Join("dblp", "sigmod", pattern, {2, 4}, opts), "warmup");
    std::map<std::string, std::vector<double>> samples;
    const std::string key =
        "ablation_parallel/join_" + std::to_string(threads) + "t";
    const double median = bench::MeasureAdaptiveMs(key, [&] {
      obs::Trace trace("join");
      {
        obs::Span root = trace.RootSpan();
        bench::CheckOk(
            exec.Join("dblp", "sigmod", pattern, {2, 4}, opts, nullptr, &root)
                .status(),
            "join");
      }
      for (const auto& [name, ms] : phases) {
        samples[name].push_back(ms(trace.root()));
      }
    });
    if (threads == 1) base_ms = median;
    std::printf("%8zu %8.2f", threads, median);
    for (const auto& [name, ms] : phases) {
      const double m = bench::Median(samples[name]);
      bench::RecordBenchMs(key + "_" + name, m);
      std::printf(" %8.2f", m);
    }
    std::printf(" %7.2fx", base_ms / median);
    const double encode_ms = bench::MeasureAdaptiveMs(key + "_encode", [&] {
      (void)service::wire::ResponseJson(response, threads);
    });
    std::printf(" %8.2f\n", encode_ms);
  }
}

}  // namespace

int main() {
  const bool smoke = bench::SmokeMode();
  const size_t papers = smoke ? 300 : 6000;

  data::BibConfig cfg;
  cfg.seed = 21;
  cfg.num_papers = papers;
  cfg.num_people = smoke ? 40 : 250;
  data::BibWorld world = data::GenerateWorld(cfg);
  store::Database db;
  bench::CheckOk(data::LoadIntoCollection(
                     &db, "dblp", data::EmitDblp(world, 0, papers, cfg)),
                 "load");
  ontology::Ontology onto =
      bench::CollectionOntology(db, "dblp", data::DblpContentTags());
  core::Seo seo = bench::BuildSeo({std::move(onto)}, "guarded-levenshtein",
                                  3.0);
  core::TypeSystem types = core::MakeBibliographicTypeSystem();

  // A broad query so phase (iii) touches many documents.
  tax::PatternTree pattern = data::MakeScalabilitySelectionPattern(
      world.venues[0].short_name, world.venues[0].category);

  std::printf("Parallel evaluation ablation (%zu papers, broad selection;"
              " hw threads: %u)\n",
              papers, std::thread::hardware_concurrency());
  // Speedups only make sense relative to the machine's real parallelism;
  // record it so readers of the report can interpret the ratios.
  bench::RecordBenchMs("meta/hw_threads",
                       std::thread::hardware_concurrency());
  std::printf("%8s %10s %9s\n", "threads", "median-ms", "speedup");
  double base_ms = 0;
  std::vector<size_t> thread_counts =
      smoke ? std::vector<size_t>{1, 2} : std::vector<size_t>{1, 2, 4, 8};
  for (size_t threads : thread_counts) {
    core::QueryExecutor exec(&db, &seo, &types);
    core::QueryOptions opts;
    opts.parallelism = threads;  // a cap: idle scheduler workers help
    // Warm once (fills the decoded-tree cache), then let the adaptive
    // driver pick the repetition count for a stable median.
    bench::CheckOk(exec.Select("dblp", pattern, {1}, opts).status(),
                   "warmup");
    double median = bench::MeasureAdaptiveMs(
        "ablation_parallel/select_" + std::to_string(threads) + "t", [&] {
          bench::CheckOk(exec.Select("dblp", pattern, {1}, opts).status(),
                         "select");
        });
    if (threads == 1) base_ms = median;
    std::printf("%8zu %10.2f %8.2fx\n", threads, median, base_ms / median);
    if (threads == 4) {
      bench::RecordBenchMs("ablation_parallel/speedup_4t",
                           base_ms / median);
    }
  }
  JoinAblation(smoke);
  return 0;
}
