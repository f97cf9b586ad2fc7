// End-to-end benchmark of the TOSS serving stack: an in-process
// net::HttpServer (net::MakeTossHandler) in front of service::TossService,
// loaded with generated bibliographic data and driven over /v1 HTTP/1.1 by
// at most four client connections, one thread each.
//
//   tossbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   select_narrow  Fig. 15-shape selections (author ~, venue/category isa,
//                  3 tag conditions), 500 intents over 4000 dblp papers.
//                  Open loop at kNarrowRate, then closed loop on 4 conns.
//   select_broad   Fig. 16a-shape selections (2 isa + 4 tag conditions),
//                  one per (venue, category) pair. Open loop at kBroadRate,
//                  then closed loop on 4 conns.
//   join           Fig. 16b title join, dblp x sigmod at 400 papers a side;
//                  most requests add a dblp-side venue/category isa.
//                  Closed loop on 1 connection.
//   ingest_mixed   A durable database (Database::OpenDurable, default WAL
//                  policy), filled once untimed and reopened by each set-up:
//                  3 connections of select_narrow reads plus 1 connection of
//                  /v1/mutate writes at kWriteRate, open loop then
//                  closed-loop reads beside the same write stream.
//
// Every answer is checked: before timing, each distinct request is run
// in-process through TossService::Run; a served answer must carry the same
// sorted gtid multiset. Quality is sqrt(precision * recall) against the
// generator's gtid ground truth.
//
// With --trace 1 the timed phase runs twice at half length, untraced then
// traced (client request spans and wrapped-handler spans joined by a request
// id header), then every distinct request is replayed through the public
// calls of each layer with a span around each. Spans are kept in memory and
// written to <trace-dir> at exit. The last stdout line is one JSON object:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "core/toss.h"
#include "data/bib_generator.h"
#include "data/workload.h"
#include "eval/metrics.h"
#include "net/http.h"
#include "net/http_server.h"
#include "net/toss_handler.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "service/toss_service.h"
#include "service/wire.h"

#ifndef TOSSBENCH_BUILD_TYPE
#define TOSSBENCH_BUILD_TYPE "unknown"
#endif

using namespace toss;

namespace {

// --- Fixed workload parameters ----------------------------------------------
// Open-loop rates are at most about half of each workload's closed-loop
// capacity on a 4-thread machine (20-50%, as the host's load varies);
// BENCHMARK.json's `why` lines repeat them.
constexpr double kNarrowRate = 200.0;     // select_narrow reads/s
constexpr double kBroadRate = 25.0;       // select_broad reads/s
constexpr double kIngestReadRate = 150.0; // ingest_mixed reads/s (3 conns)
constexpr double kWriteRate = 20.0;       // ingest_mixed writes/s (1 conn)
constexpr size_t kMaxConns = 4;
// Smallest closed-loop pass, in requests (see Driver::PassOrder).
constexpr size_t kMinPass = 64;
// A generator that sends an open-loop request this late, counted from the
// moment its connection was free and the request due, fell behind its
// schedule: the run is invalid and its result reads correct=false.
constexpr double kLateLimitMs = 500.0;
// An open-loop lane whose backlog (system too slow for the offered rate)
// grows past this stops sending; the rest of its schedule counts as unsent,
// i.e. failed.
constexpr double kBacklogLimitMs = 5000.0;

using Clock = std::chrono::steady_clock;
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "tossbench: %s\n", what.c_str());
  std::exit(1);
}
void CheckOk(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}
template <typename T>
T Take(Result<T> r, const std::string& what) {
  CheckOk(r.status(), what);
  return std::move(r).value();
}

uint64_t Fnv(std::string_view s, uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Linear-interpolated percentile of raw samples (0 when empty).
double Pct(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = p * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}
double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- Arguments ----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;            // self-test sizes
  bool corrupt_answer = false;  // self-test: alter one served answer
  bool inputs_digest = false;   // self-test: print the inputs' digest, exit
  std::string trace_dir = ".bench_build/traces";
  std::string tmp_dir = ".bench_build/tmp";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) Die(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = val() != "0";
    else if (k == "--trace-dir") a.trace_dir = val();
    else if (k == "--tmp-dir") a.tmp_dir = val();
    else if (k == "--tiny") a.tiny = true;
    else if (k == "--corrupt-answer") a.corrupt_answer = true;
    else if (k == "--inputs-digest") a.inputs_digest = true;
    else Die("unknown argument " + k);
  }
  static const std::set<std::string> kWorkloads = {
      "select_narrow", "select_broad", "join", "ingest_mixed"};
  if (!kWorkloads.count(a.workload)) Die("unknown workload '" + a.workload + "'");
  // The ingest write stream is sized for 60 s at kWriteRate.
  if (!(a.seconds > 0) || a.seconds > 60) Die("--seconds must be in (0, 60]");
  return a;
}

// --- Inputs -------------------------------------------------------------------

enum class Kind { kSelect, kJoin, kMutation };

/// One distinct request: its wire bytes, ground truth, and the reference
/// answer computed in-process before timing.
struct Intent {
  Kind kind = Kind::kSelect;
  std::string path;  // /v1/query or /v1/mutate
  std::string body;  // wire JSON
  std::string http;  // full request bytes
  std::set<uint64_t> truth;
  std::vector<uint64_t> ref_ids;
  double ref_quality = 0;
  size_t user_bytes = 0;  // mutations: document bytes
};

struct Inputs {
  std::vector<data::NamedDoc> dblp;
  std::vector<data::NamedDoc> sigmod;
  std::vector<std::string> dblp_xml;  // ingest_mixed loads XML text
  std::vector<Intent> reads;      // round-robin read intents
  std::vector<Intent> mutations;  // ingest writes, in order
};

struct Sizes {
  size_t papers, join_papers, extra_papers, people, narrow_intents;
  // Set-up repeats at least setup_reps times and for setup_budget_s; the
  // median is reported.
  size_t setup_reps;
  double setup_budget_s;
};
Sizes SizesFor(bool tiny) {
  if (tiny) return {240, 40, 60, 24, 20, 1, 0};
  return {4000, 400, 600, 300, 500, 21, 4};
}

std::string HttpBytes(const std::string& path, const std::string& body,
                      const std::string& extra_header = "") {
  return "POST " + path + " HTTP/1.1\r\nHost: bench\r\n" + extra_header +
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

Intent MakeIntent(Kind kind, const service::QueryRequest& req,
                  std::set<uint64_t> truth = {}) {
  Intent it;
  it.kind = kind;
  it.path = kind == Kind::kMutation ? "/v1/mutate" : "/v1/query";
  it.body = service::wire::RequestJson(req);
  it.http = HttpBytes(it.path, it.body);
  it.truth = std::move(truth);
  return it;
}

tax::PatternTree JoinPattern(const std::string& dblp_isa) {
  if (dblp_isa.empty()) return data::MakeTitleJoinPattern();
  tax::PatternTree pt;
  const int root = pt.AddRoot();                             // $1
  const int left = pt.AddChild(root, tax::EdgeKind::kPc);    // $2
  pt.AddChild(left, tax::EdgeKind::kPc);                     // $3
  const int art = pt.AddChild(root, tax::EdgeKind::kAd);     // $4
  pt.AddChild(art, tax::EdgeKind::kPc);                      // $5
  pt.AddChild(left, tax::EdgeKind::kPc);                     // $6
  pt.SetCondition(Take(
      tax::ParseCondition(
          "$1.tag = \"tax_prod_root\" & $2.tag = \"inproceedings\" & "
          "$3.tag = \"title\" & $4.tag = \"article\" & $5.tag = \"title\" & "
          "$6.tag = \"booktitle\" & $3.content ~ $5.content & "
          "$6.content isa \"" + dblp_isa + "\""),
      "join condition"));
  return pt;
}

uint64_t PairId(uint64_t dblp, uint64_t sigmod) {
  return (dblp << 32) ^ sigmod;
}

Inputs MakeInputs(const Args& args, const Sizes& sz) {
  data::BibConfig cfg;
  cfg.seed = args.seed;
  cfg.num_people = sz.people;
  cfg.num_papers = sz.papers + sz.extra_papers;
  const data::BibWorld world = data::GenerateWorld(cfg);
  Inputs in;
  const std::string& w = args.workload;

  if (w == "join") {
    in.dblp = data::EmitDblp(world, 0, sz.join_papers, cfg);
    in.sigmod = data::EmitSigmod(world, 0, sz.join_papers, cfg);
    // The paper's unrestricted join once, then one dblp-side restriction
    // per venue and per venue category.
    std::vector<std::pair<std::string, std::function<bool(const data::VenueEntity&)>>>
        variants;
    variants.push_back({"", [](const data::VenueEntity&) { return true; }});
    std::set<std::string> categories;
    for (const auto& v : world.venues) {
      variants.push_back({v.short_name, [id = v.id](const data::VenueEntity& x) {
                            return x.id == id;
                          }});
      categories.insert(v.category);
    }
    for (const auto& c : categories) {
      variants.push_back({c, [c](const data::VenueEntity& x) {
                            return x.category == c;
                          }});
    }
    for (const auto& [lit, match] : variants) {
      std::set<uint64_t> truth;
      for (size_t p = 0; p < sz.join_papers; ++p) {
        const auto& paper = world.papers[p];
        if (match(world.VenueById(paper.venue))) {
          truth.insert(PairId(paper.id, paper.id));
        }
      }
      in.reads.push_back(MakeIntent(
          Kind::kJoin,
          service::QueryRequest::Join("dblp", "sigmod", JoinPattern(lit), {2, 4}),
          std::move(truth)));
    }
    return in;
  }

  in.dblp = data::EmitDblp(world, 0, sz.papers, cfg);
  if (w == "select_broad") {
    for (const auto& v : world.venues) {
      std::set<uint64_t> truth;
      for (size_t p = 0; p < sz.papers; ++p) {
        if (world.papers[p].venue == v.id) truth.insert(world.papers[p].id);
      }
      for (const std::string& cat :
           {v.category, std::string("computer science conference"),
            std::string("conference")}) {
        in.reads.push_back(MakeIntent(
            Kind::kSelect,
            service::QueryRequest::Select(
                "dblp", data::MakeScalabilitySelectionPattern(v.short_name, cat),
                {1}),
            truth));
      }
    }
    return in;
  }

  // select_narrow and the reads of ingest_mixed.
  auto queries = Take(data::MakeSelectionWorkload(world, 0, sz.papers,
                                                  sz.narrow_intents, args.seed),
                      "MakeSelectionWorkload");
  for (auto& q : queries) {
    std::set<uint64_t> truth(q.correct.begin(), q.correct.end());
    in.reads.push_back(MakeIntent(
        Kind::kSelect, service::QueryRequest::Select("dblp", q.pattern, q.sl),
        std::move(truth)));
  }
  if (w == "ingest_mixed") {
    // Alternate fresh-paper inserts into a second collection with replaces
    // of existing dblp documents by their own XML, so read answers stay
    // fixed while every write still takes the full mutation path.
    for (const auto& d : in.dblp) in.dblp_xml.push_back(xml::Write(d.second));
    const auto fresh = data::EmitDblp(world, sz.papers, sz.extra_papers, cfg);
    Random rng(args.seed ^ 0x5eedu);
    for (size_t i = 0; i < 2 * sz.extra_papers; ++i) {
      const bool insert = i % 2 == 0;
      const size_t j = insert ? 0 : rng.Uniform(in.dblp.size());
      const std::string& key = insert ? fresh[i / 2].first : in.dblp[j].first;
      std::string text = insert ? xml::Write(fresh[i / 2].second) : in.dblp_xml[j];
      const size_t bytes = text.size();
      Intent it = MakeIntent(
          Kind::kMutation,
          insert ? service::QueryRequest::Insert("dblp_new", key, std::move(text))
                 : service::QueryRequest::Replace("dblp", key, std::move(text)));
      it.user_bytes = bytes;
      in.mutations.push_back(std::move(it));
    }
  }
  return in;
}

uint64_t InputsDigest(const Inputs& in) {
  uint64_t h = Fnv("");
  for (const auto* docs : {&in.dblp, &in.sigmod}) {
    for (const auto& d : *docs) h = Fnv(d.first + xml::Write(d.second), h);
  }
  for (const auto* v : {&in.reads, &in.mutations}) {
    for (const auto& it : *v) h = Fnv(it.body, h);
  }
  return h;
}

// --- Answer extraction and checking -----------------------------------------

uint64_t AttrGtid(std::string_view xml, std::string_view tag) {
  const std::string open = "<" + std::string(tag);
  size_t at = 0;
  while ((at = xml.find(open, at)) != std::string_view::npos) {
    const char next = at + open.size() < xml.size() ? xml[at + open.size()] : 0;
    if (next == ' ' || next == '>' || next == '/') break;
    at += open.size();
  }
  if (at == std::string_view::npos) return 0;
  const size_t end = xml.find('>', at);
  const size_t g = xml.find("gtid=\"", at);
  if (g == std::string_view::npos || g > end) return 0;
  return std::strtoull(xml.data() + g + 6, nullptr, 10);
}

/// Sorted gtid multiset of a parsed wire response: paper ids for
/// selections, (dblp, sigmod) pair ids for joins. nullopt when the response
/// carries no trees array.
std::optional<std::vector<uint64_t>> AnswerIds(const common::JsonValue& doc,
                                               Kind kind) {
  const common::JsonValue* trees = doc.Get("trees");
  if (trees == nullptr || !trees->is_array()) return std::nullopt;
  std::vector<uint64_t> ids;
  for (const auto& t : trees->array()) {
    const std::string& x = t.AsString();
    if (kind == Kind::kJoin) {
      ids.push_back(PairId(AttrGtid(x, "inproceedings"), AttrGtid(x, "article")));
    } else {
      const size_t g = x.find("gtid=\"");
      const size_t close = x.find('>');
      ids.push_back(g != std::string::npos && g < close
                        ? std::strtoull(x.c_str() + g + 6, nullptr, 10)
                        : 0);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

double QualityOf(const std::vector<uint64_t>& ids,
                 const std::set<uint64_t>& truth) {
  std::set<uint64_t> returned(ids.begin(), ids.end());
  returned.erase(0);
  return eval::ComputePr(returned, truth).quality;
}

/// Field `key` of object `obj` (null when either is missing).
const common::JsonValue* Field(const common::JsonValue* obj, const char* key) {
  return obj != nullptr ? obj->Get(key) : nullptr;
}

struct Verdict {
  bool ok = false;
  double quality = 0;
};

/// A served answer is right when the status is 200/OK and, for reads, its
/// sorted gtid multiset equals the reference answer's. Tree order and
/// rendering may legitimately differ (a replace reorders documents).
Verdict Check(const Intent& it, int status,
              const Result<common::JsonValue>& doc) {
  Verdict v;
  if (status != 200 || !doc.ok()) return v;
  const common::JsonValue* code = Field(doc->Get("status"), "code");
  if (code == nullptr || code->AsString() != "OK") return v;
  if (it.kind == Kind::kMutation) {
    v.ok = true;
    return v;
  }
  auto ids = AnswerIds(*doc, it.kind);
  if (!ids) return v;
  v.ok = *ids == it.ref_ids;
  v.quality = v.ok ? it.ref_quality : QualityOf(*ids, it.truth);
  return v;
}

// --- Spans ----------------------------------------------------------------------

struct Span {
  const char* name;
  uint64_t id, parent, req;
  int64_t start_ns, end_ns;
};

/// In-memory span store; written out once at exit.
class Tracer {
 public:
  uint64_t NextId() { return next_.fetch_add(1) + 1; }
  void Add(const Span& s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }
  std::vector<Span> Spans() {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  std::atomic<uint64_t> next_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time per span name: duration minus the union of its children.
std::map<std::string, double> SelfTimesMs(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<const Span*>> kids;
  for (const auto& s : spans) {
    if (s.parent != 0) kids[s.parent].push_back(&s);
  }
  std::map<std::string, double> out;
  for (const auto& s : spans) {
    int64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      std::vector<std::pair<int64_t, int64_t>> iv;
      for (const Span* k : it->second) {
        iv.push_back({std::max(k->start_ns, s.start_ns),
                      std::min(k->end_ns, s.end_ns)});
      }
      std::sort(iv.begin(), iv.end());
      int64_t cur_b = 0, cur_e = -1;
      for (auto [b, e] : iv) {
        if (e <= b) continue;
        if (b > cur_e) {
          if (cur_e > cur_b) covered += cur_e - cur_b;
          cur_b = b;
          cur_e = e;
        } else {
          cur_e = std::max(cur_e, e);
        }
      }
      if (cur_e > cur_b) covered += cur_e - cur_b;
    }
    out[s.name] += Ms(s.end_ns - s.start_ns - covered);
  }
  return out;
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream f(path);
  for (const auto& s : spans) {
    f << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
      << ",\"parent\":" << s.parent << ",\"req\":" << s.req
      << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

// --- The stack under test -----------------------------------------------------

struct SetupTimes {
  double load_ms = 0, onto_ms = 0, seo_ms = 0, start_ms = 0, total_s = 0;
  double filter_ratio = 0;
};

struct Stack {
  std::unique_ptr<store::Database> db;
  core::Seo seo;
  core::TypeSystem types;
  std::unique_ptr<service::TossService> svc;
  std::unique_ptr<net::HttpServer> server;
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    server.reset();
    svc.reset();
    db.reset();
  }
};

ontology::Ontology CollectionOntology(const store::Database& db,
                                      const std::string& name,
                                      std::vector<std::string> tags) {
  const store::Collection* coll = Take(db.GetCollection(name), "GetCollection");
  std::vector<const xml::XmlDocument*> docs;
  for (store::DocId id : coll->AllDocs()) docs.push_back(&coll->document(id));
  ontology::OntologyMakerOptions opts;
  opts.content_tags = std::move(tags);
  return Take(ontology::MakeOntologyForDocuments(
                  docs, lexicon::BuiltinBibliographicLexicon(), opts),
              "MakeOntologyForDocuments");
}

uint64_t CounterValue(const char* name) {
  return obs::Metrics().GetCounter(name).Value();
}

/// The ingest workload's input: a durable database in `dir` filled through
/// the write path, one DurableInsert per document from kMaxConns threads,
/// group-committed. Made once, untimed, like the other workloads' inputs.
void FillDurable(const std::string& dir, const Inputs& in) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  store::Database db =
      Take(store::Database::OpenDurable(dir, store::Env::Default()), "OpenDurable");
  std::vector<std::thread> loaders;
  for (size_t w = 0; w < kMaxConns; ++w) {
    loaders.emplace_back([&, w] {
      for (size_t i = w; i < in.dblp.size(); i += kMaxConns) {
        CheckOk(db.DurableInsert("dblp", in.dblp[i].first, in.dblp_xml[i]),
                "DurableInsert");
      }
    });
  }
  for (auto& t : loaders) t.join();
}

/// Set-up as timed by setup_s: store load (for ingest_mixed, reopening the
/// durable database in `durable_dir` and replaying its log), ontology
/// making, SEO build, service construction and server start. Input
/// generation is excluded.
std::unique_ptr<Stack> BuildStack(const Args& args, const Inputs& in,
                                  const std::string& durable_dir,
                                  const std::function<net::Handler(net::Handler)>& wrap,
                                  SetupTimes* t) {
  auto st = std::make_unique<Stack>();
  const bool join = args.workload == "join";
  const int64_t t0 = NowNs();

  if (!durable_dir.empty()) {
    st->db = std::make_unique<store::Database>(
        Take(store::Database::OpenDurable(durable_dir, store::Env::Default()),
             "OpenDurable"));
  } else {
    st->db = std::make_unique<store::Database>();
    CheckOk(data::LoadIntoCollection(st->db.get(), "dblp", in.dblp), "load dblp");
    if (join) {
      CheckOk(data::LoadIntoCollection(st->db.get(), "sigmod", in.sigmod),
              "load sigmod");
    }
  }
  const int64_t t1 = NowNs();

  std::vector<ontology::Ontology> ontos;
  ontos.push_back(CollectionOntology(*st->db, "dblp", data::DblpContentTags()));
  if (join) {
    ontos.push_back(
        CollectionOntology(*st->db, "sigmod", data::SigmodContentTags()));
  }
  const int64_t t2 = NowNs();

  const uint64_t filtered0 = CounterValue("sim.pairwise.pairs_filtered");
  const uint64_t computed0 = CounterValue("sim.pairwise.pairs_computed");
  core::SeoBuilder builder;
  for (auto& o : ontos) builder.AddInstanceOntology(std::move(o));
  if (join) {
    builder.AddConstraints(ontology::kPartOf,
                           ontology::Eq("booktitle", 0, "conference", 1));
  }
  // tossd's configuration for selections, Fig. 16b's for the join.
  builder.SetMeasure(Take(sim::MakeMeasure("levenshtein"), "MakeMeasure"));
  builder.SetEpsilon(join ? 2.0 : 3.0);
  st->seo = Take(builder.Build(), "SeoBuilder::Build");
  st->types = core::MakeBibliographicTypeSystem();
  const double filtered =
      static_cast<double>(CounterValue("sim.pairwise.pairs_filtered") - filtered0);
  const double computed =
      static_cast<double>(CounterValue("sim.pairwise.pairs_computed") - computed0);
  const int64_t t3 = NowNs();

  service::ServiceOptions so;
  so.max_inflight = kMaxConns;
  st->svc = std::make_unique<service::TossService>(st->db.get(), &st->seo,
                                                   &st->types, so);
  net::ServerOptions no;
  no.worker_threads = kMaxConns;
  net::Handler handler = net::MakeTossHandler(st->svc.get());
  if (wrap) handler = wrap(std::move(handler));
  st->server = std::make_unique<net::HttpServer>(std::move(handler), no);
  CheckOk(st->server->Start(), "server start");
  const int64_t t4 = NowNs();

  t->load_ms = Ms(t1 - t0);
  t->onto_ms = Ms(t2 - t1);
  t->seo_ms = Ms(t3 - t2);
  t->start_ms = Ms(t4 - t3);
  t->total_s = Ms(t4 - t0) / 1000.0;
  t->filter_ratio = Ratio(filtered, filtered + computed);
  return st;
}

// --- HTTP client -----------------------------------------------------------------

class Conn {
 public:
  explicit Conn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) Die("socket");
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Die("connect");
    }
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Sends one request and reads its response. Returns the HTTP status, or
  /// -1 on a transport error; `body` receives the response body.
  int RoundTrip(const std::string& request, std::string* body) {
    size_t off = 0;
    while (off < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + off, request.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return -1;
      off += static_cast<size_t>(n);
    }
    size_t head_end;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return -1;
    }
    std::string head = buf_.substr(0, head_end);
    std::transform(head.begin(), head.end(), head.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    const size_t cl = head.find("\r\ncontent-length:");
    if (cl == std::string::npos) return -1;
    const size_t len = std::strtoull(head.c_str() + cl + 17, nullptr, 10);
    while (buf_.size() < head_end + 4 + len) {
      if (!Fill()) return -1;
    }
    const int status = std::atoi(head.c_str() + 9);
    body->assign(buf_, head_end + 4, len);
    buf_.erase(0, head_end + 4 + len);
    return status;
  }

 private:
  bool Fill() {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
    return true;
  }
  int fd_ = -1;
  std::string buf_;
};

// --- Load generation ----------------------------------------------------------

std::vector<uint32_t> Shuffled(size_t n, uint64_t seed) {
  std::vector<uint32_t> v(n);
  std::iota(v.begin(), v.end(), 0u);
  Random rng(seed);
  for (size_t i = n; i > 1; --i) std::swap(v[i - 1], v[rng.Uniform(i)]);
  return v;
}

struct Sample {
  uint32_t intent;
  bool mutation;
  bool closed;  // closed-loop phase
  uint64_t pass;  // closed-loop pass, unique within the process
  bool ok;
  int64_t due_ns, send_ns, end_ns;
  int64_t late_ns;  // open loop: send time minus max(due, connection free)
  uint64_t req_id;
  double quality;
  size_t bytes;
  double queue_wait_ms, rewrite_ms, store_ms, eval_ms;
  double expanded, candidates, results;
  bool prepared_hit;
};

/// One fixed-rate client connection: request k is due at start + offset +
/// k / rate; a request whose connection is still busy waits, and its
/// latency still counts from its due time.
struct Lane {
  const std::vector<Intent>* intents;
  std::vector<uint32_t> order;  // intent indexes, cycled
  double rate = 0;
  double offset_s = 0;
};

/// A timed phase: open-loop lanes beside `closed_conns` closed-loop
/// connections. The closed connections work in passes (see PassOrder),
/// pulled from a shared queue, so every pass -- and every run of a seed --
/// has the same request mix. Passes repeat until `seconds` have elapsed;
/// the pass in progress at the deadline completes.
struct Phase {
  std::vector<Lane> open;
  size_t closed_conns = 0;
  double seconds = 0;
};

struct PhaseResult {
  std::vector<Sample> samples;
  size_t unsent = 0;
  double max_late_ms = 0;
  std::vector<double> pass_qps;  // completed requests / pass wall time
};

class Driver {
 public:
  Driver(uint16_t port, const std::vector<Intent>* reads, uint64_t seed,
         Tracer* tracer, bool corrupt)
      : port_(port), reads_(reads), seed_(seed), tracer_(tracer),
        corrupt_(corrupt) {}

  PhaseResult Run(const Phase& phase, bool traced) {
    PhaseResult out;
    const size_t lanes = phase.open.size() + phase.closed_conns;
    std::vector<std::vector<Sample>> per(lanes);
    std::vector<size_t> unsent(lanes, 0);
    const int64_t start = NowNs() + 2'000'000;  // let all lanes connect
    const int64_t stop = start + static_cast<int64_t>(phase.seconds * 1e9);

    // Closed-loop pass state, advanced by the barrier's completion step.
    std::vector<uint32_t> order = PassOrder();
    std::atomic<size_t> next{0};
    int64_t pass_start = start;
    bool done = false;
    auto end_pass = [&]() noexcept {
      const int64_t now = NowNs();
      out.pass_qps.push_back(static_cast<double>(order.size()) /
                             (Ms(now - pass_start) / 1000.0));
      ++passes_;
      done = now >= stop;
      order = PassOrder();
      next.store(0);
      pass_start = now;
    };
    std::barrier sync(static_cast<std::ptrdiff_t>(std::max<size_t>(1, phase.closed_conns)),
                      end_pass);

    std::vector<std::thread> threads;
    for (size_t l = 0; l < phase.open.size(); ++l) {
      threads.emplace_back([&, l] {
        RunOpen(phase.open[l], start, stop, traced, &per[l], &unsent[l]);
      });
    }
    for (size_t c = 0; c < phase.closed_conns; ++c) {
      threads.emplace_back([&, slot = phase.open.size() + c] {
        Conn conn(port_);
        std::string body;
        std::this_thread::sleep_for(std::chrono::nanoseconds(start - NowNs()));
        while (true) {
          for (size_t i; (i = next.fetch_add(1)) < order.size();) {
            const int64_t now = NowNs();
            if (!Send(conn, (*reads_)[order[i]], order[i], now, traced, passes_,
                      &per[slot], &body)) {
              break;
            }
          }
          sync.arrive_and_wait();
          if (done) break;
        }
      });
    }
    for (auto& t : threads) t.join();
    for (size_t l = 0; l < lanes; ++l) {
      for (auto& s : per[l]) {
        out.max_late_ms = std::max(out.max_late_ms, Ms(s.late_ns));
        out.samples.push_back(s);
      }
      out.unsent += unsent[l];
    }
    return out;
  }

 private:
  /// One pass: every distinct read, repeated to at least kMinPass requests,
  /// in a seeded order stably sorted by answer size, largest (costliest)
  /// first, so the connections run out of work together at the pass end.
  std::vector<uint32_t> PassOrder() const {
    const size_t n = reads_->size();
    const size_t copies = (kMinPass + n - 1) / n;
    std::vector<uint32_t> order;
    for (size_t c = 0; c < copies; ++c) {
      for (uint32_t i : Shuffled(n, seed_ * 7919 + passes_ * 31 + c)) order.push_back(i);
    }
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return (*reads_)[a].ref_ids.size() > (*reads_)[b].ref_ids.size();
    });
    return order;
  }

  void RunOpen(const Lane& lane, int64_t start, int64_t stop, bool traced,
               std::vector<Sample>* out, size_t* unsent) {
    Conn conn(port_);
    std::string body;
    const double interval_ns = 1e9 / lane.rate;
    int64_t free_ns = 0;  // end of this connection's previous request
    for (size_t k = 0;; ++k) {
      const int64_t due =
          start + static_cast<int64_t>(lane.offset_s * 1e9 +
                                       static_cast<double>(k) * interval_ns);
      if (due >= stop) break;
      const int64_t now = NowNs();
      // A lane this far behind stops sending: the rest of its schedule
      // counts as unsent.
      if (now - due > static_cast<int64_t>(kBacklogLimitMs * 1e6)) {
        *unsent += static_cast<size_t>(static_cast<double>(stop - due) / interval_ns) + 1;
        break;
      }
      if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      const uint32_t idx =
          lane.intents == reads_ ? lane.order[k % lane.order.size()]
                                 : static_cast<uint32_t>(writes_sent_++);
      if (idx >= lane.intents->size()) Die("write stream exhausted");
      const bool alive = Send(conn, (*lane.intents)[idx], idx, due, traced,
                              std::nullopt, out, &body);
      out->back().late_ns = out->back().send_ns - std::max(due, free_ns);
      free_ns = out->back().end_ns;
      if (!alive) break;
    }
  }

  /// One request/response on `conn`, checked and recorded; `pass` is set
  /// for closed-loop requests. False when the connection is gone.
  bool Send(Conn& conn, const Intent& it, uint32_t idx, int64_t due,
            bool traced, std::optional<uint64_t> pass, std::vector<Sample>* out,
            std::string* body_buf) {
    const bool closed = pass.has_value();
    std::string& body = *body_buf;
    Sample s{};
    s.intent = idx;
    s.mutation = it.kind == Kind::kMutation;
    s.closed = closed;
    s.pass = pass.value_or(0);
    s.due_ns = due;
    int status;
    if (traced) {
      s.req_id = tracer_->NextId();
      const std::string req = HttpBytes(
          it.path, it.body, "X-Bench-Id: " + std::to_string(s.req_id) + "\r\n");
      s.send_ns = NowNs();
      status = conn.RoundTrip(req, &body);
      s.end_ns = NowNs();
      tracer_->Add({"client.request", s.req_id, 0, s.req_id, s.send_ns, s.end_ns});
    } else {
      s.send_ns = NowNs();
      status = conn.RoundTrip(it.http, &body);
      s.end_ns = NowNs();
    }
    if (closed) s.due_ns = s.send_ns;
    if (corrupt_ && !s.mutation && !corrupted_.exchange(true)) {
      const size_t at = body.find("gtid=\\\"");
      if (at != std::string::npos) body[at + 7] = body[at + 7] == '9' ? '1' : '9';
    }
    const Result<common::JsonValue> doc = common::JsonValue::Parse(body);
    const Verdict v = Check(it, status, doc);
    s.ok = v.ok;
    s.quality = v.quality;
    s.bytes = body.size();
    if (doc.ok()) {
      const common::JsonValue* stats = doc->Get("stats");
      auto num = [](const common::JsonValue* x) { return x ? x->AsDouble() : 0.0; };
      s.queue_wait_ms = num(doc->Get("queue_wait_ms"));
      const common::JsonValue* hit = doc->Get("prepared_cache_hit");
      s.prepared_hit = hit != nullptr && hit->AsBool();
      s.rewrite_ms = num(Field(stats, "rewrite_ms"));
      s.store_ms = num(Field(stats, "store_ms"));
      s.eval_ms = num(Field(stats, "eval_ms"));
      s.expanded = num(Field(stats, "expanded_terms"));
      s.candidates = num(Field(stats, "candidate_docs"));
      s.results = num(Field(stats, "result_trees"));
    }
    out->push_back(s);
    return status >= 0;
  }

  uint16_t port_;
  const std::vector<Intent>* reads_;
  uint64_t seed_;
  Tracer* tracer_;
  bool corrupt_;
  std::atomic<bool> corrupted_{false};
  uint64_t passes_ = 0;
  // Writes are never repeated (a second insert of a key fails), so the
  // write stream continues across phases and runs of one process.
  std::atomic<size_t> writes_sent_{0};
};

// --- Workload schedule ------------------------------------------------------------

/// The phases of one timed run of `seconds`.
std::vector<Phase> Schedule(const Args& args, const Inputs& in, double seconds) {
  const std::string& w = args.workload;
  if (w == "join") return {Phase{{}, 1, seconds}};
  const size_t read_conns = w == "ingest_mixed" ? 3 : kMaxConns;
  const double rate = w == "select_narrow" ? kNarrowRate
                      : w == "select_broad" ? kBroadRate
                                            : kIngestReadRate;
  Phase open{{}, 0, seconds / 3};
  for (size_t c = 0; c < read_conns; ++c) {
    Lane l;
    l.intents = &in.reads;
    l.order = Shuffled(in.reads.size(), args.seed * 131 + c);
    l.rate = rate / static_cast<double>(read_conns);
    l.offset_s = static_cast<double>(c) / rate;
    open.open.push_back(l);
  }
  Phase closed{{}, read_conns, seconds - open.seconds};
  if (w == "ingest_mixed") {
    // One write stream across both phases, at a fixed rate.
    Lane wl;
    wl.intents = &in.mutations;
    wl.rate = kWriteRate;
    wl.offset_s = 0.5 / kWriteRate;
    open.open.push_back(wl);
    closed.open.push_back(wl);
  }
  return {open, closed};
}

// --- Metrics ------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunStats {
  std::vector<Sample> samples;
  size_t unsent = 0;
  double max_late_ms = 0;
  std::vector<double> pass_qps;
};

RunStats RunTimed(Driver* driver, const std::vector<Phase>& phases,
                  bool traced) {
  RunStats r;
  for (const Phase& p : phases) {
    PhaseResult pr = driver->Run(p, traced);
    r.max_late_ms = std::max(r.max_late_ms, pr.max_late_ms);
    r.unsent += pr.unsent;
    r.samples.insert(r.samples.end(), pr.samples.begin(), pr.samples.end());
    r.pass_qps.insert(r.pass_qps.end(), pr.pass_qps.begin(), pr.pass_qps.end());
  }
  return r;
}

/// Read latencies of one phase, each timed from its due time (in the
/// closed loop, due time is send time). Pooled; used where a percentile
/// needs every sample (p99).
std::vector<double> ReadLatencies(const RunStats& r, bool closed) {
  std::vector<double> xs;
  for (const auto& s : r.samples) {
    if (s.mutation || s.closed != closed) continue;
    xs.push_back(Ms(s.end_ns - s.due_ns));
  }
  return xs;
}

/// The gated latency percentiles: each closed-loop pass's percentile, then
/// the median over passes. Every pass has the same request mix, and the
/// median keeps a transient slowdown of the machine out of the figure.
double PassMedianLatency(const RunStats& r, double p) {
  std::map<uint64_t, std::vector<double>> by_pass;
  for (const auto& s : r.samples) {
    if (s.closed && !s.mutation) by_pass[s.pass].push_back(Ms(s.end_ns - s.send_ns));
  }
  std::vector<double> per_pass;
  for (const auto& [pass, xs] : by_pass) per_pass.push_back(Pct(xs, p));
  return Pct(per_pass, 0.5);
}

/// Resets VmHWM to the current RSS (Linux clear_refs "5").
bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return f.good();
}

uint64_t ReadPeakRssKb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

std::string MetricsJson(bool correct, size_t attempted, size_t failed,
                        const std::vector<Metric>& ms) {
  common::JsonValue m = common::JsonValue::Object();
  for (const auto& x : ms) {
    common::JsonValue v = common::JsonValue::Object();
    v.Set("value", common::JsonValue::Number(x.value));
    v.Set("unit", common::JsonValue::String(x.unit));
    m.Set(x.name, std::move(v));
  }
  common::JsonValue out = common::JsonValue::Object();
  out.Set("correct", common::JsonValue::Bool(correct));
  out.Set("attempted", common::JsonValue::Number(static_cast<double>(attempted)));
  out.Set("failed", common::JsonValue::Number(static_cast<double>(failed)));
  out.Set("metrics", std::move(m));
  return out.Dump();
}

template <typename F>
double TimeMs(F&& f) {
  const int64_t t = NowNs();
  f();
  return Ms(NowNs() - t);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Sizes sz = SizesFor(args.tiny);
  const bool join = args.workload == "join";
  const bool ingest = args.workload == "ingest_mixed";

  Inputs in = MakeInputs(args, sz);
  if (args.inputs_digest) {
    std::printf("inputs_digest %016llx\n",
                static_cast<unsigned long long>(InputsDigest(in)));
    return 0;
  }
  obs::Telemetry::Global().StartTicker();  // as tossd runs

  // --- Set-up, repeated; the last stack serves. -------------------------------
  Tracer tracer;
  std::atomic<bool> tracing{false};
  std::function<net::Handler(net::Handler)> wrap;
  if (args.trace) {
    wrap = [&](net::Handler inner) -> net::Handler {
      return [&, inner](const net::HttpRequest& req) {
        if (!tracing.load(std::memory_order_relaxed)) return inner(req);
        const int64_t b = NowNs();
        net::HttpResponse resp = inner(req);
        const int64_t e = NowNs();
        const std::string* id = req.FindHeader("x-bench-id");
        const uint64_t rid = id ? std::strtoull(id->c_str(), nullptr, 10) : 0;
        tracer.Add({"net.handler", tracer.NextId(), rid, rid, b, e});
        return resp;
      };
    };
  }
  std::string durable_dir;
  if (ingest) {
    durable_dir = args.tmp_dir + "/ingest-" + std::to_string(::getpid());
    FillDurable(durable_dir, in);
  }
  // Each set-up starts from a heap whose free memory went back to the OS,
  // as a fresh process's would. The last builds the serving stack; VmHWM is
  // reset just before it, so peak_rss_mb is one set-up plus serving, not
  // the high-water mark the repetitions leave.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Stack> stack;
  double setup_rss_mb = 0;
  for (double spent = 0;;) {
    const bool last = setups.size() + 1 >= sz.setup_reps && spent >= sz.setup_budget_s;
    stack.reset();
    ::malloc_trim(0);
    if (last) {
      setup_rss_mb = static_cast<double>(ReadPeakRssKb()) / 1024.0;
      if (!ResetPeakRss()) std::printf("note: VmHWM reset unavailable\n");
    }
    stack = BuildStack(args, in, durable_dir, wrap, &setups.emplace_back());
    spent += setups.back().total_s;
    if (last) break;
  }
  auto setup_med = [&](double SetupTimes::*field) {
    std::vector<double> xs;
    for (const auto& s : setups) xs.push_back(s.*field);
    return Pct(xs, 0.5);
  };

  // --- Reference answers, in-process, before any timing. ----------------------
  bool correct = true;
  {
    std::vector<std::thread> ts;
    for (size_t c = 0; c < kMaxConns; ++c) {
      ts.emplace_back([&, c] {
        for (size_t i = c; i < in.reads.size(); i += kMaxConns) {
          Intent& it = in.reads[i];
          service::QueryRequest req =
              Take(service::wire::ParseRequestText(it.body), "reference decode");
          service::QueryResponse resp = stack->svc->Run(req);
          CheckOk(resp.status, "reference run");
          auto ids = AnswerIds(service::wire::ResponseToJson(resp), it.kind);
          if (!ids) Die("reference answer malformed");
          it.ref_ids = std::move(*ids);
          it.ref_quality = QualityOf(it.ref_ids, it.truth);
        }
      });
    }
    for (auto& t : ts) t.join();
  }

  // --- Warm-up: one untimed pass over every distinct read. --------------------
  {
    std::vector<std::thread> ts;
    const size_t conns = join ? 1 : kMaxConns;
    std::atomic<size_t> bad{0};
    for (size_t c = 0; c < conns; ++c) {
      ts.emplace_back([&, c] {
        Conn conn(stack->server->port());
        std::string body;
        for (size_t i = c; i < in.reads.size(); i += conns) {
          const int status = conn.RoundTrip(in.reads[i].http, &body);
          if (!Check(in.reads[i], status, common::JsonValue::Parse(body)).ok) {
            bad.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : ts) t.join();
    if (bad.load() != 0) correct = false;
  }

  // --- Timed phase(s). ------------------------------------------------------------
  Driver driver(stack->server->port(), &in.reads, args.seed, &tracer,
                args.corrupt_answer);
  const double run_s = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<Phase> phases = Schedule(args, in, run_s);
  RunStats plain = RunTimed(&driver, phases, false);

  RunStats traced;
  std::map<std::string, uint64_t> counters0, counters1;
  const char* kCounters[] = {"core.query.join.count",
                             "core.query.join.twig.pairs_scanned",
                             "core.query.join.twig.pairs_value_skipped",
                             "core.query.join.twig.fallbacks",
                             "store.wal.bytes_appended"};
  store::WalWriter::Stats wal0{}, wal1{};
  size_t cache_hits0 = 0, cache_miss0 = 0, cache_hits1 = 0, cache_miss1 = 0;
  auto cache_stats = [&](size_t* hits, size_t* misses) {
    *hits = *misses = 0;
    for (const char* name : {"dblp", "sigmod"}) {
      auto c = static_cast<const store::Database&>(*stack->db).GetCollection(name);
      if (!c.ok()) continue;
      const auto cs = (*c)->GetTreeCacheStats();
      *hits += cs.hits;
      *misses += cs.misses;
    }
  };
  if (args.trace) {
    for (const char* c : kCounters) counters0[c] = CounterValue(c);
    if (ingest) wal0 = stack->db->GetWalStats();
    cache_stats(&cache_hits0, &cache_miss0);
    tracing.store(true);
    traced = RunTimed(&driver, phases, true);
    tracing.store(false);
    for (const char* c : kCounters) counters1[c] = CounterValue(c);
    if (ingest) wal1 = stack->db->GetWalStats();
    cache_stats(&cache_hits1, &cache_miss1);
  }

  // --- Outcome of the timed phase(s). ---------------------------------------------
  std::vector<const Sample*> all;
  for (const auto* r : {&plain, &traced}) {
    for (const auto& s : r->samples) all.push_back(&s);
  }
  const size_t unsent = plain.unsent + traced.unsent;
  const size_t attempted = all.size() + unsent;
  size_t failed = unsent;
  // Quality: each distinct read's served answers averaged, then the mean
  // over distinct reads, so the request mix does not weight it.
  std::map<uint32_t, std::vector<double>> served_quality;
  for (const Sample* s : all) {
    if (!s->ok) ++failed;
    if (!s->mutation) served_quality[s->intent].push_back(s->quality);
  }
  std::vector<double> quality;
  for (const auto& [intent, qs] : served_quality) quality.push_back(Mean(qs));
  const double max_late_ms = std::max(plain.max_late_ms, traced.max_late_ms);
  const bool valid = unsent == 0 && max_late_ms < kLateLimitMs;
  if (failed != 0 || !valid) correct = false;

  const std::vector<double> lat = ReadLatencies(plain, true);
  const std::vector<double> open_lat = ReadLatencies(plain, false);
  std::vector<double> mut_lat, late;
  for (const auto& s : plain.samples) {
    if (s.mutation) mut_lat.push_back(Ms(s.end_ns - s.due_ns));
    if (!s.closed) late.push_back(Ms(s.late_ns));
  }
  const double qps = Pct(plain.pass_qps, 0.5);
  const double rss_mb = static_cast<double>(ReadPeakRssKb()) / 1024.0;

  std::printf("tossbench workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "build=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency(), TOSSBENCH_BUILD_TYPE);
  std::printf("inputs: %zu dblp docs, %zu sigmod docs, %zu read intents, "
              "%zu writes available\n",
              in.dblp.size(), in.sigmod.size(), in.reads.size(),
              in.mutations.size());
  if (ingest) {
    const store::WalWriterOptions wal_defaults;
    std::printf("wal policy: default group commit (max_batch_records=%zu, "
                "group_wait_micros=%llu), one fsync per batch\n",
                wal_defaults.max_batch_records,
                static_cast<unsigned long long>(wal_defaults.group_wait_micros));
  }
  {
    std::vector<double> xs;
    for (const auto& t : setups) xs.push_back(t.total_s);
    std::printf("set-up: %zu reps, setup_s min %.4f median %.4f max %.4f, "
                "peak rss %.1f MB before the last\n",
                xs.size(), Pct(xs, 0), Pct(xs, 0.5), Pct(xs, 1), setup_rss_mb);
  }
  std::printf("open loop: generator late p50 %.3f ms, max %.3f ms, unsent %zu "
              "-> %s\n",
              Pct(late, 0.5), max_late_ms, unsent, valid ? "valid" : "INVALID");

  std::vector<Metric> e2e = {
      {"setup_s", setup_med(&SetupTimes::total_s), "s"},
      {"qps", qps, "1/s"},
      {"p50_ms", PassMedianLatency(plain, 0.5), "ms"},
      {"quality", Mean(quality), "ratio"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  // Reported, not gated: p90 spreads wider than any bound the benchmark
  // may set on a 4-vCPU VM whose host steals time; p99 needs >= 1000
  // samples; write latency exists only on ingest_mixed; fail_frac is 0 when
  // the program is right.
  const double p90 = PassMedianLatency(plain, 0.9);
  std::vector<Metric> extra = {
      {"p90_ms", p90, "ms"},
      {"fail_frac", Ratio(static_cast<double>(failed),
                          static_cast<double>(attempted)), "ratio"}};
  if (lat.size() >= 1000) extra.push_back({"p99_ms", Pct(lat, 0.99), "ms"});
  if (!open_lat.empty()) {
    extra.push_back({"open_p50_ms", Pct(open_lat, 0.5), "ms"});
    extra.push_back({"open_p90_ms", Pct(open_lat, 0.9), "ms"});
  }
  if (!mut_lat.empty()) {
    extra.push_back({"mut_p50_ms", Pct(mut_lat, 0.5), "ms"});
    extra.push_back({"mut_p90_ms", Pct(mut_lat, 0.9), "ms"});
  }
  std::printf("end-to-end (%zu latency samples, %zu requests):\n", lat.size(),
              attempted);
  for (const auto* v : {&e2e, &extra}) {
    for (const auto& m : *v) {
      std::printf("  %-14s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  if (!args.trace) {
    std::printf("%s\n", MetricsJson(correct, attempted, failed, e2e).c_str());
    std::fflush(stdout);
    stack.reset();
    if (ingest) std::filesystem::remove_all(durable_dir);
    obs::Telemetry::Global().StopTicker();
    return 0;
  }

  // --- Traced run: per-layer figures. --------------------------------------------
  // Replay every distinct read through each layer's public calls.
  std::map<uint64_t, std::vector<double>> decode_us_by_intent, encode_ms_by_intent;
  std::vector<double> parse_us, decode_us, encode_ms, serialize_us, run_ms,
      rewrite_ms, scan_ms;
  double scanned = 0, total = 0;
  core::QueryExecutor exec(stack->db.get(), &stack->seo, &stack->types);
  auto span = [&](const char* name, uint64_t parent, uint64_t req, auto&& f) {
    const uint64_t id = tracer.NextId();
    const int64_t b = NowNs();
    f(id);
    const int64_t e = NowNs();
    tracer.Add({name, id, parent, req, b, e});
    return Ms(e - b);
  };
  const size_t replay_reps = (kMinPass + in.reads.size() - 1) / in.reads.size();
  for (size_t rep = 0; rep < replay_reps; ++rep) {
    for (size_t i = 0; i < in.reads.size(); ++i) {
      const Intent& it = in.reads[i];
      span("replay.request", 0, i, [&](uint64_t root) {
        service::QueryRequest req;
        parse_us.push_back(1000 * span("net.RequestParser", root, i, [&](uint64_t) {
          net::RequestParser p;
          net::HttpRequest hr;
          p.Feed(it.http);
          if (p.Next(&hr) != net::RequestParser::Result::kReady) Die("replay parse");
        }));
        const double d = 1000 * span("wire.ParseRequestText", root, i, [&](uint64_t) {
          req = Take(service::wire::ParseRequestText(it.body), "replay decode");
        });
        decode_us.push_back(d);
        decode_us_by_intent[i].push_back(d);
        service::QueryResponse resp;
        run_ms.push_back(span("service.Run", root, i, [&](uint64_t) {
          resp = stack->svc->Run(req);
        }));
        std::string json;
        const double enc = span("wire.ResponseJson", root, i, [&](uint64_t) {
          json = service::wire::ResponseJson(resp);
        });
        encode_ms.push_back(enc);
        encode_ms_by_intent[i].push_back(enc);
        serialize_us.push_back(1000 * span("net.SerializeResponse", root, i, [&](uint64_t) {
          net::HttpResponse hr;
          hr.body = std::move(json);
          json = net::SerializeResponse(hr, true);
        }));
        // Phases (i) and (ii) by hand: a selection's rewrite runs over its
        // collection; a join's runs per operand, over the labels of the
        // pattern's left ($2 $3 $6) and right ($4 $5) subtrees.
        std::vector<std::pair<std::string, std::vector<int>>> operands;
        const tax::PatternTree* pattern = nullptr;
        if (const auto* sel = std::get_if<service::SelectSpec>(&req.op)) {
          pattern = &sel->pattern;
          operands.push_back({sel->collection, {}});
        } else if (const auto* j = std::get_if<service::JoinSpec>(&req.op)) {
          pattern = &j->pattern;
          operands.push_back({j->left, {2, 3, 6}});
          operands.push_back({j->right, {4, 5}});
        }
        double scan = 0;
        for (const auto& [collection, labels] : operands) {
          std::vector<std::string> xpaths;
          size_t expanded = 0;
          rewrite_ms.push_back(span("core.RewriteToXPaths", root, i, [&](uint64_t) {
            xpaths = Take(exec.RewriteToXPaths(*pattern, labels, &expanded), "rewrite");
          }));
          const store::Collection* coll = Take(
              static_cast<const store::Database&>(*stack->db).GetCollection(collection),
              "collection");
          for (const auto& xp : xpaths) {
            store::QueryStats qs;
            scan += span("store.QueryText", root, i, [&](uint64_t) {
              CheckOk(coll->QueryText(xp, true, &qs).status(), "QueryText");
            });
            scanned += static_cast<double>(qs.scanned_docs);
            total += static_cast<double>(qs.total_docs);
          }
        }
        scan_ms.push_back(scan);
      });
    }
  }
  // Mutations are not replayed (they change state); their wire decode is.
  std::map<size_t, double> mut_decode_us;
  for (size_t i = 0; i < in.mutations.size(); ++i) {
    mut_decode_us[i] = 1000 * TimeMs([&] {
      Take(service::wire::ParseRequestText(in.mutations[i].body), "decode");
    });
  }

  // Join client spans with handler spans by request id.
  const std::vector<Span> spans = tracer.Spans();
  std::map<uint64_t, double> handler_ms;
  for (const auto& s : spans) {
    if (std::string_view(s.name) == "net.handler") handler_ms[s.req] = Ms(s.end_ns - s.start_ns);
  }
  std::vector<double> transport, handler, queue, unattributed, rw, st,
      ev, expanded, cands, bytes_kb;
  double results = 0, cand_sum = 0, hits = 0, reads_n = 0, mut_user_bytes = 0;
  double store_sum = 0, eval_sum = 0, handler_sum = 0;
  for (const Sample* s : all) bytes_kb.push_back(static_cast<double>(s->bytes) / 1024.0);
  for (const auto& s : traced.samples) {
    auto h = handler_ms.find(s.req_id);
    if (h == handler_ms.end()) continue;
    const double hm = h->second;
    transport.push_back(std::max(0.0, Ms(s.end_ns - s.send_ns) - hm));
    handler.push_back(hm);
    queue.push_back(s.queue_wait_ms);
    double dec, enc = 0;
    if (s.mutation) {
      dec = mut_decode_us[s.intent] / 1000;
      mut_user_bytes += static_cast<double>(in.mutations[s.intent].user_bytes);
    } else {
      dec = Pct(decode_us_by_intent[s.intent], 0.5) / 1000;
      enc = Pct(encode_ms_by_intent[s.intent], 0.5);
      rw.push_back(s.rewrite_ms);
      st.push_back(s.store_ms);
      ev.push_back(s.eval_ms);
      expanded.push_back(s.expanded);
      cands.push_back(s.candidates);
      cand_sum += s.candidates;
      results += s.results;
      hits += s.prepared_hit ? 1 : 0;
      reads_n += 1;
      store_sum += s.store_ms;
      eval_sum += s.eval_ms;
      handler_sum += hm;
    }
    // The handler time no measured part covers: executor lock wait beside
    // writers, plus Run overhead outside phases i-iii. Clamped at 0 where
    // the replayed decode/encode medians overestimate this request's.
    unattributed.push_back(std::max(0.0, hm - dec - enc - s.queue_wait_ms -
                                             s.rewrite_ms - s.store_ms - s.eval_ms));
  }
  const double traced_p50 = PassMedianLatency(traced, 0.5);
  auto delta = [&](const char* name) {
    return static_cast<double>(counters1[name] - counters0[name]);
  };
  const double joins = delta("core.query.join.count");
  const double pairs = delta("core.query.join.twig.pairs_scanned");
  const double skipped = delta("core.query.join.twig.pairs_value_skipped");
  const double fallbacks = delta("core.query.join.twig.fallbacks");
  const double wal_bytes = delta("store.wal.bytes_appended");
  const double cache_h = static_cast<double>(cache_hits1 - cache_hits0);
  const double cache_m = static_cast<double>(cache_miss1 - cache_miss0);

  // Blocking path of one read: transport, wire decode, admission queue,
  // unattributed handler time, phases i-iii, wire encode.
  const double path_sum = Pct(transport, 0.5) +
                          Pct(decode_us, 0.5) / 1000 + Pct(queue, 0.5) +
                          Pct(unattributed, 0.5) + Pct(rw, 0.5) + Pct(st, 0.5) +
                          Pct(ev, 0.5) + Pct(encode_ms, 0.5);

  std::vector<Metric> layers = {
      {"net.transport_ms.p50", Pct(transport, 0.5), "ms"},
      {"net.transport_ms.p99", Pct(transport, 0.99), "ms"},
      {"net.parse_us.p50", Pct(parse_us, 0.5), "us"},
      {"net.response_kb.mean", Mean(bytes_kb), "KB"},
      {"net.server_start_ms", setup_med(&SetupTimes::start_ms), "ms"},
      {"service.handler_ms.p50", Pct(handler, 0.5), "ms"},
      {"service.handler_ms.p99", Pct(handler, 0.99), "ms"},
      {"service.wire_decode_us.p50", Pct(decode_us, 0.5), "us"},
      {"service.wire_encode_ms.p50", Pct(encode_ms, 0.5), "ms"},
      {"service.queue_wait_ms.p50", Pct(queue, 0.5), "ms"},
      {"service.queue_wait_ms.p99", Pct(queue, 0.99), "ms"},
      {"service.prepared_hit_ratio", Ratio(hits, reads_n), "ratio"},
      {"service.unattributed_ms.p50", Pct(unattributed, 0.5), "ms"},
      {"service.unattributed_ms.p99", Pct(unattributed, 0.99), "ms"},
      {"core.rewrite_ms.p50", Pct(rw, 0.5), "ms"},
      {"core.rewrite_ms.p99", Pct(rw, 0.99), "ms"},
      {"core.store_ms.p50", Pct(st, 0.5), "ms"},
      {"core.store_ms.p99", Pct(st, 0.99), "ms"},
      {"core.eval_ms.p50", Pct(ev, 0.5), "ms"},
      {"core.eval_ms.p99", Pct(ev, 0.99), "ms"},
      {"core.store_share", Ratio(store_sum, handler_sum), "ratio"},
      {"core.eval_share", Ratio(eval_sum, handler_sum), "ratio"},
      {"core.expanded_terms.mean", Mean(expanded), "count/req"},
      {"core.candidate_docs.mean", Mean(cands), "count/req"},
      {"core.result_per_candidate", Ratio(results, cand_sum), "ratio"},
      {"store.scan_ms.p50", Pct(scan_ms, 0.5), "ms"},
      {"store.scanned_per_total", Ratio(scanned, total), "ratio"},
      {"store.tree_cache.hit_ratio", Ratio(cache_h, cache_h + cache_m), "ratio"},
      {"store.load_ms", setup_med(&SetupTimes::load_ms), "ms"},
      {"store.wal.records_per_fsync",
       Ratio(static_cast<double>(wal1.records - wal0.records),
             static_cast<double>(wal1.batches - wal0.batches)), "count"},
      {"store.wal.bytes_per_user_byte", Ratio(wal_bytes, mut_user_bytes), "ratio"},
      {"tax.twig.pairs_scanned", Ratio(pairs, joins), "count/req"},
      {"tax.twig.value_skip_ratio", Ratio(skipped, pairs + skipped), "ratio"},
      {"tax.twig.fallbacks", Ratio(fallbacks, joins), "count/req"},
      {"ontology.make_ms", setup_med(&SetupTimes::onto_ms), "ms"},
      {"ontology.seo_build_ms", setup_med(&SetupTimes::seo_ms), "ms"},
      {"sim.pairwise.filter_ratio", setup_med(&SetupTimes::filter_ratio), "ratio"},
      {"client.p90_ms", p90, "ms"},
      {"client.mut_p50_ms", Pct(mut_lat, 0.5), "ms"},
      {"obs.trace_overhead", Ratio(traced_p50, PassMedianLatency(plain, 0.5)),
       "ratio"},
      {"obs.blocking_path_share", Ratio(path_sum, traced_p50), "ratio"},
  };
  std::printf("replay (%zu reps of %zu intents): service.Run p50 %.3f ms, "
              "RewriteToXPaths p50 %.3f ms, SerializeResponse p50 %.1f us\n",
              replay_reps, in.reads.size(), Pct(run_ms, 0.5), Pct(rewrite_ms, 0.5),
              Pct(serialize_us, 0.5));
  std::printf("self time by span (ms, summed):\n");
  for (const auto& [name, ms] : SelfTimesMs(spans)) {
    std::printf("  %-24s %12.3f\n", name.c_str(), ms);
  }
  std::printf("per-layer (traced run):\n");
  for (const auto& m : layers) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::filesystem::create_directories(args.trace_dir);
  const std::string trace_path = args.trace_dir + "/" + args.workload + "-seed" +
                                 std::to_string(args.seed) + ".jsonl";
  WriteSpans(spans, trace_path);
  std::printf("spans: %zu written to %s\n", spans.size(), trace_path.c_str());
  std::printf("%s\n", MetricsJson(correct, attempted, failed, layers).c_str());
  std::fflush(stdout);
  stack.reset();
  if (ingest) std::filesystem::remove_all(durable_dir);
  obs::Telemetry::Global().StopTicker();
  return 0;
}
