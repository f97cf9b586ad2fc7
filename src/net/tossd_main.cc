// tossd: the TOSS query engine behind an HTTP port.
//
// Loads a synthetic bibliographic world (the same generator the benches
// use), builds the SEO, and serves the /v1 wire protocol until SIGINT /
// SIGTERM:
//
//   ./build/src/net/tossd --port 8080 --papers 500
//   curl -s localhost:8080/healthz
//   curl -s localhost:8080/v1/query -d \
//     '{"text": "SELECT $1 FROM dblp MATCH $1/$2 WHERE $1.tag = \
//       \"inproceedings\" & $2.tag = \"author\" & \
//       $2.content ~ \"jeffrey ullman\""}'
//
// Flags: --port N (default 8080; 0 picks an ephemeral port and prints it),
// --papers N (synthetic corpus size, default 500), --epsilon F (SEO
// threshold, default 3.0), --workers N (cap on handler jobs in flight;
// the threads that run them are the process-wide scheduler's, one per
// usable CPU and at least two, so the real bound is the smaller of the
// two), --max-connections N.

#include <semaphore.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/toss.h"
#include "data/bib_generator.h"
#include "net/http_server.h"
#include "net/toss_handler.h"
#include "obs/telemetry.h"
#include "service/toss_service.h"

using namespace toss;

namespace {

// POSIX sem_post is on the async-signal-safe list;
// std::binary_semaphore::release is not.
sem_t g_shutdown;

void HandleSignal(int) { ::sem_post(&g_shutdown); }

void Die(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "tossd: %s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 8080;
  size_t papers = 500;
  double epsilon = 3.0;
  net::ServerOptions server_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tossd: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      port = static_cast<uint16_t>(std::atoi(value()));
    } else if (arg == "--papers") {
      papers = static_cast<size_t>(std::atol(value()));
    } else if (arg == "--epsilon") {
      epsilon = std::atof(value());
    } else if (arg == "--workers") {
      server_options.worker_threads = static_cast<size_t>(std::atol(value()));
    } else if (arg == "--max-connections") {
      server_options.max_connections = static_cast<size_t>(std::atol(value()));
    } else {
      std::fprintf(stderr,
                   "usage: tossd [--port N] [--papers N] [--epsilon F]"
                   " [--workers N] [--max-connections N]\n");
      return 2;
    }
  }

  // The world: synthetic dblp papers, their ontology, and the SEO.
  data::BibConfig cfg;
  cfg.seed = 19;
  cfg.num_papers = papers;
  data::BibWorld world = data::GenerateWorld(cfg);

  store::Database db;
  Die(data::LoadIntoCollection(&db, "dblp",
                               data::EmitDblp(world, 0, papers, cfg)),
      "load dblp");

  auto coll = db.GetCollection("dblp");
  Die(coll.status(), "dblp");
  std::vector<const xml::XmlDocument*> docs;
  for (store::DocId id : (*coll)->AllDocs()) {
    docs.push_back(&(*coll)->document(id));
  }
  ontology::OntologyMakerOptions onto_opts;
  onto_opts.content_tags = data::DblpContentTags();
  auto onto = ontology::MakeOntologyForDocuments(
      docs, lexicon::BuiltinBibliographicLexicon(), onto_opts);
  Die(onto.status(), "ontology");

  core::SeoBuilder builder;
  builder.AddInstanceOntology(std::move(onto).value());
  auto measure = sim::MakeMeasure("levenshtein");
  Die(measure.status(), "measure");
  builder.SetMeasure(std::move(measure).value());
  builder.SetEpsilon(epsilon);
  auto seo = builder.Build();
  Die(seo.status(), "SEO build");

  core::TypeSystem types = core::MakeBibliographicTypeSystem();

  service::ServiceOptions service_options;
  service_options.max_inflight = 4;
  service::TossService service(&db, &*seo, &types, service_options);

  obs::Telemetry::Global().StartTicker();

  server_options.port = port;
  net::HttpServer server(net::MakeTossHandler(&service), server_options);
  Die(server.Start(), "server start");

  std::printf("tossd: %zu papers, epsilon %.1f, %zu SEO nodes\n", papers,
              epsilon, seo->TotalNodeCount());
  std::printf("tossd: serving http://%s:%u/v1 (Ctrl-C to stop)\n",
              server.options().bind_address.c_str(), server.port());
  std::fflush(stdout);

  ::sem_init(&g_shutdown, 0, 0);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (::sem_wait(&g_shutdown) != 0 && errno == EINTR) {
  }

  std::printf("tossd: shutting down\n");
  server.Stop();
  obs::Telemetry::Global().StopTicker();
  return 0;
}
