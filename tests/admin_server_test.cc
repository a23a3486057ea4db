#include "service/admin_server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/flight_recorder.h"
#include "common/profiler.h"
#include "common/random.h"
#include "common/telemetry.h"
#include "data/synthetic.h"
#include "market/catalog.h"
#include "market/curves.h"
#include "market/market_simulator.h"
#include "market/marketplace.h"
#include "one_shard_catalog.h"
#include "service/service.h"

namespace nimbus::service {
namespace {

using market::Marketplace;
using testutil::OneShardCatalog;

data::TrainTestSplit ClassificationSplit(uint64_t seed) {
  Rng rng(seed);
  data::ClassificationSpec spec;
  spec.num_examples = 260;
  spec.num_features = 4;
  spec.positive_prob = 0.92;
  data::Dataset all = data::GenerateClassification(spec, rng);
  return data::Split(all, 0.75, rng);
}

market::Broker::Options FastOptions() {
  market::Broker::Options options;
  options.error_curve_points = 6;
  options.samples_per_curve_point = 40;
  options.min_inverse_ncp = 1.0;
  options.max_inverse_ncp = 50.0;
  return options;
}

std::shared_ptr<const pricing::PricingFunction> SomeMbpPricing() {
  auto points = market::MakeBuyerPoints(market::ValueShape::kConcave,
                                        market::DemandShape::kUniform, 10, 1.0,
                                        50.0, 80.0, 2.0);
  market::Seller seller = *market::Seller::Create(*points);
  return *seller.NegotiatePricing();
}

Marketplace MakeMarket(uint64_t seed) {
  Marketplace market(ClassificationSplit(seed), FastOptions());
  EXPECT_TRUE(market
                  .AddOffering(ml::ModelKind::kLogisticRegression, 0.01,
                               SomeMbpPricing())
                  .ok());
  return market;
}

PurchaseRequest MakeRequest(int i) {
  PurchaseRequest request;
  request.buyer_id = "buyer-" + std::to_string(i % 5);
  request.model = ml::ModelKind::kLogisticRegression;
  request.inverse_ncp = 2.0 + static_cast<double>(i % 10);
  return request;
}

// Sends one raw HTTP request to 127.0.0.1:port and returns everything
// the server wrote back (the server closes after one response).
std::string HttpRaw(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      break;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string HttpGet(int port, const std::string& path) {
  return HttpRaw(port, "GET " + path +
                           " HTTP/1.1\r\nHost: localhost\r\n"
                           "Connection: close\r\n\r\n");
}

// Body = everything after the blank line separating headers.
std::string Body(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

// One Prometheus exposition line is a comment ("# HELP ...", "# TYPE
// ...") or a sample: name{labels} value, where the value parses as a
// double. Anything else would break a real scraper.
bool IsValidPrometheusLine(const std::string& line) {
  if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
    return true;
  }
  size_t i = 0;
  if (i >= line.size() ||
      !(std::isalpha(static_cast<unsigned char>(line[i])) || line[i] == '_')) {
    return false;
  }
  while (i < line.size() && (std::isalnum(static_cast<unsigned char>(line[i])) ||
                             line[i] == '_' || line[i] == ':')) {
    ++i;
  }
  if (i < line.size() && line[i] == '{') {
    const size_t close = line.find('}', i);
    if (close == std::string::npos) {
      return false;
    }
    i = close + 1;
  }
  if (i >= line.size() || line[i] != ' ') {
    return false;
  }
  char* end = nullptr;
  std::strtod(line.c_str() + i + 1, &end);
  return end != nullptr && *end == '\0';
}

class AdminServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Reset();
    telemetry::FlightRecorder::Global().ClearForTest();
  }
  void TearDown() override {
    fault::Reset();
    telemetry::SetTracingEnabled(false);
  }
};

TEST_F(AdminServerTest, ServesIndexAndUnknownPathsOnEphemeralPort) {
  AdminServer server(nullptr, AdminServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  // Double-start is a typed error, not a second listener.
  EXPECT_EQ(server.Start().code(), StatusCode::kFailedPrecondition);

  const std::string index = HttpGet(server.port(), "/");
  EXPECT_NE(index.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(index.find("nimbus admin endpoint"), std::string::npos);
  EXPECT_NE(index.find("/metrics"), std::string::npos);

  const std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404 Not Found"), std::string::npos);

  // Query strings are stripped, not treated as part of the path.
  const std::string with_query = HttpGet(server.port(), "/healthz?verbose=1");
  EXPECT_NE(with_query.find("HTTP/1.1 200 OK"), std::string::npos);

  server.Stop();
  server.Stop();  // Idempotent.
}

TEST_F(AdminServerTest, RejectsNonGetAndGarbageRequests) {
  AdminServer server(nullptr, AdminServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const std::string post =
      HttpRaw(server.port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405 Method Not Allowed"), std::string::npos);
  const std::string garbage = HttpRaw(server.port(), "\r\n\r\n");
  EXPECT_NE(garbage.find("HTTP/1.1 400 Bad Request"), std::string::npos);
}

TEST_F(AdminServerTest, MetricsScrapeIsValidPrometheusLineByLine) {
  OneShardCatalog store([] { return MakeMarket(31); });
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  MarketService service(store.catalog(), options);
  ASSERT_TRUE(service.Start().ok());
  std::vector<std::future<PurchaseResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.Submit(MakeRequest(i)));
  }
  for (auto& f : futures) {
    ASSERT_TRUE(f.get().status.ok());
  }

  AdminServer server(&service, AdminServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const std::string response = HttpGet(server.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);

  const std::string body = Body(response);
  std::istringstream lines(body);
  std::string line;
  int samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) {
      continue;
    }
    EXPECT_TRUE(IsValidPrometheusLine(line)) << "bad line: " << line;
    if (line[0] != '#') {
      ++samples;
    }
  }
  EXPECT_GT(samples, 10);
  // The serving counters and the SLO gauges must both be exported.
  EXPECT_NE(body.find("nimbus_service_submitted_total"), std::string::npos);
  EXPECT_NE(body.find("nimbus_service_request_latency_us_bucket"),
            std::string::npos);
  EXPECT_NE(body.find("nimbus_slo_availability"), std::string::npos);
  EXPECT_NE(body.find("nimbus_slo_fast_burn_rate"), std::string::npos);
  EXPECT_NE(body.find("nimbus_admin_requests_total"), std::string::npos);

  server.Stop();
  EXPECT_TRUE(service.Drain().ok());
}

TEST_F(AdminServerTest, HealthzFlipsToUnavailableAcrossDrain) {
  OneShardCatalog store([] { return MakeMarket(32); });
  ServiceOptions options;
  options.num_workers = 1;
  MarketService service(store.catalog(), options);
  ASSERT_TRUE(service.Start().ok());
  AdminServer server(&service, AdminServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  std::string response = HttpGet(server.port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(Body(response).find("ok"), std::string::npos);

  ASSERT_TRUE(service.Drain().ok());
  response = HttpGet(server.port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 503 Service Unavailable"),
            std::string::npos);
  EXPECT_NE(Body(response).find("draining"), std::string::npos);

  // Without a service to consult, /healthz stays optimistic.
  AdminServer bare(nullptr, AdminServerOptions{});
  ASSERT_TRUE(bare.Start().ok());
  EXPECT_NE(HttpGet(bare.port(), "/healthz").find("HTTP/1.1 200 OK"),
            std::string::npos);
}

// The CI curl smoke needs to know WHICH shard is down, not just that
// something is: /healthz enumerates unhealthy components by name, and
// /shardz serves the full per-shard rollup.
TEST_F(AdminServerTest, HealthzNamesSickShardAndShardzReportsRollup) {
  static int counter = 0;
  market::CatalogOptions catalog_options;
  catalog_options.root_dir = ::testing::TempDir() + "/admin_shards_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(counter++);
  market::Catalog catalog(catalog_options);
  auto factory = []() -> StatusOr<Marketplace> { return MakeMarket(47); };
  ASSERT_TRUE(catalog.AddProduct("wine", factory).ok());
  ASSERT_TRUE(catalog.AddProduct("cheese", factory).ok());

  ServiceOptions options;
  options.num_workers = 1;
  MarketService service(&catalog, options);
  ASSERT_TRUE(service.Start().ok());
  AdminServer server(&service, AdminServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // All shards serving: 200 with a bare "ok" body.
  std::string response = HttpGet(server.port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(Body(response), "ok\n");

  // Quarantine one shard (operator drill) and re-probe: 503, and the
  // body names exactly the sick shard — the healthy one is absent.
  catalog.Find("wine")->Quarantine("drill: journal poisoned");
  response = HttpGet(server.port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 503 Service Unavailable"),
            std::string::npos);
  const std::string body = Body(response);
  EXPECT_NE(body.find("unhealthy"), std::string::npos) << body;
  EXPECT_NE(body.find("shard wine: quarantined"), std::string::npos) << body;
  EXPECT_EQ(body.find("cheese"), std::string::npos) << body;

  // /shardz carries the per-shard rollup for both shards either way.
  const std::string shardz = Body(HttpGet(server.port(), "/shardz"));
  EXPECT_NE(shardz.find("\"product\":\"wine\""), std::string::npos) << shardz;
  EXPECT_NE(shardz.find("\"state\":\"quarantined\""), std::string::npos);
  EXPECT_NE(shardz.find("\"product\":\"cheese\""), std::string::npos);
  EXPECT_NE(shardz.find("\"state\":\"serving\""), std::string::npos);
  EXPECT_NE(shardz.find("\"quarantines\":1"), std::string::npos) << shardz;

  // The index advertises the rollup view.
  EXPECT_NE(HttpGet(server.port(), "/").find("/shardz"), std::string::npos);

  // Recovery re-admits the shard and /healthz goes green again.
  EXPECT_EQ(catalog.RecoverQuarantined(/*force=*/true), 1);
  response = HttpGet(server.port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);

  server.Stop();
  EXPECT_TRUE(service.Drain().ok());
}

TEST_F(AdminServerTest, TracezSurfacesErroredRequestWithSpans) {
  telemetry::SetTracingEnabled(true);
  telemetry::ClearTraceForTest();
  OneShardCatalog store([] { return MakeMarket(33); });
  ServiceOptions options;
  options.num_workers = 1;
  MarketService service(store.catalog(), options);
  ASSERT_TRUE(service.Start().ok());

  // An offering that does not exist fails in the worker, so the trace
  // has a full service.request span tree and a nonzero status code.
  PurchaseRequest unknown = MakeRequest(0);
  unknown.model = ml::ModelKind::kLinearSvm;
  const PurchaseResult failed = service.Submit(std::move(unknown)).get();
  EXPECT_EQ(failed.status.code(), StatusCode::kNotFound);
  EXPECT_NE(failed.trace_id, 0u);

  AdminServer server(&service, AdminServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const std::string body = Body(HttpGet(server.port(), "/tracez"));
  EXPECT_NE(body.find("\"trace_id\":" + std::to_string(failed.trace_id)),
            std::string::npos);
  EXPECT_NE(body.find("\"status_code\":" +
                      std::to_string(static_cast<int>(StatusCode::kNotFound))),
            std::string::npos);
  EXPECT_NE(body.find("service.request"), std::string::npos);
  EXPECT_NE(body.find("\"notes\":"), std::string::npos);
  EXPECT_NE(body.find("\"tracing_enabled\":true"), std::string::npos);

  server.Stop();
  EXPECT_TRUE(service.Drain().ok());
}

TEST_F(AdminServerTest, FlightzServesTheRing) {
  telemetry::FlightRecord record;
  record.trace_id = 4242;
  record.ticket = 7;
  telemetry::FlightRecorder::Global().Record(record);

  AdminServer server(nullptr, AdminServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const std::string response = HttpGet(server.port(), "/flightz");
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  const std::string body = Body(response);
  EXPECT_NE(body.find("\"flight_records\":["), std::string::npos);
  EXPECT_NE(body.find("\"trace_id\":4242"), std::string::npos);
  EXPECT_NE(body.find("\"capacity\":1024"), std::string::npos);
}

TEST_F(AdminServerTest, ConcurrentScrapesDuringLiveTraffic) {
  OneShardCatalog store([] { return MakeMarket(34); });
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 256;
  MarketService service(store.catalog(), options);
  ASSERT_TRUE(service.Start().ok());
  AdminServer server(&service, AdminServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  const int port = server.port();
  std::atomic<int> bad_responses{0};
  std::vector<std::thread> scrapers;
  const char* paths[] = {"/metrics", "/healthz", "/tracez", "/flightz"};
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      for (int i = 0; i < 10; ++i) {
        const std::string response = HttpGet(port, paths[(t + i) % 4]);
        if (response.rfind("HTTP/1.1 ", 0) != 0) {
          bad_responses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<std::future<PurchaseResult>> futures;
  for (int i = 0; i < 60; ++i) {
    futures.push_back(service.Submit(MakeRequest(i)));
  }
  int ok_count = 0;
  for (auto& f : futures) {
    ok_count += f.get().status.ok() ? 1 : 0;
  }
  for (std::thread& t : scrapers) {
    t.join();
  }
  EXPECT_EQ(bad_responses.load(), 0);
  EXPECT_GT(ok_count, 0);

  server.Stop();
  EXPECT_TRUE(service.Drain().ok());
}

TEST_F(AdminServerTest, LargeResponseSurvivesTinySendBuffer) {
  // Regression: the response writer used to assume one send() takes the
  // whole body. With SO_SNDBUF shrunk to its floor, a /metrics payload
  // (tens of KB once the labeled families exist) needs many partial
  // send()s — a truncated scrape here means the write loop regressed.
  OneShardCatalog store([] { return MakeMarket(35); });
  ServiceOptions options;
  options.num_workers = 2;
  MarketService service(store.catalog(), options);
  ASSERT_TRUE(service.Start().ok());
  std::vector<std::future<PurchaseResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.Submit(MakeRequest(i)));
  }
  for (auto& f : futures) {
    ASSERT_TRUE(f.get().status.ok());
  }

  AdminServerOptions small_buf;
  small_buf.sndbuf_bytes = 128;  // Kernel clamps to its minimum (~2 KB).
  AdminServer server(&service, small_buf);
  ASSERT_TRUE(server.Start().ok());

  const std::string expected = server.HandlePath("/metrics");
  ASSERT_GT(expected.size(), 4096u);  // Must actually exceed the buffer.
  for (int i = 0; i < 3; ++i) {
    const std::string got = HttpGet(server.port(), "/metrics");
    // Byte-for-byte complete (modulo counters moving between builds:
    // compare sizes loosely and the tail exactly — a truncated write
    // loses the end first).
    EXPECT_GT(got.size(), expected.size() / 2);
    EXPECT_EQ(got.substr(got.size() - 1), "\n");
    EXPECT_NE(got.find("nimbus_service_submitted_total"), std::string::npos);
    // The Content-Length header must match the body actually received.
    const size_t header_at = got.find("Content-Length: ");
    ASSERT_NE(header_at, std::string::npos);
    const long long advertised =
        std::atoll(got.c_str() + header_at + std::strlen("Content-Length: "));
    EXPECT_EQ(static_cast<long long>(Body(got).size()), advertised);
  }

  server.Stop();
  EXPECT_TRUE(service.Drain().ok());
}

TEST_F(AdminServerTest, ProfilezServesCpuWindow) {
  AdminServer server(nullptr, AdminServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  // A short window over a near-idle process: 200 with a folded-stack
  // (possibly empty) body is the contract; symbol content is covered by
  // profiler_test where a spinner guarantees samples.
  const std::string response =
      HttpGet(server.port(), "/profilez?type=cpu&seconds=0.2");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  server.Stop();
}

TEST_F(AdminServerTest, ProfilezRejectsBadParameters) {
  AdminServer server(nullptr, AdminServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_NE(HttpGet(server.port(), "/profilez?type=heap")
                .find("HTTP/1.1 400 Bad Request"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "/profilez?seconds=0")
                .find("HTTP/1.1 400 Bad Request"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "/profilez?seconds=bogus")
                .find("HTTP/1.1 400 Bad Request"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "/profilez?seconds=9999")
                .find("HTTP/1.1 400 Bad Request"),
            std::string::npos);
  server.Stop();
}

TEST_F(AdminServerTest, ConcurrentProfilezAnswers503) {
  AdminServer server(nullptr, AdminServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();
  auto slow = std::async(std::launch::async, [port] {
    return HttpGet(port, "/profilez?type=cpu&seconds=2");
  });
  // Wait for the first window to arm the sampler, then collide with it.
  for (int i = 0; i < 1000 && !prof::CpuProfiler::Global().running(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(prof::CpuProfiler::Global().running());
  const std::string second =
      HttpGet(port, "/profilez?type=contention&seconds=0.1");
  EXPECT_NE(second.find("HTTP/1.1 503 Service Unavailable"),
            std::string::npos)
      << second;
  const std::string first = slow.get();
  EXPECT_NE(first.find("HTTP/1.1 200 OK"), std::string::npos);
  server.Stop();
}

TEST_F(AdminServerTest, StopAbortsInFlightProfileWindow) {
  AdminServer server(nullptr, AdminServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();
  auto slow = std::async(std::launch::async, [port] {
    return HttpGet(port, "/profilez?type=cpu&seconds=30");
  });
  for (int i = 0; i < 1000 && !prof::CpuProfiler::Global().running(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(prof::CpuProfiler::Global().running());
  // Stop must not wait out the 30 s window.
  const auto stop_start = std::chrono::steady_clock::now();
  server.Stop();
  const double stop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    stop_start)
          .count();
  EXPECT_LT(stop_seconds, 10.0);
  // The aborted request still got a well-formed response (the window
  // returns early with whatever it captured).
  const std::string response = slow.get();
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
}

TEST_F(AdminServerTest, HandlePathRoutesWithoutASocket) {
  AdminServer server(nullptr, AdminServerOptions{});
  EXPECT_NE(server.HandlePath("/metrics").find("HTTP/1.1 200 OK"),
            std::string::npos);
  EXPECT_NE(server.HandlePath("/healthz").find("HTTP/1.1 200 OK"),
            std::string::npos);
  EXPECT_NE(server.HandlePath("/tracez").find("application/json"),
            std::string::npos);
  EXPECT_NE(server.HandlePath("/flightz").find("application/json"),
            std::string::npos);
  // No service -> no auditor: /auditz still answers 200 so unconditional
  // CI smoke curls work, and says the auditor is absent.
  const std::string auditz = server.HandlePath("/auditz");
  EXPECT_NE(auditz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(auditz.find("{\"enabled\":false}"), std::string::npos) << auditz;
  const std::string statz = server.HandlePath("/statz");
  EXPECT_NE(statz.find("application/json"), std::string::npos);
  EXPECT_NE(statz.find("\"step_seconds\":"), std::string::npos) << statz;
  EXPECT_NE(server.HandlePath("/statz?points=2").find("HTTP/1.1 200 OK"),
            std::string::npos);
  EXPECT_NE(server.HandlePath("/missing").find("HTTP/1.1 404 Not Found"),
            std::string::npos);
}

TEST_F(AdminServerTest, TracezJoinsAuditFlaggedFlightWithExemplars) {
  // An audit violation files a flight with status 0 and trivial
  // latency — /tracez must surface it anyway (audit_violation flag)
  // and join it against the latency histograms' trace exemplars.
  telemetry::FlightRecord record;
  record.trace_id = 777001;
  record.ticket = 3;
  record.status_code = 0;
  record.total_us = 5.0;
  record.audit_violation = true;
  telemetry::FlightRecorder::Global().Record(record);
  telemetry::Registry::Global()
      .GetHistogram("tracez_join_test_latency_us")
      .Observe(12.0, /*trace_id=*/777001);

  AdminServer server(nullptr, AdminServerOptions{});
  const std::string body = server.HandlePath("/tracez");
  EXPECT_NE(body.find("\"trace_id\":777001"), std::string::npos) << body;
  EXPECT_NE(body.find("\"audit_violation\":true"), std::string::npos);
  // The exemplar join names the metric and the bucket citing the trace.
  EXPECT_NE(body.find("\"exemplar_of\":["), std::string::npos);
  EXPECT_NE(body.find("tracez_join_test_latency_us{le="), std::string::npos)
      << body;

  // A healthy, fast, non-audit flight stays out of /tracez.
  telemetry::FlightRecord quiet;
  quiet.trace_id = 777002;
  quiet.total_us = 5.0;
  telemetry::FlightRecorder::Global().Record(quiet);
  EXPECT_EQ(server.HandlePath("/tracez").find("\"trace_id\":777002"),
            std::string::npos);
}

}  // namespace
}  // namespace nimbus::service
