// serve-http: the online path. An SGC model is trained through the
// pipeline, frozen, and served by a `serve::BatchingServer` (2-hop
// `KHopEmbedder`, cold cache) behind `net::HttpFrontDoor`, to three
// tenants weighted 1:2:4. About 80% of requests are Zipf(1.1) over a hot
// set (cache hits once warm) and 20% are uniform over all nodes (misses,
// which run the embedder and write the cache), so a change that speeds
// reads at the cost of writes shows as p50 improving while p99 worsens.
//
// Load comes from one process with at most nproc generator threads, each
// owning one keep-alive `net::HttpClient` (the client is not thread-safe).
// A thread sends each request when it is due and reads in-order responses
// in between; latency is timed from the due time, so generator or server
// stalls charge the requests queued behind them.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/dataset.h"
#include "core/pipeline.h"
#include "harness.h"
#include "models/decoupled.h"
#include "net/client.h"
#include "net/json.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/batching_server.h"
#include "serve/frozen_model.h"
#include "serve/handoff.h"
#include "serve/khop_embedder.h"

namespace perfbench {
namespace {

using sgnn::graph::NodeId;

constexpr NodeId kNodes = 100000;
constexpr int kClasses = 4;
constexpr int64_t kFeatureDim = 32;
constexpr int kHops = 2;
constexpr NodeId kHotNodes = 2000;
constexpr double kZipfS = 1.1;
constexpr double kHotShare = 0.8;
constexpr int kSetups = 3;
constexpr int kProbes = 24;
// Closed-loop bursts: requests per burst and requests in flight per
// connection. Two in flight on each of four connections keeps the server
// busy without saturating the batcher, whose batch sizes (and so the
// throughput) swing widely from run to run at deeper pipelines.
// Every set-up runs a fixed number of measured bursts, so the work (and the
// cache's hit/miss mix) does not depend on how fast the server is.
constexpr int kBurstRequests = 5000;
constexpr int kBurstDepth = 2;
constexpr int kBursts = 4;
// Shares of --seconds spent on the nominal rate and the ladder.
constexpr double kNominalShare = 0.35;
constexpr double kLadderShare = 0.35;
// Open-loop rates, fixed from the closed-loop throughput measured on the
// reference host (4 cores, about 12k requests/s) so that every commit is
// loaded with the same schedule. The nominal rate is about half of it.
constexpr double kNominalRps = 6000.0;
const std::vector<double> kLadderRps = {4000, 6000, 8000, 10000, 12000, 14000};
// serve_max_rps: the highest ladder rate whose p99 stays within this limit
// with no backlog growth.
constexpr double kP99LimitMs = 5.0;
const char* const kTenants[] = {"t1", "t2", "t4"};
constexpr double kTenantWeights[] = {1.0, 2.0, 4.0};

/// Zipf(s) over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(sgnn::common::Rng* rng) const {
    const double u = rng->Uniform();
    const size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct Request {
  NodeId node = 0;
  int tenant = 0;
  double due_s = 0.0;  ///< Offset from the phase start (open loop).
};

/// What happened to one request, in seconds from the phase start.
struct Outcome {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = -1.0;  ///< < 0: no response.
  bool ok = false;
};

std::string Body(const Request& r) {
  return "{\"node\":" + std::to_string(r.node) + ",\"tenant\":\"" +
         kTenants[r.tenant] + "\"}";
}

/// Seeded traffic mix: node ids (80% Zipf over the hot set, 20% uniform)
/// and tenants.
class Traffic {
 public:
  explicit Traffic(uint64_t seed) : rng_(seed), zipf_(kHotNodes, kZipfS) {
    sgnn::common::Rng pick(sgnn::common::MixSeed(seed, 7));
    for (NodeId i = 0; i < kHotNodes; ++i) {
      hot_.push_back(static_cast<NodeId>(pick.UniformInt(kNodes)));
    }
  }
  Request Next() {
    Request r;
    r.node = rng_.Uniform() < kHotShare
                 ? hot_[zipf_.Sample(&rng_)]
                 : static_cast<NodeId>(rng_.UniformInt(kNodes));
    r.tenant = static_cast<int>(rng_.UniformInt(3));
    return r;
  }
  /// Poisson arrivals at `rps` for `seconds`.
  std::vector<Request> OpenLoop(double rps, double seconds) {
    std::vector<Request> out;
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng_.Uniform()) / rps;
      if (t >= seconds) break;
      Request r = Next();
      r.due_s = t;
      out.push_back(r);
    }
    return out;
  }

 private:
  sgnn::common::Rng rng_;
  Zipf zipf_;
  std::vector<NodeId> hot_;
};

bool ResponseOk(const sgnn::common::StatusOr<sgnn::net::HttpResponse>& resp,
                NodeId node) {
  return resp.ok() && resp.value().status_code == 200 &&
         resp.value().body.find("\"node\":" + std::to_string(node) + ",") !=
             std::string::npos;
}

Clock::time_point At(Clock::time_point start, double s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(s));
}

struct Driven {
  Clock::time_point start;
  std::vector<std::vector<Outcome>> outcomes;  ///< Per connection.
};

/// Drives `requests` (already split per connection) through `clients`.
/// Open loop when `depth` is 0: each request is sent at its due time.
/// Closed loop otherwise: up to `depth` requests in flight per connection,
/// due time = send time.
Driven Drive(std::vector<sgnn::net::HttpClient>* clients,
             const std::vector<std::vector<Request>>& requests, int depth) {
  std::vector<std::vector<Outcome>> outcomes(requests.size());
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (size_t c = 0; c < requests.size(); ++c) {
    threads.emplace_back([&, c] {
      sgnn::net::HttpClient& client = (*clients)[c];
      const std::vector<Request>& reqs = requests[c];
      std::vector<Outcome>& outs = outcomes[c];
      outs.resize(reqs.size());
      size_t next_send = 0;
      size_t next_recv = 0;
      bool broken = false;
      while (next_recv < reqs.size() && !broken) {
        const double now = SecondsSince(start);
        const bool can_send =
            next_send < reqs.size() &&
            (depth == 0 ? now >= reqs[next_send].due_s
                        : next_send - next_recv < static_cast<size_t>(depth));
        if (can_send) {
          Outcome& o = outs[next_send];
          o.sent_s = now;
          o.due_s = depth == 0 ? reqs[next_send].due_s : now;
          const std::string body = Body(reqs[next_send]);
          if (!client.SendRequest("POST", "/v1/infer", body,
                                  "application/json")
                   .ok()) {
            broken = true;
          }
          ++next_send;
          continue;
        }
        if (next_recv < next_send) {
          const auto resp = client.ReadResponse();
          Outcome& o = outs[next_recv];
          o.done_s = SecondsSince(start);
          o.ok = ResponseOk(resp, reqs[next_recv].node);
          if (!resp.ok()) broken = true;
          ++next_recv;
          continue;
        }
        std::this_thread::sleep_until(At(start, reqs[next_send].due_s));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return {start, std::move(outcomes)};
}

std::vector<std::vector<Request>> SplitRoundRobin(
    const std::vector<Request>& all, size_t parts) {
  std::vector<std::vector<Request>> out(parts);
  for (size_t i = 0; i < all.size(); ++i) out[i % parts].push_back(all[i]);
  return out;
}

/// Latency and generator statistics of one phase.
struct PhaseStats {
  size_t requests = 0;
  size_t failed = 0;
  std::vector<double> latency_ms;  ///< From due time to response.
  double late_p99_ms = 0.0;        ///< Send time minus due time.
  double backlog_end = 0.0;  ///< Due by the phase end but not yet answered.
  double wall_s = 0.0;       ///< First due to last response.
};

/// `phase_end_s` is where the backlog is read; `record_spans` adds one
/// `serve.request` span per answered request, from due time to response.
PhaseStats Summarize(const Driven& driven, double phase_end_s,
                     bool record_spans) {
  PhaseStats p;
  std::vector<double> late;
  double last_done = 0.0;
  int64_t req_id = 0;
  SpanLog& log = SpanLog::Get();
  for (const auto& conn : driven.outcomes) {
    for (const Outcome& o : conn) {
      ++p.requests;
      ++req_id;
      if (!o.ok || o.done_s < 0) {
        ++p.failed;
        if (o.due_s <= phase_end_s) p.backlog_end += 1;
        continue;
      }
      p.latency_ms.push_back(1e3 * (o.done_s - o.due_s));
      late.push_back(1e3 * (o.sent_s - o.due_s));
      last_done = std::max(last_done, o.done_s);
      if (o.due_s <= phase_end_s && o.done_s > phase_end_s) p.backlog_end += 1;
      if (record_spans) {
        log.Record("serve.request", At(driven.start, o.due_s),
                   At(driven.start, o.done_s), req_id);
      }
    }
  }
  p.late_p99_ms = Quantile(late, 0.99);
  p.wall_s = last_done;
  return p;
}

struct Stack {
  sgnn::core::Dataset dataset;
  sgnn::core::PipelineReport trained;
  std::unique_ptr<sgnn::obs::MetricsRegistry> metrics;
  std::unique_ptr<sgnn::serve::BatchingServer> server;
  std::unique_ptr<sgnn::net::HttpFrontDoor> door;
  std::shared_ptr<sgnn::serve::KHopEmbedder> embedder;
};

sgnn::serve::ServeConfig ServeConfigFor() {
  sgnn::serve::ServeConfig config;
  config.max_batch = 32;
  config.max_delay_micros = 200;
  config.num_workers = 2;
  config.queue_capacity = 65536;
  return config;
}

/// Generation, SGC training through the pipeline, server construction and
/// front-door start. The embedding function wraps `KHopEmbedder::Embed`
/// in a span, exactly as `serve::ServePipeline` wires it otherwise.
bool SetUp(uint64_t seed, Stack* s) {
  {
    Span span("graph.generate");
    sgnn::core::SbmDatasetConfig config;
    config.sbm = {.num_nodes = kNodes,
                  .num_classes = kClasses,
                  .avg_degree = 10.0,
                  .homophily = 0.7};
    config.feature_dim = kFeatureDim;
    config.feature_noise = 1.0;
    s->dataset = sgnn::core::MakeSbmDataset(config, seed);
  }
  {
    Span span("core.train");
    sgnn::core::Pipeline pipeline;
    pipeline.SetModel(
        "sgc", [](const sgnn::graph::CsrGraph& g, const sgnn::tensor::Matrix& x,
                  std::span<const int> labels,
                  const sgnn::models::NodeSplits& splits,
                  const sgnn::nn::TrainConfig& cfg) {
          return sgnn::models::TrainSgc(g, x, labels, splits, cfg,
                                        sgnn::models::SgcConfig{.hops = kHops});
        });
    sgnn::nn::TrainConfig config;
    config.epochs = 10;
    config.patience = 10;
    config.hidden_dim = 32;
    config.lr = 0.02;
    config.batch_size = 1024;
    config.seed = seed;
    s->trained = pipeline.Run(s->dataset, config);
    if (!s->trained.status.ok() || s->trained.model.fitted_head == nullptr) {
      return false;
    }
  }
  Span span("net.start");
  s->metrics = std::make_unique<sgnn::obs::MetricsRegistry>();
  sgnn::core::RunContext ctx;
  ctx.metrics = s->metrics.get();
  s->embedder = std::make_shared<sgnn::serve::KHopEmbedder>(
      s->dataset.graph, s->dataset.features, kHops);
  auto embedder = s->embedder;
  sgnn::serve::EmbeddingFn embed = [embedder](NodeId node,
                                              std::span<float> out) {
    Span span("subgraph.embed", node);
    embedder->Embed(node, out);
    return sgnn::common::Status::OK();
  };
  s->server = std::make_unique<sgnn::serve::BatchingServer>(
      sgnn::serve::FrozenModel::FromMlp(*s->trained.model.fitted_head),
      std::move(embed), s->dataset.num_nodes(), ServeConfigFor(), ctx);
  sgnn::net::HttpFrontDoorConfig door_config;
  for (int t = 0; t < 3; ++t) {
    door_config.admission.tenants[kTenants[t]].weight = kTenantWeights[t];
  }
  door_config.admission.per_tenant_capacity = 16384;
  s->door = std::make_unique<sgnn::net::HttpFrontDoor>(s->server.get(),
                                                       door_config, ctx);
  return s->door->Start().ok();
}

void TearDown(Stack* s) {
  if (s->door) s->door->Shutdown();
  if (s->server) s->server->Shutdown();
  s->door.reset();
  s->server.reset();
}

/// Probe check: on a fresh server, a fixed node sequence over HTTP must
/// return the bytes an identically built in-process server renders.
void CheckProbes(Stack* s, uint64_t seed, Report* report) {
  auto reference_or = sgnn::serve::ServePipeline(s->dataset, s->trained,
                                                 kHops, ServeConfigFor());
  report->Check(reference_or.ok(), "ServePipeline failed");
  auto client_or = sgnn::net::HttpClient::Connect("127.0.0.1", s->door->port());
  report->Check(client_or.ok(), "probe client could not connect");
  if (!reference_or.ok() || !client_or.ok()) return;
  sgnn::net::HttpClient client = std::move(client_or).value();
  Traffic traffic(sgnn::common::MixSeed(seed, 11));
  std::vector<Request> probes;
  for (int i = 0; i < kProbes; ++i) {
    // Every node twice, so both the miss and the hit path are compared.
    if (i % 2 == 1) {
      probes.push_back(probes.back());
    } else {
      probes.push_back(traffic.Next());
    }
  }
  for (const Request& probe : probes) {
    sgnn::serve::InferenceRequest request(probe.node);
    request.tenant_id = kTenants[probe.tenant];
    auto future = reference_or.value()->Submit(request);
    const std::string expected =
        future.ok()
            ? sgnn::net::RenderInferResponse(std::move(future).value().get())
            : std::string();
    auto response = client.Post("/v1/infer", Body(probe));
    const bool same = response.ok() && response.value().status_code == 200 &&
                      response.value().body == expected;
    report->Check(same, "HTTP probe for node " + std::to_string(probe.node) +
                            " differs from in-process Submit");
  }
  client.Close();
  reference_or.value()->Shutdown();
}

}  // namespace

void RunServeHttp(const Args& args, Report* report) {
  SpanLog& log = SpanLog::Get();
  const size_t conns = static_cast<size_t>(std::clamp(args.threads, 1, 4));
  Traffic traffic(args.seed);
  auto count = [&](const PhaseStats& p, const char* phase) {
    report->Count(static_cast<int64_t>(p.requests),
                  static_cast<int64_t>(p.failed),
                  std::string(phase) + " request without a 200 response");
  };

  // Every set-up builds a fresh stack (new server threads, cold cache) and
  // runs kBursts closed-loop bursts, so their median does not hinge on one
  // stack's thread placement. The bursts follow one unmeasured burst that
  // brings the hot set into the cache. In a traced run every measured
  // burst is followed by a traced one, so tracing overhead is measured
  // pairwise and the traced spans cover exactly kSetups * kBursts bursts.
  std::vector<double> setup_times;
  std::vector<double> burst_s;
  std::vector<double> traced_burst_s;
  Stack stack;
  std::vector<sgnn::net::HttpClient> clients;
  for (int i = 0; i < kSetups; ++i) {
    clients.clear();
    TearDown(&stack);
    stack = Stack();
    log.SetEnabled(args.trace);
    const Clock::time_point t0 = Clock::now();
    bool ok = false;
    {
      Span span("setup");
      ok = SetUp(args.seed, &stack);
    }
    setup_times.push_back(SecondsSince(t0));
    log.SetEnabled(false);
    report->Check(ok, "serving stack failed to start");
    if (ok && i == 0) CheckProbes(&stack, args.seed, report);
    for (size_t c = 0; ok && c < conns; ++c) {
      auto client_or =
          sgnn::net::HttpClient::Connect("127.0.0.1", stack.door->port());
      report->Check(client_or.ok(), "generator could not connect");
      ok = client_or.ok();
      if (ok) clients.push_back(std::move(client_or).value());
    }
    if (!ok) {
      clients.clear();
      TearDown(&stack);
      return;
    }
    for (int b = -1; b < kBursts; ++b) {
      for (int traced = 0; traced <= (args.trace && b >= 0 ? 1 : 0);
           ++traced) {
        std::vector<Request> reqs;
        for (int r = 0; r < kBurstRequests; ++r) {
          reqs.push_back(traffic.Next());
        }
        log.SetEnabled(traced == 1);
        const PhaseStats p = [&] {
          Span span("rep");
          return Summarize(Drive(&clients, SplitRoundRobin(reqs, conns),
                                 kBurstDepth),
                           1e9, traced == 1);
        }();
        log.SetEnabled(false);
        count(p, "burst");
        if (b >= 0) (traced ? traced_burst_s : burst_s).push_back(p.wall_s);
      }
    }
  }
  report->setups = kSetups;
  report->reps = args.trace ? kSetups * kBursts : 0;
  const double burst_rps = kBurstRequests / Median(burst_s);

  // Open loop at the nominal rate, then the rate ladder; both untraced.
  const double phase_s = kNominalShare * args.seconds;
  const PhaseStats nominal = Summarize(
      Drive(&clients,
            SplitRoundRobin(traffic.OpenLoop(kNominalRps, phase_s), conns), 0),
      phase_s, false);
  count(nominal, "nominal");
  const double step_s =
      kLadderShare * args.seconds / static_cast<double>(kLadderRps.size());
  double max_rps = 0.0;
  for (double rps : kLadderRps) {
    const PhaseStats step = Summarize(
        Drive(&clients,
              SplitRoundRobin(traffic.OpenLoop(rps, step_s), conns), 0),
        step_s, false);
    count(step, "ladder");
    const double p99 = Quantile(step.latency_ms, 0.99);
    const bool holds = p99 <= kP99LimitMs &&
                       step.backlog_end <= rps * kP99LimitMs / 1e3 + conns;
    std::printf("ladder %6.0f rps: p99 %.3f ms, backlog at end %.0f%s\n", rps,
                p99, step.backlog_end, holds ? "" : " (limit missed)");
    if (!holds) break;
    max_rps = rps;
  }
  for (auto& client : clients) client.Close();

  const sgnn::serve::ServeMetricsSnapshot snap = stack.server->Metrics();
  sgnn::obs::MetricsRegistry& r = *stack.metrics;
  const double non_200 =
      r.GetCounter("sgnn_net_http_errors_total", "", {}, sgnn::obs::kVolatile)
          ->value();
  const double shed =
      r.GetCounter("sgnn_net_infer_shed_total", "", {}, sgnn::obs::kVolatile)
          ->value() +
      r.GetCounter("sgnn_net_infer_quota_rejected_total", "", {},
                   sgnn::obs::kVolatile)
          ->value();
  TearDown(&stack);
  report->Check(snap.requests_rejected == 0, "server rejected requests");
  report->Check(snap.health.degraded_serves == 0, "degraded responses served");
  report->Check(snap.health.deadline_misses == 0, "deadlines exceeded");
  report->Check(non_200 == 0, "front door answered non-200");
  report->Check(shed == 0, "admission shed requests");

  const double p50 = Quantile(nominal.latency_ms, 0.5);
  const double p99 = Quantile(nominal.latency_ms, 0.99);
  std::printf(
      "closed-loop %.0f rps (median of %zu bursts of %d); nominal %.0f rps: %zu "
      "samples, p50 %.3f ms, p99 %.3f ms, generator late p99 %.3f ms, "
      "backlog at end %.0f\n",
      burst_rps, burst_s.size(), kBurstRequests, kNominalRps,
      nominal.latency_ms.size(), p50, p99, nominal.late_p99_ms,
      nominal.backlog_end);
  if (nominal.late_p99_ms > 1.0) {
    std::printf("WARNING: generator ran late; serve_* figures are invalid\n");
  }
  report->SetE2E("setup_s", Median(setup_times), "s");
  report->SetE2E("work_s", Median(burst_s), "s");
  report->SetLayer("serve_p50_ms", p50, "ms");
  report->SetLayer("serve_p99_ms", p99, "ms");
  report->SetLayer("serve_max_rps", max_rps, "1/s");
  report->SetLayer("bench.gen_late_p99_ms", nominal.late_p99_ms, "ms");
  report->SetLayer("bench.backlog_end", nominal.backlog_end, "count");
  report->SetLayer("serve.hit_ratio", snap.CacheHitRate(), "ratio");
  report->SetLayer("serve.mean_batch", snap.mean_batch_size, "count");
  report->SetLayer("serve.max_queue_depth",
                   static_cast<double>(snap.max_queue_depth), "count");
  report->SetLayer("serve.rejected",
                   static_cast<double>(snap.requests_rejected), "count");
  report->SetLayer("serve.degraded",
                   static_cast<double>(snap.health.degraded_serves), "count");
  report->SetLayer("serve.deadline_exceeded",
                   static_cast<double>(snap.health.deadline_misses), "count");
  report->SetLayer("net.non_200", non_200, "count");
  report->SetLayer("admission.shed", shed, "count");
  if (args.trace) {
    report->SetLayer(
        "obs.trace_overhead_pct",
        100.0 * (Median(traced_burst_s) / Median(burst_s) - 1.0), "%");
  }
}

}  // namespace perfbench
