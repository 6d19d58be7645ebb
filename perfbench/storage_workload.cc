// storage-tiers: one operation through every tier where the adjacency can
// live. A K=2-hop propagation runs in memory (`graph::Propagator`), out of
// core over mmap'd shards under a resident budget (`storage::OocPropagator`)
// and across worker processes (`dist::RunDistributedPropagation`); forward
// push runs in memory and out of core on one seed set; node-wise sampling
// runs out of core on a larger seed set. All outputs must be byte-identical
// across tiers.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/counters.h"
#include "common/rng.h"
#include "dist/coordinator.h"
#include "graph/generators.h"
#include "graph/propagate.h"
#include "harness.h"
#include "par/par.h"
#include "partition/partition.h"
#include "ppr/ppr.h"
#include "sampling/neighbor_sampler.h"
#include "storage/ooc.h"
#include "storage/shard_writer.h"
#include "storage/sharded_graph.h"
#include "tensor/ops.h"

namespace perfbench {
namespace {

using sgnn::graph::NodeId;
using sgnn::tensor::Matrix;

constexpr NodeId kNodes = NodeId(1) << 16;
constexpr int64_t kEdges = int64_t(1) << 20;
constexpr int64_t kCols = 128;  // At the SpMM column-blocking threshold.
constexpr int kHops = 2;
constexpr int kShards = 16;
constexpr int kDistWorkers = 4;
// Out-of-core push re-pins shards per seed, so it gets few seeds; the
// in-memory push runs on a superset whose first kOocPushSeeds results must
// match it byte for byte (`PushBatch` results are per-seed independent).
constexpr int kOocPushSeeds = 16;
constexpr int kPushSeeds = 2048;
constexpr int kSampleSeeds = 8192;
constexpr double kAlpha = 0.15;
constexpr double kRMax = 1e-4;
const std::vector<int> kFanouts = {10, 10};
constexpr size_t kMinRounds = 3;
constexpr auto kNorm = sgnn::graph::Normalization::kSymmetric;

struct Inputs {
  sgnn::graph::CsrGraph graph;
  Matrix x;
  sgnn::partition::Partition parts;
  std::string shard_dir;
  uint64_t budget = 0;
  uint64_t shard_bytes = 0;
  std::vector<NodeId> push_seeds;  ///< The first kOocPushSeeds go out of core.
  std::vector<NodeId> sample_seeds;
};

std::unique_ptr<sgnn::storage::ShardedGraph> Open(const std::string& dir,
                                                  uint64_t budget) {
  sgnn::storage::OpenOptions options;
  options.budget_bytes = budget;
  auto graph_or = sgnn::storage::ShardedGraph::Open(dir, options);
  return graph_or.ok() ? std::move(graph_or).value() : nullptr;
}

/// Generation, shard conversion, partitioning and the resident budget:
/// the set-up the tiers need before any job can run.
bool SetUp(uint64_t seed, const std::string& dir, Inputs* in) {
  {
    Span span("graph.generate");
    in->graph = sgnn::graph::Rmat(kNodes, kEdges, sgnn::graph::RmatConfig{},
                                  seed);
    sgnn::common::Rng rng(sgnn::common::MixSeed(seed, 1));
    in->x = Matrix(kNodes, kCols);
    for (int64_t i = 0; i < in->x.size(); ++i) {
      in->x.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    std::vector<NodeId> candidates;
    for (NodeId u = 0; u < kNodes; ++u) {
      if (in->graph.OutDegree(u) > 0) candidates.push_back(u);
    }
    if (candidates.size() < static_cast<size_t>(kSampleSeeds)) return false;
    rng.Shuffle(&candidates);
    in->push_seeds.assign(candidates.begin(), candidates.begin() + kPushSeeds);
    in->sample_seeds.assign(candidates.begin(),
                            candidates.begin() + kSampleSeeds);
  }
  {
    Span span("storage.convert");
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    if (!sgnn::storage::WriteShardedGraph(
             in->graph, sgnn::storage::ShardPlan::Contiguous(in->graph, kShards),
             dir)
             .ok()) {
      return false;
    }
    in->shard_dir = dir;
  }
  {
    Span span("partition.ldg");
    in->parts = sgnn::partition::LdgPartition(in->graph, kDistWorkers, 1.1,
                                              seed);
  }
  // The resident budget: a quarter of the shard bytes, at least one shard.
  auto sg = Open(in->shard_dir, 0);
  if (sg == nullptr) return false;
  uint64_t max_shard = 0;
  for (const auto& entry : sg->manifest().shards) {
    max_shard = std::max(max_shard, entry.file_bytes);
  }
  in->shard_bytes = sg->total_shard_bytes();
  in->budget = std::max(in->shard_bytes / 4, max_shard);
  return true;
}

bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

bool SamePush(std::span<const sgnn::ppr::PushResult> a,
              std::span<const sgnn::ppr::PushResult> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].pushes != b[i].pushes || a[i].edges_touched != b[i].edges_touched ||
        a[i].estimate.size() != b[i].estimate.size()) {
      return false;
    }
    for (size_t j = 0; j < a[i].estimate.size(); ++j) {
      if (a[i].estimate[j].first != b[i].estimate[j].first ||
          std::bit_cast<uint64_t>(a[i].estimate[j].second) !=
              std::bit_cast<uint64_t>(b[i].estimate[j].second)) {
        return false;
      }
    }
  }
  return true;
}

template <typename T>
bool SameVec(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

bool SameBatch(const sgnn::sampling::MiniBatch& a,
               const sgnn::sampling::MiniBatch& b) {
  if (a.layers.size() != b.layers.size()) return false;
  for (size_t l = 0; l < a.layers.size(); ++l) {
    const auto& x = a.layers[l];
    const auto& y = b.layers[l];
    if (!SameVec(x.dst, y.dst) || !SameVec(x.src, y.src) ||
        !SameVec(x.offsets, y.offsets) || !SameVec(x.src_local, y.src_local) ||
        !SameVec(x.weights, y.weights)) {
      return false;
    }
  }
  return true;
}

/// Per-round job times (s) and counters.
struct Round {
  double mem_s = 0, ooc_s = 0, dist_s = 0;
  double push_mem_s = 0, push_ooc_s = 0, sample_ooc_s = 0;
  double spmm_s = 0;
  uint64_t spmm_bytes = 0;
  sgnn::storage::StorageStats ooc, push, sample;
  sgnn::dist::DistReport dist;
  uint64_t pushes = 0, push_edges = 0;
  uint64_t par_sections = 0, par_shards = 0;
  double total() const {
    return mem_s + ooc_s + dist_s + push_mem_s + push_ooc_s + sample_ooc_s;
  }
};

/// Runs the six jobs once and checks every output against the in-memory
/// tier (and the sample against the in-memory sampler's `reference`).
Round RunRound(const Inputs& in, uint64_t seed,
               const sgnn::sampling::MiniBatch& sample_reference,
               Report* report) {
  Round r;
  const sgnn::par::ParStats par_before = sgnn::par::Stats();

  Matrix mem;
  Clock::time_point t0 = Clock::now();
  {
    Span job("job.propagate_mem");
    const sgnn::graph::Propagator prop(in.graph, kNorm, true);
    Matrix cur = in.x;
    for (int h = 0; h < kHops; ++h) {
      Span span("graph.spmm");
      const sgnn::common::ScopedCounterDelta delta;
      const Clock::time_point a = Clock::now();
      prop.Apply(cur, &mem);
      r.spmm_s += SecondsSince(a);
      const sgnn::common::OpCounters ops = delta.Delta();
      r.spmm_bytes += ops.bytes_read + ops.bytes_written;
      std::swap(cur, mem);
    }
    mem = std::move(cur);
  }
  r.mem_s = SecondsSince(t0);

  Matrix ooc;
  bool ooc_ok = false;
  t0 = Clock::now();
  {
    Span job("job.propagate_ooc");
    auto sg = Open(in.shard_dir, in.budget);
    if (sg != nullptr) {
      auto prop_or = sgnn::storage::OocPropagator::Create(sg.get(), kNorm, true);
      ooc_ok = prop_or.ok();
      Matrix cur = in.x;
      for (int h = 0; ooc_ok && h < kHops; ++h) {
        Span span("storage.spmm");
        ooc_ok = prop_or.value().Apply(cur, &ooc).ok();
        std::swap(cur, ooc);
      }
      ooc = std::move(cur);
      r.ooc = sg->stats();
    }
  }
  r.ooc_s = SecondsSince(t0);
  report->Check(ooc_ok, "out-of-core propagation failed");
  report->Check(ooc_ok && SameBytes(mem, ooc),
                "out-of-core propagation differs from in-memory");

  sgnn::dist::DistOptions options;
  options.hops = kHops;
  options.norm = kNorm;
  t0 = Clock::now();
  const sgnn::common::StatusOr<Matrix> dist_or = [&] {
    Span span("dist.run");
    return sgnn::dist::RunDistributedPropagation(
        in.graph, in.parts, in.x, options, sgnn::core::RunContext(), &r.dist);
  }();
  r.dist_s = SecondsSince(t0);
  report->Check(dist_or.ok(), "distributed propagation failed");
  report->Check(dist_or.ok() && SameBytes(mem, dist_or.value()),
                "distributed propagation differs from in-memory");
  report->Check(r.dist.respawns == 0, "distributed workers were respawned");

  std::vector<sgnn::ppr::PushResult> push_mem;
  t0 = Clock::now();
  {
    Span span("ppr.push");
    push_mem = sgnn::ppr::PushBatch(in.graph, in.push_seeds, kAlpha, kRMax);
  }
  r.push_mem_s = SecondsSince(t0);
  for (const auto& p : push_mem) {
    r.pushes += static_cast<uint64_t>(p.pushes);
    r.push_edges += static_cast<uint64_t>(p.edges_touched);
  }

  bool push_ok = false;
  t0 = Clock::now();
  {
    Span job("job.push_ooc");
    auto sg = Open(in.shard_dir, in.budget);
    if (sg != nullptr) {
      Span span("storage.push");
      const std::span<const NodeId> seeds(in.push_seeds.data(),
                                          kOocPushSeeds);
      auto push_or = sgnn::storage::PushBatch(sg.get(), seeds, kAlpha, kRMax);
      push_ok = push_or.ok() &&
                SamePush(std::span(push_mem).first(kOocPushSeeds),
                         push_or.value());
      r.push = sg->stats();
    }
  }
  r.push_ooc_s = SecondsSince(t0);
  report->Check(push_ok, "out-of-core push failed or differs from in-memory");

  bool sample_ok = false;
  t0 = Clock::now();
  {
    Span job("job.sample_ooc");
    auto sg = Open(in.shard_dir, in.budget);
    if (sg != nullptr) {
      Span span("storage.sample");
      sgnn::common::Rng rng(seed);
      auto batch_or = sgnn::storage::SampleNodeWise(sg.get(), in.sample_seeds,
                                                    kFanouts, &rng);
      sample_ok = batch_or.ok() && SameBatch(sample_reference, batch_or.value());
      r.sample = sg->stats();
    }
  }
  r.sample_ooc_s = SecondsSince(t0);
  report->Check(sample_ok,
                "out-of-core sampling failed or differs from in-memory");

  const sgnn::par::ParStats par_after = sgnn::par::Stats();
  r.par_sections = par_after.sections - par_before.sections;
  r.par_shards = par_after.shards - par_before.shards;
  return r;
}

/// The six jobs with their median times (s) on the reference host (4-vCPU
/// Xeon VM, seeds 101-110). Only their ratios matter to work_s; they are
/// fixed here so that every commit is measured against the same yardstick.
struct Job {
  const char* name;
  double Round::*field;
  double reference_s;
};
constexpr Job kJobs[] = {
    {"propagate_mem_s", &Round::mem_s, 0.124},
    {"propagate_ooc_s", &Round::ooc_s, 0.302},
    {"propagate_dist_s", &Round::dist_s, 1.378},
    {"push_mem_s", &Round::push_mem_s, 0.072},
    {"push_ooc_s", &Round::push_ooc_s, 0.891},
    {"sample_ooc_s", &Round::sample_ooc_s, 0.154},
};

/// Streaming axpy over a matrix the size of X: the memory-bandwidth
/// ceiling the in-memory SpMM's GB/s is read against.
double AxpyGbps(const Matrix& x) {
  Matrix y(x.rows(), x.cols(), 1.0f);
  double best = 0.0;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    sgnn::tensor::Axpy(0.5f, x, &y);
    const double s = SecondsSince(t0);
    const double bytes = 3.0 * static_cast<double>(x.size()) * sizeof(float);
    best = std::max(best, bytes / s / 1e9);
  }
  return best;
}

}  // namespace

void RunStorageTiers(const Args& args, Report* report) {
  SpanLog& log = SpanLog::Get();
  // Set-up and one round of the six jobs alternate (in a traced run, an
  // untraced and a traced round), so both medians sample the host over the
  // whole run and tracing overhead is measured pairwise.
  std::vector<double> setup_times;
  std::vector<Round> rounds;
  std::vector<double> traced_totals;
  Inputs in;
  sgnn::sampling::MiniBatch sample_reference;
  const Clock::time_point start = Clock::now();
  auto median_total = [&] {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(r.total());
    return Median(v);
  };
  while (rounds.size() < kMinRounds ||
         SecondsSince(start) + Median(setup_times) +
                 median_total() * (args.trace ? 2 : 1) <=
             args.seconds) {
    log.SetEnabled(args.trace);
    const Clock::time_point t0 = Clock::now();
    bool ok = false;
    {
      Span span("setup");
      in = Inputs();
      ok = SetUp(args.seed, args.work_dir + "/shards", &in);
    }
    setup_times.push_back(SecondsSince(t0));
    log.SetEnabled(false);
    report->Check(ok, "set-up failed (too few non-isolated nodes or shard "
                      "conversion)");
    if (!ok) return;
    if (rounds.empty()) {
      std::printf(
          "graph: R-MAT %u nodes, %lld edges, %d shards (%llu bytes, budget "
          "%llu), x %lldx%lld\n",
          kNodes, static_cast<long long>(in.graph.num_edges()), kShards,
          static_cast<unsigned long long>(in.shard_bytes),
          static_cast<unsigned long long>(in.budget),
          static_cast<long long>(in.x.rows()),
          static_cast<long long>(in.x.cols()));
      sgnn::common::Rng rng(args.seed);
      sample_reference = sgnn::sampling::SampleNodeWise(
          in.graph, in.sample_seeds, kFanouts, &rng);
    }

    rounds.push_back(RunRound(in, args.seed, sample_reference, report));
    if (!args.trace) continue;
    log.SetEnabled(true);
    Round traced;
    {
      Span span("rep");
      traced = RunRound(in, args.seed, sample_reference, report);
    }
    log.SetEnabled(false);
    ++report->reps;
    traced_totals.push_back(traced.total());
    report->exact["storage.loads"].push_back(traced.ooc.loads);
    report->exact["storage.evictions"].push_back(traced.ooc.evictions);
    report->exact["ppr.pushes"].push_back(traced.pushes);
    report->exact["dist.halo_bytes"].push_back(traced.dist.halo_bytes);
    report->exact["par.sections"].push_back(traced.par_sections);
    report->exact["par.shards"].push_back(traced.par_shards);
  }
  report->setups = static_cast<int>(setup_times.size());

  auto median_of = [&](double Round::*field) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(r.*field);
    return Median(v);
  };
  const Round& last = rounds.back();
  report->SetE2E("setup_s", Median(setup_times), "s");
  // work_s follows the slowest job relative to its reference time: it is
  // the reference round time scaled by the largest median/reference ratio.
  // A regression confined to one tier therefore moves work_s by about as
  // much as it moves that job, which a sum or mean of six jobs would hide.
  double reference_round_s = 0.0;
  double worst_ratio = 0.0;
  for (const Job& job : kJobs) {
    const double s = median_of(job.field);
    report->SetLayer(job.name, s, "s");
    reference_round_s += job.reference_s;
    worst_ratio = std::max(worst_ratio, s / job.reference_s);
    std::printf("%-17s median %.4f s, %.3f x reference\n", job.name, s,
                s / job.reference_s);
  }
  report->SetE2E("work_s", reference_round_s * worst_ratio, "s");
  std::printf("rounds: %zu, median round %.3f s\n", rounds.size(),
              median_total());
  if (!args.trace) return;

  const double total_shard_bytes = static_cast<double>(in.shard_bytes);
  report->SetLayer("obs.trace_overhead_pct",
                   100.0 * (Median(traced_totals) / median_total() - 1.0), "%");
  report->SetLayer("graph.spmm_gbps",
                   static_cast<double>(last.spmm_bytes) / last.spmm_s / 1e9,
                   "GB/s");
  report->SetLayer("simd.axpy_gbps", AxpyGbps(in.x), "GB/s");
  report->SetLayer("par.sections", last.par_sections, "count");
  report->SetLayer("par.shards", last.par_shards, "count");
  report->SetLayer("storage.loads", last.ooc.loads, "count");
  report->SetLayer("storage.evictions", last.ooc.evictions, "count");
  report->SetLayer("storage.reread_x",
                   static_cast<double>(last.ooc.bytes_loaded) /
                       total_shard_bytes,
                   "ratio");
  report->SetLayer("storage.push_loads", last.push.loads, "count");
  report->SetLayer("storage.sample_loads", last.sample.loads, "count");
  report->SetLayer("ppr.pushes", last.pushes, "count");
  report->SetLayer("ppr.edges", last.push_edges, "count");
  report->SetLayer("dist.halo_bytes", last.dist.halo_bytes, "bytes");
  report->SetLayer("dist.gather_bytes", last.dist.gather_bytes, "bytes");
  report->SetLayer("dist.frames",
                   last.dist.frames_sent + last.dist.frames_received, "count");
  report->SetLayer("dist.respawns", last.dist.respawns, "count");
}

}  // namespace perfbench
