// train-minibatch: node-wise sampled GraphSAGE training through
// `core::Pipeline::Run` with `models::TrainSage` — the paper's central
// scalable-training path (sampling, gather, per-batch compute).
//
// `TrainSage` has no hooks, so the traced run replays its loop from the
// same public calls (`SampleNodeWise`, `GatherRows`, `TrainStep`,
// `Adam::Step`, `Predict` + `Accuracy`) and checks that the replay
// reproduces the trainer's loss and accuracies bit for bit.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/counters.h"
#include "common/rng.h"
#include "core/dataset.h"
#include "core/pipeline.h"
#include "harness.h"
#include "models/sage.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "par/par.h"
#include "sampling/neighbor_sampler.h"

namespace perfbench {
namespace {

using sgnn::graph::NodeId;
using sgnn::tensor::Matrix;

// Sized so that one fixed-epoch training run takes a few seconds on four
// cores; homophily and feature noise keep test accuracy well below 1.0.
constexpr NodeId kNodes = 24000;
constexpr int kClasses = 8;
constexpr double kAvgDegree = 12.0;
constexpr double kHomophily = 0.5;
constexpr double kFeatureNoise = 2.0;
constexpr int64_t kFeatureDim = 64;
constexpr int kEpochs = 1;
constexpr int kBatchSize = 256;
const std::vector<int> kFanouts = {10, 10};
constexpr size_t kMinRuns = 3;

struct Outcome {
  double loss = 0.0;
  double val = 0.0;
  double test = 0.0;
  bool operator==(const Outcome&) const = default;
};

struct ReplayCounts {
  uint64_t sampled_edges = 0;
  uint64_t input_rows = 0;
  uint64_t step_bytes = 0;
  uint64_t step_edges = 0;
  uint64_t par_sections = 0;
  uint64_t par_shards = 0;
};

sgnn::nn::TrainConfig Config(uint64_t seed) {
  sgnn::nn::TrainConfig config;
  config.epochs = kEpochs;
  config.patience = kEpochs;  // Never stop early: the work is fixed.
  config.hidden_dim = 64;
  config.lr = 0.01;
  config.batch_size = kBatchSize;
  config.seed = seed;
  return config;
}

sgnn::core::Dataset Generate(uint64_t seed) {
  Span span("graph.generate");
  sgnn::core::SbmDatasetConfig config;
  config.sbm = {.num_nodes = kNodes,
                .num_classes = kClasses,
                .avg_degree = kAvgDegree,
                .homophily = kHomophily};
  config.feature_dim = kFeatureDim;
  config.feature_noise = kFeatureNoise;
  return sgnn::core::MakeSbmDataset(config, seed);
}

/// The end-to-end path: one fixed-epoch `TrainSage` run via the pipeline.
Outcome TrainViaPipeline(const sgnn::core::Dataset& dataset,
                         const sgnn::nn::TrainConfig& config, int threads,
                         bool* ok) {
  sgnn::core::Pipeline pipeline;
  pipeline.SetModel(
      "sage", [](const sgnn::graph::CsrGraph& g, const Matrix& x,
                 std::span<const int> labels,
                 const sgnn::models::NodeSplits& splits,
                 const sgnn::nn::TrainConfig& cfg) {
        return sgnn::models::TrainSage(
            g, x, labels, splits, cfg,
            sgnn::models::SageConfig{.fanouts = kFanouts});
      });
  sgnn::core::RunContext ctx;
  ctx.num_threads = threads;
  const sgnn::core::PipelineReport report =
      pipeline.Run(dataset, config, ctx);
  *ok = report.status.ok();
  const auto& r = report.model.report;
  return {r.final_train_loss, r.best_val_accuracy, r.test_accuracy};
}

/// `TrainSage`'s loop rebuilt from public calls, with a span per layer.
Outcome Replay(const sgnn::core::Dataset& dataset,
               const sgnn::nn::TrainConfig& config, ReplayCounts* counts) {
  const sgnn::graph::CsrGraph& graph = dataset.graph;
  const Matrix& x = dataset.features;
  const std::vector<int>& labels = dataset.labels;
  const sgnn::models::NodeSplits& splits = dataset.splits;
  const sgnn::par::ParStats par_before = sgnn::par::Stats();

  const int num_classes = 1 + *std::max_element(labels.begin(), labels.end());
  sgnn::common::Rng rng(config.seed);
  const std::vector<int64_t> dims = {x.cols(), config.hidden_dim, num_classes};
  sgnn::models::SageModel model(dims, config.dropout, &rng);
  sgnn::nn::Adam opt(model.Params(), config.lr, 0.9, 0.999, 1e-8,
                     config.weight_decay);
  sgnn::models::EarlyStopTracker tracker(config.patience);
  const size_t batch_size = static_cast<size_t>(config.batch_size);
  std::vector<NodeId> order(splits.train.begin(), splits.train.end());

  double final_loss = 0.0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    Span epoch_span("train.epoch");
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    size_t num_batches = 0;
    for (size_t start = 0; start < order.size(); start += batch_size) {
      const size_t end = std::min(order.size(), start + batch_size);
      const std::vector<NodeId> seeds(
          order.begin() + static_cast<int64_t>(start),
          order.begin() + static_cast<int64_t>(end));
      sgnn::sampling::MiniBatch batch;
      {
        Span span("sampling");
        batch = sgnn::sampling::SampleNodeWise(graph, seeds, kFanouts, &rng);
      }
      counts->sampled_edges += static_cast<uint64_t>(batch.TotalEdges());
      counts->input_rows += batch.input_nodes().size();
      Matrix input;
      {
        Span span("tensor.gather");
        const std::vector<int64_t> gather(batch.input_nodes().begin(),
                                          batch.input_nodes().end());
        input = x.GatherRows(gather);
      }
      std::vector<int> seed_labels(seeds.size());
      for (size_t i = 0; i < seeds.size(); ++i) {
        seed_labels[i] = labels[seeds[i]];
      }
      {
        Span span("models.step");
        const sgnn::common::ScopedCounterDelta delta;
        model.ZeroGrad();
        epoch_loss += model.TrainStep(batch, input, seed_labels, &rng);
        const sgnn::common::OpCounters ops = delta.Delta();
        counts->step_bytes += ops.bytes_read + ops.bytes_written;
        counts->step_edges += ops.edges_touched;
      }
      {
        Span span("nn.adam");
        opt.Step();
      }
      ++num_batches;
    }
    final_loss = epoch_loss / static_cast<double>(num_batches);
    double val = 0.0;
    double test = 0.0;
    {
      Span span("graph.eval");
      const Matrix logits = model.Predict(graph, x);
      val = sgnn::nn::Accuracy(logits, labels, splits.val);
      test = sgnn::nn::Accuracy(logits, labels, splits.test);
    }
    if (tracker.Update(val, test)) break;
  }
  const sgnn::par::ParStats par_after = sgnn::par::Stats();
  counts->par_sections = par_after.sections - par_before.sections;
  counts->par_shards = par_after.shards - par_before.shards;
  return {final_loss, tracker.best_val(), tracker.test_at_best()};
}

}  // namespace

void RunTrainMinibatch(const Args& args, Report* report) {
  SpanLog& log = SpanLog::Get();
  const sgnn::nn::TrainConfig config = Config(args.seed);

  // Set-up (generation) and one pipeline training run alternate, so both
  // medians sample the host over the whole run. A traced run does
  // kMinRuns of them and spends its remaining time on replay pairs.
  std::vector<double> setup_times;
  std::vector<double> run_times;
  sgnn::core::Dataset dataset;
  Outcome reference;
  const Clock::time_point start = Clock::now();
  while (run_times.size() < kMinRuns ||
         (!args.trace && SecondsSince(start) + Median(setup_times) +
                                 Median(run_times) <=
                             args.seconds)) {
    log.SetEnabled(args.trace);
    Clock::time_point t0 = Clock::now();
    {
      Span span("setup");
      dataset = Generate(args.seed);
    }
    setup_times.push_back(SecondsSince(t0));
    log.SetEnabled(false);

    t0 = Clock::now();
    bool ok = false;
    const Outcome outcome = TrainViaPipeline(dataset, config, args.threads,
                                             &ok);
    run_times.push_back(SecondsSince(t0));
    report->Check(ok, "Pipeline::Run returned a non-OK status");
    if (run_times.size() == 1) reference = outcome;
    report->Check(outcome == reference,
                  "TrainSage result differs between repetitions");
  }
  report->setups = static_cast<int>(setup_times.size());
  const double seeds_per_run =
      static_cast<double>(dataset.splits.train.size()) * kEpochs;
  std::printf("dataset: %u nodes, %lld edges, %zu training seeds, %d epochs\n",
              dataset.num_nodes(),
              static_cast<long long>(dataset.graph.num_edges()),
              dataset.splits.train.size(), kEpochs);

  // The correctness gate: the replay must reproduce TrainSage exactly. In
  // a traced run, untraced and traced replays alternate, so tracing
  // overhead is measured on the same code.
  std::vector<double> plain_times;
  std::vector<double> traced_times;
  while (plain_times.empty() ||
         (args.trace && (traced_times.size() < 2 ||
                         SecondsSince(start) + 2 * Median(plain_times) <=
                             args.seconds))) {
    ReplayCounts counts;
    Clock::time_point t0 = Clock::now();
    report->Check(Replay(dataset, config, &counts) == reference,
                  "replay differs from TrainSage");
    plain_times.push_back(SecondsSince(t0));
    if (!args.trace) break;

    counts = ReplayCounts();
    log.SetEnabled(true);
    t0 = Clock::now();
    Outcome replayed;
    {
      Span span("rep");
      replayed = Replay(dataset, config, &counts);
    }
    traced_times.push_back(SecondsSince(t0));
    log.SetEnabled(false);
    ++report->reps;
    report->Check(replayed == reference,
                  "traced replay differs from TrainSage");
    report->exact["sampling.edges"].push_back(counts.sampled_edges);
    report->exact["models.step_bytes"].push_back(counts.step_bytes);
    report->exact["par.sections"].push_back(counts.par_sections);
    report->exact["par.shards"].push_back(counts.par_shards);
    report->SetLayer("sampling.edges", counts.sampled_edges, "count");
    report->SetLayer("sampling.input_rows", counts.input_rows, "count");
    report->SetLayer("models.step_bytes", counts.step_bytes, "bytes");
    report->SetLayer("models.step_edges", counts.step_edges, "count");
    report->SetLayer("par.sections", counts.par_sections, "count");
    report->SetLayer("par.shards", counts.par_shards, "count");
  }
  if (args.trace) {
    report->SetLayer(
        "obs.trace_overhead_pct",
        100.0 * (Median(traced_times) / Median(plain_times) - 1.0), "%");
  }

  const double work_s = Median(run_times);
  report->SetE2E("setup_s", Median(setup_times), "s");
  report->SetE2E("work_s", work_s, "s");
  report->SetLayer("train_seeds_per_s", seeds_per_run / work_s, "1/s");
  report->SetLayer("test_acc", reference.test, "ratio");
  std::printf(
      "training: %zu runs, median %.3f s (set-up %.3f s); loss %.6f val %.4f "
      "test %.4f\n",
      run_times.size(), work_s, Median(setup_times), reference.loss,
      reference.val, reference.test);
}

}  // namespace perfbench
