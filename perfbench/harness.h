// Shared plumbing of the repository benchmark: arguments, the in-memory
// span log the traced run writes out at exit, the result record each
// workload fills, and small statistics helpers.
//
// Spans are recorded only by the benchmark's own code, around calls into
// the library's public functions; nothing inside src/ is instrumented.
#ifndef SGNN_PERFBENCH_HARNESS_H_
#define SGNN_PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;       ///< `par` workers: AffinityCpus().
  std::string work_dir;  ///< Scratch space for shard files and the trace.
};

/// One finished span. Times are nanoseconds since the log's origin;
/// `parent` is 0 for a root; `req` is a request id or -1.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t tid = 0;
  int64_t req = -1;
};

/// Process-wide span sink. Recording is off until `SetEnabled(true)`, so
/// untraced repetitions pay one relaxed load per span site. Parents are
/// inferred from the opening thread's stack of open spans.
class SpanLog {
 public:
  static SpanLog& Get();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  int64_t NowNs() const { return NsAt(Clock::now()); }
  int64_t NsAt(Clock::time_point t) const;
  void Add(const SpanRecord& record);
  /// Adds a root span with explicit times, for intervals that do not nest
  /// on one thread (pipelined requests).
  void Record(const char* name, Clock::time_point start,
              Clock::time_point end, int64_t req);

  /// Writes every recorded span as JSON (`fold.py` reads this format).
  bool WriteJson(const std::string& path, const std::string& workload) const;

 private:
  SpanLog() : origin_(Clock::now()) {}
  const Clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // Guarded by mu_.
};

/// RAII span: records [construction, destruction) under the innermost
/// span open on this thread. A no-op while the log is disabled.
class Span {
 public:
  explicit Span(const char* name, int64_t req = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord record_;
  bool active_ = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything a workload reports. `end_to_end` holds the gated metrics of
/// an untraced run, `layers` the counters and derived per-layer values of
/// a traced run (span self times are folded from the trace file instead).
struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> layers;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  /// Root-span counts the fold divides span totals by: per-layer times
  /// are per repetition ("rep") or per set-up ("setup").
  int reps = 0;
  int setups = 0;
  /// Counters that must repeat exactly between traced repetitions of one
  /// seed, one value per repetition.
  std::map<std::string, std::vector<uint64_t>> exact;

  /// Counts one checked operation; a false `ok` is a failure.
  void Check(bool ok, const std::string& what);
  /// Counts `n` checked operations of which `bad` failed.
  void Count(int64_t n, int64_t bad, const std::string& what);
  void SetE2E(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = Metric{value, unit};
  }
  void SetLayer(const std::string& name, double value,
                const std::string& unit) {
    layers[name] = Metric{value, unit};
  }
};

/// Median of `v` (0 for an empty vector).
double Median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1] (0 for an empty vector).
double Quantile(std::vector<double> v, double q);
/// Peak resident set of this process in MiB (children excluded).
double PeakRssMb();
/// Number of CPUs this process may run on.
int AffinityCpus();
/// Host line recorded with every result: CPU model, AVX2/FMA, workers,
/// SIMD backend.
std::string HostDescription(int threads);

/// The three workloads. Each generates its inputs from `args.seed`, sets
/// up several times (median set-up time), measures for `args.seconds`,
/// and checks its outputs into `report`.
void RunTrainMinibatch(const Args& args, Report* report);
void RunStorageTiers(const Args& args, Report* report);
void RunServeHttp(const Args& args, Report* report);

}  // namespace perfbench

#endif  // SGNN_PERFBENCH_HARNESS_H_
