#include "harness.h"

#include <cpuid.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "simd/simd.h"

namespace perfbench {
namespace {

thread_local std::vector<uint64_t> t_open_spans;

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t tag = next.fetch_add(1);
  return tag;
}

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

}  // namespace

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

int64_t SpanLog::NsAt(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

void SpanLog::Record(const char* name, Clock::time_point start,
                     Clock::time_point end, int64_t req) {
  SpanRecord record;
  record.id = NextId();
  record.name = name;
  record.start_ns = NsAt(start);
  record.end_ns = NsAt(end);
  record.tid = ThreadTag();
  record.req = req;
  Add(record);
}

void SpanLog::Add(const SpanRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(record);
}

bool SpanLog::WriteJson(const std::string& path,
                        const std::string& workload) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"workload\":\"" << workload << "\",\"spans\":[";
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                  "\"start_ns\":%lld,\"end_ns\":%lld,\"tid\":%u,\"req\":%lld}",
                  i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.name,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns), s.tid,
                  static_cast<long long>(s.req));
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

Span::Span(const char* name, int64_t req) {
  SpanLog& log = SpanLog::Get();
  if (!log.enabled()) return;
  active_ = true;
  record_.id = log.NextId();
  record_.parent = t_open_spans.empty() ? 0 : t_open_spans.back();
  record_.name = name;
  record_.tid = ThreadTag();
  record_.req = req;
  t_open_spans.push_back(record_.id);
  record_.start_ns = log.NowNs();
}

Span::~Span() {
  if (!active_) return;
  SpanLog& log = SpanLog::Get();
  record_.end_ns = log.NowNs();
  t_open_spans.pop_back();
  log.Add(record_);
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

void Report::Count(int64_t n, int64_t bad, const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad > 0) failures.push_back(std::to_string(bad) + " x " + what);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  return std::max(1, CPU_COUNT(&set));
}

std::string HostDescription(int threads) {
  __builtin_cpu_init();
  const bool avx2 = __builtin_cpu_supports("avx2");
  const bool fma = __builtin_cpu_supports("fma");
  return "nproc=" + std::to_string(AffinityCpus()) + " cpu=\"" + CpuModel() +
         "\" avx2=" + (avx2 ? "yes" : "no") + " fma=" + (fma ? "yes" : "no") +
         " par_workers=" + std::to_string(threads) +
         " simd=" + sgnn::simd::Active().name;
}

}  // namespace perfbench
