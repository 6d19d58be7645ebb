// Entry point of the repository benchmark binary. `run.py` builds and
// drives it; it can also be run by hand:
//
//   sgnn_perfbench --workload train-minibatch --seed 1 --seconds 10
//       --trace 0 --work-dir .bench_build/work
//
// The `par` workers are always set to the CPUs this process may run on.
//
// It prints a human-readable report and, as its last line, one JSON
// record prefixed with "PERFBENCH_RAW " that `run.py` turns into the
// benchmark's result line.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"
#include "par/par.h"

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string MetricsJson(const std::map<std::string, perfbench::Metric>& m) {
  std::string out = "{";
  char num[64];
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ',';
    std::snprintf(num, sizeof(num), "%.17g", metric.value);
    out += '"';
    out += JsonEscape(name);
    out += "\":{\"value\":";
    out += num;
    out += ",\"unit\":\"";
    out += JsonEscape(metric.unit);
    out += "\"}";
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: sgnn_perfbench --workload "
               "<train-minibatch|storage-tiers|serve-http> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's allocator thresholds. Left dynamic, the mmap threshold
  // rises to the size of the largest mmap'd block freed so far, so whether
  // the per-batch temporaries of training come from the heap or from fresh,
  // page-faulting mappings depended on what ran before them: the same
  // training run took 1.0 s or 1.6 s (35k or 780k minor faults) depending
  // only on the order of set-up and work. At 8 MiB, those temporaries (up
  // to about 6.5 MB) come from the heap, and larger blocks such as the
  // 32 MiB feature matrices of storage-tiers get their own mappings,
  // returned on free, so peak RSS does not hinge on heap fragmentation.
  // The heap is trimmed only past 64 MiB of free top, so freed temporaries
  // are reused instead of being returned and faulted in again.
  mallopt(M_MMAP_THRESHOLD, 8 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  perfbench::Args args;
  args.threads = perfbench::AffinityCpus();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string(value) == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (args.work_dir.empty() || args.seconds <= 0) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  sgnn::par::SetThreads(args.threads);

  perfbench::Report report;
  const std::string host = perfbench::HostDescription(args.threads);
  std::printf("host: %s\n", host.c_str());
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  if (args.workload == "train-minibatch") {
    perfbench::RunTrainMinibatch(args, &report);
  } else if (args.workload == "storage-tiers") {
    perfbench::RunStorageTiers(args, &report);
  } else if (args.workload == "serve-http") {
    perfbench::RunServeHttp(args, &report);
  } else {
    return Usage();
  }

  // Exact-counter check: deterministic counters must repeat bit for bit
  // between repetitions of one seed.
  for (const auto& [name, values] : report.exact) {
    for (size_t i = 1; i < values.size(); ++i) {
      report.Check(values[i] == values[0],
                   "exact counter " + name + " differs between repetitions: " +
                       std::to_string(values[0]) + " vs " +
                       std::to_string(values[i]));
    }
    std::printf("exact counter %-22s %llu x%zu\n", name.c_str(),
                static_cast<unsigned long long>(values.empty() ? 0
                                                               : values[0]),
                values.size());
  }

  std::string trace_file;
  if (args.trace) {
    trace_file = args.work_dir + "/trace-" + args.workload + ".json";
    report.Check(
        perfbench::SpanLog::Get().WriteJson(trace_file, args.workload),
        "could not write trace file " + trace_file);
  }
  report.SetE2E("peak_rss_mb", perfbench::PeakRssMb(), "MiB");
  for (const std::string& failure : report.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }

  std::string failures = "[";
  for (const std::string& failure : report.failures) {
    if (failures.size() > 1) failures += ',';
    failures += '"';
    failures += JsonEscape(failure);
    failures += '"';
  }
  failures += "]";
  std::printf(
      "PERFBENCH_RAW {\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
      "\"failures\":%s,\"end_to_end\":%s,\"layers\":%s,\"reps\":%d,"
      "\"setups\":%d,\"trace_file\":\"%s\",\"host\":\"%s\"}\n",
      report.failed == 0 ? "true" : "false",
      static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed), failures.c_str(),
      MetricsJson(report.end_to_end).c_str(),
      MetricsJson(report.layers).c_str(), report.reps, report.setups,
      JsonEscape(trace_file).c_str(), JsonEscape(host).c_str());
  std::fflush(stdout);
  return report.failed == 0 ? 0 : 1;
}
