// vsrbench: one run of one benchmark workload.
//
//   vsrbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints a metadata line, optional notes, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics when untraced, the per-layer metrics when traced. Exits non-zero
// (and prints no result) on bad arguments, an unoptimized build, or an
// invalid run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "runners.h"

#ifndef VSRBENCH_BUILD_TYPE
#define VSRBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Spec {
  const char* name;
  const char* unit;
};

const std::vector<Spec>& EndToEnd() {
  static const std::vector<Spec> specs = {
      {"setup_s", "s"},
      {"cpu_us_per_txn", "us"},
  };
  return specs;
}

std::vector<Spec> PerLayer() {
  std::vector<Spec> specs = {
      {"host.frames_per_txn", "count"},
      {"host.bytes_per_txn", "B"},
      {"host.csw_per_txn", "count"},
      {"host.sys_us_per_txn", "us"},
      {"host.user_us_per_txn", "us"},
      {"host.dispatch_p50_us", "us"},
      {"host.dispatch_p99_us", "us"},
      {"host.send_failures", "count"},
      {"core.call_p50_us", "us"},
      {"core.call_p99_us", "us"},
      {"core.call_hop_p50_us", "us"},
      {"core.reply_hop_p50_us", "us"},
      {"core.decide_p50_us", "us"},
      {"core.decide_p99_us", "us"},
      {"core.fused_ratio", "ratio"},
      {"core.prepares_per_txn", "count"},
      {"core.view_changes", "count"},
      {"core.new_primary_ms", "ms"},
      {"txn.proc_p50_us", "us"},
      {"txn.lock_wait_p50_us", "us"},
      {"txn.lock_wait_p99_us", "us"},
      {"txn.lock_waits_per_txn", "count"},
      {"txn.lock_wait_timeouts", "count"},
      {"vr.forces_per_txn", "count"},
      {"vr.force_immediate_ratio", "ratio"},
      {"vr.records_per_batch", "count"},
      {"vr.retransmit_ratio", "ratio"},
      {"vr.snapshots_served", "count"},
      {"vr.rejoin_ms", "ms"},
      {"wire.crc_ns_per_byte", "ns/B"},
      {"wire.codec_ns_per_msg", "ns"},
      {"wire.crc_us_per_txn", "us"},
      {"net.frames_per_txn", "count"},
      {"net.bytes_per_txn", "B"},
  };
  static const std::vector<std::string> kinds = [] {
    std::vector<std::string> k;
    for (const std::string& kind : FrameKinds()) {
      k.push_back("net.frames_per_txn." + kind);
    }
    return k;
  }();
  for (const std::string& k : kinds) specs.push_back({k.c_str(), "count"});
  const std::vector<Spec> tail = {
      {"trace.overhead_us", "us"},
      {"trace.residual_us", "us"},
      {"trace.reconciled", "bool"},
      {"trace.children_p50_sum_us", "us"},
      {"trace.gen_late_p50_us", "us"},
      {"trace.spans", "count"},
      {"bench.gen_late_p99_us", "us"},
      {"bench.fail_ratio", "ratio"},
      {"bench.commit_p50_us", "us"},
      {"bench.commit_p99_us", "us"},
      {"bench.capacity_txn_s", "1/s"},
      {"bench.read_p50_us", "us"},
      {"bench.unavail_ms", "ms"},
      {"bench.commit_samples", "count"},
      {"bench.steal_pct", "%"},
      {"bench.cpu_raw_us_per_txn", "us"},
      {"bench.calib_slice_us", "us"},
  };
  specs.insert(specs.end(), tail.begin(), tail.end());
  return specs;
}

std::string LoadAvg() {
  std::ifstream f("/proc/loadavg");
  std::string a;
  f >> a;
  return a.empty() ? "0" : a;
}

int PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload deposit-1g|transfer-2g|failover-1g|"
               "sim-mix --seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

bool OptimizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#elif !defined(__OPTIMIZE__) || !defined(NDEBUG)
  return false;
#else
  return true;
#endif
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else {
      return PrintUsage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_trace || opt.seconds <= 0 ||
      (!IsRealHostWorkload(opt.workload) && opt.workload != "sim-mix")) {
    return PrintUsage(argv[0]);
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "vsrbench: refusing to measure a %s build (needs an "
                 "optimized build without sanitizers)\n",
                 VSRBENCH_BUILD_TYPE);
    return 3;
  }

  const std::string load_start = LoadAvg();
  const auto steal_start = StealTicks();
  Output out;
  try {
    if (opt.workload == "sim-mix") {
      RunSimMix(opt, out);
    } else {
      RunRealHost(opt, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vsrbench: %s\n", e.what());
    return 1;
  }

  const double steal_pct = StealPct(steal_start, StealTicks());
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"build_type\": \"%s\", \"nproc\": %u, "
      "\"loadavg_start\": %s, \"loadavg_end\": %s, \"steal_pct\": %.1f, "
      "\"gen_late_p99_us\": %.1f}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, VSRBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(), load_start.c_str(),
      LoadAvg().c_str(), steal_pct, out.layer.Get("bench.gen_late_p99_us"));
  for (const std::string& n : out.notes) std::printf("# %s\n", n.c_str());
  if (!out.invalid.empty()) {
    std::fprintf(stderr, "vsrbench: invalid run, not reported: %s\n",
                 out.invalid.c_str());
    return 4;
  }
  for (const std::string& e : out.e2e.errors()) {
    std::printf("# CHECK FAILED: %s\n", e.c_str());
    std::fprintf(stderr, "vsrbench: CHECK FAILED: %s\n", e.c_str());
  }

  Report printed;
  if (opt.trace) {
    Report& layer = out.layer;
    // The self times of the blocking spans must add up to the traced
    // commit p50 within the tracing overhead measured in the same process.
    const double residual = layer.Get("trace.residual_us");
    const double overhead = layer.Get("trace.overhead_us");
    layer.Set("trace.reconciled",
              std::abs(residual) <= std::max(std::abs(overhead), 1.0) ? 1.0
                                                                      : 0.0,
              "bool");
    for (const Spec& s : PerLayer()) printed.Set(s.name, layer.Get(s.name), s.unit);
  } else {
    for (const Spec& s : EndToEnd()) {
      if (!out.e2e.Has(s.name)) {
        std::fprintf(stderr, "vsrbench: metric %s missing\n", s.name);
        return 1;
      }
      printed.Set(s.name, out.e2e.Get(s.name), s.unit);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.e2e.correct() ? "true" : "false",
              static_cast<unsigned long long>(out.e2e.attempted),
              static_cast<unsigned long long>(out.e2e.failed),
              printed.MetricsJson().c_str());
  std::fflush(stdout);
  return 0;
}
