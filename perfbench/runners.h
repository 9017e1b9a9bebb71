// The two halves of the benchmark: real-host workloads on
// host::LoopbackCluster and the deterministic simulator workload on
// client::Cluster, plus the pieces both share (span-derived layer metrics,
// the wire cost model, the simulated twin that supplies exact frame counts).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "net/transport.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// What a run prints: end-to-end metrics (untraced) or per-layer metrics
// (traced). Correctness failures and the attempted/failed counts live in
// `e2e` for both.
struct Output {
  Report e2e;
  Report layer;
  std::vector<std::string> notes;  // extra stdout lines before the result
  // Set when the run cannot be reported at all (the open-loop generator fell
  // behind its schedule, so latencies would understate queueing).
  std::string invalid;
};

bool IsRealHostWorkload(const std::string& name);
void RunRealHost(const Options& opt, Output& out);
void RunSimMix(const Options& opt, Output& out);

// One simulated run of `txns` transactions, closed loop with 16 in flight,
// on `mix`'s topology (mix.groups 3-replica bank groups plus a one-node
// client coordinator). Latencies are virtual microseconds; cpu_us_per_txn is
// host CPU time per commit, not normalised, and slice_us the mean CPU time
// of the calibration slices run among the simulation's steps.
struct SimRun {
  double setup_s = 0;
  double cpu_us_per_txn = 0;
  double slice_us = 0;
  std::uint64_t attempted = 0;
  std::uint64_t committed = 0;
  std::uint64_t failed = 0;
  std::uint64_t committed_transfers = 0;
  std::vector<double> commit_us;
  std::vector<double> read_us;
  double virtual_s = 0;
  Counters counters;
  double frames = 0;
  double bytes = 0;
  std::vector<std::pair<std::string, double>> frames_by_type;
  std::vector<vsr::net::Frame> corpus;  // delivered frames, when captured
  std::vector<std::string> errors;
  // Span metrics of the run when traced (virtual time).
  Report spans;
};
SimRun RunSim(const Mix& mix, std::uint64_t seed, std::size_t txns,
              bool traced, bool capture);

// Message kinds reported one by one as net.frames_per_txn.<name>; every
// other kind is summed under "other".
const std::vector<std::string>& FrameKinds();

// Per-layer metrics from the span records of one traced phase: the root span
// (due -> outcome) and its children bench.gen_late, host.dispatch, core.call
// (with core.call_hop, txn.proc, txn.lock_wait inside) and core.decide.
// Only committed update transactions count. Returns the root p50 in us.
double SetSpanMetrics(const std::vector<TxnRec*>& recs, Report& layer);

// The core/txn/vr metrics read from protocol counters: per-commit ratios
// over `window` (which committed `commits` transactions), event counts over
// `whole`, and the fused share of `transfers` committed transfers.
void SetCounterMetrics(const Counters& window, double commits,
                       const Counters& whole, double transfers,
                       Report& layer);

// wire.crc_ns_per_byte, wire.codec_ns_per_msg and wire.crc_us_per_txn, timed
// on `corpus` (decode + re-encode of each frame) and on CRC-32 over buffers
// of `mean_frame_bytes`.
void SetWireMetrics(const std::vector<vsr::net::Frame>& corpus,
                    double mean_frame_bytes, double bytes_per_txn,
                    Report& layer);

// The simulated twin of a real-host workload: exact net.* counts and the
// frame corpus the wire timings run on.
void SetNetMetrics(const SimRun& run, Report& layer);

}  // namespace perfbench
