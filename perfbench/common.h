// Shared pieces of the benchmark program: clocks, quantiles, the metric
// report, seeded transaction generation, the benchmark's own bank procedures
// and the in-memory span table they write to when a run is traced.
//
// Everything here sits outside the protocol stack: it reaches the system only
// through Cohort::RegisterProc, TxnHandle::Call and ProcContext reads/writes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/cohort.h"

namespace perfbench {

using vsr::core::Cohort;
using vsr::vr::GroupId;

// Monotonic wall clock in nanoseconds (one steady_clock serves every thread
// of the process, so spans recorded on different loop threads compare).
std::int64_t WallNs();

// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

// getrusage(RUSAGE_SELF) deltas: the whole process, every thread.
struct Usage {
  double user_us = 0;
  double sys_us = 0;
  double csw = 0;  // voluntary + involuntary context switches
  static Usage Now();
  static Usage ThisThread();  // getrusage(RUSAGE_THREAD)
  Usage operator-(const Usage& o) const {
    return {user_us - o.user_us, sys_us - o.sys_us, csw - o.csw};
  }
  Usage operator+(const Usage& o) const {
    return {user_us + o.user_us, sys_us + o.sys_us, csw + o.csw};
  }
};

// CPU time of the calling thread in microseconds (user + sys, without the
// time the hypervisor gave the vCPU to another guest).
double ThreadCpuUs();

// One calibration slice: a fixed loop, the same at every seed, of the kinds
// of work the protocol stack does (hash-map and ordered-map updates, short
// strings, a priority queue, std::function calls), about 1 ms of CPU on a
// quiet core. Returns the thread CPU time it took, in microseconds.
//
// Other guests on a shared host slow this machine's cores by up to 2x for
// seconds at a time, through the caches and memory they share; a slice run
// between stretches of the measured work slows with it. Dividing the
// work's CPU time by the slices' cancels most of that, so a figure so
// normalised reads in microseconds of a reference core: one on which a
// slice takes kReferenceSliceUs.
double CalibrationSliceUs();
inline constexpr double kReferenceSliceUs = 1000.0;

// Aggregate CPU ticks of the machine from /proc/stat: {steal, total}. The
// share of time the hypervisor gave this machine's vCPUs to someone else
// tells a noisy host from a slow build.
std::pair<double, double> StealTicks();
double StealPct(const std::pair<double, double>& from,
                const std::pair<double, double>& to);

// The metrics a run prints, in insertion order, plus the correctness gate.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // Records a correctness failure; any failure makes the run incorrect.
  void Check(bool ok, const std::string& what);
  bool correct() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }
  std::string MetricsJson() const;
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;  // 0 when absent

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> errors_;
};

// Deterministic generator (splitmix64): the same seed gives the same inputs
// on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t Next();
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

// Zipf(s) over [0, n) by inverse CDF; s == 0 is uniform.
class Zipf {
 public:
  Zipf(std::uint32_t n, double s);
  std::uint32_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

enum class Kind : std::uint8_t { kDeposit, kTransfer, kRead };

// One generated transaction. Transfers move `amount` from (ga, a) to (gb, b)
// across two bank groups; reads and deposits touch (ga, a) only.
struct TxnSpec {
  Kind kind = Kind::kDeposit;
  std::uint8_t ga = 0;
  std::uint8_t gb = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::int32_t amount = 0;
};

// The traffic a workload offers: how many bank groups, how many accounts in
// each, the account skew and the share of each transaction kind.
struct Mix {
  int groups = 1;
  std::uint32_t accounts = 4096;  // per group
  double zipf_s = 0.0;
  double transfer_share = 0.0;
  double read_share = 0.0;  // the rest are deposits
};

std::vector<TxnSpec> Generate(const Mix& mix, std::uint64_t seed,
                              std::size_t count);

std::string AccountName(std::uint32_t i);

// Opening balance of every account: large enough that no generated
// withdrawal can fail for lack of funds.
inline constexpr long long kOpeningBalance = 1000000000LL;
// Accounts opened per "open" call during set-up.
inline constexpr std::uint32_t kOpenBatch = 128;

// Per-transaction timestamps (ns on the span clock). Written from the
// generator, the coordinator's loop thread and the server primaries' loop
// threads; read once the phase has drained. Relaxed atomics keep the
// cross-thread writes race-free without ordering cost.
struct TxnRec {
  std::atomic<std::int64_t> due{0};         // when the generator meant to send
  std::atomic<std::int64_t> spawn{0};       // SpawnTransaction call (last attempt)
  std::atomic<std::int64_t> body_start{0};  // first line of the body
  std::atomic<std::int64_t> body_end{0};    // body returned (commit requested)
  std::atomic<std::int64_t> done{0};        // outcome delivered
  std::atomic<std::int64_t> call_ns{0};     // sum over h.Call durations
  std::atomic<std::int64_t> call_issue{0};  // latest h.Call issue
  std::atomic<std::int64_t> hop_ns{0};      // h.Call issue -> proc start, summed
  std::atomic<std::int64_t> proc_ns{0};     // inside the procs, summed
  std::atomic<std::int64_t> lock_ns[2]{};     // per-call lock awaits
  std::atomic<std::int32_t> calls{0};
  std::atomic<std::int32_t> outcome{-1};    // vsr::vr::TxnOutcome once final
  std::atomic<std::int32_t> attempts{0};
  bool is_read = false;  // set before the first submission
};

// The span table the procs and bodies write to while a traced phase runs.
// `now` is the span clock: wall time on the real host, virtual time on the
// simulator.
struct SpanSink {
  TxnRec* recs = nullptr;
  std::size_t size = 0;
  std::function<std::int64_t()> now;
  TxnRec* At(std::uint64_t id) const { return id < size ? &recs[id] : nullptr; }
};

// Protocol counters summed over cohorts, read through the public *Stats
// accessors. Differences of two snapshots give a phase's work.
struct Counters {
  double frames = 0;
  double bytes = 0;
  double send_failures = 0;
  double prepares = 0;          // prepares answered by participants
  double fused = 0;             // fused commits at coordinators
  double views_formed = 0;
  double forces = 0;
  double forces_immediate = 0;
  double batches = 0;
  double records_sent = 0;
  double records_retransmitted = 0;
  double snapshots_served = 0;  // laggards routed to state transfer
  double lock_waits = 0;
  double lock_timeouts = 0;
  void Add(const Cohort& c);
  Counters operator-(const Counters& o) const;
  Counters operator+(const Counters& o) const;
};

// Installs (or clears, with nullptr) the sink. Only flipped while no
// transaction is in flight; the sink must outlive every procedure that may
// still hold it (a procedure can resume after its transaction gave up).
void SetSpanSink(const SpanSink* sink);
const SpanSink* ActiveSink();

// Registers the benchmark's bank procedures (open/deposit/withdraw/balance)
// on one cohort. Arguments carry the transaction's index so a traced run can
// attribute server-side time to it: "acct=amount#id", "acct#id", and
// "first-last=amount" for the set-up "open".
void RegisterBenchProcs(Cohort& cohort);

// The transaction body for one spec, as the client coordinator runs it.
// `banks[i]` is the GroupId of bank group i.
vsr::core::TxnBody MakeBody(const TxnSpec& spec, std::uint64_t id,
                            const std::vector<GroupId>& banks);
vsr::core::TxnBody MakeOpenBody(GroupId bank, std::uint32_t first,
                                std::uint32_t last);

}  // namespace perfbench
