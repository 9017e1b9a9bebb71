// Real-host workloads: deposit-1g, transfer-2g and failover-1g on
// host::LoopbackCluster (event-loop threads + TCP over 127.0.0.1).
//
// A run is a number of rounds. Each round sets up a fresh cluster, runs an
// open-loop phase (a fixed arrival rate, each transaction timed from the
// instant it was due), then a closed-loop capacity phase (16 transactions in
// flight), and checks the cluster's state before tearing it down.
// failover-1g crashes and recovers the bank primary once in every open-loop
// phase. Results are medians over rounds: a fresh cluster per round gives
// each round its own thread placement, so one unlucky placement or one
// stalled stretch moves a single round, not the run.
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "host/loopback.h"
#include "runners.h"

namespace perfbench {
namespace {

using vsr::host::LoopbackCluster;
using vsr::vr::TxnOutcome;

constexpr int kWindow = 16;
constexpr int kOpenAttempts = 10;
// Aborted open-loop transactions are resubmitted (failover-1g: calls that
// hit the crashed primary abort until the new view forms).
constexpr int kMaxAttempts = 2000;
// Rounds per run, and the open-loop warm-up before each round's measured
// phases.
constexpr int kRounds = 8;
constexpr double kWarmupS = 0.3;
// Fault schedule of failover-1g: in every open-loop phase, crash the bank
// primary at this share of the phase and recover it at the second.
constexpr double kCrashAt = 0.25;
constexpr double kRecoverAt = 0.6;
// Upper bound on any wait for the cluster to settle.
constexpr std::int64_t kWaitNs = 20'000'000'000LL;
// A run whose open-loop generator ran this late at the median has fallen
// behind its schedule (a backlog, not a stall) and is invalid.
constexpr double kMaxLateP50Us = 1000;
// Gap between calibration slices in the closed-loop window.
constexpr std::int64_t kSliceGapNs = 20'000'000;

struct Workload {
  Mix mix;
  double rate = 1000;   // open-loop arrivals per second
  bool kills = false;   // failover schedule during the open loop
};

Workload WorkloadFor(const std::string& name) {
  Workload w;
  if (name == "deposit-1g" || name == "failover-1g") {
    w.mix = Mix{1, 4096, 0.0, 0.0, 0.0};
    w.rate = 1000;
    w.kills = name == "failover-1g";
  } else if (name == "transfer-2g") {
    w.mix = Mix{2, 1024, 0.99, 0.5, 0.5};
    w.rate = 300;
  } else {
    throw std::invalid_argument("unknown real-host workload " + name);
  }
  return w;
}

// The wall-clock figures of an untraced run, for the reader of its output
// (they are per-layer metrics: see README.md for why).
std::string Summary(const Report& layer) {
  std::string s = "wall clock:";
  for (const char* name :
       {"bench.commit_p50_us", "bench.commit_p99_us", "bench.capacity_txn_s",
        "bench.read_p50_us", "bench.unavail_ms", "bench.steal_pct"}) {
    s += std::string(" ") + name + "=" + std::to_string(layer.Get(name));
  }
  return s;
}

void SleepUntilNs(std::int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

double Secs(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

// One cluster: the bank groups and the one-node client coordinator.
struct World {
  std::unique_ptr<LoopbackCluster> cl;
  std::vector<GroupId> banks;
  std::size_t cidx = 0;  // the client coordinator's node

  // Forms every group and opens every account; returns the seconds taken.
  double Setup(const Mix& mix) {
    const std::int64_t t0 = WallNs();
    cl = std::make_unique<LoopbackCluster>();
    for (int g = 0; g < mix.groups; ++g) {
      banks.push_back(cl->AddGroup("bank" + std::to_string(g), 3));
    }
    const GroupId client = cl->AddGroup("client", 1);
    for (GroupId b : banks) {
      for (Cohort* c : cl->Cohorts(b)) RegisterBenchProcs(*c);
    }
    cl->Start();
    for (GroupId g : banks) {
      if (!cl->WaitUntilStable(g)) throw std::runtime_error("bank never formed");
    }
    if (!cl->WaitUntilStable(client)) {
      throw std::runtime_error("client never formed");
    }
    cidx = cl->PrimaryIndex(client).value();

    // Open the accounts kOpenBatch at a time, 16 in flight; a range whose
    // transaction aborted (a call timed out on a slow host) is opened again.
    struct Range {
      GroupId bank;
      std::uint32_t first, last;
    };
    std::vector<Range> pending;
    for (GroupId b : banks) {
      for (std::uint32_t first = 0; first < mix.accounts; first += kOpenBatch) {
        pending.push_back(
            {b, first, std::min(first + kOpenBatch, mix.accounts) - 1});
      }
    }
    for (int attempt = 0; attempt < kOpenAttempts && !pending.empty();
         ++attempt) {
      std::mutex mu;
      std::condition_variable cv;
      std::size_t in_flight = 0, done = 0;
      std::vector<Range> failed;
      for (const Range& r : pending) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return in_flight < kWindow; });
          ++in_flight;
        }
        cl->SpawnTransactionOn(
            cidx, MakeOpenBody(r.bank, r.first, r.last), [&, r](TxnOutcome o) {
              std::lock_guard<std::mutex> lock(mu);
              --in_flight;
              ++done;
              if (o != TxnOutcome::kCommitted) failed.push_back(r);
              cv.notify_all();
            });
      }
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done == pending.size(); });
      pending = std::move(failed);
    }
    if (!pending.empty()) {
      throw std::runtime_error("set-up: opening accounts failed");
    }
    return Secs(WallNs() - t0);
  }

  Counters Snap() {
    Counters k;
    for (std::size_t i = 0; i < cl->NodeCount(); ++i) {
      cl->RunOn(i, [&](Cohort& c) { k.Add(c); });
      const auto ts = cl->TransportStats(i);
      k.frames += static_cast<double>(ts.frames_sent);
      k.bytes += static_cast<double>(ts.bytes_sent);
      k.send_failures += static_cast<double>(ts.send_failures);
    }
    return k;
  }

  // Every replica of `g` active in the primary's view.
  bool AllActive(GroupId g) {
    std::optional<vsr::vr::ViewId> primary_view;
    if (auto p = cl->PrimaryIndex(g)) {
      cl->RunOn(*p, [&](Cohort& c) { primary_view = c.cur_viewid(); });
    }
    if (!primary_view) return false;
    for (std::size_t idx : cl->GroupNodes(g)) {
      bool ok = false;
      cl->RunOn(idx, [&](Cohort& c) {
        ok = c.status() == vsr::core::Status::kActive &&
             c.cur_viewid() == *primary_view;
      });
      if (!ok) return false;
    }
    return true;
  }

  std::vector<long long> Balances(std::size_t idx, std::uint32_t accounts) {
    std::vector<long long> out(accounts, -1);
    cl->RunOn(idx, [&](Cohort& c) {
      for (std::uint32_t i = 0; i < accounts; ++i) {
        auto v = c.objects().ReadCommitted(AccountName(i));
        if (v && !v->empty()) out[i] = std::stoll(*v);
      }
    });
    return out;
  }

  // Tentative versions and locks held at a node: nonzero while a
  // transaction is still running or in doubt there.
  std::size_t Unsettled(std::size_t idx) {
    std::size_t n = 0;
    cl->RunOn(idx, [&](Cohort& c) {
      n = c.objects().tentative_count() + c.objects().lock_count();
    });
    return n;
  }
};

// One round: a fresh cluster, its open-loop and closed-loop phases.
struct Round {
  bool traced = false;
  double steal_pct = 0;  // of the machine's CPU time during the round
  double setup_s = 0;
  std::size_t first_id = 0;  // measured open-loop records of this round
  std::size_t end_id = 0;
  double capacity = 0;
  double cap_committed = 0;
  Usage cap_usage;        // the cluster's, without the calibration slices
  double slice_us = 0;    // calibration slices of the closed-loop window
  int slices = 0;
  Counters cap_counters;
  Counters counters;      // the whole round
  double transfers = 0;   // committed transfers, open and closed loop
  std::vector<std::int64_t> crash_ns;
  std::vector<double> new_primary_ms;
  std::vector<double> rejoin_ms;
};

class RealBench {
 public:
  RealBench(const Options& opt, Output& out)
      : opt_(opt), w_(WorkloadFor(opt.workload)), out_(out) {}

  void Run();

 private:
  Round RunRound(double seconds, bool traced);
  void ClosedPhase(double seconds, Round& round);
  void OpenLoop(std::size_t first, std::size_t count, std::int64_t t0);
  void Submit(std::uint64_t id);
  void OnOpenDone(std::uint64_t id, TxnOutcome o);
  void SubmitClosed();
  void OnClosedDone(std::size_t spec, TxnOutcome o);
  void Tally(const TxnSpec& spec, TxnOutcome o);
  void Inject(std::int64_t t0, double phase_s, Round& round);
  void WaitOpenDrained(std::size_t end_id);
  void Verify();
  std::vector<double> Latencies(const Round& round, bool reads) const;

  const Options opt_;
  const Workload w_;
  Output& out_;
  World world_;

  std::vector<TxnSpec> open_specs_;
  std::vector<TxnSpec> closed_specs_;
  std::unique_ptr<TxnRec[]> recs_;
  std::size_t nrecs_ = 0;
  SpanSink sink_;
  std::size_t next_open_ = 0;

  std::atomic<std::size_t> open_final_{0};
  std::atomic<std::uint64_t> closed_seq_{0};
  std::atomic<std::uint64_t> closed_committed_{0};
  std::atomic<std::uint64_t> closed_failed_{0};
  std::atomic<int> closed_in_flight_{0};
  std::atomic<bool> closed_stop_{true};
  std::atomic<long long> deposit_committed_sum_{0};
  std::atomic<long long> deposit_unknown_sum_{0};
  std::atomic<std::uint64_t> transfers_committed_{0};
  std::atomic<bool> stop_retries_{false};
};

void RealBench::Submit(std::uint64_t id) {
  TxnRec& r = recs_[id];
  r.attempts.fetch_add(1, std::memory_order_relaxed);
  r.spawn.store(WallNs(), std::memory_order_relaxed);
  world_.cl->SpawnTransactionOn(
      world_.cidx, MakeBody(open_specs_[id], id, world_.banks),
      [this, id](TxnOutcome o) { OnOpenDone(id, o); });
}

void RealBench::Tally(const TxnSpec& spec, TxnOutcome o) {
  if (spec.kind == Kind::kTransfer && o == TxnOutcome::kCommitted) {
    transfers_committed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (spec.kind != Kind::kDeposit) return;
  if (o == TxnOutcome::kCommitted) {
    deposit_committed_sum_.fetch_add(spec.amount);
  } else if (o != TxnOutcome::kAborted) {
    deposit_unknown_sum_.fetch_add(spec.amount);
  }
}

void RealBench::OnOpenDone(std::uint64_t id, TxnOutcome o) {
  TxnRec& r = recs_[id];
  r.done.store(WallNs(), std::memory_order_relaxed);
  if (o == TxnOutcome::kAborted && !stop_retries_.load() &&
      r.attempts.load(std::memory_order_relaxed) < kMaxAttempts) {
    Submit(id);
    return;
  }
  Tally(open_specs_[id], o);
  r.outcome.store(static_cast<int>(o), std::memory_order_relaxed);
  open_final_.fetch_add(1, std::memory_order_release);
}

void RealBench::SubmitClosed() {
  const std::size_t spec = static_cast<std::size_t>(
      closed_seq_.fetch_add(1) % closed_specs_.size());
  world_.cl->SpawnTransactionOn(
      world_.cidx, MakeBody(closed_specs_[spec], nrecs_, world_.banks),
      [this, spec](TxnOutcome o) { OnClosedDone(spec, o); });
}

void RealBench::OnClosedDone(std::size_t spec, TxnOutcome o) {
  if (o == TxnOutcome::kCommitted) {
    closed_committed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    closed_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  Tally(closed_specs_[spec], o);
  if (!closed_stop_.load(std::memory_order_relaxed)) {
    SubmitClosed();
  } else {
    closed_in_flight_.fetch_sub(1, std::memory_order_release);
  }
}

void RealBench::OpenLoop(std::size_t first, std::size_t count,
                         std::int64_t t0) {
  const double gap_ns = 1e9 / w_.rate;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t id = first + k;
    const std::int64_t due =
        t0 + static_cast<std::int64_t>(static_cast<double>(k) * gap_ns);
    SleepUntilNs(due);
    recs_[id].due.store(due, std::memory_order_relaxed);
    recs_[id].is_read = open_specs_[id].kind == Kind::kRead;
    Submit(id);
  }
}

void RealBench::WaitOpenDrained(std::size_t end_id) {
  const std::int64_t deadline = WallNs() + kWaitNs;
  while (open_final_.load(std::memory_order_acquire) < end_id &&
         WallNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// One fault of failover-1g, inside an open-loop phase that started at t0:
// crash the bank primary, wait for a new one, recover the old primary and
// wait until it is active in the new view.
void RealBench::Inject(std::int64_t t0, double phase_s, Round& round) {
  auto& cl = *world_.cl;
  const GroupId bank = world_.banks[0];
  SleepUntilNs(t0 + static_cast<std::int64_t>(kCrashAt * phase_s * 1e9));
  std::optional<std::size_t> victim;
  while (!(victim = cl.PrimaryIndex(bank))) {
    if (WallNs() - t0 > kWaitNs) {
      out_.e2e.Check(false, "failover: no bank primary to crash");
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  const std::int64_t crash = WallNs();
  cl.Crash(*victim);
  round.crash_ns.push_back(crash);
  for (;;) {
    const auto p = cl.PrimaryIndex(bank);
    if (p && *p != *victim) break;
    if (WallNs() - crash > kWaitNs) {
      out_.e2e.Check(false, "failover: no new primary");
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  round.new_primary_ms.push_back(static_cast<double>(WallNs() - crash) / 1e6);

  SleepUntilNs(t0 + static_cast<std::int64_t>(kRecoverAt * phase_s * 1e9));
  const std::int64_t recover = WallNs();
  cl.Recover(*victim);
  while (!world_.AllActive(bank)) {
    if (WallNs() - recover > kWaitNs) {
      out_.e2e.Check(false, "failover: crashed primary never rejoined");
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  round.rejoin_ms.push_back(static_cast<double>(WallNs() - recover) / 1e6);
}

// Closed loop: 16 in flight; the window opens after a short ramp.
void RealBench::ClosedPhase(double seconds, Round& round) {
  constexpr double kRampS = 0.1;
  closed_stop_ = false;
  closed_in_flight_ = kWindow;
  for (int i = 0; i < kWindow; ++i) SubmitClosed();
  std::this_thread::sleep_for(std::chrono::duration<double>(kRampS));
  const Counters c0 = world_.Snap();
  const Usage u0 = Usage::Now();
  const Usage mine0 = Usage::ThisThread();
  const std::uint64_t n0 = closed_committed_.load();
  const std::int64_t w0 = WallNs();
  // Calibration slices (common.h) on this thread, which has nothing else to
  // do until the window closes: one every kSliceGapNs, at least one.
  const std::int64_t w_end =
      w0 + static_cast<std::int64_t>((seconds - kRampS) * 1e9);
  do {
    round.slice_us += CalibrationSliceUs();
    ++round.slices;
    SleepUntilNs(std::min(w_end, WallNs() + kSliceGapNs));
  } while (WallNs() < w_end);
  const Usage u1 = Usage::Now();
  const Usage mine1 = Usage::ThisThread();
  const std::uint64_t n1 = closed_committed_.load();
  const std::int64_t w1 = WallNs();
  const Counters c1 = world_.Snap();
  closed_stop_ = true;
  const std::int64_t deadline = WallNs() + kWaitNs;
  while (closed_in_flight_.load(std::memory_order_acquire) > 0 &&
         WallNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  round.cap_committed = static_cast<double>(n1 - n0);
  round.capacity = round.cap_committed / Secs(w1 - w0);
  round.cap_usage = (u1 - u0) - (mine1 - mine0);
  round.cap_counters = c1 - c0;
}

Round RealBench::RunRound(double seconds, bool traced) {
  Round round;
  round.traced = traced;
  const auto steal0 = StealTicks();
  world_ = World{};
  round.setup_s = world_.Setup(w_.mix);
  deposit_committed_sum_ = 0;
  deposit_unknown_sum_ = 0;
  stop_retries_ = false;
  const Counters k0 = world_.Snap();
  const std::uint64_t x0 = transfers_committed_.load();

  const auto warm = static_cast<std::size_t>(w_.rate * kWarmupS);
  OpenLoop(next_open_, warm, WallNs() + 1'000'000);
  next_open_ += warm;

  const auto measured = static_cast<std::size_t>(w_.rate * seconds / 2);
  round.first_id = next_open_;
  round.end_id = next_open_ + measured;
  SetSpanSink(traced ? &sink_ : nullptr);
  const std::int64_t t0 = WallNs() + 1'000'000;
  std::thread faults;
  if (w_.kills) {
    faults = std::thread([&] { Inject(t0, seconds / 2, round); });
  }
  OpenLoop(round.first_id, measured, t0);
  next_open_ = round.end_id;
  if (faults.joinable()) faults.join();
  WaitOpenDrained(round.end_id);
  SetSpanSink(nullptr);
  if (w_.kills) {
    const std::int64_t deadline = WallNs() + kWaitNs;
    while (!world_.AllActive(world_.banks[0]) && WallNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  ClosedPhase(seconds / 2, round);
  round.counters = world_.Snap() - k0;
  round.transfers = static_cast<double>(transfers_committed_.load() - x0);
  Verify();
  round.steal_pct = StealPct(steal0, StealTicks());
  return round;
}

void RealBench::Verify() {
  auto& cl = *world_.cl;
  Report& rep = out_.e2e;
  stop_retries_ = true;
  for (GroupId g : world_.banks) {
    const std::int64_t deadline = WallNs() + kWaitNs;
    while (!world_.AllActive(g) && WallNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    rep.Check(world_.AllActive(g), "a bank replica is not active in the view");
  }
  // Backups apply committed records asynchronously, and a transaction
  // whose commit was in flight when its participant's primary crashed stays
  // in doubt until the new primary learns the outcome: poll until no
  // replica of a group holds a tentative version or a lock and every
  // replica reads the same committed value for every account.
  long long total = 0;
  for (GroupId g : world_.banks) {
    const auto& nodes = cl.GroupNodes(g);
    std::vector<std::vector<long long>> bal;
    bool settled = false, agree = false;
    const std::int64_t deadline = WallNs() + kWaitNs;
    while (!(settled && agree) && WallNs() < deadline) {
      settled = std::all_of(nodes.begin(), nodes.end(), [&](std::size_t idx) {
        return world_.Unsettled(idx) == 0;
      });
      bal.clear();
      for (std::size_t idx : nodes) {
        bal.push_back(world_.Balances(idx, w_.mix.accounts));
      }
      agree = std::all_of(bal.begin(), bal.end(),
                          [&](const auto& b) { return b == bal[0]; });
      if (!(settled && agree)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    rep.Check(settled, "a transaction is still running or in doubt");
    rep.Check(agree, "replicas disagree on committed balances");
    for (long long b : bal[0]) {
      rep.Check(b >= 0, "an opened account is missing");
      total += b;
    }
  }
  const long long opening = kOpeningBalance *
                            static_cast<long long>(w_.mix.accounts) *
                            static_cast<long long>(w_.mix.groups);
  const long long lo = opening + deposit_committed_sum_.load();
  const long long hi = lo + deposit_unknown_sum_.load();
  rep.Check(total >= lo && total <= hi,
            "money not conserved: total " + std::to_string(total) +
                " outside [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "]");
}

// Latencies of a round's committed open-loop transactions (updates or
// reads), from due time to outcome, in us.
std::vector<double> RealBench::Latencies(const Round& round,
                                         bool reads) const {
  std::vector<double> v;
  for (std::size_t id = round.first_id; id < round.end_id; ++id) {
    const TxnRec& r = recs_[id];
    if (r.outcome.load() != static_cast<int>(TxnOutcome::kCommitted)) continue;
    if (r.is_read != reads) continue;
    v.push_back(static_cast<double>(r.done - r.due) / 1e3);
  }
  return v;
}

void RealBench::Run() {
  Report& e2e = out_.e2e;
  Report& layer = out_.layer;

  // A traced run alternates untraced and traced rounds of the same shape,
  // so the untraced ones give the baseline for the tracing overhead.
  const int rounds = kRounds;
  const double round_s = opt_.seconds / rounds;
  nrecs_ = static_cast<std::size_t>(
      rounds * (w_.rate * (round_s / 2 + kWarmupS) + 2));
  recs_ = std::make_unique<TxnRec[]>(nrecs_);
  sink_ = SpanSink{recs_.get(), nrecs_, WallNs};
  open_specs_ = Generate(w_.mix, opt_.seed, nrecs_);
  closed_specs_ = Generate(w_.mix, opt_.seed ^ 0x5bd1e995u, 1 << 16);

  std::vector<Round> plain, traced;
  std::vector<double> setups;
  for (int i = 0; i < rounds; ++i) {
    Round r = RunRound(round_s, opt_.trace && i % 2 == 1);
    setups.push_back(r.setup_s);
    (r.traced ? traced : plain).push_back(std::move(r));
  }
  world_ = World{};

  std::uint64_t open_failed = 0;
  for (std::size_t id = 0; id < next_open_; ++id) {
    if (recs_[id].outcome.load() != static_cast<int>(TxnOutcome::kCommitted)) {
      ++open_failed;
    }
  }
  e2e.attempted = next_open_ + closed_seq_.load();
  e2e.failed = open_failed + closed_failed_.load();

  std::vector<double> raw_cpus, slices;
  std::vector<double> late, p50s, p90s, p99s, caps, cpus, steals, commit_all,
      read_all, unavail;
  std::string round_note =
      "rounds (p50 us, p90 us, p99 us, capacity 1/s, cpu us, raw cpu us, "
      "slice us, steal %):";
  for (const Round& round : plain) {
    for (std::size_t id = round.first_id; id < round.end_id; ++id) {
      // Lateness of the first attempt: spawn is rewritten on retries.
      if (recs_[id].attempts.load() == 1) {
        late.push_back(
            static_cast<double>(recs_[id].spawn - recs_[id].due) / 1e3);
      }
    }
    const std::vector<double> c = Latencies(round, false);
    const std::vector<double> r = Latencies(round, true);
    commit_all.insert(commit_all.end(), c.begin(), c.end());
    read_all.insert(read_all.end(), r.begin(), r.end());
    p50s.push_back(Quantile(c, 0.5));
    p99s.push_back(Quantile(c, 0.99));
    p90s.push_back(Quantile(c, 0.90));
    caps.push_back(round.capacity);
    raw_cpus.push_back((round.cap_usage.user_us + round.cap_usage.sys_us) /
                       round.cap_committed);
    slices.push_back(round.slice_us / round.slices);
    cpus.push_back(raw_cpus.back() * kReferenceSliceUs / slices.back());
    steals.push_back(round.steal_pct);
    round_note += " (" + std::to_string(static_cast<int>(p50s.back())) + ", " +
                  std::to_string(static_cast<int>(p90s.back())) + ", " +
                  std::to_string(static_cast<int>(p99s.back())) + ", " +
                  std::to_string(static_cast<int>(caps.back())) + ", " +
                  std::to_string(static_cast<int>(cpus.back())) + ", " +
                  std::to_string(static_cast<int>(raw_cpus.back())) + ", " +
                  std::to_string(static_cast<int>(slices.back())) + ", " +
                  std::to_string(round.steal_pct).substr(0, 4) + ")";
    // Time without service after the crash: to the first commit of a
    // transaction attempt submitted after it.
    for (std::int64_t crash : round.crash_ns) {
      std::int64_t first = 0;
      for (std::size_t id = round.first_id; id < round.end_id; ++id) {
        const TxnRec& t = recs_[id];
        if (t.outcome.load() != static_cast<int>(TxnOutcome::kCommitted) ||
            t.spawn < crash) {
          continue;
        }
        if (first == 0 || t.done < first) first = t.done;
      }
      if (first != 0) {
        unavail.push_back(static_cast<double>(first - crash) / 1e6);
      }
    }
  }
  out_.notes.push_back(round_note);
  out_.notes.push_back("pooled open loop: " +
                       std::to_string(commit_all.size()) + " commits, " +
                       std::to_string(read_all.size()) + " reads");
  const double late_p50 = Quantile(late, 0.5);
  if (late_p50 > kMaxLateP50Us) {
    out_.invalid = "open-loop generator fell behind: lateness p50 " +
                   std::to_string(late_p50) + " us";
  }

  e2e.Set("setup_s", Median(setups), "s");
  e2e.Set("cpu_us_per_txn", Median(cpus), "us");

  layer.Set("bench.commit_p50_us", Median(p50s), "us");
  layer.Set("bench.capacity_txn_s", Median(caps), "1/s");
  layer.Set("bench.steal_pct", Median(steals), "%");
  layer.Set("bench.cpu_raw_us_per_txn", Median(raw_cpus), "us");
  layer.Set("bench.calib_slice_us", Median(slices), "us");
  layer.Set("bench.commit_samples", static_cast<double>(commit_all.size()),
            "count");
  layer.Set("bench.read_p50_us", Quantile(read_all, 0.5), "us");
  layer.Set("bench.unavail_ms", Median(unavail), "ms");
  layer.Set("bench.gen_late_p99_us", Quantile(late, 0.99), "us");
  layer.Set("bench.commit_p99_us", Quantile(commit_all, 0.99), "us");
  layer.Set("bench.fail_ratio",
            static_cast<double>(e2e.failed) /
                static_cast<double>(std::max<std::uint64_t>(e2e.attempted, 1)),
            "ratio");
  out_.notes.push_back(Summary(layer));
  if (!opt_.trace) return;

  // Per-layer view from the traced rounds: spans of their open-loop phases,
  // counters of their closed-loop phases (capacity work) or of the whole
  // round (faults, view changes, timeouts).
  std::vector<TxnRec*> spans;
  for (const Round& round : traced) {
    for (std::size_t id = round.first_id; id < round.end_id; ++id) {
      spans.push_back(&recs_[id]);
    }
  }
  const double traced_p50 = SetSpanMetrics(spans, layer);
  layer.Set("trace.overhead_us", traced_p50 - Quantile(commit_all, 0.5), "us");

  Counters c, whole;
  Usage u;
  double n = 0, transfers = 0;
  std::vector<double> new_primary, rejoin;
  for (const Round& round : traced) {
    c = c + round.cap_counters;
    whole = whole + round.counters;
    u = u + round.cap_usage;
    n += round.cap_committed;
    transfers += round.transfers;
    new_primary.insert(new_primary.end(), round.new_primary_ms.begin(),
                       round.new_primary_ms.end());
    rejoin.insert(rejoin.end(), round.rejoin_ms.begin(),
                  round.rejoin_ms.end());
  }
  layer.Set("host.frames_per_txn", c.frames / n, "count");
  layer.Set("host.bytes_per_txn", c.bytes / n, "B");
  layer.Set("host.csw_per_txn", u.csw / n, "count");
  layer.Set("host.sys_us_per_txn", u.sys_us / n, "us");
  layer.Set("host.user_us_per_txn", u.user_us / n, "us");
  layer.Set("host.send_failures", whole.send_failures, "count");
  layer.Set("core.new_primary_ms", Median(new_primary), "ms");
  layer.Set("vr.rejoin_ms", Median(rejoin), "ms");
  SetCounterMetrics(c, n, whole, transfers, layer);

  // The simulated twin: exact frame counts of this traffic shape, and the
  // frame corpus the wire costs are timed on.
  const SimRun twin = RunSim(w_.mix, opt_.seed, 2000, false, true);
  for (const std::string& e : twin.errors) e2e.Check(false, "sim twin: " + e);
  SetNetMetrics(twin, layer);
  SetWireMetrics(twin.corpus, c.frames > 0 ? c.bytes / c.frames : 0,
                 c.bytes / n, layer);
}

}  // namespace

bool IsRealHostWorkload(const std::string& name) {
  return name == "deposit-1g" || name == "transfer-2g" ||
         name == "failover-1g";
}

void RunRealHost(const Options& opt, Output& out) {
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  RealBench bench(opt, out);
  bench.Run();
}

}  // namespace perfbench
