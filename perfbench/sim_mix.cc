// sim-mix: the transfer-2g mix plus deposits on the deterministic simulator
// (client::Cluster, seeded), closed loop with 16 in flight for a fixed
// number of transactions. Every count and every virtual latency repeats
// exactly at one seed; only the host CPU the simulator burns varies.
#include <sched.h>

#include <map>
#include <numeric>

#include "client/cluster.h"
#include "runners.h"

namespace perfbench {
namespace {

using vsr::vr::TxnOutcome;

constexpr int kWindow = 16;
constexpr std::size_t kSimTxns = 4000;
constexpr std::size_t kCorpusFrames = 20000;
constexpr int kMinReps = 3;
// A calibration slice runs after every kSliceEvery completions.
constexpr std::size_t kSliceEvery = 100;

const Mix kSimMix{2, 1024, 0.99, 1.0 / 3, 1.0 / 3};

// Repeats must agree on every count and every virtual latency.
bool SameRun(const SimRun& a, const SimRun& b) {
  return a.attempted == b.attempted && a.committed == b.committed &&
         a.failed == b.failed && a.frames == b.frames && a.bytes == b.bytes &&
         a.virtual_s == b.virtual_s && a.commit_us == b.commit_us &&
         a.read_us == b.read_us && a.frames_by_type == b.frames_by_type;
}

// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

// Binds the calling thread to `cpus` (all of them, or the one at `pick`).
void BindTo(const std::vector<int>& cpus, int pick) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    if (pick < 0 || static_cast<int>(i) == pick) CPU_SET(cpus[i], &set);
  }
  ::sched_setaffinity(0, sizeof(set), &set);
}

// Repeat i ran on CPU i % cpus: the median of each CPU's repeats, then
// the mean over CPUs.
double PerCpuMean(const std::vector<double>& v, std::size_t cpus) {
  cpus = std::max<std::size_t>(cpus, 1);
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t c = 0; c < cpus && c < v.size(); ++c) {
    std::vector<double> mine;
    for (std::size_t i = c; i < v.size(); i += cpus) mine.push_back(v[i]);
    sum += Median(mine);
    ++n;
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

}  // namespace

const std::vector<std::string>& FrameKinds() {
  static const std::vector<std::string> kinds = {
      "ping",   "buffer-batch",  "buffer-ack", "call",        "reply",
      "prepare", "prepare-reply", "commit",    "commit-done", "other"};
  return kinds;
}

SimRun RunSim(const Mix& mix, std::uint64_t seed, std::size_t txns,
              bool traced, bool capture) {
  SimRun out;
  const std::int64_t t0 = WallNs();
  vsr::client::ClusterOptions co;
  co.seed = seed;
  vsr::client::Cluster cl(co);
  std::vector<GroupId> banks;
  for (int g = 0; g < mix.groups; ++g) {
    banks.push_back(cl.AddGroup("bank" + std::to_string(g), 3));
  }
  const GroupId client = cl.AddGroup("client", 1);
  for (GroupId b : banks) {
    for (Cohort* c : cl.Cohorts(b)) RegisterBenchProcs(*c);
  }
  cl.Start();
  if (!cl.RunUntilStable()) {
    out.errors.push_back("groups never formed");
    return out;
  }
  Cohort* coord = cl.AnyPrimary(client);
  auto& sched = cl.sim().scheduler();
  const vsr::host::Time deadline = cl.sim().Now() + 600 * vsr::host::kSecond;

  std::size_t opens = 0, opened = 0, open_done = 0;
  for (GroupId b : banks) {
    for (std::uint32_t first = 0; first < mix.accounts; first += kOpenBatch) {
      ++opens;
      coord->SpawnTransaction(
          MakeOpenBody(b, first, std::min(first + kOpenBatch, mix.accounts) - 1),
          [&](TxnOutcome o) {
            ++open_done;
            if (o == TxnOutcome::kCommitted) ++opened;
          });
    }
  }
  while (open_done < opens && cl.sim().Now() < deadline && sched.Step()) {
  }
  if (opened != opens) {
    out.errors.push_back("opening accounts failed");
    return out;
  }
  out.setup_s = static_cast<double>(WallNs() - t0) / 1e9;

  // The measured closed loop.
  const std::vector<TxnSpec> specs = Generate(mix, seed, txns);
  auto recs = std::make_unique<TxnRec[]>(txns);
  auto vnow = [&cl] { return static_cast<std::int64_t>(cl.sim().Now()) * 1000; };
  SpanSink sink{recs.get(), txns, vnow};
  SetSpanSink(traced ? &sink : nullptr);
  cl.network().ResetStats();
  if (capture) {
    cl.network().set_observer([&out](const vsr::net::Frame& f) {
      if (out.corpus.size() < kCorpusFrames) out.corpus.push_back(f);
    });
  }
  Counters k0;
  for (GroupId g : cl.AllGroups()) {
    for (Cohort* c : cl.Cohorts(g)) k0.Add(*c);
  }

  std::size_t next = 0, final_count = 0;
  long long deposits = 0, unknown_deposits = 0;
  std::function<void()> submit;
  auto on_done = [&](std::size_t id, TxnOutcome o) {
    recs[id].done = vnow();
    recs[id].outcome = static_cast<int>(o);
    ++final_count;
    if (o == TxnOutcome::kCommitted) {
      ++out.committed;
      if (specs[id].kind == Kind::kTransfer) ++out.committed_transfers;
      if (specs[id].kind == Kind::kDeposit) deposits += specs[id].amount;
    } else {
      ++out.failed;
      if (o != TxnOutcome::kAborted && specs[id].kind == Kind::kDeposit) {
        unknown_deposits += specs[id].amount;
      }
    }
    if (next < txns) sched.After(0, submit);
  };
  // Two completions in one instant can both schedule a submit for the last
  // transaction; the second finds nothing left.
  submit = [&] {
    if (next >= txns) return;
    const std::size_t id = next++;
    recs[id].due = vnow();
    recs[id].spawn = recs[id].due.load();
    recs[id].is_read = specs[id].kind == Kind::kRead;
    ++out.attempted;
    coord->SpawnTransaction(MakeBody(specs[id], id, banks),
                            [&on_done, id](TxnOutcome o) { on_done(id, o); });
  };
  // Calibration slices run between simulation steps, spread evenly over
  // the run; their CPU time is taken out of the run's own.
  std::vector<double> slices;
  std::size_t next_slice = kSliceEvery;
  const double c0 = ThreadCpuUs();
  const vsr::host::Time v0 = cl.sim().Now();
  for (int i = 0; i < kWindow && next < txns; ++i) submit();
  while (final_count < txns && cl.sim().Now() < deadline && sched.Step()) {
    if (final_count >= next_slice) {
      slices.push_back(CalibrationSliceUs());
      next_slice += kSliceEvery;
    }
  }
  const double slices_us = std::accumulate(slices.begin(), slices.end(), 0.0);
  const double sim_cpu_us = ThreadCpuUs() - c0 - slices_us;
  out.virtual_s = static_cast<double>(cl.sim().Now() - v0) / 1e6;
  SetSpanSink(nullptr);
  cl.network().set_observer(nullptr);
  out.failed += txns - final_count;
  out.cpu_us_per_txn =
      sim_cpu_us /
      static_cast<double>(std::max<std::uint64_t>(out.committed, 1));
  out.slice_us =
      slices.empty() ? 0 : slices_us / static_cast<double>(slices.size());

  for (std::size_t id = 0; id < final_count; ++id) {
    if (recs[id].outcome != static_cast<int>(TxnOutcome::kCommitted)) continue;
    const double us = static_cast<double>(recs[id].done - recs[id].due) / 1e3;
    (specs[id].kind == Kind::kRead ? out.read_us : out.commit_us).push_back(us);
  }
  if (traced) {
    std::vector<TxnRec*> all;
    for (std::size_t id = 0; id < final_count; ++id) all.push_back(&recs[id]);
    SetSpanMetrics(all, out.spans);
  }

  const auto& ns = cl.network().stats();
  out.bytes = static_cast<double>(ns.bytes_sent);
  std::map<std::string, double> by_kind;
  for (const std::string& k : FrameKinds()) by_kind[k] = 0;
  for (const auto& [type, n] : ns.sent_by_type) {
    out.frames += static_cast<double>(n);
    const std::string name =
        vsr::vr::MsgTypeName(static_cast<vsr::vr::MsgType>(type));
    by_kind[by_kind.count(name) != 0 ? name : "other"] +=
        static_cast<double>(n);
  }
  for (const std::string& k : FrameKinds()) {
    out.frames_by_type.emplace_back(k, by_kind[k]);
  }
  Counters k1;
  for (GroupId g : cl.AllGroups()) {
    for (Cohort* c : cl.Cohorts(g)) k1.Add(*c);
  }
  out.counters = k1 - k0;

  // Quiesce, then the correctness gate: replicas agree, money is
  // conserved, and every committed transfer took the fused commit path.
  cl.RunFor(1 * vsr::host::kSecond);
  long long total = 0;
  for (GroupId g : banks) {
    std::vector<std::vector<long long>> bal;
    for (Cohort* c : cl.Cohorts(g)) {
      std::vector<long long> b(mix.accounts, -1);
      for (std::uint32_t i = 0; i < mix.accounts; ++i) {
        auto v = c->objects().ReadCommitted(AccountName(i));
        if (v && !v->empty()) b[i] = std::stoll(*v);
      }
      bal.push_back(std::move(b));
    }
    for (const auto& b : bal) {
      if (b != bal[0]) out.errors.push_back("replicas disagree");
    }
    for (long long b : bal[0]) total += b;
  }
  const long long expect = kOpeningBalance *
                               static_cast<long long>(mix.accounts) *
                               static_cast<long long>(mix.groups) +
                           deposits;
  if (total < expect || total > expect + unknown_deposits) {
    out.errors.push_back("money not conserved: " + std::to_string(total) +
                         " vs " + std::to_string(expect));
  }
  const double fused = static_cast<double>(coord->stats().fused_commits);
  if (fused != static_cast<double>(out.committed_transfers)) {
    out.errors.push_back("fused commits " + std::to_string(fused) +
                         " != committed transfers " +
                         std::to_string(out.committed_transfers));
  }
  return out;
}

void SetNetMetrics(const SimRun& run, Report& layer) {
  const double n = static_cast<double>(std::max<std::uint64_t>(run.committed, 1));
  layer.Set("net.frames_per_txn", run.frames / n, "count");
  layer.Set("net.bytes_per_txn", run.bytes / n, "B");
  for (const auto& [kind, frames] : run.frames_by_type) {
    layer.Set("net.frames_per_txn." + kind, frames / n, "count");
  }
}

void RunSimMix(const Options& opt, Output& out) {
  Report& e2e = out.e2e;
  Report& layer = out.layer;
  // Repeat the identical run until the time is used: counts must agree
  // exactly across repeats. Set-up time and host CPU per commit are
  // normalised by each repeat's own calibration slices (common.h). At one
  // moment the host's vCPUs differ in how much their neighbours slow them,
  // in ways the slices track only in part, so repeats rotate over the CPUs
  // and each run samples all of them alike.
  const std::vector<int> host_cpus = AllowedCpus();
  const std::int64_t t0 = WallNs();
  std::vector<SimRun> reps;
  while (reps.size() < static_cast<std::size_t>(kMinReps) ||
         static_cast<double>(WallNs() - t0) / 1e9 < opt.seconds) {
    if (!host_cpus.empty()) {
      BindTo(host_cpus, static_cast<int>(reps.size() % host_cpus.size()));
    }
    reps.push_back(RunSim(kSimMix, opt.seed, kSimTxns, false, false));
  }
  if (!host_cpus.empty()) BindTo(host_cpus, -1);
  for (const SimRun& r : reps) {
    e2e.Check(SameRun(reps.front(), r),
              "simulator run is not deterministic at one seed");
  }
  const SimRun& first = reps.front();
  for (const SimRun& r : reps) {
    for (const std::string& e : r.errors) e2e.Check(false, e);
  }
  std::vector<double> setups, cpus, raw_setups, raw_cpus, slices;
  for (const SimRun& r : reps) {
    e2e.Check(r.slice_us > 0, "no calibration slice ran");
    const double scale = kReferenceSliceUs / std::max(r.slice_us, 1e-3);
    setups.push_back(r.setup_s * scale);
    cpus.push_back(r.cpu_us_per_txn * scale);
    raw_setups.push_back(r.setup_s);
    raw_cpus.push_back(r.cpu_us_per_txn);
    slices.push_back(r.slice_us);
  }
  e2e.attempted = first.attempted;
  e2e.failed = first.failed;
  const std::size_t ncpu = host_cpus.size();
  e2e.Set("setup_s", PerCpuMean(setups, ncpu), "s");
  e2e.Set("cpu_us_per_txn", PerCpuMean(cpus, ncpu), "us");
  out.notes.push_back(
      "sim-mix: " + std::to_string(reps.size()) + " identical repeats of " +
      std::to_string(kSimTxns) + " transactions over " +
      std::to_string(ncpu) + " CPUs; calibration slice " +
      std::to_string(PerCpuMean(slices, ncpu)) + " us, unnormalised setup " +
      std::to_string(PerCpuMean(raw_setups, ncpu)) + " s and cpu " +
      std::to_string(PerCpuMean(raw_cpus, ncpu)) + " us per txn (repeats " +
      std::to_string(Quantile(raw_cpus, 0)) + " to " +
      std::to_string(Quantile(raw_cpus, 1)) + ")");

  out.notes.push_back(
      "virtual time: bench.commit_p50_us=" +
      std::to_string(Quantile(first.commit_us, 0.5)) +
      " bench.capacity_txn_s=" +
      std::to_string(static_cast<double>(first.committed) / first.virtual_s));
  if (!opt.trace) return;

  const SimRun tr = RunSim(kSimMix, opt.seed, kSimTxns, true, true);
  for (const std::string& e : tr.errors) e2e.Check(false, e);
  e2e.Check(SameRun(first, tr), "tracing changed the simulated run");
  layer = tr.spans;
  layer.Set("bench.cpu_raw_us_per_txn", PerCpuMean(raw_cpus, ncpu), "us");
  layer.Set("bench.calib_slice_us", PerCpuMean(slices, ncpu), "us");
  layer.Set("bench.commit_samples", static_cast<double>(first.commit_us.size()),
            "count");
  layer.Set("bench.read_p50_us", Quantile(first.read_us, 0.5), "us");
  layer.Set("bench.commit_p99_us", Quantile(first.commit_us, 0.99), "us");
  layer.Set("bench.commit_p50_us", Quantile(first.commit_us, 0.5), "us");
  layer.Set("bench.capacity_txn_s",
            static_cast<double>(first.committed) / first.virtual_s, "1/s");
  layer.Set("bench.fail_ratio",
            static_cast<double>(first.failed) /
                static_cast<double>(std::max<std::uint64_t>(first.attempted, 1)),
            "ratio");
  layer.Set("trace.overhead_us",
            Quantile(tr.commit_us, 0.5) - Quantile(first.commit_us, 0.5), "us");
  const double n = static_cast<double>(tr.committed);
  SetCounterMetrics(tr.counters, n, tr.counters,
                    static_cast<double>(tr.committed_transfers), layer);
  SetNetMetrics(tr, layer);
  SetWireMetrics(tr.corpus, tr.frames > 0 ? tr.bytes / tr.frames : 0,
                 tr.bytes / n, layer);
}

}  // namespace perfbench
