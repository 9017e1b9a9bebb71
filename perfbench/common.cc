#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <queue>
#include <unordered_map>
#include <string_view>

namespace perfbench {

using vsr::core::ProcContext;
using vsr::core::TxnError;
using vsr::core::TxnHandle;

std::int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

namespace {

Usage GetUsage(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  auto us = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e6 + static_cast<double>(t.tv_usec);
  };
  return {us(ru.ru_utime), us(ru.ru_stime),
          static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

}  // namespace

Usage Usage::Now() { return GetUsage(RUSAGE_SELF); }
Usage Usage::ThisThread() { return GetUsage(RUSAGE_THREAD); }

double ThreadCpuUs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

double CalibrationSliceUs() {
  constexpr int kIters = 3000;
  constexpr std::uint64_t kKeys = 1024;
  const double c0 = ThreadCpuUs();
  Rng rng(0x5eed);
  std::unordered_map<std::uint64_t, std::string> objects;
  std::map<std::string, std::uint64_t> index;
  std::priority_queue<std::pair<std::uint64_t, std::uint64_t>> timers;
  const std::function<void(std::uint64_t)> schedule = [&](std::uint64_t k) {
    timers.emplace(k * 2654435761u % 100000, k);
  };
  std::uint64_t fired = 0;
  for (int i = 0; i < kIters; ++i) {
    const std::uint64_t k = rng.Below(kKeys);
    std::string& v = objects[k];
    v.assign(24 + (k & 63), static_cast<char>('a' + (i & 15)));
    index[AccountName(static_cast<std::uint32_t>(k))] += v.size();
    schedule(k);
    if (timers.size() > 64) {
      fired += timers.top().second;
      timers.pop();
    }
    if (rng.Below(4) == 0) objects.erase(rng.Below(kKeys));
  }
  // Keeps the loop's result observable so the compiler cannot drop it.
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_add(fired + index.size(), std::memory_order_relaxed);
  return ThreadCpuUs() - c0;
}

std::pair<double, double> StealTicks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  double total = 0, steal = 0, v = 0;
  for (int i = 0; i < 8 && f >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

double StealPct(const std::pair<double, double>& from,
                const std::pair<double, double>& to) {
  const double ticks = to.second - from.second;
  return ticks > 0 ? 100.0 * (to.first - from.first) / ticks : 0.0;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  for (Entry& e : metrics_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

bool Report::Has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

double Report::Get(const std::string& name) const {
  for (const Entry& e : metrics_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

std::string Report::MetricsJson() const {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char num[64];
    auto res = std::to_chars(num, num + sizeof(num), metrics_[i].value);
    *res.ptr = '\0';
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  return out + "}";
}

void Counters::Add(const Cohort& c) {
  const auto& cs = c.stats();
  const auto& bs = c.buffer().stats();
  const auto& os = c.objects().stats();
  prepares += static_cast<double>(cs.prepares_ok + cs.prepares_refused);
  fused += static_cast<double>(cs.fused_commits);
  views_formed += static_cast<double>(cs.views_formed_as_manager);
  forces += static_cast<double>(bs.forces);
  forces_immediate += static_cast<double>(bs.forces_immediate);
  batches += static_cast<double>(bs.batches_sent);
  records_sent += static_cast<double>(bs.records_sent);
  records_retransmitted += static_cast<double>(bs.records_retransmitted);
  snapshots_served += static_cast<double>(bs.snapshots_served);
  lock_waits += static_cast<double>(os.waits);
  lock_timeouts += static_cast<double>(os.wait_timeouts);
}

namespace {

template <typename Op>
Counters Combine(const Counters& a, const Counters& b, Op op) {
  Counters d;
  d.frames = op(a.frames, b.frames);
  d.bytes = op(a.bytes, b.bytes);
  d.send_failures = op(a.send_failures, b.send_failures);
  d.prepares = op(a.prepares, b.prepares);
  d.fused = op(a.fused, b.fused);
  d.views_formed = op(a.views_formed, b.views_formed);
  d.forces = op(a.forces, b.forces);
  d.forces_immediate = op(a.forces_immediate, b.forces_immediate);
  d.batches = op(a.batches, b.batches);
  d.records_sent = op(a.records_sent, b.records_sent);
  d.records_retransmitted = op(a.records_retransmitted, b.records_retransmitted);
  d.snapshots_served = op(a.snapshots_served, b.snapshots_served);
  d.lock_waits = op(a.lock_waits, b.lock_waits);
  d.lock_timeouts = op(a.lock_timeouts, b.lock_timeouts);
  return d;
}

}  // namespace

Counters Counters::operator-(const Counters& o) const {
  return Combine(*this, o, std::minus<double>());
}

Counters Counters::operator+(const Counters& o) const {
  return Combine(*this, o, std::plus<double>());
}

std::uint64_t Rng::Next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Zipf::Zipf(std::uint32_t n, double s) : cdf_(n) {
  double total = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::uint32_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Unit();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<std::uint32_t>(it - cdf_.begin());
}

std::vector<TxnSpec> Generate(const Mix& mix, std::uint64_t seed,
                              std::size_t count) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 1);
  const Zipf zipf(mix.accounts, mix.zipf_s);
  std::vector<TxnSpec> out(count);
  for (TxnSpec& t : out) {
    const double u = rng.Unit();
    t.amount = static_cast<std::int32_t>(1 + rng.Below(100));
    t.ga = static_cast<std::uint8_t>(rng.Below(mix.groups));
    t.a = zipf.Sample(rng);
    if (u < mix.transfer_share && mix.groups >= 2) {
      t.kind = Kind::kTransfer;
      t.gb = static_cast<std::uint8_t>(
          (t.ga + 1 + rng.Below(mix.groups - 1)) % mix.groups);
      t.b = zipf.Sample(rng);
    } else if (u < mix.transfer_share + mix.read_share) {
      t.kind = Kind::kRead;
    } else {
      t.kind = Kind::kDeposit;
    }
  }
  return out;
}

std::string AccountName(std::uint32_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "a%04u", i);
  return buf;
}

namespace {

std::atomic<const SpanSink*> g_sink{nullptr};

std::vector<std::uint8_t> Bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

// "acct=amount#id", "acct#id" or "first-last=amount".
struct ProcArgs {
  std::string acct;
  long long amount = 0;
  std::uint64_t id = 0;
};

long long ParseNum(std::string_view s) {
  long long v = 0;
  auto res = std::from_chars(s.data(), s.data() + s.size(), v);
  if (res.ec != std::errc() || res.ptr != s.data() + s.size()) {
    throw TxnError("bad number: " + std::string(s));
  }
  return v;
}

ProcArgs Parse(const std::vector<std::uint8_t>& raw) {
  const std::string_view s(reinterpret_cast<const char*>(raw.data()),
                           raw.size());
  ProcArgs a;
  std::string_view head = s;
  if (auto hash = s.rfind('#'); hash != std::string_view::npos) {
    a.id = static_cast<std::uint64_t>(ParseNum(s.substr(hash + 1)));
    head = s.substr(0, hash);
  }
  if (auto eq = head.find('='); eq != std::string_view::npos) {
    a.amount = ParseNum(head.substr(eq + 1));
    head = head.substr(0, eq);
  }
  a.acct = std::string(head);
  return a;
}

long long Balance(const std::optional<std::string>& v) {
  return v && !v->empty() ? ParseNum(*v) : 0;
}

// Deposit (Sign +1) or withdraw (Sign -1), timed when a span sink is set:
// the hop from h.Call to here, the lock await, and the whole procedure.
template <int Sign>
vsr::host::Task<std::vector<std::uint8_t>> UpdateProc(ProcContext& ctx) {
  const ProcArgs a = Parse(ctx.args());
  const SpanSink* s = ActiveSink();
  TxnRec* r = s != nullptr ? s->At(a.id) : nullptr;
  std::int64_t t0 = 0;
  if (r != nullptr) {
    t0 = s->now();
    r->hop_ns.fetch_add(t0 - r->call_issue.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  }
  auto v = co_await ctx.ReadForUpdate(a.acct);
  if (r != nullptr) {
    const int slot = r->calls.fetch_add(1, std::memory_order_relaxed);
    if (slot < 2) {
      r->lock_ns[slot].store(s->now() - t0, std::memory_order_relaxed);
    }
  }
  const long long next = Balance(v) + Sign * a.amount;
  if (next < 0) throw TxnError("insufficient funds in " + a.acct);
  co_await ctx.Write(a.acct, std::to_string(next));
  if (r != nullptr) {
    r->proc_ns.fetch_add(s->now() - t0, std::memory_order_relaxed);
  }
  co_return Bytes(std::to_string(next));
}

}  // namespace

// Release/acquire: a loop thread that sees the sink also sees its fields.
void SetSpanSink(const SpanSink* sink) {
  g_sink.store(sink, std::memory_order_release);
}
const SpanSink* ActiveSink() {
  return g_sink.load(std::memory_order_acquire);
}

void RegisterBenchProcs(Cohort& cohort) {
  cohort.RegisterProc(
      "open",
      [](ProcContext& ctx) -> vsr::host::Task<std::vector<std::uint8_t>> {
        const ProcArgs a = Parse(ctx.args());
        const auto dash = a.acct.find('-');
        if (dash == std::string::npos) throw TxnError("bad open range");
        const auto first = static_cast<std::uint32_t>(
            ParseNum(std::string_view(a.acct).substr(0, dash)));
        const auto last = static_cast<std::uint32_t>(
            ParseNum(std::string_view(a.acct).substr(dash + 1)));
        for (std::uint32_t i = first; i <= last; ++i) {
          co_await ctx.Write(AccountName(i), std::to_string(a.amount));
        }
        co_return Bytes("ok");
      });
  cohort.RegisterProc("deposit", UpdateProc<+1>);
  cohort.RegisterProc("withdraw", UpdateProc<-1>);
  cohort.RegisterProc(
      "balance",
      [](ProcContext& ctx) -> vsr::host::Task<std::vector<std::uint8_t>> {
        const ProcArgs a = Parse(ctx.args());
        const SpanSink* s = ActiveSink();
        TxnRec* r = s != nullptr ? s->At(a.id) : nullptr;
        std::int64_t t0 = 0;
        if (r != nullptr) {
          t0 = s->now();
          r->hop_ns.fetch_add(
              t0 - r->call_issue.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
        }
        auto v = co_await ctx.Read(a.acct);
        if (r != nullptr) {
          const std::int64_t t1 = s->now();
          const int slot = r->calls.fetch_add(1, std::memory_order_relaxed);
          if (slot < 2) r->lock_ns[slot].store(t1 - t0,
                                               std::memory_order_relaxed);
          r->proc_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
        }
        co_return Bytes(v.value_or("0"));
      });
}

namespace {

// One h.Call, timed into the record when traced.
struct CallSpan {
  const SpanSink* s;
  TxnRec* r;
  std::int64_t t0 = 0;
  void Begin() {
    if (r == nullptr) return;
    t0 = s->now();
    r->call_issue.store(t0, std::memory_order_relaxed);
  }
  void End() {
    if (r != nullptr) {
      r->call_ns.fetch_add(s->now() - t0, std::memory_order_relaxed);
    }
  }
};

}  // namespace

vsr::core::TxnBody MakeBody(const TxnSpec& spec, std::uint64_t id,
                            const std::vector<GroupId>& banks) {
  // Appended rather than operator+ on a literal, which trips GCC 12's
  // -Wrestrict false positive.
  std::string tag = "#";
  tag += std::to_string(id);
  std::string amt = "=";
  amt += std::to_string(spec.amount);
  const GroupId ga = banks.at(spec.ga);
  switch (spec.kind) {
    case Kind::kDeposit:
    case Kind::kRead: {
      const bool read = spec.kind == Kind::kRead;
      std::string args = AccountName(spec.a) + (read ? "" : amt) + tag;
      return [ga, read, id, args = std::move(args)](
                 TxnHandle& h) -> vsr::host::Task<bool> {
        const SpanSink* s = ActiveSink();
        TxnRec* r = s != nullptr ? s->At(id) : nullptr;
        if (r != nullptr) r->body_start.store(s->now());
        CallSpan call{s, r};
        call.Begin();
        co_await h.Call(ga, read ? "balance" : "deposit", args);
        call.End();
        if (r != nullptr) r->body_end.store(s->now());
        co_return true;
      };
    }
    case Kind::kTransfer: {
      // Touch bank group 0 before group 1 whatever the direction, so every
      // transfer takes its locks in one global order and no two transfers
      // can deadlock waiting for each other.
      const GroupId gb = banks.at(spec.gb);
      std::string w_args = AccountName(spec.a) + amt + tag;
      std::string d_args = AccountName(spec.b) + amt + tag;
      const bool withdraw_first = spec.ga < spec.gb;
      return [ga, gb, id, withdraw_first, w_args = std::move(w_args),
              d_args = std::move(d_args)](
                 TxnHandle& h) -> vsr::host::Task<bool> {
        const SpanSink* s = ActiveSink();
        TxnRec* r = s != nullptr ? s->At(id) : nullptr;
        if (r != nullptr) r->body_start.store(s->now());
        CallSpan first{s, r};
        first.Begin();
        if (withdraw_first) {
          co_await h.Call(ga, "withdraw", w_args);
        } else {
          co_await h.Call(gb, "deposit", d_args);
        }
        first.End();
        CallSpan second{s, r};
        second.Begin();
        if (withdraw_first) {
          co_await h.Call(gb, "deposit", d_args);
        } else {
          co_await h.Call(ga, "withdraw", w_args);
        }
        second.End();
        if (r != nullptr) r->body_end.store(s->now());
        co_return true;
      };
    }
  }
  return nullptr;
}

vsr::core::TxnBody MakeOpenBody(GroupId bank, std::uint32_t first,
                                std::uint32_t last) {
  std::string args = std::to_string(first) + "-" + std::to_string(last) +
                     "=" + std::to_string(kOpeningBalance);
  return [bank, args = std::move(args)](
             TxnHandle& h) -> vsr::host::Task<bool> {
    co_await h.Call(bank, "open", args);
    co_return true;
  };
}

}  // namespace perfbench
