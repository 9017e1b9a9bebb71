// Property-based tests (parameterized sweeps over seeds): each property is
// checked against a brute-force oracle or an algebraic invariant on
// randomized inputs.
#include <gtest/gtest.h>

#include "baseline/models.h"
#include "check/invariants.h"
#include "check/serial.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/simulation.h"
#include "txn/object_store.h"
#include "vr/comm_buffer.h"
#include "vr/history.h"
#include "vr/messages.h"

namespace vsr {
namespace {

class Seeded : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, Seeded,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233));

// ---------------------------------------------------------------------------
// compatible() / vs_max() vs brute force
// ---------------------------------------------------------------------------

TEST_P(Seeded, CompatibleMatchesBruteForce) {
  sim::Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    // Random history: 1..4 views with increasing viewids, random ts.
    vr::History h;
    std::uint64_t counter = 0;
    const int views = 1 + static_cast<int>(rng.Index(4));
    for (int v = 0; v < views; ++v) {
      counter += 1 + rng.Index(3);
      h.OpenView({counter, static_cast<vr::Mid>(1 + rng.Index(3))});
      h.Advance(rng.Index(20));
    }
    // Random pset over groups {5, 6}.
    vr::Pset ps;
    const int entries = static_cast<int>(rng.Index(6));
    for (int e = 0; e < entries; ++e) {
      vr::PsetEntry p;
      p.groupid = rng.Bernoulli(0.7) ? 5 : 6;
      p.vs.view = {1 + rng.Index(counter + 1),
                   static_cast<vr::Mid>(1 + rng.Index(3))};
      p.vs.ts = rng.Index(25);
      p.sub = static_cast<std::uint32_t>(rng.Index(3));
      ps.push_back(p);
    }

    // Oracle: every group-5 entry must have a history entry with the same
    // viewid and ts >= entry ts.
    bool oracle = true;
    for (const auto& p : ps) {
      if (p.groupid != 5) continue;
      bool covered = false;
      for (const auto& he : h.entries()) {
        if (he.view == p.vs.view && p.vs.ts <= he.ts) covered = true;
      }
      if (!covered) oracle = false;
    }
    EXPECT_EQ(vr::Compatible(ps, 5, h), oracle) << "iter " << iter;

    // vs_max oracle.
    std::optional<vr::Viewstamp> best;
    for (const auto& p : ps) {
      if (p.groupid != 5) continue;
      if (!best || *best < p.vs) best = p.vs;
    }
    EXPECT_EQ(vr::VsMax(ps, 5), best) << "iter " << iter;
  }
}

// ---------------------------------------------------------------------------
// Pset algebra over many groups: MergePset / PsetGroups / Compatible / VsMax
// against brute-force oracles on multi-group psets (the shapes cross-shard
// 2PC produces — one entry per participant group per call)
// ---------------------------------------------------------------------------

TEST_P(Seeded, PsetAlgebraOverManyGroups) {
  sim::Rng rng(GetParam() * 641 + 7);
  auto random_pset = [&](std::size_t max_entries) {
    vr::Pset ps;
    const std::size_t n = rng.Index(max_entries + 1);
    for (std::size_t e = 0; e < n; ++e) {
      vr::PsetEntry p;
      p.groupid = 1 + rng.Index(6);
      p.vs.view = {1 + rng.Index(5), static_cast<vr::Mid>(1 + rng.Index(3))};
      p.vs.ts = rng.Index(8);
      p.sub = static_cast<std::uint32_t>(rng.Index(2));
      ps.push_back(p);
    }
    return ps;
  };

  for (int iter = 0; iter < 200; ++iter) {
    const vr::Pset a = random_pset(8), b = random_pset(8);
    vr::Pset m = a;
    vr::MergePset(m, b);

    // Contract: m is `a` verbatim followed by the entries of `b` not already
    // present, in b's order — the reply-merging path must neither reorder
    // what the coordinator saw nor duplicate a participant's entry.
    ASSERT_GE(m.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(m[i], a[i]);
    std::set<vr::PsetEntry> in_a(a.begin(), a.end());
    std::vector<vr::PsetEntry> tail_oracle;
    std::set<vr::PsetEntry> seen = in_a;
    for (const vr::PsetEntry& e : b) {
      if (seen.insert(e).second) tail_oracle.push_back(e);
    }
    ASSERT_EQ(m.size(), a.size() + tail_oracle.size());
    for (std::size_t i = 0; i < tail_oracle.size(); ++i) {
      EXPECT_EQ(m[a.size() + i], tail_oracle[i]);
    }

    // Idempotence: merging the same pset again changes nothing.
    vr::Pset m2 = m;
    vr::MergePset(m2, b);
    EXPECT_EQ(m2, m);
    vr::MergePset(m2, a);
    EXPECT_EQ(m2, m);

    // PsetGroups: distinct groupids in first-appearance order.
    std::vector<vr::GroupId> groups_oracle;
    for (const vr::PsetEntry& e : m) {
      if (std::find(groups_oracle.begin(), groups_oracle.end(), e.groupid) ==
          groups_oracle.end()) {
        groups_oracle.push_back(e.groupid);
      }
    }
    EXPECT_EQ(vr::PsetGroups(m), groups_oracle);

    // Compatible / VsMax per participant group of the merged pset, against
    // an independent random history for that group.
    for (vr::GroupId g : vr::PsetGroups(m)) {
      vr::History h;
      std::uint64_t counter = 0;
      const int views = 1 + static_cast<int>(rng.Index(3));
      for (int v = 0; v < views; ++v) {
        counter += 1 + rng.Index(3);
        h.OpenView({counter, static_cast<vr::Mid>(1 + rng.Index(3))});
        h.Advance(rng.Index(10));
      }
      bool compat_oracle = true;
      std::optional<vr::Viewstamp> max_oracle;
      for (const vr::PsetEntry& e : m) {
        if (e.groupid != g) continue;
        bool covered = false;
        for (const auto& he : h.entries()) {
          if (he.view == e.vs.view && e.vs.ts <= he.ts) covered = true;
        }
        if (!covered) compat_oracle = false;
        if (!max_oracle || *max_oracle < e.vs) max_oracle = e.vs;
      }
      EXPECT_EQ(vr::Compatible(m, g, h), compat_oracle)
          << "iter " << iter << " group " << g;
      EXPECT_EQ(vr::VsMax(m, g), max_oracle)
          << "iter " << iter << " group " << g;
    }
  }
}

// ---------------------------------------------------------------------------
// CommBuffer StableTs is the sub-majority-th order statistic of acks
// ---------------------------------------------------------------------------

TEST_P(Seeded, StableTsIsKthOrderStatistic) {
  sim::Rng rng(GetParam() * 7 + 1);
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t n = 3 + 2 * rng.Index(3);  // 3, 5, 7
    sim::Simulation simulation(GetParam() + iter);
    vr::History h;
    vr::ViewId vid{1, 1};
    h.OpenView(vid);
    std::vector<vr::Mid> backups;
    for (std::size_t b = 0; b < n - 1; ++b) {
      backups.push_back(static_cast<vr::Mid>(b + 2));
    }
    vr::CommBuffer buffer(
        simulation, {}, [](vr::Mid, const vr::BufferBatchMsg&) {}, [] {});
    buffer.StartView(vid, backups, n, 1, 1, &h);
    const int records = 10;
    for (int i = 0; i < records; ++i) {
      buffer.Add(vr::EventRecord::Done(vr::Aid{}));
    }
    std::map<vr::Mid, std::uint64_t> acked;
    for (vr::Mid b : backups) acked[b] = 0;
    for (int step = 0; step < 30; ++step) {
      const vr::Mid b = backups[rng.Index(backups.size())];
      const std::uint64_t ts = rng.Index(records + 1);
      vr::BufferAckMsg ack;
      ack.group = 1;
      ack.viewid = vid;
      ack.from = b;
      ack.ts = ts;
      buffer.OnAck(ack);
      acked[b] = std::max(acked[b], ts);
      // Oracle: k-th largest ack where k = sub-majority.
      std::vector<std::uint64_t> sorted;
      for (auto& [m, t] : acked) sorted.push_back(t);
      std::sort(sorted.begin(), sorted.end(), std::greater<>());
      const std::size_t k = vr::SubMajorityOf(n);
      EXPECT_EQ(buffer.StableTs(), sorted[k - 1]);
    }
  }
}

// ---------------------------------------------------------------------------
// Wire round-trips on randomized messages
// ---------------------------------------------------------------------------

TEST_P(Seeded, RandomizedMessageRoundTrip) {
  sim::Rng rng(GetParam() * 13 + 5);
  auto random_string = [&](std::size_t max_len) {
    std::string s(rng.Index(max_len + 1), '\0');
    for (auto& c : s) c = static_cast<char>('a' + rng.Index(26));
    return s;
  };
  for (int iter = 0; iter < 100; ++iter) {
    vr::CallMsg m;
    m.group = rng.Next();
    m.viewid = {rng.Next(), static_cast<vr::Mid>(rng.Next())};
    m.call_id = rng.Next();
    m.call_seq = rng.Next();
    m.reply_to = static_cast<vr::Mid>(rng.Next());
    m.sub_aid = {vr::Aid{rng.Next(), {rng.Next(), 3}, rng.Next()},
                 static_cast<std::uint32_t>(rng.Next())};
    const std::size_t deads = rng.Index(4);
    for (std::size_t d = 0; d < deads; ++d) {
      m.dead_subs.push_back(static_cast<std::uint32_t>(rng.Next()));
    }
    m.proc = random_string(12);
    m.args.resize(rng.Index(64));
    for (auto& b : m.args) b = static_cast<std::uint8_t>(rng.Next());

    auto bytes = vr::EncodeMsg(m);
    wire::Reader r(bytes);
    auto out = vr::CallMsg::Decode(r);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(out.group, m.group);
    EXPECT_EQ(out.viewid, m.viewid);
    EXPECT_EQ(out.call_seq, m.call_seq);
    EXPECT_EQ(out.sub_aid, m.sub_aid);
    EXPECT_EQ(out.dead_subs, m.dead_subs);
    EXPECT_EQ(out.proc, m.proc);
    EXPECT_EQ(out.args, m.args);
  }
}

// ---------------------------------------------------------------------------
// Scheduler: random event times fire in nondecreasing time order, ties in
// insertion order
// ---------------------------------------------------------------------------

TEST_P(Seeded, SchedulerOrderingProperty) {
  sim::Rng rng(GetParam() * 31);
  sim::Scheduler sched;
  struct Fired {
    host::Time at;
    int seq;
  };
  std::vector<Fired> fired;
  std::vector<std::pair<host::Time, int>> inserted;
  for (int i = 0; i < 500; ++i) {
    const host::Time t = rng.Index(100);
    inserted.push_back({t, i});
    sched.At(t, [&fired, t, i] { fired.push_back({t, i}); });
  }
  sched.RunToQuiescence();
  ASSERT_EQ(fired.size(), inserted.size());
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1].at, fired[i].at);
    if (fired[i - 1].at == fired[i].at) {
      ASSERT_LT(fired[i - 1].seq, fired[i].seq);  // insertion order on ties
    }
  }
}

// ---------------------------------------------------------------------------
// ObjectStore: random operation sequences keep lock/tentative invariants;
// snapshot/restore is lossless
// ---------------------------------------------------------------------------

TEST_P(Seeded, ObjectStoreRandomOpsInvariants) {
  sim::Rng rng(GetParam() * 101 + 3);
  sim::Simulation simulation(GetParam());
  txn::ObjectStore store(simulation);

  std::set<std::uint64_t> live;
  std::uint64_t next_txn = 1;
  auto aid = [](std::uint64_t seq) { return vr::Aid{1, {1, 1}, seq}; };
  const std::vector<std::string> keys{"a", "b", "c", "d"};

  for (int step = 0; step < 500; ++step) {
    const std::uint64_t dice = rng.Index(10);
    if (dice < 4 || live.empty()) {
      const std::uint64_t t = live.empty() || rng.Bernoulli(0.3)
                                  ? next_txn++
                                  : *live.begin();
      live.insert(t);
      const std::string& k = keys[rng.Index(keys.size())];
      if (store.TryAcquire(k, aid(t), rng.Bernoulli(0.5)
                                          ? vr::LockMode::kWrite
                                          : vr::LockMode::kRead)) {
        if (store.HoldsLock(k, aid(t), vr::LockMode::kWrite) &&
            rng.Bernoulli(0.8)) {
          store.WriteTentative(k, {aid(t), 0}, "t" + std::to_string(t));
        }
      }
    } else if (dice < 7) {
      const std::uint64_t t = *live.begin();
      store.Commit(aid(t));
      live.erase(t);
    } else {
      const std::uint64_t t = *live.begin();
      store.Abort(aid(t));
      live.erase(t);
    }
    // Invariant: tentative versions only exist for transactions that hold
    // locks (live); committed/aborted transactions leave nothing behind.
    for (const vr::Aid& a : store.ActiveTxns()) {
      EXPECT_TRUE(live.count(a.seq) != 0) << "ghost txn " << a.seq;
    }
  }
  // Snapshot/restore losslessness mid-state.
  wire::Writer w;
  store.Snapshot(w);
  auto bytes = w.Take();
  txn::ObjectStore copy(simulation);
  wire::Reader r(bytes);
  copy.Restore(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(check::StateDigest(copy), check::StateDigest(store));
  EXPECT_EQ(copy.lock_count(), store.lock_count());
  EXPECT_EQ(copy.tentative_count(), store.tentative_count());
}

// ---------------------------------------------------------------------------
// Chain checker: generated serial executions validate; injected anomalies
// are caught
// ---------------------------------------------------------------------------

TEST_P(Seeded, ChainCheckerAcceptsSerialRejectsAnomalies) {
  sim::Rng rng(GetParam() * 211);
  // Build a genuine serial chain with some unknown-outcome links.
  check::RegisterChainChecker good;
  std::string prev = "";
  std::vector<std::pair<std::string, std::string>> committed_edges;
  const int len = 5 + static_cast<int>(rng.Index(10));
  for (int i = 0; i < len; ++i) {
    std::string next = "v" + std::to_string(i);
    if (rng.Bernoulli(0.2)) {
      good.NoteUnknown(prev, next);
    } else {
      good.NoteCommitted(prev, next);
      committed_edges.push_back({prev, next});
    }
    prev = next;
  }
  std::string why;
  EXPECT_TRUE(good.Validate("", prev, &why)) << why;

  if (committed_edges.size() >= 2) {
    // Anomaly 1: lost update — duplicate a committed prev with a new write.
    check::RegisterChainChecker lost = good;
    lost.NoteCommitted(committed_edges[0].first, "dup");
    EXPECT_FALSE(lost.Validate("", prev, &why));

    // Anomaly 2: dirty read — a committed txn read a never-written value.
    check::RegisterChainChecker dirty = good;
    dirty.NoteCommitted("phantom", "dirty-next");
    EXPECT_FALSE(dirty.Validate("", prev, &why));

    // Anomaly 3: wrong final state.
    EXPECT_FALSE(good.Validate("", "not-the-final-value", &why));
  }
}

// ---------------------------------------------------------------------------
// k-of-n availability model vs Monte Carlo
// ---------------------------------------------------------------------------

TEST_P(Seeded, KOfNModelMatchesMonteCarlo) {
  sim::Rng rng(GetParam() * 977);
  const std::size_t n = 3 + 2 * rng.Index(3);
  const std::size_t need = (n / 2) + 1;
  const double a = 0.7 + 0.25 * rng.UniformDouble();
  const int trials = 20000;
  int up_trials = 0;
  for (int t = 0; t < trials; ++t) {
    std::size_t up = 0;
    for (std::size_t i = 0; i < n; ++i) up += rng.Bernoulli(a) ? 1 : 0;
    if (up >= need) ++up_trials;
  }
  EXPECT_NEAR(static_cast<double>(up_trials) / trials,
              baseline::KOfNAvailability(n, need, a), 0.015);
}

// ---------------------------------------------------------------------------
// History per-view prefix property: Knows() is monotone in ts and respects
// Advance
// ---------------------------------------------------------------------------

TEST_P(Seeded, HistoryKnowledgeIsPrefixClosed) {
  sim::Rng rng(GetParam() * 389);
  vr::History h;
  std::uint64_t counter = 0;
  for (int v = 0; v < 5; ++v) {
    counter += 1 + rng.Index(2);
    vr::ViewId vid{counter, 1};
    h.OpenView(vid);
    const std::uint64_t final_ts = rng.Index(30);
    h.Advance(final_ts);
    // Prefix closure: knowing ts implies knowing every smaller ts.
    for (std::uint64_t t = 0; t <= final_ts + 2; ++t) {
      const bool knows = h.Knows({vid, t});
      EXPECT_EQ(knows, t <= final_ts);
      if (t > 0 && knows) {
        EXPECT_TRUE(h.Knows({vid, t - 1}));
      }
    }
  }
}

}  // namespace
}  // namespace vsr
