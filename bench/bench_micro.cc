// Micro-benchmarks of the hot substrate paths (google-benchmark): message
// serialization, CRC32 framing, scheduler event throughput, lock manager
// operations, and a whole simulated transaction end-to-end.
#include <benchmark/benchmark.h>

#include "client/cluster.h"
#include "sim/scheduler.h"
#include "tests/test_util.h"
#include "txn/object_store.h"
#include "vr/comm_buffer.h"
#include "vr/messages.h"
#include "wire/buffer.h"

namespace vsr {
namespace {

vr::CallMsg SampleCall() {
  vr::CallMsg m;
  m.group = 42;
  m.viewid = {7, 3};
  m.call_id = 99;
  m.call_seq = (5ull << 32) | 17;
  m.reply_to = 11;
  m.sub_aid = {vr::Aid{1, {2, 3}, 4}, 2};
  m.proc = "transfer";
  m.args.assign(64, 0xab);
  return m;
}

void BM_EncodeCallMsg(benchmark::State& state) {
  const vr::CallMsg m = SampleCall();
  for (auto _ : state) {
    auto bytes = vr::EncodeMsg(m);
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_EncodeCallMsg);

void BM_DecodeCallMsg(benchmark::State& state) {
  const auto bytes = vr::EncodeMsg(SampleCall());
  for (auto _ : state) {
    wire::Reader r(bytes);
    auto m = vr::CallMsg::Decode(r);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_DecodeCallMsg);

void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::Crc32(data));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1024)->Arg(16384);

void BM_SchedulerEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int count = 0;
    for (int i = 0; i < 1000; ++i) {
      sched.At(static_cast<host::Time>(i), [&count] { ++count; });
    }
    sched.RunToQuiescence();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerEventThroughput);

void BM_LockAcquireRelease(benchmark::State& state) {
  sim::Simulation simulation(1);
  txn::ObjectStore store(simulation);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    vr::Aid aid{1, {1, 1}, ++seq};
    store.TryAcquire("x", aid, vr::LockMode::kWrite);
    store.WriteTentative("x", {aid, 0}, "v");
    store.Commit(aid);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockAcquireRelease);

void BM_CommBufferReplication(benchmark::State& state) {
  // The windowed replication hot path: add a record, deliver the batch,
  // process both backup acks, GC the prefix. range(0) is the ack lag —
  // how many records the backups trail behind the primary (0 = lockstep).
  const std::uint64_t lag = static_cast<std::uint64_t>(state.range(0));
  sim::Simulation simulation(1);
  vr::History history;
  vr::ViewId vid{1, 1};
  history.OpenView(vid);
  std::uint64_t batches = 0;
  const vr::CommBufferOptions bopts;
  vr::CommBuffer buffer(
      simulation, bopts,
      [&batches](vr::Mid, const vr::BufferBatchMsg&) { ++batches; }, [] {});
  buffer.StartView(vid, {2, 3}, 3, 1, 1, &history);
  std::uint64_t ts = 0;
  for (auto _ : state) {
    ts = buffer.Add(vr::EventRecord::Done(vr::Aid{1, vid, ts})).ts;
    // A bounded slice (not quiescence: the retransmit deadline of a lagging
    // backup is always armed) — long enough for the background flush.
    simulation.scheduler().RunUntil(simulation.Now() + bopts.flush_delay + 1);
    if (ts > lag) {
      vr::BufferAckMsg ack;
      ack.group = 1;
      ack.viewid = vid;
      ack.ts = ts - lag;
      ack.from = 2;
      buffer.OnAck(ack);
      ack.from = 3;
      buffer.OnAck(ack);
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["records_sent"] =
      static_cast<double>(buffer.stats().records_sent);
  state.counters["retransmitted"] =
      static_cast<double>(buffer.stats().records_retransmitted);
  state.counters["gced"] = static_cast<double>(buffer.stats().records_gced);
  state.counters["resident_high_water"] =
      static_cast<double>(buffer.stats().buffer_high_water);
  benchmark::DoNotOptimize(batches);
}
BENCHMARK(BM_CommBufferReplication)->Arg(0)->Arg(64)->Arg(1024);

void BM_SimulatedTransaction(benchmark::State& state) {
  // End-to-end: one committed single-call transaction on a 3-replica group,
  // measured in host time (how fast the simulator itself runs).
  client::Cluster cluster(client::ClusterOptions{.seed = 77});
  auto server = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 3);
  test::RegisterKvProcs(cluster, server);
  cluster.Start();
  cluster.RunUntilStable();
  for (auto _ : state) {
    core::Cohort* primary = cluster.AnyPrimary(client_g);
    bool done = false;
    primary->SpawnTransaction(
        [server](core::TxnHandle& h) -> host::Task<bool> {
          co_await h.Call(server, "put", std::string("k=v"));
          co_return true;
        },
        [&done](vr::TxnOutcome) { done = true; });
    while (!done) cluster.RunFor(1 * host::kMillisecond);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatedTransaction);

}  // namespace
}  // namespace vsr

BENCHMARK_MAIN();
