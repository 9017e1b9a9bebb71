// Quickstart: a replicated key-value module in ~60 lines.
//
// This example builds a simulated world, creates one 3-replica server group
// and one 3-replica client group, registers two procedures, runs a
// transaction, crashes the server's primary, and shows that the committed
// state survives into the new view.
//
//   $ ./quickstart
#include <cstdio>

#include "client/cluster.h"

using namespace vsr;

namespace {

std::vector<std::uint8_t> Bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

}  // namespace

int main() {
  // A deterministic world: every run with the same seed is identical.
  client::Cluster cluster(client::ClusterOptions{.seed = 42});

  // One module group of three cohorts (a primary and two backups), plus a
  // replicated client group that will run transactions and coordinate 2PC.
  auto kv = cluster.AddGroup("kv", 3);
  auto app = cluster.AddGroup("app", 3);

  // Module procedures execute at the group's primary under strict two-phase
  // locking; ctx.Read/Write acquire locks and create tentative versions.
  cluster.RegisterProc(
      kv, "set",
      [](core::ProcContext& ctx) -> host::Task<std::vector<std::uint8_t>> {
        std::string a = ctx.ArgsAsString();  // "key=value"
        auto eq = a.find('=');
        co_await ctx.Write(a.substr(0, eq), a.substr(eq + 1));
        co_return Bytes("ok");
      });
  cluster.RegisterProc(
      kv, "get",
      [](core::ProcContext& ctx) -> host::Task<std::vector<std::uint8_t>> {
        auto v = co_await ctx.Read(ctx.ArgsAsString());
        co_return Bytes(v.value_or("<absent>"));
      });

  cluster.Start();
  if (!cluster.RunUntilStable()) {
    std::puts("group never stabilized");
    return 1;
  }
  std::printf("kv group is up; primary is cohort %u in view %s\n",
              cluster.AnyPrimary(kv)->mid(),
              cluster.AnyPrimary(kv)->cur_viewid().ToString().c_str());

  // Run a transaction from the app group's primary: one remote call, then
  // two-phase commit (all behind the scenes).
  bool done = false;
  vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
  cluster.AnyPrimary(app)->SpawnTransaction(
      [kv](core::TxnHandle& txn) -> host::Task<bool> {
        co_await txn.Call(kv, "set", std::string("greeting=hello world"));
        co_return true;  // request commit
      },
      [&](vr::TxnOutcome o) {
        outcome = o;
        done = true;
      });
  while (!done) cluster.RunFor(10 * host::kMillisecond);
  std::printf("transaction %s\n",
              outcome == vr::TxnOutcome::kCommitted ? "committed" : "aborted");

  // Kill the primary. The backups detect the silence, run the view change
  // (Fig. 5), and elect a new primary whose state includes the commit.
  for (auto* cohort : cluster.Cohorts(kv)) {
    if (cohort->IsActivePrimary()) {
      std::printf("crashing primary (cohort %u)...\n", cohort->mid());
      cohort->Crash();
      break;
    }
  }
  if (!cluster.RunUntilStable()) {
    std::puts("view change failed");
    return 1;
  }
  core::Cohort* new_primary = cluster.AnyPrimary(kv);
  std::printf("new primary is cohort %u in view %s\n", new_primary->mid(),
              new_primary->cur_viewid().ToString().c_str());
  std::printf("committed state survived: greeting = \"%s\"\n",
              new_primary->objects().ReadCommitted("greeting")
                  .value_or("<LOST!>")
                  .c_str());
  return 0;
}
