// Thin client: §3.5's coordinator-server pattern.
//
// "Replicating a client that is not a server, however, may not be
//  worthwhile. If the client is not replicated, it is still desirable for
//  the coordinator to be highly available ... This can be accomplished by
//  providing a replicated 'coordinator-server.'"
//
// An unreplicated (single-node) client begins its transaction at a
// replicated coordinator-server, makes remote calls itself while collecting
// the pset, and ships the pset back for commit. The example then shows the
// two §3.5 guarantees: the commit outcome is queryable afterwards, and a
// client that vanishes mid-transaction is aborted unilaterally so its locks
// do not leak.
//
//   $ ./thin_client
#include <cstdio>

#include "client/cluster.h"
#include "client/unreplicated_client.h"

using namespace vsr;

namespace {

vr::TxnOutcome RunTxn(
    client::Cluster& cluster, client::UnreplicatedClient& c,
    std::function<host::Task<bool>(client::ClientTxn&)> body) {
  vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
  bool done = false;
  c.Spawn(std::move(body), [&](vr::TxnOutcome o) {
    outcome = o;
    done = true;
  });
  while (!done) cluster.RunFor(10 * host::kMillisecond);
  return outcome;
}

}  // namespace

int main() {
  client::Cluster cluster(client::ClusterOptions{.seed = 35});
  auto inventory = cluster.AddGroup("inventory", 3);
  auto coord = cluster.AddGroup("coordinator-server", 3);
  cluster.RegisterProc(
      inventory, "take",
      [](core::ProcContext& ctx) -> host::Task<std::vector<std::uint8_t>> {
        auto v = co_await ctx.ReadForUpdate("stock");
        const long long left = v && !v->empty() ? std::stoll(*v) : 10;
        if (left <= 0) throw core::TxnError("out of stock");
        co_await ctx.Write("stock", std::to_string(left - 1));
        const std::string r = std::to_string(left - 1);
        co_return std::vector<std::uint8_t>(r.begin(), r.end());
      });
  cluster.Start();
  cluster.RunUntilStable();

  // A thin, single-node client. It is NOT a cohort of any group; it keeps
  // no replicated state; the coordinator-server runs 2PC on its behalf.
  client::UnreplicatedClient laptop(cluster.sim(), cluster.network(),
                                    cluster.directory(), cluster.AllocateMid(),
                                    coord, core::CohortOptions{});

  std::printf("-- a thin client buys one item --\n");
  vr::Aid receipt{};
  auto outcome = RunTxn(cluster, laptop,
                        [&](client::ClientTxn& t) -> host::Task<bool> {
                          receipt = t.aid();
                          auto r = co_await t.Call(inventory, "take",
                                                   std::string(""));
                          std::printf("   stock now: %s\n",
                                      std::string(r.begin(), r.end()).c_str());
                          co_return true;
                        });
  std::printf("   outcome: %s\n",
              outcome == vr::TxnOutcome::kCommitted ? "committed" : "aborted");

  std::printf("-- later, the client asks the coordinator-server what became "
              "of its transaction (§3.4 queries) --\n");
  bool answered = false;
  laptop.QueryOutcome(receipt, [&](vr::TxnOutcome o) {
    std::printf("   query answer: %s\n",
                o == vr::TxnOutcome::kCommitted ? "committed" : "not committed");
    answered = true;
  });
  while (!answered) cluster.RunFor(10 * host::kMillisecond);

  std::printf("-- a flaky client grabs the stock lock and disappears --\n");
  {
    client::UnreplicatedClient ghost(cluster.sim(), cluster.network(),
                                     cluster.directory(),
                                     cluster.AllocateMid(), coord,
                                     core::CohortOptions{});
    bool call_done = false;
    ghost.Spawn([&](client::ClientTxn& t) -> host::Task<bool> {
      co_await t.Call(inventory, "take", std::string(""));
      call_done = true;
      co_await host::Sleep(cluster.sim().scheduler(), 3600 * host::kSecond);
      co_return true;  // never reached
    });
    while (!call_done) cluster.RunFor(10 * host::kMillisecond);
    std::printf("   ghost client holds the write lock... and vanishes\n");
  }  // destroying the client destroys its suspended transaction — the crash

  std::printf("-- §3.5: \"it can abort the transaction unilaterally\" --\n");
  cluster.RunFor(5 * host::kSecond);  // coordinator-server sweep + queries
  auto retry = RunTxn(cluster, laptop,
                      [&](client::ClientTxn& t) -> host::Task<bool> {
                        auto r = co_await t.Call(inventory, "take",
                                                 std::string(""));
                        std::printf("   stock now: %s\n",
                                    std::string(r.begin(), r.end()).c_str());
                        co_return true;
                      });
  std::printf("   next customer: %s (the ghost's lock was swept)\n",
              retry == vr::TxnOutcome::kCommitted ? "committed" : "BLOCKED");
  return retry == vr::TxnOutcome::kCommitted ? 0 : 1;
}
