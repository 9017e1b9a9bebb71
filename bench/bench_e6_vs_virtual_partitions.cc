// E6 — §5: "The virtual partitions protocol requires three phases. The first
// round establishes the new view, the second informs the cohorts of the new
// view, and in the third, the cohorts all communicate with one another to
// find out the current state. We avoid extra work by using viewstamps in
// phase 1 to determine what each cohort knows."
//
// Measured VR view-change message counts (from bench E4's methodology)
// against the 3-phase virtual-partitions cost model, across group sizes.
#include "baseline/models.h"
#include "bench/bench_common.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

std::uint64_t MeasureVrChangeMsgs(std::size_t n) {
  ClusterOptions opts;
  opts.seed = 6000 + n;
  Cluster cluster(opts);
  auto server = cluster.AddGroup("kv", n);
  cluster.Start();
  if (!cluster.RunUntilStable()) return 0;
  auto cohorts = cluster.Cohorts(server);
  std::size_t victim = 0;
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    if (cohorts[i]->IsActivePrimary()) victim = i;
  }
  cluster.network().ResetStats();
  cluster.Crash(server, victim);
  if (!cluster.RunUntilStable(30 * host::kSecond)) return 0;
  const auto& st = cluster.network().stats();
  auto count = [&](vr::MsgType t) -> std::uint64_t {
    auto it = st.sent_by_type.find(static_cast<std::uint16_t>(t));
    return it == st.sent_by_type.end() ? 0 : it->second;
  };
  // Protocol messages plus the newview state distribution (the analogue of
  // the virtual-partitions phase 3 state exchange is our newview record;
  // count the batches that carried it).
  return count(vr::MsgType::kInvite) + count(vr::MsgType::kAccept) +
         count(vr::MsgType::kInitView);
}

}  // namespace
}  // namespace vsr

int main() {
  using namespace vsr;
  bench::PrintHeader(
      "E6: view change — VR (1 round) vs virtual partitions (3 phases) (§5)",
      "viewstamps let phase 1 determine what each cohort knows, replacing the "
      "virtual-partitions all-to-all state exchange");

  bench::Row("  %-4s | %-28s | %-28s | ratio", "n", "VR measured (model) msgs",
             "virtual partitions model msgs");
  for (std::size_t n : {3u, 5u, 7u, 9u}) {
    const std::uint64_t measured = MeasureVrChangeMsgs(n);
    const auto vr_model = baseline::VrViewChange(n, false, 300);
    const auto vp_model = baseline::VirtualPartitionsViewChange(n, 300);
    bench::Row("  %-4zu | %10llu (%llu)             | %10llu (3 phases)        | %.1fx",
               n, static_cast<unsigned long long>(measured),
               static_cast<unsigned long long>(vr_model.messages),
               static_cast<unsigned long long>(vp_model.messages),
               measured == 0
                   ? 0.0
                   : static_cast<double>(vp_model.messages) / measured);
  }
  bench::Row("\n  Latency model (1ms one-way): VR %s vs VP %s",
             host::FormatDuration(
                 baseline::VrViewChange(5, false, host::kMillisecond).latency)
                 .c_str(),
             host::FormatDuration(
                 baseline::VirtualPartitionsViewChange(5, host::kMillisecond)
                     .latency)
                 .c_str());
  bench::Row("\n  Expect: VP's phase-3 all-to-all makes its message count grow");
  bench::Row("  as n^2 while VR grows as 2n; the gap widens with n.");
  return 0;
}
