// Airline reservation — the paper's own motivating example (§1): "in airline
// reservation systems the failure of a single computer can prevent ticket
// sales for a considerable time."
//
// Two regional inventory groups sell seats; travel agents book multi-leg
// itineraries atomically (a two-participant distributed transaction). We
// crash a region's primary in the middle of the booking rush and verify
// that (a) sales continue after a sub-second view change, (b) no flight is
// ever oversold, and (c) no itinerary is half-booked.
//
//   $ ./airline_reservation [seed]
#include <cstdio>
#include <cstdlib>

#include "client/cluster.h"
#include "workload/airline.h"
#include "workload/driver.h"

using namespace vsr;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1988;
  client::Cluster cluster(client::ClusterOptions{.seed = seed});

  auto east = cluster.AddGroup("inventory-east", 3);
  auto west = cluster.AddGroup("inventory-west", 3);
  auto agents = cluster.AddGroup("agents", 3);
  workload::RegisterAirlineProcs(cluster, east);
  workload::RegisterAirlineProcs(cluster, west);
  cluster.Start();
  if (!cluster.RunUntilStable()) {
    std::puts("cluster failed to stabilize");
    return 1;
  }

  // Inventory: the eastbound leg has plenty of seats; the westbound
  // connection is the scarce resource.
  constexpr long long kEastSeats = 60;
  constexpr long long kWestSeats = 25;
  auto setup = [&](vr::GroupId g, const std::string& flight, long long n) {
    bool done = false;
    cluster.AnyPrimary(agents)->SpawnTransaction(
        [&, g, flight, n](core::TxnHandle& h) -> host::Task<bool> {
          co_await h.Call(g, "add_flight", flight + "=" + std::to_string(n));
          co_return true;
        },
        [&](vr::TxnOutcome) { done = true; });
    while (!done) cluster.RunFor(5 * host::kMillisecond);
  };
  setup(east, "E100", kEastSeats);
  setup(west, "W200", kWestSeats);
  std::printf("flights loaded: E100 %lld seats, W200 %lld seats\n", kEastSeats,
              kWestSeats);

  // Crash the west region's primary 600ms into the rush.
  cluster.sim().scheduler().After(600 * host::kMillisecond, [&cluster, west] {
    for (auto* c : cluster.Cohorts(west)) {
      if (c->IsActivePrimary()) {
        std::printf("[%s] west primary (cohort %u) goes down mid-rush!\n",
                    host::FormatDuration(cluster.sim().Now()).c_str(),
                    c->mid());
        c->Crash();
        return;
      }
    }
  });

  // The rush: 40 two-leg itineraries (E100 + W200). Only kWestSeats can
  // succeed; agents retry aborted bookings a few times before giving up.
  workload::ClosedLoopDriver driver(
      cluster, agents,
      [&](std::uint64_t) {
        return workload::MakeBookingTxn({{east, "E100", 1}, {west, "W200", 1}});
      },
      workload::DriverOptions{.total_txns = 40,
                              .max_inflight = 3,
                              .retries_per_txn = 5});
  driver.Run();
  cluster.RunFor(3 * host::kSecond);

  const long long east_left = workload::CommittedSeats(cluster, east, "E100");
  const long long west_left = workload::CommittedSeats(cluster, west, "W200");
  const long long booked = driver.accounting().committed;
  std::printf("\nbookings committed: %lld (aborted %llu, unknown %llu)\n",
              booked,
              static_cast<unsigned long long>(driver.accounting().aborted),
              static_cast<unsigned long long>(driver.accounting().unknown));
  std::printf("seats left: E100 %lld, W200 %lld\n", east_left, west_left);

  bool ok = true;
  if (west_left < 0 || east_left < 0) {
    std::puts("OVERSOLD!");
    ok = false;
  }
  // Every committed itinerary consumed exactly one seat on each leg: the
  // legs' consumption must match (no half-booked itineraries).
  if (kEastSeats - east_left != booked || kWestSeats - west_left != booked) {
    std::puts("HALF-BOOKED ITINERARY DETECTED!");
    ok = false;
  }
  std::printf("atomicity audit: %s\n", ok ? "clean" : "FAILED");
  return ok ? 0 : 1;
}
