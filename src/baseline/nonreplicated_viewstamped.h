// Baseline: the paper's OWN proposal for non-replicated systems (§5, §6):
//
//   "Viewstamps may also be worthwhile in a nonreplicated system. In such a
//    system, records containing the effects of calls could be written to
//    stable storage in background mode; the records, like event records,
//    would contain viewstamps. When the prepare message arrives, it would
//    only be necessary to force the records; no delay would be encountered
//    if the records had already been written. A crash would not cause
//    active transactions to abort automatically; instead, queries would be
//    sent to coordinators to determine the outcomes. The result would be a
//    system that is more tolerant of crashes (by avoiding aborts) and also
//    faster at prepare time."
//
// This server executes calls immediately and streams their data records to
// stable storage in background (a write-behind log); prepare forces only the
// still-unwritten suffix — usually nothing. Compare with baseline::
// StableServer, which defers all log writing to prepare time. Bench E2
// reports both against VR.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "baseline/nonreplicated.h"  // NrMsgType + client
#include "net/network.h"
#include "sim/simulation.h"
#include "storage/stable_store.h"
#include "wire/buffer.h"

namespace vsr::baseline {

class ViewstampedStableServer : public net::FrameHandler {
 public:
  ViewstampedStableServer(sim::Simulation& simulation, net::Network& network,
                          net::NodeId self, storage::StableStore& stable,
                          host::Duration background_write_delay =
                              500 * host::kMicrosecond);

  void OnFrame(const net::Frame& frame) override;

  struct Stats {
    std::uint64_t background_writes = 0;
    // Prepares that found their data records already durable (§5: "no delay
    // would be encountered if the records had already been written").
    std::uint64_t prepares_immediate = 0;
    std::uint64_t prepares_waited = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void StartBackgroundWrite(std::uint64_t txn);

  sim::Simulation& sim_;
  net::Network& net_;
  const net::NodeId self_;
  storage::StableStore& stable_;
  const host::Duration background_write_delay_;

  std::map<std::string, std::string> data_;
  struct TxnLog {
    std::uint64_t pending = 0;      // records not yet durable
    bool write_in_flight = false;   // a background force is running
    std::vector<std::function<void()>> waiters;  // prepares awaiting flush
  };
  std::map<std::uint64_t, TxnLog> log_;
  std::uint64_t log_seq_ = 0;
  Stats stats_;
};

}  // namespace vsr::baseline
