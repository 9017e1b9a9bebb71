// Closed-loop transaction driver: keeps a bounded number of transactions in
// flight at a client group's primary, records outcomes and commit latency.
// Used by tests, benches, and examples.
#pragma once

#include <functional>

#include "check/invariants.h"
#include "client/cluster.h"
#include "workload/stats.h"

namespace vsr::workload {

struct DriverOptions {
  int total_txns = 100;
  int max_inflight = 4;
  // Give up if this much simulated time passes without finishing.
  host::Duration deadline = 120 * host::kSecond;
  // Retry transactions that abort (fresh transaction, same body factory
  // index) up to this many times — how a real application reacts to the
  // paper's abort-on-uncertainty rule.
  int retries_per_txn = 0;
  // Called once per logical transaction at FINAL resolution (after any
  // retries): lets harnesses fold exactly-committed work into a model (the
  // zero-lost/zero-duplicated check in the rebalance drills).
  std::function<void(std::uint64_t, vr::TxnOutcome)> on_outcome;
  // When non-empty, transaction i coordinates at group [i % size] instead of
  // the constructor's client_group — sharded workloads would otherwise
  // serialize every 2PC at a single coordinator primary.
  std::vector<vr::GroupId> coordinator_groups;
};

class ClosedLoopDriver {
 public:
  // `make_body(i)` builds the body of logical transaction i.
  ClosedLoopDriver(client::Cluster& cluster, vr::GroupId client_group,
                   std::function<core::TxnBody(std::uint64_t)> make_body,
                   DriverOptions options)
      : cluster_(cluster),
        client_group_(client_group),
        make_body_(std::move(make_body)),
        options_(options) {}

  // Runs to completion (or deadline). Returns true if all transactions
  // resolved.
  bool Run() {
    const host::Time deadline = cluster_.sim().Now() + options_.deadline;
    while (resolved_ < options_.total_txns &&
           cluster_.sim().Now() < deadline) {
      PumpNew();
      cluster_.RunFor(5 * host::kMillisecond);
    }
    return resolved_ >= options_.total_txns;
  }

  const check::CommitAccounting& accounting() const { return accounting_; }
  const LatencyRecorder& latency() const { return latency_; }
  int resolved() const { return resolved_; }

 private:
  vr::GroupId CoordinatorFor(std::uint64_t i) const {
    if (options_.coordinator_groups.empty()) return client_group_;
    return options_.coordinator_groups[i % options_.coordinator_groups.size()];
  }

  void PumpNew() {
    while (inflight_ < options_.max_inflight &&
           next_ < static_cast<std::uint64_t>(options_.total_txns)) {
      core::Cohort* primary = cluster_.AnyPrimary(CoordinatorFor(next_));
      if (primary == nullptr) return;
      Launch(next_++, options_.retries_per_txn, primary);
    }
  }

  void Launch(std::uint64_t i, int retries_left, core::Cohort* primary) {
    ++inflight_;
    const host::Time start = cluster_.sim().Now();
    primary->SpawnTransaction(
        make_body_(i), [this, i, retries_left, start](vr::TxnOutcome o) {
          --inflight_;
          if (o == vr::TxnOutcome::kAborted && retries_left > 0) {
            core::Cohort* p = cluster_.AnyPrimary(CoordinatorFor(i));
            if (p != nullptr) {
              Launch(i, retries_left - 1, p);
              return;
            }
          }
          accounting_.Note(o);
          ++resolved_;
          if (o == vr::TxnOutcome::kCommitted) {
            latency_.Add(cluster_.sim().Now() - start);
          }
          if (options_.on_outcome) options_.on_outcome(i, o);
        });
  }

  client::Cluster& cluster_;
  vr::GroupId client_group_;
  std::function<core::TxnBody(std::uint64_t)> make_body_;
  DriverOptions options_;

  std::uint64_t next_ = 0;
  int inflight_ = 0;
  int resolved_ = 0;
  check::CommitAccounting accounting_;
  LatencyRecorder latency_;
};

}  // namespace vsr::workload
