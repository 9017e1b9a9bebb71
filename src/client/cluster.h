// Cluster: the one-stop harness that wires a simulated world together —
// scheduler, network, stable stores, directory, module groups — for tests,
// examples, and benchmarks.
//
// Typical use:
//   client::Cluster cluster({.seed = 42});
//   auto bank = cluster.AddGroup("bank", 3);
//   cluster.RegisterProc(bank, "deposit", ...);
//   cluster.Start();
//   cluster.RunUntilStable();
//   cluster.AnyPrimary(bank)->SpawnTransaction(...);
//   cluster.RunFor(1 * host::kSecond);
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cohort.h"
#include "core/directory.h"
#include "host/task.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "storage/stable_store.h"

namespace vsr::client {

using core::Cohort;
using core::CohortOptions;
using vr::GroupId;
using vr::Mid;

struct ClusterOptions {
  std::uint64_t seed = 1;
  net::NetworkOptions net;
  storage::StableStoreOptions storage;
  CohortOptions cohort;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options = {});
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulation& sim() { return sim_; }
  net::Network& network() { return net_; }
  core::Directory& directory() { return directory_; }
  storage::StableStore& stable() { return stable_; }

  // Creates a replication group of `replicas` cohorts. Node ids (mids) are
  // assigned sequentially across the cluster. Cohorts are created but not
  // started; call Start() (or Start(group)) afterwards.
  GroupId AddGroup(const std::string& name, std::size_t replicas,
                   const CohortOptions* override_options = nullptr);

  GroupId GroupByName(const std::string& name) const;
  const std::string& GroupName(GroupId g) const;

  std::vector<Cohort*> Cohorts(GroupId g);
  Cohort& CohortAt(GroupId g, std::size_t idx);

  // The cohort currently acting as active primary, or nullptr.
  Cohort* AnyPrimary(GroupId g);

  // Registers a procedure on every cohort of the group (all replicas must
  // have identical code — they are copies of one module).
  void RegisterProc(GroupId g, const std::string& name, core::ProcFn fn);

  // Starts all (or one group's) cohorts.
  void Start();
  void Start(GroupId g);

  // -- running -----------------------------------------------------------

  void RunFor(host::Duration d) { sim_.scheduler().RunUntil(sim_.Now() + d); }

  // Runs until every started group has an active primary whose view the
  // majority shares, or until `deadline_from_now`. Returns success.
  bool RunUntilStable(host::Duration deadline_from_now = 10 * host::kSecond);

  // -- fault injection ---------------------------------------------------

  void Crash(GroupId g, std::size_t idx) { CohortAt(g, idx).Crash(); }
  void Recover(GroupId g, std::size_t idx) { CohortAt(g, idx).Recover(); }
  // Recovery with the durable event log lost too (disk replaced); the
  // cohort comes back amnesiac even when options.event_log is enabled.
  void RecoverDiskless(GroupId g, std::size_t idx) {
    CohortAt(g, idx).RecoverDiskless();
  }

  // Fresh mid for non-cohort endpoints (unreplicated clients).
  Mid AllocateMid() { return next_mid_++; }

  // Aggregates across one group.
  std::uint64_t TotalCommitted(GroupId g);
  std::uint64_t TotalAborted(GroupId g);

  // Cluster-wide aggregates over every group ever added — a sharded
  // deployment coordinates transactions from several groups, so per-group
  // totals undercount.
  std::uint64_t TotalCommittedAll();
  std::uint64_t TotalAbortedAll();

  // All groups, in creation order.
  std::vector<GroupId> AllGroups() const;

 private:
  ClusterOptions options_;
  sim::Simulation sim_;
  net::Network net_;
  core::Directory directory_;
  storage::StableStore stable_;

  Mid next_mid_ = 1;
  GroupId next_group_ = 1;
  std::map<std::string, GroupId> group_names_;
  std::map<GroupId, std::string> group_name_of_;
  std::map<GroupId, std::vector<std::unique_ptr<Cohort>>> groups_;
  std::vector<GroupId> started_;
};

}  // namespace vsr::client
