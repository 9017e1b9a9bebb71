// Declarative failure schedules: crash/recover/partition/heal actions at
// absolute simulated times, armed onto a cluster's scheduler. Used by the
// availability bench (E7) and the partition-drill example.
#pragma once

#include <vector>

#include "client/cluster.h"

namespace vsr::workload {

struct FailureEvent {
  // kRecover models a reboot with the disk intact (the durable event log,
  // when enabled, replays); kRecoverDiskless models a disk replacement —
  // the log is erased first and the cohort comes back amnesiac.
  enum class Kind { kCrash, kRecover, kRecoverDiskless, kPartition, kHeal } kind;
  host::Time at = 0;
  // kCrash / kRecover
  vr::GroupId group = 0;
  std::size_t index = 0;
  // kPartition
  std::vector<std::vector<net::NodeId>> sides;

  static FailureEvent Crash(host::Time at, vr::GroupId g, std::size_t idx) {
    FailureEvent e{Kind::kCrash, at, g, idx, {}};
    return e;
  }
  static FailureEvent Recover(host::Time at, vr::GroupId g, std::size_t idx) {
    FailureEvent e{Kind::kRecover, at, g, idx, {}};
    return e;
  }
  static FailureEvent RecoverDiskless(host::Time at, vr::GroupId g,
                                      std::size_t idx) {
    FailureEvent e{Kind::kRecoverDiskless, at, g, idx, {}};
    return e;
  }
  static FailureEvent Partition(host::Time at,
                                std::vector<std::vector<net::NodeId>> sides) {
    FailureEvent e{Kind::kPartition, at, 0, 0, std::move(sides)};
    return e;
  }
  static FailureEvent Heal(host::Time at) {
    FailureEvent e{Kind::kHeal, at, 0, 0, {}};
    return e;
  }
};

// Schedules every event; the cluster must outlive the simulation run.
inline void ArmFailureSchedule(client::Cluster& cluster,
                               const std::vector<FailureEvent>& events) {
  for (const FailureEvent& e : events) {
    cluster.sim().scheduler().At(e.at, [&cluster, e] {
      switch (e.kind) {
        case FailureEvent::Kind::kCrash:
          cluster.Crash(e.group, e.index);
          break;
        case FailureEvent::Kind::kRecover:
          cluster.Recover(e.group, e.index);
          break;
        case FailureEvent::Kind::kRecoverDiskless:
          cluster.RecoverDiskless(e.group, e.index);
          break;
        case FailureEvent::Kind::kPartition:
          cluster.network().Partition(e.sides);
          break;
        case FailureEvent::Kind::kHeal:
          cluster.network().Heal();
          break;
      }
    });
  }
}

// Generates a random crash/recover schedule for one group: each cohort
// independently fails with MTTF/MTTR drawn from exponentials. Used by E7.
inline std::vector<FailureEvent> RandomCrashSchedule(
    sim::Rng& rng, vr::GroupId group, std::size_t replicas, host::Time horizon,
    double mttf_seconds, double mttr_seconds) {
  std::vector<FailureEvent> out;
  for (std::size_t i = 0; i < replicas; ++i) {
    host::Time t = 0;
    bool up = true;
    while (true) {
      const double mean = up ? mttf_seconds : mttr_seconds;
      t += rng.Exponential(mean * host::kSecond);
      if (t >= horizon) break;
      out.push_back(up ? FailureEvent::Crash(t, group, i)
                       : FailureEvent::Recover(t, group, i));
      up = !up;
    }
  }
  return out;
}

// Multi-group variant for sharded deployments: an independent MTTF/MTTR
// schedule per listed (group, replicas) pair, merged into one event list.
inline std::vector<FailureEvent> RandomMultiGroupCrashSchedule(
    sim::Rng& rng,
    const std::vector<std::pair<vr::GroupId, std::size_t>>& groups,
    host::Time horizon, double mttf_seconds, double mttr_seconds) {
  std::vector<FailureEvent> out;
  for (const auto& [g, replicas] : groups) {
    auto one = RandomCrashSchedule(rng, g, replicas, horizon, mttf_seconds,
                                   mttr_seconds);
    out.insert(out.end(), one.begin(), one.end());
  }
  return out;
}

// Whole-cluster blackout: every replica of every listed group crashes at
// `at` and recovers (disk intact) staggered from `at + outage` — the §4.2
// catastrophe drill aimed at a sharded deployment.
inline std::vector<FailureEvent> WholeClusterOutage(
    const std::vector<std::pair<vr::GroupId, std::size_t>>& groups,
    host::Time at, host::Duration outage,
    host::Duration stagger = 20 * host::kMillisecond) {
  std::vector<FailureEvent> out;
  host::Duration skew = 0;
  for (const auto& [g, replicas] : groups) {
    for (std::size_t i = 0; i < replicas; ++i) {
      out.push_back(FailureEvent::Crash(at, g, i));
      out.push_back(FailureEvent::Recover(at + outage + skew, g, i));
      skew += stagger;
    }
  }
  return out;
}

}  // namespace vsr::workload
