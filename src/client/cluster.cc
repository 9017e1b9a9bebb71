#include "client/cluster.h"

#include <cassert>
#include <stdexcept>

namespace vsr::client {

Cluster::Cluster(ClusterOptions options)
    : options_(options),
      sim_(options.seed),
      net_(sim_, options.net),
      stable_(sim_, options.storage) {}

GroupId Cluster::AddGroup(const std::string& name, std::size_t replicas,
                          const CohortOptions* override_options) {
  assert(replicas >= 1);
  const GroupId g = next_group_++;
  std::vector<Mid> config;
  config.reserve(replicas);
  for (std::size_t i = 0; i < replicas; ++i) config.push_back(next_mid_++);
  directory_.RegisterGroup(g, config);

  const CohortOptions& opts =
      override_options != nullptr ? *override_options : options_.cohort;
  auto& cohorts = groups_[g];
  for (Mid mid : config) {
    cohorts.push_back(std::make_unique<Cohort>(sim_, net_, directory_,
                                               stable_, g, mid, config, opts));
  }
  group_names_[name] = g;
  group_name_of_[g] = name;
  return g;
}

GroupId Cluster::GroupByName(const std::string& name) const {
  auto it = group_names_.find(name);
  if (it == group_names_.end()) throw std::out_of_range("unknown group " + name);
  return it->second;
}

const std::string& Cluster::GroupName(GroupId g) const {
  return group_name_of_.at(g);
}

std::vector<Cohort*> Cluster::Cohorts(GroupId g) {
  std::vector<Cohort*> out;
  for (auto& c : groups_.at(g)) out.push_back(c.get());
  return out;
}

Cohort& Cluster::CohortAt(GroupId g, std::size_t idx) {
  return *groups_.at(g).at(idx);
}

Cohort* Cluster::AnyPrimary(GroupId g) {
  for (auto& c : groups_.at(g)) {
    if (c->IsActivePrimary()) return c.get();
  }
  return nullptr;
}

void Cluster::RegisterProc(GroupId g, const std::string& name,
                           core::ProcFn fn) {
  for (auto& c : groups_.at(g)) c->RegisterProc(name, fn);
}

void Cluster::Start() {
  for (auto& [g, cohorts] : groups_) Start(g);
}

void Cluster::Start(GroupId g) {
  for (auto& c : groups_.at(g)) {
    if (c->status() == core::Status::kCrashed) c->Start();
  }
  if (std::find(started_.begin(), started_.end(), g) == started_.end()) {
    started_.push_back(g);
  }
}

bool Cluster::RunUntilStable(host::Duration deadline_from_now) {
  const host::Time deadline = sim_.Now() + deadline_from_now;
  while (sim_.Now() < deadline) {
    bool all_stable = true;
    for (GroupId g : started_) {
      Cohort* primary = AnyPrimary(g);
      if (primary == nullptr) {
        all_stable = false;
        break;
      }
      // The view is only useful once a majority is active in it (so forces
      // can complete): count active members sharing the primary's view.
      std::size_t in_view = 0;
      for (auto& c : groups_.at(g)) {
        if (c->status() == core::Status::kActive &&
            c->cur_viewid() == primary->cur_viewid()) {
          ++in_view;
        }
      }
      if (in_view < vr::MajorityOf(groups_.at(g).size())) {
        all_stable = false;
        break;
      }
    }
    if (all_stable) return true;
    // Advance in small increments so we notice stability promptly.
    sim_.scheduler().RunUntil(sim_.Now() + 10 * host::kMillisecond);
  }
  return false;
}

std::uint64_t Cluster::TotalCommitted(GroupId g) {
  std::uint64_t n = 0;
  for (auto& c : groups_.at(g)) n += c->stats().txns_committed;
  return n;
}

std::uint64_t Cluster::TotalAborted(GroupId g) {
  std::uint64_t n = 0;
  for (auto& c : groups_.at(g)) n += c->stats().txns_aborted;
  return n;
}

std::uint64_t Cluster::TotalCommittedAll() {
  std::uint64_t n = 0;
  for (auto& [g, cohorts] : groups_) n += TotalCommitted(g);
  return n;
}

std::uint64_t Cluster::TotalAbortedAll() {
  std::uint64_t n = 0;
  for (auto& [g, cohorts] : groups_) n += TotalAborted(g);
  return n;
}

std::vector<GroupId> Cluster::AllGroups() const {
  std::vector<GroupId> out;
  out.reserve(groups_.size());
  for (const auto& [g, cohorts] : groups_) out.push_back(g);
  return out;
}

}  // namespace vsr::client
