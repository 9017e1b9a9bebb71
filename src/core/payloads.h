// Layouts that core writes in one function and parses in another, each
// stated once as a field list (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "vr/history.h"
#include "vr/types.h"

namespace vsr::core {

// §9.2 snapshot payload: written by Cohort::BuildSnapshotPayload, parsed by
// Cohort::InstallSnapshot.
struct SnapshotPayload {
  vr::History history;
  // Object store + outcomes + completed-call replies: the same bytes a
  // newview record carries.
  std::vector<std::uint8_t> gstate;
  // Blocked transactions a promoted backup must query coordinators about.
  std::set<vr::Aid> prepared;
  // §3.6 sibling fallback targets of the prepared transactions.
  std::map<vr::Aid, std::vector<vr::GroupId>> siblings;

  static auto Fields(auto& p) {
    return std::tie(p.history, p.gstate, p.prepared, p.siblings);
  }
};

// §10 log checkpoint, the anchor of a log generation: written by
// Cohort::LogCheckpoint, parsed by Cohort::RecoverFromLog.
struct LogCheckpointImage {
  vr::ViewId viewid;
  std::uint64_t ts = 0;  // applied timestamp the gstate reflects
  vr::View view;
  vr::History history;
  std::vector<std::uint8_t> gstate;
  std::set<vr::Aid> prepared;

  static auto Fields(auto& c) {
    return std::tie(c.viewid, c.ts, c.view, c.history, c.gstate, c.prepared);
  }
};

// §11 shard record header. A kShardDrop record carries the bounds alone; a
// shard image (and its kShardInstall record) carries the bounds and the
// source group ahead of the range's objects.
struct ShardBounds {
  std::string lo;
  std::string hi;  // "" = +infinity

  static auto Fields(auto& b) { return std::tie(b.lo, b.hi); }
};

struct ShardImageHeader {
  ShardBounds bounds;
  vr::GroupId source = 0;

  static auto Fields(auto& h) { return std::tie(h.bounds, h.source); }
};

}  // namespace vsr::core
