// Core identifier and ordering types of Viewstamped Replication (§2, Fig. 1/4).
//
//   Mid       — unique name of a cohort (one module replica); doubles as the
//               simulated network NodeId.
//   GroupId   — unique name of a module group.
//   ViewId    — <counter, mid>, totally ordered; the mid component makes ids
//               generated by concurrent view managers distinct (§4).
//   Viewstamp — <viewid, timestamp>; names one primary-generated event.
//   View      — a primary plus backups; must hold a majority of the
//               configuration.
//   Aid       — transaction identifier; embeds the coordinator's groupid and
//               the viewid current when the transaction began, making it
//               unique across view changes (§3.1) and letting participants
//               find the coordinator group for queries (§3.4).
//   SubAid    — <aid, subaction#>; subactions implement §3.6's nested
//               transactions (each remote-call attempt is a subaction).
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

namespace vsr::vr {

using Mid = std::uint32_t;
using GroupId = std::uint64_t;

struct ViewId {
  std::uint64_t counter = 0;
  Mid mid = 0;

  auto operator<=>(const ViewId&) const = default;

  static auto Fields(auto& v) { return std::tie(v.counter, v.mid); }
  std::string ToString() const {
    return "v" + std::to_string(counter) + "." + std::to_string(mid);
  }
};

struct Viewstamp {
  ViewId view;
  std::uint64_t ts = 0;

  // Lexicographic order. Note the paper only compares viewstamps whose
  // meaning is aligned (same view, or "largest viewstamp" across normal
  // acceptances where the per-view prefix property of histories makes the
  // lexicographic max the most-informed cohort).
  auto operator<=>(const Viewstamp&) const = default;

  static auto Fields(auto& v) { return std::tie(v.view, v.ts); }
  std::string ToString() const {
    return view.ToString() + ":" + std::to_string(ts);
  }
};

struct View {
  Mid primary = 0;
  std::vector<Mid> backups;

  bool Contains(Mid m) const {
    if (m == primary) return true;
    return std::find(backups.begin(), backups.end(), m) != backups.end();
  }
  std::size_t Size() const { return backups.size() + 1; }
  std::vector<Mid> Members() const {
    std::vector<Mid> out{primary};
    out.insert(out.end(), backups.begin(), backups.end());
    return out;
  }

  bool operator==(const View&) const = default;

  static auto Fields(auto& v) { return std::tie(v.primary, v.backups); }
  std::string ToString() const {
    std::string s = "{p=" + std::to_string(primary) + " b=[";
    for (std::size_t i = 0; i < backups.size(); ++i) {
      if (i) s += ",";
      s += std::to_string(backups[i]);
    }
    return s + "]}";
  }
};

// Majority / sub-majority arithmetic over a configuration of n cohorts.
// A sub-majority is one less than a majority (§3): if a sub-majority of
// backups knows an event, then together with the primary a majority of the
// configuration knows it.
inline std::size_t MajorityOf(std::size_t n) { return n / 2 + 1; }
inline std::size_t SubMajorityOf(std::size_t n) { return MajorityOf(n) - 1; }

struct Aid {
  GroupId coordinator_group = 0;  // mygroupid of the coordinator (§3.1, §3.4)
  ViewId view;                    // cur_viewid when the transaction started
  std::uint64_t seq = 0;

  auto operator<=>(const Aid&) const = default;

  static auto Fields(auto& a) {
    return std::tie(a.coordinator_group, a.view, a.seq);
  }
  std::string ToString() const {
    return "t" + std::to_string(coordinator_group) + "/" + view.ToString() +
           "/" + std::to_string(seq);
  }
};

// A subaction identifier. sub == 0 names top-level work; each retried remote
// call runs as a fresh subaction (§3.6).
struct SubAid {
  Aid aid;
  std::uint32_t sub = 0;

  auto operator<=>(const SubAid&) const = default;

  static auto Fields(auto& s) { return std::tie(s.aid, s.sub); }
  std::string ToString() const {
    return aid.ToString() + "#" + std::to_string(sub);
  }
};

// One element of a transaction's pset (§3.1): group g executed a call for
// this transaction and assigned it viewstamp vs, under subaction `sub`.
struct PsetEntry {
  GroupId groupid = 0;
  Viewstamp vs;
  std::uint32_t sub = 0;

  auto operator<=>(const PsetEntry&) const = default;

  static auto Fields(auto& e) { return std::tie(e.groupid, e.vs, e.sub); }
};

using Pset = std::vector<PsetEntry>;

}  // namespace vsr::vr
