// A protocol frame log: taps the network's delivery stream and renders a
// readable message-sequence trace — the "wire view" counterpart of the
// cohort-level tracer. Intended for debugging failed seeds and for teaching
// (examples/partition_drill-style narration of what actually flowed).
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/simulation.h"
#include "vr/messages.h"

namespace vsr::net {

class FrameLog {
 public:
  // Attaches to the network. Detaches (and restores no-observer) on
  // destruction. `capacity` bounds memory: older entries are dropped.
  FrameLog(sim::Simulation& simulation, Network& network,
           std::size_t capacity = 4096)
      : sim_(simulation), net_(network), capacity_(capacity) {
    net_.set_observer([this](const Frame& f) { Record(f); });
  }
  ~FrameLog() { net_.set_observer(nullptr); }
  FrameLog(const FrameLog&) = delete;
  FrameLog& operator=(const FrameLog&) = delete;

  struct Entry {
    host::Time at = 0;
    NodeId from = 0;
    NodeId to = 0;
    std::uint16_t type = 0;
    std::size_t bytes = 0;
  };

  const std::deque<Entry>& entries() const { return entries_; }
  std::size_t dropped() const { return dropped_; }
  void Clear() {
    entries_.clear();
    dropped_ = 0;
  }

  // Renders "t=410.715ms 1 -> 2 buffer-batch (112B)" lines; a type filter of
  // 0 renders everything.
  std::vector<std::string> Render(std::uint16_t type_filter = 0) const {
    std::vector<std::string> out;
    for (const Entry& e : entries_) {
      if (type_filter != 0 && e.type != type_filter) continue;
      char buf[128];
      const char* name = vr::MsgTypeName(static_cast<vr::MsgType>(e.type));
      std::snprintf(buf, sizeof(buf), "t=%-12s %3u -> %-3u %-16s (%zuB)",
                    host::FormatDuration(e.at).c_str(), e.from, e.to, name,
                    e.bytes);
      out.push_back(buf);
    }
    return out;
  }

  // Count of logged frames of one protocol message type.
  std::size_t CountType(vr::MsgType t) const {
    std::size_t n = 0;
    for (const Entry& e : entries_) {
      if (e.type == static_cast<std::uint16_t>(t)) ++n;
    }
    return n;
  }

 private:
  void Record(const Frame& f) {
    if (entries_.size() == capacity_) {
      entries_.pop_front();
      ++dropped_;
    }
    entries_.push_back(Entry{sim_.Now(), f.from, f.to, f.type,
                             f.payload.size()});
  }

  sim::Simulation& sim_;
  Network& net_;
  const std::size_t capacity_;
  std::deque<Entry> entries_;
  std::size_t dropped_ = 0;
};

}  // namespace vsr::net
