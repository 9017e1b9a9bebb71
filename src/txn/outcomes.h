// Transaction outcome bookkeeping, backing §3.4's query processing.
//
// Every cohort — primary or backup — records the outcomes it learns from
// event records, so that "any cohort [can] respond to a query whenever it
// knows the answer". The table travels in the gstate snapshot of a newview
// record so the knowledge survives view changes.
#pragma once

#include <cstdint>
#include <map>

#include "vr/messages.h"
#include "vr/types.h"
#include "wire/buffer.h"

namespace vsr::txn {

class OutcomeTable {
 public:
  void RecordCommitted(vr::Aid aid) { outcomes_[aid] = vr::TxnOutcome::kCommitted; }
  void RecordAborted(vr::Aid aid) {
    // A commit decision is final; a late/duplicate abort must not overwrite.
    auto [it, inserted] =
        outcomes_.emplace(aid, vr::TxnOutcome::kAborted);
    (void)it;
    (void)inserted;
  }

  // §3.1: the "done" record marks that every participant acknowledged the
  // commit; nobody will ever query this transaction again, so its outcome
  // entry can be garbage-collected.
  void RecordDone(vr::Aid aid) { outcomes_.erase(aid); }

  vr::TxnOutcome Lookup(vr::Aid aid) const {
    auto it = outcomes_.find(aid);
    if (it == outcomes_.end()) return vr::TxnOutcome::kUnknown;
    return it->second;
  }

  std::size_t size() const { return outcomes_.size(); }
  void Clear() { outcomes_.clear(); }

  void Snapshot(wire::Writer& w) const { w.Put(outcomes_); }
  void Restore(wire::Reader& r) { r.Read(outcomes_); }

  std::uint64_t committed_count() const {
    std::uint64_t n = 0;
    for (const auto& [aid, o] : outcomes_) {
      if (o == vr::TxnOutcome::kCommitted) ++n;
    }
    return n;
  }

 private:
  std::map<vr::Aid, vr::TxnOutcome> outcomes_;
};

}  // namespace vsr::txn
