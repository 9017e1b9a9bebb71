#include "baseline/nonreplicated_viewstamped.h"

namespace vsr::baseline {

ViewstampedStableServer::ViewstampedStableServer(
    sim::Simulation& simulation, net::Network& network, net::NodeId self,
    storage::StableStore& stable, host::Duration background_write_delay)
    : sim_(simulation),
      net_(network),
      self_(self),
      stable_(stable),
      background_write_delay_(background_write_delay) {
  net_.Register(self_, this);
}

void ViewstampedStableServer::StartBackgroundWrite(std::uint64_t txn) {
  TxnLog& log = log_[txn];
  if (log.write_in_flight || log.pending == 0) return;
  log.write_in_flight = true;
  // "records containing the effects of calls could be written to stable
  //  storage in background mode" — batch everything pending into one write,
  // kicked off after a short write-behind delay.
  const std::uint64_t batch = log.pending;
  sim_.scheduler().After(background_write_delay_, [this, txn, batch] {
    ++stats_.background_writes;
    stable_.ForceWrite(
        "vslog/" + std::to_string(log_seq_++), {}, [this, txn, batch] {
          auto it = log_.find(txn);
          if (it == log_.end()) return;
          TxnLog& l = it->second;
          l.pending -= std::min(l.pending, batch);
          l.write_in_flight = false;
          if (l.pending > 0) {
            StartBackgroundWrite(txn);
          } else {
            auto waiters = std::move(l.waiters);
            l.waiters.clear();
            for (auto& w : waiters) w();
          }
        });
  });
}

void ViewstampedStableServer::OnFrame(const net::Frame& frame) {
  wire::Reader r(frame.payload);
  const auto m = r.Get<NrMsg>();
  if (!r.ok()) return;
  switch (static_cast<NrMsgType>(frame.type)) {
    case NrMsgType::kCall: {
      data_[m.key] = m.value;
      ++log_[m.txn].pending;
      StartBackgroundWrite(m.txn);
      net_.Send(self_, m.reply_to,
                static_cast<std::uint16_t>(NrMsgType::kCallReply),
                wire::ToBytes(m));
      break;
    }
    case NrMsgType::kPrepare: {
      // "When the prepare message arrives, it would only be necessary to
      //  force the records; no delay would be encountered if the records
      //  had already been written."
      TxnLog& log = log_[m.txn];
      auto respond = [this, m] {
        net_.Send(self_, m.reply_to,
                  static_cast<std::uint16_t>(NrMsgType::kPrepareReply),
                  wire::ToBytes(m));
      };
      if (log.pending == 0) {
        ++stats_.prepares_immediate;
        respond();
      } else {
        ++stats_.prepares_waited;
        log.waiters.push_back(respond);
        StartBackgroundWrite(m.txn);
      }
      break;
    }
    case NrMsgType::kCommit: {
      // The commit record must still be forced (same as their stable-storage
      // counterparts, §3.7).
      stable_.ForceWrite("vslog/commit/" + std::to_string(m.txn), {},
                         [this, m] {
                           net_.Send(self_, m.reply_to,
                                     static_cast<std::uint16_t>(
                                         NrMsgType::kCommitReply),
                                     wire::ToBytes(m));
                         });
      log_.erase(m.txn);
      break;
    }
    default:
      break;
  }
}

}  // namespace vsr::baseline
