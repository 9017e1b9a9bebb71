// Per-layer metrics that need no cluster: the span breakdown of a traced
// phase and the wire cost model (CRC-32 and message codec timed outside the
// transport, on frames the workload actually sends).
#include <algorithm>
#include <cmath>

#include "runners.h"
#include "vr/messages.h"
#include "wire/buffer.h"

namespace perfbench {
namespace {

using vsr::vr::MsgType;
using vsr::vr::TxnOutcome;

template <typename M>
std::size_t RoundTrip(const std::vector<std::uint8_t>& payload) {
  vsr::wire::Reader r(payload);
  const M m = M::Decode(r);
  if (!r.ok()) return 0;
  return vsr::vr::EncodeMsg(m).size();
}

// Decodes a frame as its message type and encodes it again; returns the
// re-encoded size (0 for a type this benchmark does not decode).
std::size_t RoundTripFrame(const vsr::net::Frame& f) {
  using namespace vsr::vr;
  switch (static_cast<MsgType>(f.type)) {
    case MsgType::kPing: return RoundTrip<PingMsg>(f.payload);
    case MsgType::kInvite: return RoundTrip<InviteMsg>(f.payload);
    case MsgType::kAccept: return RoundTrip<AcceptMsg>(f.payload);
    case MsgType::kInitView: return RoundTrip<InitViewMsg>(f.payload);
    case MsgType::kBufferBatch: return RoundTrip<BufferBatchMsg>(f.payload);
    case MsgType::kBufferAck: return RoundTrip<BufferAckMsg>(f.payload);
    case MsgType::kSnapshotChunk: return RoundTrip<SnapshotChunkMsg>(f.payload);
    case MsgType::kSnapshotAck: return RoundTrip<SnapshotAckMsg>(f.payload);
    case MsgType::kCall: return RoundTrip<CallMsg>(f.payload);
    case MsgType::kReply: return RoundTrip<ReplyMsg>(f.payload);
    case MsgType::kPrepare: return RoundTrip<PrepareMsg>(f.payload);
    case MsgType::kPrepareReply: return RoundTrip<PrepareReplyMsg>(f.payload);
    case MsgType::kCommit: return RoundTrip<CommitMsg>(f.payload);
    case MsgType::kCommitDone: return RoundTrip<CommitDoneMsg>(f.payload);
    case MsgType::kAbort: return RoundTrip<AbortMsg>(f.payload);
    case MsgType::kAbortSub: return RoundTrip<AbortSubMsg>(f.payload);
    case MsgType::kQuery: return RoundTrip<QueryMsg>(f.payload);
    case MsgType::kQueryReply: return RoundTrip<QueryReplyMsg>(f.payload);
    case MsgType::kProbe: return RoundTrip<ProbeMsg>(f.payload);
    case MsgType::kProbeReply: return RoundTrip<ProbeReplyMsg>(f.payload);
    default: return 0;
  }
}

// Median over `blocks` timings of `fn`, each repeated until it ran at least
// `min_ns`; returns ns per unit of work reported by fn.
template <typename Fn>
double TimePerUnit(Fn fn, int blocks, std::int64_t min_ns) {
  std::vector<double> per;
  for (int b = 0; b < blocks; ++b) {
    double units = 0;
    const std::int64_t t0 = WallNs();
    std::int64_t t1 = t0;
    while (t1 - t0 < min_ns) {
      units += fn();
      t1 = WallNs();
    }
    per.push_back(static_cast<double>(t1 - t0) / std::max(units, 1.0));
  }
  return Median(per);
}

}  // namespace

double SetSpanMetrics(const std::vector<TxnRec*>& recs, Report& layer) {
  std::vector<double> root, late, dispatch, call, hop, reply_hop, proc,
      decide, covered, lock;
  auto us = [](std::int64_t ns) { return static_cast<double>(ns) / 1e3; };
  for (const TxnRec* rec : recs) {
    const TxnRec& r = *rec;
    if (r.is_read || r.outcome.load() != static_cast<int>(TxnOutcome::kCommitted) ||
        r.body_start == 0 || r.body_end == 0) {
      continue;
    }
    const std::int64_t t_root = r.done - r.due;
    const std::int64_t t_late = r.spawn - r.due;
    const std::int64_t t_dispatch = r.body_start - r.spawn;
    const std::int64_t t_call = r.call_ns;
    const std::int64_t t_decide = r.done - r.body_end;
    root.push_back(us(t_root));
    late.push_back(us(t_late));
    dispatch.push_back(us(t_dispatch));
    call.push_back(us(t_call));
    hop.push_back(us(r.hop_ns));
    proc.push_back(us(r.proc_ns));
    reply_hop.push_back(us(t_call - r.hop_ns - r.proc_ns));
    decide.push_back(us(t_decide));
    covered.push_back(us(t_late + t_dispatch + t_call + t_decide));
    for (int k = 0; k < std::min(r.calls.load(), 2); ++k) {
      lock.push_back(us(r.lock_ns[k]));
    }
  }
  const double root_p50 = Quantile(root, 0.5);
  layer.Set("trace.spans", static_cast<double>(root.size()), "count");
  layer.Set("trace.root_p50_us", root_p50, "us");
  layer.Set("trace.gen_late_p50_us", Quantile(late, 0.5), "us");
  layer.Set("host.dispatch_p50_us", Quantile(dispatch, 0.5), "us");
  layer.Set("host.dispatch_p99_us", Quantile(dispatch, 0.99), "us");
  layer.Set("core.call_p50_us", Quantile(call, 0.5), "us");
  layer.Set("core.call_p99_us", Quantile(call, 0.99), "us");
  layer.Set("core.call_hop_p50_us", Quantile(hop, 0.5), "us");
  layer.Set("core.reply_hop_p50_us", Quantile(reply_hop, 0.5), "us");
  layer.Set("core.decide_p50_us", Quantile(decide, 0.5), "us");
  layer.Set("core.decide_p99_us", Quantile(decide, 0.99), "us");
  layer.Set("txn.proc_p50_us", Quantile(proc, 0.5), "us");
  layer.Set("txn.lock_wait_p50_us", Quantile(lock, 0.5), "us");
  layer.Set("txn.lock_wait_p99_us", Quantile(lock, 0.99), "us");
  // Reconciliation: per transaction, the blocking children (generator
  // lateness, dispatch, calls, decide) against the root. The residual is
  // time no child span covers: an unmeasured layer shows up here.
  layer.Set("trace.residual_us", root_p50 - Quantile(covered, 0.5), "us");
  layer.Set("trace.children_p50_sum_us",
            Quantile(late, 0.5) + Quantile(dispatch, 0.5) +
                Quantile(call, 0.5) + Quantile(decide, 0.5),
            "us");
  return root_p50;
}

void SetCounterMetrics(const Counters& window, double commits,
                       const Counters& whole, double transfers,
                       Report& layer) {
  const Counters& c = window;
  const double n = commits;
  layer.Set("core.prepares_per_txn", c.prepares / n, "count");
  layer.Set("core.fused_ratio", transfers > 0 ? whole.fused / transfers : 0,
            "ratio");
  layer.Set("core.view_changes", whole.views_formed, "count");
  layer.Set("txn.lock_waits_per_txn", c.lock_waits / n, "count");
  layer.Set("txn.lock_wait_timeouts", whole.lock_timeouts, "count");
  layer.Set("vr.forces_per_txn", c.forces / n, "count");
  layer.Set("vr.force_immediate_ratio",
            c.forces > 0 ? c.forces_immediate / c.forces : 0, "ratio");
  layer.Set("vr.records_per_batch",
            c.batches > 0 ? c.records_sent / c.batches : 0, "count");
  layer.Set("vr.retransmit_ratio",
            c.records_sent > 0 ? c.records_retransmitted / c.records_sent : 0,
            "ratio");
  layer.Set("vr.snapshots_served", whole.snapshots_served, "count");
}

void SetWireMetrics(const std::vector<vsr::net::Frame>& corpus,
                    double mean_frame_bytes, double bytes_per_txn,
                    Report& layer) {
  const auto len = static_cast<std::size_t>(
      std::max(1.0, std::round(mean_frame_bytes)));
  std::vector<std::uint8_t> buf(len);
  Rng rng(len);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.Next());
  std::uint32_t crc_sink = 0;
  const double crc_ns_per_byte = TimePerUnit(
      [&] {
        for (int i = 0; i < 64; ++i) crc_sink ^= vsr::wire::Crc32(buf);
        return 64.0 * static_cast<double>(len);
      },
      5, 20'000'000);
  std::size_t codec_sink = 0;
  double codec_ns = 0;
  if (!corpus.empty()) {
    codec_ns = TimePerUnit(
        [&] {
          double msgs = 0;
          for (const auto& f : corpus) {
            const std::size_t size = RoundTripFrame(f);
            codec_sink += size;
            msgs += size > 0 ? 1 : 0;
          }
          return msgs;
        },
        5, 20'000'000);
  }
  // Keeps the timed work observable to the optimizer.
  asm volatile("" : : "r"(crc_sink), "r"(codec_sink) : "memory");
  layer.Set("wire.crc_ns_per_byte", crc_ns_per_byte, "ns/B");
  layer.Set("wire.codec_ns_per_msg", codec_ns, "ns");
  // Each byte is checksummed twice: once when sent, once when received.
  layer.Set("wire.crc_us_per_txn", crc_ns_per_byte * 2 * bytes_per_txn / 1e3,
            "us");
}

}  // namespace perfbench
