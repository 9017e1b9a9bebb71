// The wire protocol: every message exchanged by cohorts and clients.
//
// Message ↔ paper mapping:
//   Ping          "I'm alive" messages (§4)
//   Invite        the view manager's invitation (§4, Fig. 5)
//   Accept        normal / "crashed" acceptances (§4)
//   InitView      manager → new primary when the manager is not it (§4)
//   BufferBatch   event records streamed from the communication buffer (§2);
//                 also carries the newview record that initializes underlings
//   BufferAck     backup acknowledgment driving force_to (§3), optionally
//                 carrying a gap request (nack) for a replication hole
//   Call/Reply    remote procedure call to a server group's primary (Fig. 2/3)
//   Prepare/...   two-phase commit (Fig. 2/3)
//   AbortSub      discard one subaction — a retried call attempt (§3.6)
//   Query/...     outcome queries (§3.4)
//   Probe/...     locating the current primary + viewid of a group (§3,
//                 cache initialization)
//   BeginTxn/...  the coordinator-server protocol for unreplicated
//                 clients (§3.5)
//
// Every struct states its layout once, as Fields (DESIGN.md §8), and has
// Encode(wire::Writer&) and static Decode(wire::Reader&) driven by it; a
// decoded message is only meaningful if reader.ok() afterwards.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "vr/events.h"
#include "vr/history.h"
#include "vr/types.h"
#include "wire/buffer.h"

namespace vsr::vr {

enum class MsgType : std::uint16_t {
  kPing = 1,
  kInvite = 2,
  kAccept = 3,
  kInitView = 4,
  kBufferBatch = 5,
  kBufferAck = 6,
  kSnapshotChunk = 7,
  kSnapshotAck = 8,

  kCall = 10,
  kReply = 11,
  kPrepare = 12,
  kPrepareReply = 13,
  kCommit = 14,
  kCommitDone = 15,
  kAbort = 16,
  kAbortSub = 17,
  kQuery = 18,
  kQueryReply = 19,

  kProbe = 20,
  kProbeReply = 21,
  kBeginTxn = 22,
  kBeginTxnReply = 23,
  kCommitReq = 24,
  kCommitReqReply = 25,
  kAbortReq = 26,

  kShardPull = 27,

  kLeaseGrant = 28,
  kBackupRead = 29,
  kBackupReadReply = 30,
};

// ---------------------------------------------------------------------------
// Failure detection & view change
// ---------------------------------------------------------------------------

struct PingMsg {
  static constexpr MsgType kType = MsgType::kPing;
  static constexpr const char* kName = "ping";
  GroupId group = 0;
  Mid from = 0;

  static auto Fields(auto& m) { return std::tie(m.group, m.from); }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static PingMsg Decode(wire::Reader& r) { return r.Get<PingMsg>(); }
};

struct InviteMsg {
  static constexpr MsgType kType = MsgType::kInvite;
  static constexpr const char* kName = "invite";
  GroupId group = 0;
  ViewId new_viewid;
  Mid from = 0;

  static auto Fields(auto& m) {
    return std::tie(m.group, m.new_viewid, m.from);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static InviteMsg Decode(wire::Reader& r) { return r.Get<InviteMsg>(); }
};

struct AcceptMsg {
  static constexpr MsgType kType = MsgType::kAccept;
  static constexpr const char* kName = "accept";
  GroupId group = 0;
  // The viewid of the invitation being accepted.
  ViewId invite_viewid;
  Mid from = 0;
  // True for a "crash-accept" (§4): the cohort recovered from a crash and
  // its gstate is gone; it reports only the viewid it remembers from stable
  // storage.
  bool crashed = false;
  // Normal acceptance: the cohort's current viewstamp and whether it is the
  // primary of that viewstamp's view.
  Viewstamp last_vs;
  bool was_primary = false;
  // Crash acceptance refinement (DESIGN.md §10): the cohort replayed a
  // durable event log and last_vs/was_primary describe the replayed state;
  // crash_viewid stays the stable-storage viewid ceiling.
  bool recovered = false;
  // Crash acceptance: cur_viewid recovered from stable storage.
  ViewId crash_viewid;

  static auto Fields(auto& m) {
    return std::tie(m.group, m.invite_viewid, m.from, m.crashed, m.last_vs,
                    m.was_primary, m.crash_viewid, m.recovered);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static AcceptMsg Decode(wire::Reader& r) {
    AcceptMsg m = r.Get<AcceptMsg>();
    if (m.recovered && !m.crashed) r.MarkBad();
    return m;
  }
};

struct InitViewMsg {
  static constexpr MsgType kType = MsgType::kInitView;
  static constexpr const char* kName = "init-view";
  GroupId group = 0;
  ViewId viewid;
  View view;
  Mid from = 0;

  static auto Fields(auto& m) {
    return std::tie(m.group, m.viewid, m.view, m.from);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static InitViewMsg Decode(wire::Reader& r) { return r.Get<InitViewMsg>(); }
};

// ---------------------------------------------------------------------------
// Communication buffer replication
// ---------------------------------------------------------------------------

struct BufferBatchMsg {
  static constexpr MsgType kType = MsgType::kBufferBatch;
  static constexpr const char* kName = "buffer-batch";
  GroupId group = 0;
  ViewId viewid;
  Mid from = 0;
  // Contiguous run of event records, in timestamp order.
  std::vector<EventRecord> events;

  static auto Fields(auto& m) {
    return std::tie(m.group, m.viewid, m.from, m.events);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static BufferBatchMsg Decode(wire::Reader& r) {
    return r.Get<BufferBatchMsg>();
  }
};

struct BufferAckMsg {
  static constexpr MsgType kType = MsgType::kBufferAck;
  static constexpr const char* kName = "buffer-ack";
  GroupId group = 0;
  ViewId viewid;
  Mid from = 0;
  // Highest contiguously applied timestamp in `viewid`.
  std::uint64_t ts = 0;
  // Gap request (nack): the backup holds records beyond ts + 1 and asks the
  // primary to resend exactly (ts, gap_hi] instead of waiting out the
  // primary's retransmission deadline.
  bool gap = false;
  std::uint64_t gap_hi = 0;
  // Log-recovered rejoin (DESIGN.md §10): the backup replayed its durable
  // log up to `ts` and rejoined the view; the primary must rewind this
  // backup's cursors to ts (pre-crash acks beyond it are void — the backup
  // lost them) and restream or snapshot the tail.
  bool rejoin = false;
  // Identifies the recovery episode a rejoin belongs to (monotonically
  // increasing per backup; 0 = unspecified, always honored). Rejoin acks are
  // retransmitted until the first batch arrives, so the primary services
  // each episode exactly once: a delayed or reordered duplicate of an
  // already-serviced epoch must not rewind cursors the backup has since
  // advanced past (it would trigger a redundant restream).
  std::uint64_t rejoin_epoch = 0;

  static auto Fields(auto& m) {
    return std::tie(m.group, m.viewid, m.from, m.ts, m.gap, m.gap_hi, m.rejoin,
                    m.rejoin_epoch);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static BufferAckMsg Decode(wire::Reader& r) {
    BufferAckMsg m = r.Get<BufferAckMsg>();
    if (m.gap && m.gap_hi <= m.ts) r.MarkBad();
    return m;
  }
};

// ---------------------------------------------------------------------------
// Snapshot state transfer (DESIGN.md §9)
// ---------------------------------------------------------------------------

// One chunk of a serialized gstate snapshot, streamed primary → laggard
// backup. The snapshot is identified by `vs` (the viewstamp of the last
// event it covers); every chunk repeats the payload's total size and CRC so
// a transfer can be adopted from any chunk and verified on completion.
struct SnapshotChunkMsg {
  static constexpr MsgType kType = MsgType::kSnapshotChunk;
  static constexpr const char* kName = "snapshot-chunk";
  GroupId group = 0;
  ViewId viewid;
  Mid from = 0;
  Viewstamp vs;                  // snapshot identity: covers events <= vs.ts
  std::uint64_t total_size = 0;  // payload bytes overall
  std::uint32_t checksum = 0;    // CRC-32 of the whole payload
  std::uint64_t offset = 0;      // position of `data` within the payload
  std::vector<std::uint8_t> data;

  static auto Fields(auto& m) {
    return std::tie(m.group, m.viewid, m.from, m.vs, m.total_size, m.checksum,
                    m.offset, m.data);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static SnapshotChunkMsg Decode(wire::Reader& r) {
    SnapshotChunkMsg m = r.Get<SnapshotChunkMsg>();
    // Every chunk carries at least one byte strictly inside the payload; an
    // empty snapshot does not exist (gstate is never zero bytes).
    if (m.total_size == 0 || m.offset >= m.total_size || m.data.empty() ||
        m.data.size() > m.total_size - m.offset) {
      r.MarkBad();
    }
    return m;
  }
};

// Backup → primary: cumulative contiguous byte count received for the
// snapshot identified by `vs`. offset == total_size acknowledges the whole
// (verified) payload; an offset below what the primary already saw acked
// signals the sink restarted and the transfer rewinds.
struct SnapshotAckMsg {
  static constexpr MsgType kType = MsgType::kSnapshotAck;
  static constexpr const char* kName = "snapshot-ack";
  GroupId group = 0;
  ViewId viewid;
  Mid from = 0;
  Viewstamp vs;
  std::uint64_t offset = 0;

  static auto Fields(auto& m) {
    return std::tie(m.group, m.viewid, m.from, m.vs, m.offset);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static SnapshotAckMsg Decode(wire::Reader& r) {
    return r.Get<SnapshotAckMsg>();
  }
};

// ---------------------------------------------------------------------------
// Remote calls
// ---------------------------------------------------------------------------

struct CallMsg {
  static constexpr MsgType kType = MsgType::kCall;
  static constexpr const char* kName = "call";
  GroupId group = 0;  // destination group
  ViewId viewid;      // client's cached viewid for the group (Fig. 2 step 1)
  // Correlation id for the reply (unique per sender).
  std::uint64_t call_id = 0;
  // Duplicate-suppression key, unique per (sub_aid, call_seq) — the
  // "connection information" §3.1 assumes of the message delivery system.
  // High 32 bits are the caller's mid so client- and server-originated
  // (nested) calls of one subaction never collide.
  std::uint64_t call_seq = 0;
  Mid reply_to = 0;
  SubAid sub_aid;
  // Subactions of this transaction the caller knows to be aborted (§3.6).
  // Their abort-sub messages are best-effort, so the retry carries the list:
  // the server discards their tentative versions before running this call,
  // otherwise the new attempt could read the dead attempt's writes.
  std::vector<std::uint32_t> dead_subs;
  std::string proc;
  std::vector<std::uint8_t> args;

  static auto Fields(auto& m) {
    return std::tie(m.group, m.viewid, m.call_id, m.call_seq, m.reply_to,
                    m.sub_aid, m.dead_subs, m.proc, m.args);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static CallMsg Decode(wire::Reader& r) { return r.Get<CallMsg>(); }
};

enum class ReplyStatus : std::uint8_t {
  kOk = 0,
  // The call's viewid is stale; new view info attached when known (Fig. 3
  // step 1, "rejection message containing the new viewid and view").
  kWrongView = 1,
  // The procedure raised an application error or could not acquire locks;
  // the transaction must abort.
  kFailed = 2,
};
constexpr ReplyStatus WireMax(ReplyStatus) { return ReplyStatus::kFailed; }

struct ReplyMsg {
  static constexpr MsgType kType = MsgType::kReply;
  static constexpr const char* kName = "reply";
  std::uint64_t call_id = 0;
  ReplyStatus status = ReplyStatus::kOk;
  std::vector<std::uint8_t> result;
  Pset pset;
  bool view_known = false;
  ViewId new_viewid;
  View new_view;

  static auto Fields(auto& m) {
    return std::tie(m.call_id, m.status, m.result, m.pset, m.view_known,
                    m.new_viewid, m.new_view);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static ReplyMsg Decode(wire::Reader& r) { return r.Get<ReplyMsg>(); }
};

// ---------------------------------------------------------------------------
// Two-phase commit
// ---------------------------------------------------------------------------

struct PrepareMsg {
  static constexpr MsgType kType = MsgType::kPrepare;
  static constexpr const char* kName = "prepare";
  GroupId group = 0;  // destination (participant) group
  Aid aid;
  Pset pset;
  Mid reply_to = 0;

  static auto Fields(auto& m) {
    return std::tie(m.group, m.aid, m.pset, m.reply_to);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static PrepareMsg Decode(wire::Reader& r) { return r.Get<PrepareMsg>(); }
};

enum class PrepareStatus : std::uint8_t {
  kPrepared = 0,
  // The participant refuses: some of the transaction's events did not
  // survive a view change (compatible() failed) or the force failed.
  kRefused = 1,
  // The receiving cohort is not an active primary; current view info is
  // attached when known so the coordinator can retry at the right cohort
  // (§3.3: rejections carry "information about the current viewid and
  // primary if the cohort knows them").
  kWrongPrimary = 2,
};
constexpr PrepareStatus WireMax(PrepareStatus) {
  return PrepareStatus::kWrongPrimary;
}

struct PrepareReplyMsg {
  static constexpr MsgType kType = MsgType::kPrepareReply;
  static constexpr const char* kName = "prepare-reply";
  Aid aid;
  GroupId from_group = 0;
  PrepareStatus status = PrepareStatus::kRefused;
  // True iff the transaction held only read locks at this participant; such
  // participants are excluded from phase two (Fig. 2 step 2).
  bool read_only = false;
  bool view_known = false;
  ViewId new_viewid;
  View new_view;
  // Fused commit path (DESIGN.md §13): the prepared-ack piggybacks the
  // identity of the participant's forced record — the viewstamp of the last
  // completed-call record covered by the prepare's force_to (or of the
  // committed record for a read-only participant). A zero viewstamp means
  // nothing was forced (no pset entry for this group). The ack and the
  // record identity travel as ONE message, so the coordinator learns both
  // "prepared" and "durable up to vs" in a single round.
  Viewstamp prepared_vs;

  static auto Fields(auto& m) {
    return std::tie(m.aid, m.from_group, m.status, m.read_only, m.view_known,
                    m.new_viewid, m.new_view, m.prepared_vs);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static PrepareReplyMsg Decode(wire::Reader& r) {
    return r.Get<PrepareReplyMsg>();
  }
};

struct CommitMsg {
  static constexpr MsgType kType = MsgType::kCommit;
  static constexpr const char* kName = "commit";
  GroupId group = 0;
  Aid aid;
  Mid reply_to = 0;
  // Fused commit path (DESIGN.md §13): the viewstamp the coordinator's
  // committing record was buffered at. Participants record it so an
  // in-doubt (§3.6) query racing this message can be answered from the
  // replicated decision, and traces can correlate the fan-out with the
  // decision's position in the coordinator's replication stream. Zero on
  // the serial (commit_fusion=off) path.
  Viewstamp decision_vs;
  // True when the fan-out overlapped the decision force (the committing
  // record may not have reached a sub-majority yet when this was sent).
  bool fused = false;

  static auto Fields(auto& m) {
    return std::tie(m.group, m.aid, m.reply_to, m.decision_vs, m.fused);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static CommitMsg Decode(wire::Reader& r) { return r.Get<CommitMsg>(); }
};

struct CommitDoneMsg {
  static constexpr MsgType kType = MsgType::kCommitDone;
  static constexpr const char* kName = "commit-done";
  Aid aid;
  GroupId from_group = 0;
  // Redirect: the receiver was not an active primary (see PrepareStatus).
  bool wrong_primary = false;
  bool view_known = false;
  ViewId new_viewid;
  View new_view;

  static auto Fields(auto& m) {
    return std::tie(m.aid, m.from_group, m.wrong_primary, m.view_known,
                    m.new_viewid, m.new_view);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static CommitDoneMsg Decode(wire::Reader& r) {
    return r.Get<CommitDoneMsg>();
  }
};

struct AbortMsg {
  static constexpr MsgType kType = MsgType::kAbort;
  static constexpr const char* kName = "abort";
  GroupId group = 0;
  Aid aid;

  static auto Fields(auto& m) { return std::tie(m.group, m.aid); }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static AbortMsg Decode(wire::Reader& r) { return r.Get<AbortMsg>(); }
};

struct AbortSubMsg {
  static constexpr MsgType kType = MsgType::kAbortSub;
  static constexpr const char* kName = "abort-sub";
  GroupId group = 0;
  SubAid sub_aid;

  static auto Fields(auto& m) { return std::tie(m.group, m.sub_aid); }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static AbortSubMsg Decode(wire::Reader& r) { return r.Get<AbortSubMsg>(); }
};

// ---------------------------------------------------------------------------
// Outcome queries (§3.4)
// ---------------------------------------------------------------------------

enum class TxnOutcome : std::uint8_t {
  kUnknown = 0,
  kActive = 1,
  kCommitted = 2,
  kAborted = 3,
};
constexpr TxnOutcome WireMax(TxnOutcome) { return TxnOutcome::kAborted; }

struct QueryMsg {
  static constexpr MsgType kType = MsgType::kQuery;
  static constexpr const char* kName = "query";
  Aid aid;
  Mid reply_to = 0;
  GroupId reply_group = 0;

  static auto Fields(auto& m) {
    return std::tie(m.aid, m.reply_to, m.reply_group);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static QueryMsg Decode(wire::Reader& r) { return r.Get<QueryMsg>(); }
};

struct QueryReplyMsg {
  static constexpr MsgType kType = MsgType::kQueryReply;
  static constexpr const char* kName = "query-reply";
  Aid aid;
  TxnOutcome outcome = TxnOutcome::kUnknown;

  static auto Fields(auto& m) { return std::tie(m.aid, m.outcome); }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static QueryReplyMsg Decode(wire::Reader& r) {
    return r.Get<QueryReplyMsg>();
  }
};

// ---------------------------------------------------------------------------
// Primary location probes
// ---------------------------------------------------------------------------

struct ProbeMsg {
  static constexpr MsgType kType = MsgType::kProbe;
  static constexpr const char* kName = "probe";
  GroupId group = 0;
  std::uint64_t req_id = 0;
  Mid reply_to = 0;

  static auto Fields(auto& m) {
    return std::tie(m.group, m.req_id, m.reply_to);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static ProbeMsg Decode(wire::Reader& r) { return r.Get<ProbeMsg>(); }
};

struct ProbeReplyMsg {
  static constexpr MsgType kType = MsgType::kProbeReply;
  static constexpr const char* kName = "probe-reply";
  GroupId group = 0;
  std::uint64_t req_id = 0;
  bool known = false;   // the replying cohort knows a current view
  bool active = false;  // and that view is active at the replier
  ViewId viewid;
  View view;

  static auto Fields(auto& m) {
    return std::tie(m.group, m.req_id, m.known, m.active, m.viewid, m.view);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static ProbeReplyMsg Decode(wire::Reader& r) {
    return r.Get<ProbeReplyMsg>();
  }
};

// ---------------------------------------------------------------------------
// Coordinator-server protocol for unreplicated clients (§3.5)
// ---------------------------------------------------------------------------

struct BeginTxnMsg {
  static constexpr MsgType kType = MsgType::kBeginTxn;
  static constexpr const char* kName = "begin-txn";
  GroupId group = 0;
  ViewId viewid;
  std::uint64_t req_id = 0;
  Mid reply_to = 0;

  static auto Fields(auto& m) {
    return std::tie(m.group, m.viewid, m.req_id, m.reply_to);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static BeginTxnMsg Decode(wire::Reader& r) { return r.Get<BeginTxnMsg>(); }
};

struct BeginTxnReplyMsg {
  static constexpr MsgType kType = MsgType::kBeginTxnReply;
  static constexpr const char* kName = "begin-txn-reply";
  std::uint64_t req_id = 0;
  ReplyStatus status = ReplyStatus::kOk;
  Aid aid;
  bool view_known = false;
  ViewId new_viewid;
  View new_view;

  static auto Fields(auto& m) {
    return std::tie(m.req_id, m.status, m.aid, m.view_known, m.new_viewid,
                    m.new_view);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static BeginTxnReplyMsg Decode(wire::Reader& r) {
    return r.Get<BeginTxnReplyMsg>();
  }
};

struct CommitReqMsg {
  static constexpr MsgType kType = MsgType::kCommitReq;
  static constexpr const char* kName = "commit-req";
  GroupId group = 0;
  ViewId viewid;
  std::uint64_t req_id = 0;
  Aid aid;
  Pset pset;
  Mid reply_to = 0;

  static auto Fields(auto& m) {
    return std::tie(m.group, m.viewid, m.req_id, m.aid, m.pset, m.reply_to);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static CommitReqMsg Decode(wire::Reader& r) { return r.Get<CommitReqMsg>(); }
};

struct CommitReqReplyMsg {
  static constexpr MsgType kType = MsgType::kCommitReqReply;
  static constexpr const char* kName = "commit-req-reply";
  std::uint64_t req_id = 0;
  TxnOutcome outcome = TxnOutcome::kUnknown;

  static auto Fields(auto& m) { return std::tie(m.req_id, m.outcome); }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static CommitReqReplyMsg Decode(wire::Reader& r) {
    return r.Get<CommitReqReplyMsg>();
  }
};

struct AbortReqMsg {
  static constexpr MsgType kType = MsgType::kAbortReq;
  static constexpr const char* kName = "abort-req";
  GroupId group = 0;
  Aid aid;
  Pset pset;

  static auto Fields(auto& m) { return std::tie(m.group, m.aid, m.pset); }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static AbortReqMsg Decode(wire::Reader& r) { return r.Get<AbortReqMsg>(); }
};

// ---------------------------------------------------------------------------
// Shard rebalancing (DESIGN.md §11)
// ---------------------------------------------------------------------------

// Primary of the pulling group → primary of the range's current owner: asks
// it to stream a shard image of [lo, hi) back via the §9 snapshot machinery.
// The chunks arrive as SnapshotChunkMsg carrying the SOURCE group's id and
// viewid; the puller tells them apart from its own intra-group transfers by
// that group field.
struct ShardPullMsg {
  static constexpr MsgType kType = MsgType::kShardPull;
  static constexpr const char* kName = "shard-pull";
  GroupId group = 0;       // destination: the range's current owner
  Mid from = 0;            // the pulling primary's mid (chunk destination)
  GroupId from_group = 0;  // the pulling group
  std::string lo;
  std::string hi;  // "" = +infinity

  static auto Fields(auto& m) {
    return std::tie(m.group, m.from, m.from_group, m.lo, m.hi);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static ShardPullMsg Decode(wire::Reader& r) { return r.Get<ShardPullMsg>(); }
};

// ---------------------------------------------------------------------------
// Backup read leases (DESIGN.md §14)
// ---------------------------------------------------------------------------

// Primary → backup: a per-backup read lease pinned to the granting view.
// Renewed on the existing CommBuffer ack traffic (no dedicated timer): the
// primary re-grants whenever it processes an ack from the backup and at
// least half the lease duration has elapsed since the last grant. The grant
// carries the primary's current sub-majority stable watermark so the backup
// can bound what it serves (a read is admitted only up to
// min(applied_ts, lease stable_ts)).
struct LeaseGrantMsg {
  static constexpr MsgType kType = MsgType::kLeaseGrant;
  static constexpr const char* kName = "lease-grant";
  GroupId group = 0;
  // The view this lease pins. A backup discards grants for any view other
  // than the one it is actively serving.
  ViewId viewid;
  Mid from = 0;  // the granting primary
  // Monotone per-view grant sequence; stale reorderings are dropped.
  std::uint64_t seq = 0;
  // The primary's StableTs() at grant time.
  std::uint64_t stable_ts = 0;
  // Lease validity from the moment of receipt, in host-clock units. The
  // receiver starts the clock at delivery, so clock skew shortens (never
  // lengthens) the usable window relative to the primary's intent.
  std::uint64_t duration = 0;

  static auto Fields(auto& m) {
    return std::tie(m.group, m.viewid, m.from, m.seq, m.stable_ts, m.duration);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static LeaseGrantMsg Decode(wire::Reader& r) {
    return r.Get<LeaseGrantMsg>();
  }
};

// Client → any cohort of a group: read one object's committed value. The
// horizon is the highest viewstamp any value previously observed by this
// client session was served at — the cohort must refuse rather than serve
// state older than it (monotonic sessions; DESIGN.md §14).
struct BackupReadMsg {
  static constexpr MsgType kType = MsgType::kBackupRead;
  static constexpr const char* kName = "backup-read";
  GroupId group = 0;
  std::string uid;
  Viewstamp horizon;
  std::uint64_t corr = 0;  // client correlation id, echoed in the reply
  Mid reply_to = 0;

  static auto Fields(auto& m) {
    return std::tie(m.group, m.uid, m.horizon, m.corr, m.reply_to);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static BackupReadMsg Decode(wire::Reader& r) {
    return r.Get<BackupReadMsg>();
  }
};

enum class ReadStatus : std::uint8_t {
  kOk = 0,
  // The serving cohort holds no valid lease for the current view: retry at
  // the primary and expect this member to stay leaseless for a while.
  // primary_hint names the cohort believed to be primary (0 = unknown).
  kWrongLease = 1,
  kNotFound = 2,
  // The cohort holds a valid lease but its provably-stable prefix does not
  // yet cover the client's horizon (or this object's latest committed
  // version). Transient — the watermark advances with the very next lease
  // renewal — so retry at the primary WITHOUT writing the member off.
  kTooNew = 3,
};
constexpr ReadStatus WireMax(ReadStatus) { return ReadStatus::kTooNew; }

struct BackupReadReplyMsg {
  static constexpr MsgType kType = MsgType::kBackupReadReply;
  static constexpr const char* kName = "backup-read-reply";
  std::uint64_t corr = 0;
  ReadStatus status = ReadStatus::kWrongLease;
  std::vector<std::uint8_t> value;
  // The viewstamp the value is serialized at: {serving view, install ts of
  // the committed version}. The client folds it into its session horizon.
  Viewstamp served_vs;
  Mid primary_hint = 0;

  static auto Fields(auto& m) {
    return std::tie(m.corr, m.status, m.value, m.served_vs, m.primary_hint);
  }
  void Encode(wire::Writer& w) const { w.Put(*this); }
  static BackupReadReplyMsg Decode(wire::Reader& r) {
    return r.Get<BackupReadReplyMsg>();
  }
};

// Every message type, in MsgType order: the one list MsgTypeName and the
// decode-coverage tests are driven from.
template <typename... M>
struct MessageList {
  // Calls fn.template operator()<M>() for each message type in order.
  template <typename Fn>
  static void ForEach(Fn&& fn) {
    (fn.template operator()<M>(), ...);
  }
  static constexpr std::size_t kSize = sizeof...(M);
  static constexpr bool InTypeOrder() {
    const MsgType types[] = {M::kType...};
    for (std::size_t i = 1; i < kSize; ++i) {
      if (!(types[i - 1] < types[i])) return false;
    }
    return types[kSize - 1] == MsgType::kBackupReadReply;
  }
};

using Messages =
    MessageList<PingMsg, InviteMsg, AcceptMsg, InitViewMsg, BufferBatchMsg,
                BufferAckMsg, SnapshotChunkMsg, SnapshotAckMsg, CallMsg,
                ReplyMsg, PrepareMsg, PrepareReplyMsg, CommitMsg,
                CommitDoneMsg, AbortMsg, AbortSubMsg, QueryMsg, QueryReplyMsg,
                ProbeMsg, ProbeReplyMsg, BeginTxnMsg, BeginTxnReplyMsg,
                CommitReqMsg, CommitReqReplyMsg, AbortReqMsg, ShardPullMsg,
                LeaseGrantMsg, BackupReadMsg, BackupReadReplyMsg>;

// One entry per MsgType value: 29 values, listed in increasing order up to
// the largest.
static_assert(Messages::kSize == 29 && Messages::InTypeOrder(),
              "Messages must list every MsgType exactly once, in order");

// The message name for `t` (metrics keys, traces); "?" for an unknown type.
const char* MsgTypeName(MsgType t);

// Serializes a message into a frame payload.
template <typename M>
std::vector<std::uint8_t> EncodeMsg(const M& m) {
  return wire::ToBytes(m);
}

}  // namespace vsr::vr
