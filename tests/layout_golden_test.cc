// Golden bytes for every wire, log and snapshot layout (DESIGN.md §8).
//
// Each case fills every field with a non-default value, encodes it and
// compares the hex against a pinned vector, then decodes the pinned bytes
// and re-encodes them. A codec change that reorders, drops, widens or
// narrows any field of any layout fails here.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "client/cluster.h"
#include "core/cohort.h"
#include "txn/object_store.h"
#include "txn/outcomes.h"
#include "vr/events.h"
#include "vr/messages.h"
#include "wire/buffer.h"

namespace vsr {

namespace core {

// Reaches the cohort state the §9.2 snapshot, §10 checkpoint and §11 shard
// payloads serialize, and the functions that write and read them.
struct CohortTestPeer {
  // Gives every part of the payloads a non-default value.
  static void Seed(Cohort& c) {
    const vr::Aid committed{0x0c1, {0x0c2, 0x0c3}, 0x0c4};
    const vr::Aid holder{0x0d1, {0x0d2, 0x0d3}, 0x0d4};
    c.store_.TryAcquire("base", committed, vr::LockMode::kWrite);
    c.store_.WriteTentative("base", vr::SubAid{committed, 1}, "v0");
    c.store_.Commit(committed);
    c.store_.TryAcquire("base", holder, vr::LockMode::kWrite);
    c.store_.WriteTentative("base", vr::SubAid{holder, 2}, "v1");
    c.outcomes_.RecordCommitted(committed);
    Cohort::DedupEntry e;
    e.completed = true;
    e.aid = committed;
    e.reply.call_id = 0x0e1;
    e.reply.status = vr::ReplyStatus::kFailed;
    e.reply.result = {0xe2, 0xe3};
    e.reply.pset = {vr::PsetEntry{0x0e4, {{0x0e5, 0x0e6}, 0x0e7}, 0x0e8}};
    e.reply.view_known = true;
    e.reply.new_viewid = {0x0e9, 0x0ea};
    e.reply.new_view = vr::View{0x0eb, {0x0ec}};
    c.call_dedup_[0x0f1] = e;
    c.prepared_ = {holder};
    c.prepared_siblings_ = {{holder, {0x0f2, 0x0f3}}};
  }
  static std::vector<std::uint8_t> SnapshotPayload(Cohort& c) {
    return *c.BuildSnapshotPayload();
  }
  static bool InstallSnapshot(Cohort& c, vr::Viewstamp vs,
                              const std::vector<std::uint8_t>& payload) {
    return c.InstallSnapshot(vs, payload);
  }
  static void LogCheckpoint(Cohort& c, std::uint64_t ts) {
    c.LogCheckpoint(ts);
  }
  static std::vector<storage::EventLog::Entry> ReplayLog(Cohort& c) {
    return c.elog_.Replay();
  }
  static void OnShardPull(Cohort& c, const vr::ShardPullMsg& m) {
    c.OnShardPull(m);
  }
  static void DropShard(Cohort& c, std::string lo, std::string hi) {
    c.DropShard(std::move(lo), std::move(hi));
  }
};

}  // namespace core

namespace {

using core::CohortTestPeer;

std::string Hex(const std::vector<std::uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string s;
  for (std::uint8_t b : bytes) {
    s += kDigits[b >> 4];
    s += kDigits[b & 0xf];
  }
  return s;
}

std::vector<std::uint8_t> Unhex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// Compares against the pinned hex; on a mismatch prints the actual bytes as
// a ready-to-paste literal.
void ExpectHex(const std::string& name, const std::vector<std::uint8_t>& got,
               const std::string& want) {
  const std::string hex = Hex(got);
  if (hex == want) return;
  std::string lit;
  for (std::size_t i = 0; i < hex.size(); i += 64) {
    lit += "\n      \"" + hex.substr(i, 64) + "\"";
  }
  ADD_FAILURE() << name << " bytes changed; actual:" << lit;
}

// Encodes `m`, checks the pinned hex, then decodes the pinned bytes and
// checks that re-encoding reproduces them exactly.
template <typename M>
void CheckLayout(const std::string& name, const M& m, const std::string& want) {
  wire::Writer w;
  m.Encode(w);
  ExpectHex(name, w.Take(), want);
  const std::vector<std::uint8_t> pinned = Unhex(want);
  wire::Reader r(pinned);
  const M back = M::Decode(r);
  EXPECT_TRUE(r.ok()) << name;
  EXPECT_TRUE(r.AtEnd()) << name;
  wire::Writer again;
  back.Encode(again);
  EXPECT_EQ(Hex(again.Take()), want) << name << " does not decode back";
}

const vr::ViewId kVid{0x0102, 0x03};
const vr::Aid kAid{0x11, {0x12, 0x13}, 0x14};
const vr::SubAid kSub{kAid, 0x15};
const vr::Viewstamp kVs{{0x21, 0x22}, 0x23};
const vr::View kView{0x31, {0x32, 0x33}};
const vr::Pset kPset{vr::PsetEntry{0x41, {{0x42, 0x43}, 0x44}, 0x45}};

vr::EventRecord FullRecord(vr::EventType type) {
  vr::EventRecord e;
  e.type = type;
  e.ts = 0x50 + static_cast<std::uint64_t>(type);
  e.sub_aid = kSub;
  e.effects = {vr::ObjectEffect{"k", vr::LockMode::kWrite, "t"}};
  e.call_seq = 0x51;
  e.result = {0x52};
  e.nested_pset = kPset;
  e.plist = {0x53, 0x54};
  e.view = kView;
  e.history = vr::History::FromEntries({kVs});
  e.gstate = {0x55, 0x56};
  return e;
}

TEST(LayoutGolden, EveryMessageType) {
  vr::PingMsg ping;
  ping.group = 0x0a01;
  ping.from = 0x0a02;
  CheckLayout("ping", ping,
      "010a000000000000020a0000");

  vr::InviteMsg invite;
  invite.group = 0x0a01;
  invite.new_viewid = kVid;
  invite.from = 0x0a02;
  CheckLayout("invite", invite,
      "010a000000000000020100000000000003000000020a0000");

  vr::AcceptMsg accept;
  accept.group = 0x0a01;
  accept.invite_viewid = kVid;
  accept.from = 0x0a02;
  accept.crashed = true;
  accept.last_vs = kVs;
  accept.was_primary = true;
  accept.recovered = true;
  accept.crash_viewid = {0x0a03, 0x0a04};
  CheckLayout("accept", accept,
      "010a000000000000020100000000000003000000020a00000121000000000000"
      "0022000000230000000000000001030a000000000000040a000001");

  vr::InitViewMsg init;
  init.group = 0x0a01;
  init.viewid = kVid;
  init.view = kView;
  init.from = 0x0a02;
  CheckLayout("init-view", init,
      "010a000000000000020100000000000003000000310000000200000032000000"
      "33000000020a0000");

  vr::BufferBatchMsg batch;
  batch.group = 0x0a01;
  batch.viewid = kVid;
  batch.from = 0x0a02;
  batch.events = {FullRecord(vr::EventType::kCommitting)};
  CheckLayout("buffer-batch", batch,
      "010a000000000000020100000000000003000000020a00000100000001510000"
      "0000000000110000000000000012000000000000001300000014000000000000"
      "001500000001000000010000006b010101000000745100000000000000010000"
      "0052010000004100000000000000420000000000000043000000440000000000"
      "0000450000000200000053000000000000005400000000000000310000000200"
      "0000320000003300000001000000210000000000000022000000230000000000"
      "0000020000005556");

  vr::BufferAckMsg ack;
  ack.group = 0x0a01;
  ack.viewid = kVid;
  ack.from = 0x0a02;
  ack.ts = 0x0a03;
  ack.gap = true;
  ack.gap_hi = 0x0a04;
  ack.rejoin = true;
  ack.rejoin_epoch = 0x0a05;
  CheckLayout("buffer-ack", ack,
      "010a000000000000020100000000000003000000020a0000030a000000000000"
      "01040a00000000000001050a000000000000");

  vr::SnapshotChunkMsg chunk;
  chunk.group = 0x0a01;
  chunk.viewid = kVid;
  chunk.from = 0x0a02;
  chunk.vs = kVs;
  chunk.total_size = 0x0a;
  chunk.checksum = 0xa0b0c0d0;
  chunk.offset = 0x02;
  chunk.data = {0xa1, 0xa2, 0xa3};
  CheckLayout("snapshot-chunk", chunk,
      "010a000000000000020100000000000003000000020a00002100000000000000"
      "2200000023000000000000000a00000000000000d0c0b0a00200000000000000"
      "03000000a1a2a3");

  vr::SnapshotAckMsg sack;
  sack.group = 0x0a01;
  sack.viewid = kVid;
  sack.from = 0x0a02;
  sack.vs = kVs;
  sack.offset = 0x0a03;
  CheckLayout("snapshot-ack", sack,
      "010a000000000000020100000000000003000000020a00002100000000000000"
      "220000002300000000000000030a000000000000");

  vr::CallMsg call;
  call.group = 0x0a01;
  call.viewid = kVid;
  call.call_id = 0x0a02;
  call.call_seq = 0x0a03;
  call.reply_to = 0x0a04;
  call.sub_aid = kSub;
  call.dead_subs = {0x0a05, 0x0a06};
  call.proc = "proc";
  call.args = {0xa7, 0xa8};
  CheckLayout("call", call,
      "010a000000000000020100000000000003000000020a000000000000030a0000"
      "00000000040a0000110000000000000012000000000000001300000014000000"
      "000000001500000002000000050a0000060a00000400000070726f6302000000"
      "a7a8");

  vr::ReplyMsg reply;
  reply.call_id = 0x0a01;
  reply.status = vr::ReplyStatus::kFailed;
  reply.result = {0xa2};
  reply.pset = kPset;
  reply.view_known = true;
  reply.new_viewid = kVid;
  reply.new_view = kView;
  CheckLayout("reply", reply,
      "010a0000000000000201000000a2010000004100000000000000420000000000"
      "0000430000004400000000000000450000000102010000000000000300000031"
      "000000020000003200000033000000");

  vr::PrepareMsg prepare;
  prepare.group = 0x0a01;
  prepare.aid = kAid;
  prepare.pset = kPset;
  prepare.reply_to = 0x0a02;
  CheckLayout("prepare", prepare,
      "010a000000000000110000000000000012000000000000001300000014000000"
      "0000000001000000410000000000000042000000000000004300000044000000"
      "0000000045000000020a0000");

  vr::PrepareReplyMsg prep_reply;
  prep_reply.aid = kAid;
  prep_reply.from_group = 0x0a01;
  prep_reply.status = vr::PrepareStatus::kWrongPrimary;
  prep_reply.read_only = true;
  prep_reply.view_known = true;
  prep_reply.new_viewid = kVid;
  prep_reply.new_view = kView;
  prep_reply.prepared_vs = kVs;
  CheckLayout("prepare-reply", prep_reply,
      "11000000000000001200000000000000130000001400000000000000010a0000"
      "0000000002010102010000000000000300000031000000020000003200000033"
      "0000002100000000000000220000002300000000000000");

  vr::CommitMsg commit;
  commit.group = 0x0a01;
  commit.aid = kAid;
  commit.reply_to = 0x0a02;
  commit.decision_vs = kVs;
  commit.fused = true;
  CheckLayout("commit", commit,
      "010a000000000000110000000000000012000000000000001300000014000000"
      "00000000020a0000210000000000000022000000230000000000000001");

  vr::CommitDoneMsg done;
  done.aid = kAid;
  done.from_group = 0x0a01;
  done.wrong_primary = true;
  done.view_known = true;
  done.new_viewid = kVid;
  done.new_view = kView;
  CheckLayout("commit-done", done,
      "11000000000000001200000000000000130000001400000000000000010a0000"
      "0000000001010201000000000000030000003100000002000000320000003300"
      "0000");

  vr::AbortMsg abort;
  abort.group = 0x0a01;
  abort.aid = kAid;
  CheckLayout("abort", abort,
      "010a000000000000110000000000000012000000000000001300000014000000"
      "00000000");

  vr::AbortSubMsg abort_sub;
  abort_sub.group = 0x0a01;
  abort_sub.sub_aid = kSub;
  CheckLayout("abort-sub", abort_sub,
      "010a000000000000110000000000000012000000000000001300000014000000"
      "0000000015000000");

  vr::QueryMsg query;
  query.aid = kAid;
  query.reply_to = 0x0a01;
  query.reply_group = 0x0a02;
  CheckLayout("query", query,
      "11000000000000001200000000000000130000001400000000000000010a0000"
      "020a000000000000");

  vr::QueryReplyMsg query_reply;
  query_reply.aid = kAid;
  query_reply.outcome = vr::TxnOutcome::kAborted;
  CheckLayout("query-reply", query_reply,
      "1100000000000000120000000000000013000000140000000000000003");

  vr::ProbeMsg probe;
  probe.group = 0x0a01;
  probe.req_id = 0x0a02;
  probe.reply_to = 0x0a03;
  CheckLayout("probe", probe,
      "010a000000000000020a000000000000030a0000");

  vr::ProbeReplyMsg probe_reply;
  probe_reply.group = 0x0a01;
  probe_reply.req_id = 0x0a02;
  probe_reply.known = true;
  probe_reply.active = true;
  probe_reply.viewid = kVid;
  probe_reply.view = kView;
  CheckLayout("probe-reply", probe_reply,
      "010a000000000000020a00000000000001010201000000000000030000003100"
      "0000020000003200000033000000");

  vr::BeginTxnMsg begin;
  begin.group = 0x0a01;
  begin.viewid = kVid;
  begin.req_id = 0x0a02;
  begin.reply_to = 0x0a03;
  CheckLayout("begin-txn", begin,
      "010a000000000000020100000000000003000000020a000000000000030a0000");

  vr::BeginTxnReplyMsg begin_reply;
  begin_reply.req_id = 0x0a01;
  begin_reply.status = vr::ReplyStatus::kWrongView;
  begin_reply.aid = kAid;
  begin_reply.view_known = true;
  begin_reply.new_viewid = kVid;
  begin_reply.new_view = kView;
  CheckLayout("begin-txn-reply", begin_reply,
      "010a000000000000011100000000000000120000000000000013000000140000"
      "0000000000010201000000000000030000003100000002000000320000003300"
      "0000");

  vr::CommitReqMsg commit_req;
  commit_req.group = 0x0a01;
  commit_req.viewid = kVid;
  commit_req.req_id = 0x0a02;
  commit_req.aid = kAid;
  commit_req.pset = kPset;
  commit_req.reply_to = 0x0a03;
  CheckLayout("commit-req", commit_req,
      "010a000000000000020100000000000003000000020a00000000000011000000"
      "0000000012000000000000001300000014000000000000000100000041000000"
      "00000000420000000000000043000000440000000000000045000000030a0000");

  vr::CommitReqReplyMsg commit_req_reply;
  commit_req_reply.req_id = 0x0a01;
  commit_req_reply.outcome = vr::TxnOutcome::kCommitted;
  CheckLayout("commit-req-reply", commit_req_reply,
      "010a00000000000002");

  vr::AbortReqMsg abort_req;
  abort_req.group = 0x0a01;
  abort_req.aid = kAid;
  abort_req.pset = kPset;
  CheckLayout("abort-req", abort_req,
      "010a000000000000110000000000000012000000000000001300000014000000"
      "0000000001000000410000000000000042000000000000004300000044000000"
      "0000000045000000");

  vr::ShardPullMsg pull;
  pull.group = 0x0a01;
  pull.from = 0x0a02;
  pull.from_group = 0x0a03;
  pull.lo = "lo";
  pull.hi = "hi";
  CheckLayout("shard-pull", pull,
      "010a000000000000020a0000030a000000000000020000006c6f020000006869");

  vr::LeaseGrantMsg grant;
  grant.group = 0x0a01;
  grant.viewid = kVid;
  grant.from = 0x0a02;
  grant.seq = 0x0a03;
  grant.stable_ts = 0x0a04;
  grant.duration = 0x0a05;
  CheckLayout("lease-grant", grant,
      "010a000000000000020100000000000003000000020a0000030a000000000000"
      "040a000000000000050a000000000000");

  vr::BackupReadMsg read;
  read.group = 0x0a01;
  read.uid = "uid";
  read.horizon = kVs;
  read.corr = 0x0a02;
  read.reply_to = 0x0a03;
  CheckLayout("backup-read", read,
      "010a000000000000030000007569642100000000000000220000002300000000"
      "000000020a000000000000030a0000");

  vr::BackupReadReplyMsg read_reply;
  read_reply.corr = 0x0a01;
  read_reply.status = vr::ReadStatus::kTooNew;
  read_reply.value = {0xa2};
  read_reply.served_vs = kVs;
  read_reply.primary_hint = 0x0a03;
  CheckLayout("backup-read-reply", read_reply,
      "010a0000000000000301000000a2210000000000000022000000230000000000"
      "0000030a0000");
}

TEST(LayoutGolden, EventRecordPerType) {
  const std::vector<std::string> want = {
      "0050000000000000001100000000000000120000000000000013000000140000"
      "00000000001500000001000000010000006b0101010000007451000000000000"
      "0001000000520100000041000000000000004200000000000000430000004400"
      "0000000000004500000002000000530000000000000054000000000000003100"
      "0000020000003200000033000000010000002100000000000000220000002300"
      "000000000000020000005556",
      "0151000000000000001100000000000000120000000000000013000000140000"
      "00000000001500000001000000010000006b0101010000007451000000000000"
      "0001000000520100000041000000000000004200000000000000430000004400"
      "0000000000004500000002000000530000000000000054000000000000003100"
      "0000020000003200000033000000010000002100000000000000220000002300"
      "000000000000020000005556",
      "0252000000000000001100000000000000120000000000000013000000140000"
      "00000000001500000001000000010000006b0101010000007451000000000000"
      "0001000000520100000041000000000000004200000000000000430000004400"
      "0000000000004500000002000000530000000000000054000000000000003100"
      "0000020000003200000033000000010000002100000000000000220000002300"
      "000000000000020000005556",
      "0353000000000000001100000000000000120000000000000013000000140000"
      "00000000001500000001000000010000006b0101010000007451000000000000"
      "0001000000520100000041000000000000004200000000000000430000004400"
      "0000000000004500000002000000530000000000000054000000000000003100"
      "0000020000003200000033000000010000002100000000000000220000002300"
      "000000000000020000005556",
      "0454000000000000001100000000000000120000000000000013000000140000"
      "00000000001500000001000000010000006b0101010000007451000000000000"
      "0001000000520100000041000000000000004200000000000000430000004400"
      "0000000000004500000002000000530000000000000054000000000000003100"
      "0000020000003200000033000000010000002100000000000000220000002300"
      "000000000000020000005556",
      "0555000000000000001100000000000000120000000000000013000000140000"
      "00000000001500000001000000010000006b0101010000007451000000000000"
      "0001000000520100000041000000000000004200000000000000430000004400"
      "0000000000004500000002000000530000000000000054000000000000003100"
      "0000020000003200000033000000010000002100000000000000220000002300"
      "000000000000020000005556",
      "0656000000000000001100000000000000120000000000000013000000140000"
      "00000000001500000001000000010000006b0101010000007451000000000000"
      "0001000000520100000041000000000000004200000000000000430000004400"
      "0000000000004500000002000000530000000000000054000000000000003100"
      "0000020000003200000033000000010000002100000000000000220000002300"
      "000000000000020000005556",
      "0757000000000000001100000000000000120000000000000013000000140000"
      "00000000001500000001000000010000006b0101010000007451000000000000"
      "0001000000520100000041000000000000004200000000000000430000004400"
      "0000000000004500000002000000530000000000000054000000000000003100"
      "0000020000003200000033000000010000002100000000000000220000002300"
      "000000000000020000005556",
      "0858000000000000001100000000000000120000000000000013000000140000"
      "00000000001500000001000000010000006b0101010000007451000000000000"
      "0001000000520100000041000000000000004200000000000000430000004400"
      "0000000000004500000002000000530000000000000054000000000000003100"
      "0000020000003200000033000000010000002100000000000000220000002300"
      "000000000000020000005556",
  };
  for (std::size_t t = 0; t < want.size(); ++t) {
    const auto type = static_cast<vr::EventType>(t);
    CheckLayout(vr::EventTypeName(type), FullRecord(type), want[t]);
  }
}

// The gstate pieces written by the transaction layer: lock holders and
// tentative versions of the object store, then the outcome table.
TEST(LayoutGolden, ObjectStoreAndOutcomeTable) {
  sim::Simulation sim(1);
  txn::ObjectStore store(sim.host());
  const vr::Aid a{0x61, {0x62, 0x63}, 0x64};
  const vr::Aid b{0x65, {0x66, 0x67}, 0x68};
  store.TryAcquire("x", a, vr::LockMode::kWrite);
  store.WriteTentative("x", vr::SubAid{a, 0x69}, "old");
  store.Commit(a);
  store.TryAcquire("x", b, vr::LockMode::kWrite);
  store.WriteTentative("x", vr::SubAid{b, 0x6a}, "new");
  txn::OutcomeTable outcomes;
  outcomes.RecordCommitted(a);
  outcomes.RecordAborted(b);
  wire::Writer w;
  store.Snapshot(w);
  outcomes.Snapshot(w);
  const std::string want =
      "01000000010000007801030000006f6c64010000006500000000000000660000"
      "0000000000670000006800000000000000010100000065000000000000006600"
      "0000000000006700000068000000000000006a000000030000006e6577020000"
      "0061000000000000006200000000000000630000006400000000000000026500"
      "000000000000660000000000000067000000680000000000000003";
  ExpectHex("gstate", w.Take(), want);

  const std::vector<std::uint8_t> pinned = Unhex(want);
  wire::Reader r(pinned);
  txn::ObjectStore back(sim.host());
  txn::OutcomeTable back_outcomes;
  back.Restore(r);
  back_outcomes.Restore(r);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
  wire::Writer again;
  back.Snapshot(again);
  back_outcomes.Snapshot(again);
  EXPECT_EQ(Hex(again.Take()), want);
}

client::ClusterOptions LoggedCluster() {
  client::ClusterOptions o;
  o.seed = 5;
  o.cohort.event_log.enabled = true;
  return o;
}

// §9.2: history, gstate, prepared set, §3.6 sibling lists.
TEST(LayoutGolden, SnapshotPayload) {
  client::Cluster cluster(LoggedCluster());
  const vr::GroupId g = cluster.AddGroup("g", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  core::Cohort* primary = cluster.AnyPrimary(g);
  ASSERT_NE(primary, nullptr);
  CohortTestPeer::Seed(*primary);
  const std::vector<std::uint8_t> payload =
      CohortTestPeer::SnapshotPayload(*primary);
  ExpectHex("snapshot payload", payload,
      "010000000100000000000000010000000100000000000000f300000001000000"
      "04000000626173650102000000763001000000d100000000000000d200000000"
      "000000d3000000d4000000000000000101000000d100000000000000d2000000"
      "00000000d3000000d4000000000000000200000002000000763101000000c100"
      "000000000000c200000000000000c3000000c4000000000000000201000000f1"
      "00000000000000c100000000000000c200000000000000c3000000c400000000"
      "000000e1000000000000000202000000e2e301000000e400000000000000e500"
      "000000000000e6000000e700000000000000e800000001e900000000000000ea"
      "000000eb00000001000000ec00000001000000d100000000000000d200000000"
      "000000d3000000d40000000000000001000000d100000000000000d200000000"
      "000000d3000000d40000000000000002000000f200000000000000f300000000"
      "000000");

  // A backup installs the pinned payload and serves the same bytes back.
  core::Cohort* backup = nullptr;
  for (core::Cohort* c : cluster.Cohorts(g)) {
    if (c != primary) backup = c;
  }
  ASSERT_NE(backup, nullptr);
  ASSERT_TRUE(CohortTestPeer::InstallSnapshot(
      *backup, primary->history().Latest(), payload));
  EXPECT_EQ(Hex(CohortTestPeer::SnapshotPayload(*backup)), Hex(payload));
}

// §10: viewid, applied ts, view, history, gstate, prepared set.
TEST(LayoutGolden, LogCheckpoint) {
  client::Cluster cluster(LoggedCluster());
  const vr::GroupId g = cluster.AddGroup("g", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  core::Cohort* primary = cluster.AnyPrimary(g);
  ASSERT_NE(primary, nullptr);
  CohortTestPeer::Seed(*primary);
  CohortTestPeer::LogCheckpoint(*primary, 0x71);
  cluster.RunFor(50 * host::kMillisecond);
  const auto entries = CohortTestPeer::ReplayLog(*primary);
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(entries.front().kind, 1);
  ExpectHex("log checkpoint", entries.front().payload,
      "0100000000000000010000007100000000000000010000000200000002000000"
      "03000000010000000100000000000000010000000100000000000000f3000000"
      "0100000004000000626173650102000000763001000000d100000000000000d2"
      "00000000000000d3000000d4000000000000000101000000d100000000000000"
      "d200000000000000d3000000d400000000000000020000000200000076310100"
      "0000c100000000000000c200000000000000c3000000c4000000000000000201"
      "000000f100000000000000c100000000000000c200000000000000c3000000c4"
      "00000000000000e1000000000000000202000000e2e301000000e40000000000"
      "0000e500000000000000e6000000e700000000000000e800000001e900000000"
      "000000ea000000eb00000001000000ec00000001000000d100000000000000d2"
      "00000000000000d3000000d400000000000000");
}

// §11: the shard image header (bounds, source group) ahead of the range,
// and the drop record's bounds.
TEST(LayoutGolden, ShardImageAndDropBounds) {
  client::Cluster cluster(LoggedCluster());
  const vr::GroupId g = cluster.AddGroup("g", 3);
  const vr::GroupId puller = cluster.AddGroup("puller", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  core::Cohort* primary = cluster.AnyPrimary(g);
  core::Cohort* pulling = cluster.AnyPrimary(puller);
  ASSERT_NE(primary, nullptr);
  ASSERT_NE(pulling, nullptr);
  CohortTestPeer::Seed(*primary);

  std::vector<std::uint8_t> image;
  std::vector<std::uint8_t> drop;
  cluster.network().set_observer([&](const net::Frame& f) {
    wire::Reader r(f.payload);
    if (f.type == static_cast<std::uint16_t>(vr::MsgType::kSnapshotChunk)) {
      image = vr::SnapshotChunkMsg::Decode(r).data;
    } else if (f.type ==
               static_cast<std::uint16_t>(vr::MsgType::kBufferBatch)) {
      for (const vr::EventRecord& e : vr::BufferBatchMsg::Decode(r).events) {
        if (e.type == vr::EventType::kShardDrop) drop = e.gstate;
      }
    }
  });
  vr::ShardPullMsg pull;
  pull.group = g;
  pull.from = pulling->mid();
  pull.from_group = puller;
  pull.lo = "a";
  pull.hi = "c";
  CohortTestPeer::OnShardPull(*primary, pull);
  cluster.RunFor(5 * host::kMillisecond);
  ExpectHex("shard image", image,
      "0100000061010000006301000000000000000100000004000000626173650200"
      "00007630");

  CohortTestPeer::DropShard(*primary, "m", "n");
  cluster.RunFor(50 * host::kMillisecond);
  cluster.network().set_observer(nullptr);
  ExpectHex("shard drop bounds", drop,
      "010000006d010000006e");
}

}  // namespace
}  // namespace vsr
