// Analytic cost models for the comparators the paper discusses in §5 whose
// systems are closed-source (Isis, Tandem NonStop / Auragen) or whose cost
// the paper characterizes structurally (the virtual partitions view-change
// protocol). DESIGN.md documents the substitution: the paper argues about
// message counts and protocol phases, so counting models reproduce the
// comparison faithfully.
#pragma once

#include <cstdint>

#include "host/time.h"

namespace vsr::baseline {

struct ProtocolCost {
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  host::Duration latency = 0;
};

// --- Virtual partitions view change (El Abbadi, Skeen, Cristian [12]) ------
//
// §5: "The virtual partitions protocol requires three phases. The first
// round establishes the new view, the second informs the cohorts of the new
// view, and in the third, the cohorts all communicate with one another to
// find out the current state."
inline ProtocolCost VirtualPartitionsViewChange(std::size_t n,
                                                host::Duration one_way_delay) {
  ProtocolCost c;
  c.rounds = 3;
  const std::uint64_t others = static_cast<std::uint64_t>(n) - 1;
  // Phase 1: manager -> all, all -> manager (establish view).
  c.messages += 2 * others;
  // Phase 2: manager -> all (announce view), all -> manager (ack).
  c.messages += 2 * others;
  // Phase 3: all-to-all state exchange.
  c.messages += static_cast<std::uint64_t>(n) * others;
  // Each phase costs a round trip (phase 3: one exchange).
  c.latency = 3 * 2 * one_way_delay;
  return c;
}

// --- VR view change (this paper, §4.1) --------------------------------------
//
// "One round of messages is all that is needed when the manager is also the
// primary in the last active view; otherwise, one round plus one message is
// needed." The newview record that re-initializes backups then flows through
// the communication buffer like ordinary traffic.
inline ProtocolCost VrViewChange(std::size_t n, bool manager_is_new_primary,
                                 host::Duration one_way_delay) {
  ProtocolCost c;
  const std::uint64_t others = static_cast<std::uint64_t>(n) - 1;
  c.rounds = 1;
  c.messages = 2 * others;  // invitations + acceptances
  c.latency = 2 * one_way_delay;
  if (!manager_is_new_primary) {
    c.messages += 1;  // the init-view message
    c.latency += one_way_delay;
  }
  return c;
}

// --- Voting (Gifford [16]) ---------------------------------------------------
//
// Messages on the critical path of one operation under quorum consensus with
// a lock round and a write round (reads need no locks).
inline ProtocolCost VotingWrite(std::size_t write_quorum,
                                host::Duration one_way_delay) {
  ProtocolCost c;
  c.rounds = 2;
  c.messages = 4 * static_cast<std::uint64_t>(write_quorum);
  c.latency = 4 * one_way_delay;
  return c;
}
inline ProtocolCost VotingRead(std::size_t read_quorum,
                               host::Duration one_way_delay) {
  ProtocolCost c;
  c.rounds = 1;
  c.messages = 2 * static_cast<std::uint64_t>(read_quorum);
  c.latency = 2 * one_way_delay;
  return c;
}

// --- VR remote call (§3.7) ---------------------------------------------------
//
// "Remote calls in our system run only at the primary and need not involve
// the backups" — 2 messages on the critical path; backup notification is off
// the critical path (counted separately as background).
inline ProtocolCost VrCall(std::size_t n, host::Duration one_way_delay) {
  ProtocolCost c;
  c.rounds = 1;
  c.messages = 2;
  c.latency = 2 * one_way_delay;
  // Background (not latency-bearing): one buffer batch + ack per backup.
  c.messages += 2 * (static_cast<std::uint64_t>(n) - 1);
  return c;
}

// --- Isis piggybacking (Birman & Joseph [4,5]) -------------------------------
//
// §5: in Isis the effects of operations are "piggybacked on reply messages.
// This piggybacked information accompanies all future client messages ...
// Unlike our pset, however, piggybacked information in Isis cannot be
// discarded when transactions commit. A disadvantage of Isis is the large
// amount of extra information flowing on every message."
//
// Model: after `ops` operations of `effect_bytes` each with a garbage-
// collection horizon of `gc_ops` (Isis: unbounded in the paper's telling →
// pass ops), each message carries the accumulated effects. VR's counterpart
// is the pset: one 24-byte ⟨groupid, viewstamp, sub⟩ entry per *call of the
// live transaction*, discarded at commit.
inline std::uint64_t IsisPiggybackBytes(std::uint64_t ops,
                                        std::uint64_t effect_bytes,
                                        std::uint64_t gc_ops) {
  const std::uint64_t live = gc_ops == 0 ? ops : std::min(ops, gc_ops);
  return live * effect_bytes;
}
inline std::uint64_t VrPsetBytes(std::uint64_t calls_in_txn) {
  constexpr std::uint64_t kPsetEntryBytes = 24;  // u64 + (u64+u32) + u32
  return calls_in_txn * kPsetEntryBytes;
}

// --- Tandem-style primary/backup pair (Bartlett [2], Borg [6]) ---------------
//
// §5: "there is just one backup, so they can survive only a single failure.
// Furthermore, the primary/backup pair must reside at a single node."
// Steady-state availability of a k-of-n system with exponential failure and
// repair (per-replica availability a = MTTF / (MTTF + MTTR)): the group is
// available while at least `need` of `n` replicas are up.
double KOfNAvailability(std::size_t n, std::size_t need,
                        double replica_availability);

// VR group of n cohorts needs a majority; a Tandem pair needs 1 of 2 but is
// co-located (correlated failure fraction `corr` takes the whole node down).
inline double VrAvailability(std::size_t n, double replica_availability) {
  return KOfNAvailability(n, (n / 2) + 1, replica_availability);
}
inline double TandemPairAvailability(double replica_availability,
                                     double correlated_fraction) {
  const double independent = KOfNAvailability(2, 1, replica_availability);
  // A correlated fault (shared node/power) defeats both halves at once.
  return (1.0 - correlated_fraction) * independent +
         correlated_fraction * replica_availability;
}

}  // namespace vsr::baseline
