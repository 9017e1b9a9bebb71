// Shared helpers for the test suites.
#pragma once

#include <string>
#include <vector>

#include "client/cluster.h"
#include "core/cohort.h"

namespace vsr::test {

inline std::vector<std::uint8_t> Bytes(const std::string& s) {
  return {s.begin(), s.end()};
}
inline std::string Str(const std::vector<std::uint8_t>& b) {
  return {b.begin(), b.end()};
}

// Registers a tiny key-value module on `group`:
//   put  "key=value" -> "ok"
//   get  "key"       -> value ("" if absent)
//   add  "key=delta" -> new numeric value (read-modify-write)
inline void RegisterKvProcs(client::Cluster& cluster, vr::GroupId group) {
  cluster.RegisterProc(group, "put",
                       [](core::ProcContext& ctx)
                           -> host::Task<std::vector<std::uint8_t>> {
                         std::string a = ctx.ArgsAsString();
                         auto eq = a.find('=');
                         co_await ctx.Write(a.substr(0, eq), a.substr(eq + 1));
                         co_return Bytes("ok");
                       });
  cluster.RegisterProc(group, "get",
                       [](core::ProcContext& ctx)
                           -> host::Task<std::vector<std::uint8_t>> {
                         auto v = co_await ctx.Read(ctx.ArgsAsString());
                         co_return Bytes(v.value_or(""));
                       });
  cluster.RegisterProc(
      group, "add",
      [](core::ProcContext& ctx) -> host::Task<std::vector<std::uint8_t>> {
        std::string a = ctx.ArgsAsString();
        auto eq = a.find('=');
        std::string key = a.substr(0, eq);
        long long delta = std::stoll(a.substr(eq + 1));
        auto v = co_await ctx.ReadForUpdate(key);
        long long cur = v && !v->empty() ? std::stoll(*v) : 0;
        co_await ctx.Write(key, std::to_string(cur + delta));
        co_return Bytes(std::to_string(cur + delta));
      });
}

// Runs a single-call transaction at the client's primary and returns the
// outcome after the cluster quiesces for `settle`.
inline vr::TxnOutcome RunOneCall(client::Cluster& cluster,
                                 vr::GroupId client_group,
                                 vr::GroupId server_group,
                                 const std::string& proc,
                                 const std::string& args,
                                 host::Duration settle = 2 * host::kSecond) {
  core::Cohort* primary = cluster.AnyPrimary(client_group);
  if (primary == nullptr) return vr::TxnOutcome::kUnknown;
  vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
  bool done = false;
  primary->SpawnTransaction(
      [server_group, proc, args](core::TxnHandle& h) -> host::Task<bool> {
        co_await h.Call(server_group, proc, args);
        co_return true;
      },
      [&](vr::TxnOutcome o) {
        outcome = o;
        done = true;
      });
  const host::Time deadline = cluster.sim().Now() + settle;
  while (!done && cluster.sim().Now() < deadline) {
    cluster.RunFor(10 * host::kMillisecond);
  }
  return outcome;
}

// Like RunOneCall but retries aborted transactions, as a real application
// would: the paper's no-reply rule aborts the transaction that straddles a
// view change (Fig. 2 step 3), and the application simply runs a fresh one.
inline vr::TxnOutcome RunOneCallWithRetry(client::Cluster& cluster,
                                          vr::GroupId client_group,
                                          vr::GroupId server_group,
                                          const std::string& proc,
                                          const std::string& args,
                                          int max_attempts = 5) {
  vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
  for (int i = 0; i < max_attempts; ++i) {
    outcome = RunOneCall(cluster, client_group, server_group, proc, args);
    // Retry only cleanly aborted transactions; an unknown outcome might have
    // committed, so retrying it is not idempotent-safe.
    if (outcome != vr::TxnOutcome::kAborted) return outcome;
    cluster.RunFor(200 * host::kMillisecond);
  }
  return outcome;
}

// The committed value of `key` at every *active* cohort of the group must
// agree; returns it (empty string if absent).
inline std::string CommittedValue(client::Cluster& cluster, vr::GroupId group,
                                  const std::string& key) {
  std::string value;
  bool first = true;
  for (core::Cohort* c : cluster.Cohorts(group)) {
    if (c->status() != core::Status::kActive) continue;
    auto v = c->objects().ReadCommitted(key);
    std::string s = v.value_or("");
    if (first) {
      value = s;
      first = false;
    }
  }
  return value;
}

}  // namespace vsr::test
