#include "host/task.h"
#include "workload/airline.h"

namespace vsr::workload {
namespace {

std::vector<std::uint8_t> Bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

std::pair<std::string, long long> Split(const std::string& args) {
  auto eq = args.find('=');
  if (eq == std::string::npos) throw core::TxnError("bad args: " + args);
  return {args.substr(0, eq), std::stoll(args.substr(eq + 1))};
}

}  // namespace

void RegisterAirlineProcs(client::Cluster& cluster, vr::GroupId group) {
  cluster.RegisterProc(
      group, "add_flight",
      [](core::ProcContext& ctx) -> host::Task<std::vector<std::uint8_t>> {
        auto [flight, seats] = Split(ctx.ArgsAsString());
        co_await ctx.Write(flight, std::to_string(seats));
        co_return Bytes("ok");
      });
  cluster.RegisterProc(
      group, "reserve",
      [](core::ProcContext& ctx) -> host::Task<std::vector<std::uint8_t>> {
        auto [flight, n] = Split(ctx.ArgsAsString());
        auto v = co_await ctx.ReadForUpdate(flight);
        if (!v) throw core::TxnError("unknown flight " + flight);
        const long long left = std::stoll(*v);
        if (left < n) throw core::TxnError("sold out: " + flight);
        co_await ctx.Write(flight, std::to_string(left - n));
        co_return Bytes(std::to_string(left - n));
      });
  cluster.RegisterProc(
      group, "release",
      [](core::ProcContext& ctx) -> host::Task<std::vector<std::uint8_t>> {
        auto [flight, n] = Split(ctx.ArgsAsString());
        auto v = co_await ctx.ReadForUpdate(flight);
        const long long left = v && !v->empty() ? std::stoll(*v) : 0;
        co_await ctx.Write(flight, std::to_string(left + n));
        co_return Bytes(std::to_string(left + n));
      });
  cluster.RegisterProc(
      group, "seats",
      [](core::ProcContext& ctx) -> host::Task<std::vector<std::uint8_t>> {
        auto v = co_await ctx.Read(ctx.ArgsAsString());
        co_return Bytes(v.value_or("0"));
      });
}

core::TxnBody MakeBookingTxn(std::vector<ItineraryLeg> legs) {
  return [legs = std::move(legs)](core::TxnHandle& h) -> host::Task<bool> {
    for (const ItineraryLeg& leg : legs) {
      co_await h.Call(leg.region, "reserve",
                      leg.flight + "=" + std::to_string(leg.seats));
    }
    co_return true;
  };
}

long long CommittedSeats(client::Cluster& cluster, vr::GroupId region,
                         const std::string& flight) {
  core::Cohort* primary = cluster.AnyPrimary(region);
  if (primary == nullptr) return -1;
  auto v = primary->objects().ReadCommitted(flight);
  return v && !v->empty() ? std::stoll(*v) : 0;
}

}  // namespace vsr::workload
