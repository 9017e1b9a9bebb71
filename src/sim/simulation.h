// Bundles the pieces every simulated world needs: one scheduler, one root
// PRNG, one tracer. All subsystems receive references to (or forks of) these,
// never their own independently seeded sources.
//
// A Simulation IS a host (DESIGN.md §12): it owns a host::Host bundle over
// its scheduler and tracer and converts to host::Host& implicitly, so the
// protocol stack — which compiles against the seam only — can be constructed
// straight from a Simulation. The whole simulated world shares this one
// Host; the socket host gives each node its own.
#pragma once

#include <cstdint>

#include "host/host.h"
#include "host/trace.h"
#include "sim/rng.h"
#include "sim/scheduler.h"

namespace vsr::sim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed) : seed_(seed), rng_(seed) {}
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  std::uint64_t seed() const { return seed_; }
  Scheduler& scheduler() { return sched_; }
  Rng& rng() { return rng_; }
  host::Tracer& tracer() { return tracer_; }
  host::Time Now() const { return sched_.Now(); }

  // The host-seam view of this simulation (one shared Host for all nodes).
  host::Host& host() { return host_; }
  operator host::Host&() { return host_; }

 private:
  std::uint64_t seed_;
  Scheduler sched_;
  Rng rng_;
  host::Tracer tracer_;
  host::Host host_{sched_, tracer_};
};

}  // namespace vsr::sim
