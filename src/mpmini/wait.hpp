// Spin-then-park wait strategy and the transport's environment route.
//
// The mpmini hot path never parks while traffic is flowing: a waiter polls
// its inbound rings through a bounded spin (cheap pause instructions first,
// then sched yields, with the yield share sized for core-oversubscribed
// hosts), and only after the budget is spent does it fall back to the
// mailbox's condition variable — the park side of the eventcount protocol in
// mailbox.cpp. The spin budget is derived from the host's core count: 512
// iterations (64 pauses) on multi-core hosts, 16 yields on a single core.
//
// One environment variable is read, once per process, and validated at
// Environment startup (any other value warns once and is ignored):
//
//   MM_MPMINI_TRANSPORT=socket  run each rank as its own process over the
//                               TCP transport (see socket_transport.hpp;
//                               requires MM_MPMINI_RANK and
//                               MM_MPMINI_RENDEZVOUS)
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mm::mpi {

// Per-lane SPSC ring capacity (messages). A full ring overflows into the
// mailbox's locked deliver() path, so this bounds memory, not correctness.
inline constexpr std::size_t kRingCapacity = 256;

struct SpinPolicy {
  // Total iterations before parking. The first `pause_share` of them issue a
  // CPU pause/relax; the rest yield the core so a same-core peer can run.
  std::uint32_t iterations = 512;
  std::uint32_t pause_share = 64;
};

// The parsed transport environment. `warnings` holds one line per rejected
// value.
struct TransportEnv {
  bool socket = false;  // MM_MPMINI_TRANSPORT=socket
  SpinPolicy spin{};
  std::vector<std::string> warnings;
};

// Pure parser over the raw MM_MPMINI_TRANSPORT value (null = unset), exposed
// for tests. `hardware_threads` sizes the spin policy.
TransportEnv parse_transport_env(const char* transport, unsigned hardware_threads);

// Process-wide values (parsed from the environment on first use).
bool socket_transport_requested();
const SpinPolicy& spin_policy();

// Log each env-validation warning exactly once per process. Called at
// Environment startup so misconfigurations surface before traffic starts.
void validate_transport_env();

// One spin step: pause for low `step`, yield once past the policy's pause
// share. Callers loop `for (step = 0; step < policy.iterations; ++step)`.
void spin_relax(const SpinPolicy& policy, std::uint32_t step);

}  // namespace mm::mpi
