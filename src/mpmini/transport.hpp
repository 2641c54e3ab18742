// The pluggable transport seam under Comm/World.
//
// A Transport moves envelopes toward destination mailboxes. Everything above
// it — envelope matching, Mprobe reservation, deadline waits, fault
// injection, collectives, trace headers — is transport-agnostic, which is
// what makes "swap in a real interconnect" a transport change rather than a
// runtime rewrite:
//
//   * InProcessTransport — all ranks in one process; one mailbox per rank,
//     messages moved by SPSC lane rings, overflowing into the locked mailbox
//     path when a ring is full.
//   * SocketTransport (socket_transport.hpp) — one process per rank, full
//     TCP mesh; only the local rank's mailbox exists here.
#pragma once

#include <memory>

#include "mpmini/mailbox.hpp"

namespace mm::mpi {

class Transport {
 public:
  virtual ~Transport() = default;

  // Move `msg` toward `dest_world`'s mailbox. `src_world` names the sending
  // rank (its lane in process, its peer link over sockets). May throw
  // when the destination is unreachable — the sender's rank is poisoned,
  // matching a fault-plan kill.
  virtual void transmit(int src_world, int dest_world, Message&& msg) = 0;

  // The mailbox `world_rank`'s receives and probes match in. Remote-rank
  // mailboxes do not exist on a socket transport (asserted).
  virtual Mailbox& mailbox(int world_rank) = 0;

  // Wire the queued-depth / ring-depth high-watermark gauges through to the
  // mailboxes this transport hosts.
  virtual void attach_obs(obs::Gauge* queue_peak, obs::Gauge* ring_peak) = 0;

  // Lifecycle for transports holding external resources (sockets, reader
  // threads). start() runs before the rank main, stop() after it returns.
  virtual void start() {}
  virtual void stop() {}
};

class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(int world_size);

  void transmit(int src_world, int dest_world, Message&& msg) override;
  Mailbox& mailbox(int world_rank) override;
  void attach_obs(obs::Gauge* queue_peak, obs::Gauge* ring_peak) override;

 private:
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
};

}  // namespace mm::mpi
