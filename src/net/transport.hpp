// Transport facade: packetizer -> (FEC encoder) -> fault channel ->
// (FEC recovery) -> jitter buffer -> depacketizer, as one object the
// serve layer ticks.
//
// send() packetizes one access unit and pushes it through the channel
// at the current tick; receive() drains the channel, routes parity to
// FEC recovery and data into the jitter buffer, feeds any rebuilt
// packets back in, then releases due packets through the depacketizer.
// Everything is tick-driven and every random choice comes from the one
// FaultPlan the caller passes in, so a seeded run replays
// byte-identically and a rate-0 plan makes the whole stack the identity
// function on the NAL stream (same units, same order, same tick).
//
// Simulcast: the link runs `layers` independent lanes — per-layer
// packetizer (own sequence space), FEC pair, jitter buffer and
// depacketizer — over ONE shared fault channel, so all layers ride the
// same network and the same FaultPlan draw order.  receive() drains
// lanes in ascending layer order each tick; layers=1 collapses every
// lane loop to the pre-simulcast single path and stays byte-identical.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "fault/plan.hpp"
#include "h264/nal.hpp"
#include "net/channel.hpp"
#include "net/fec.hpp"
#include "net/jitter.hpp"
#include "net/packetizer.hpp"
#include "net/wire.hpp"

namespace affectsys::net {

struct TransportConfig {
  /// Serve-layer switch: when false, Sessions decode in-process and the
  /// rest of this struct is ignored.
  bool enabled = false;
  /// Simulcast lanes (1..kMaxLayers); 1 = pre-simulcast wire behaviour.
  std::uint8_t layers = 1;
  PacketizerConfig packetizer{};
  JitterConfig jitter{};
  ChannelConfig channel{};
  FecConfig fec{};
};

/// Cross-layer roll-up (sub-layer stats stay available via accessors).
struct TransportStats {
  std::uint64_t nals_sent = 0;
  std::uint64_t packets_sent = 0;    ///< data packets handed to the channel
  std::uint64_t parity_sent = 0;
  std::uint64_t packets_lost = 0;    ///< channel drops, data + parity
  std::uint64_t packets_recovered = 0;  ///< FEC rebuilds the jitter accepted
  std::uint64_t recovered_late = 0;  ///< rebuilt after their seq had passed
  std::uint64_t nals_received = 0;
  std::uint64_t loss_events = 0;     ///< depacketizer loss declarations
  std::uint64_t layer_dropped = 0;   ///< packets for a lane we don't run
};

class TransportLink {
 public:
  TransportLink(const TransportConfig& cfg, fault::FaultPlan* plan,
                fault::FaultCounts* counts);

  /// Sends one access unit on `layer`'s lane at tick `now`.
  void send(std::span<const h264::NalUnit> nals, std::uint32_t timestamp,
            std::uint32_t generation, std::uint64_t now,
            std::uint8_t layer = 0);

  /// Receives everything due at tick `now`: lanes drained in ascending
  /// layer order, each lane's stream in stream order.  Loss events are
  /// stamped with the lane they occurred on.
  std::vector<DepacketizerEvent> receive(std::uint64_t now);

  /// True when nothing is in flight or buffered (drain check).
  bool idle() const;

  std::uint8_t layer_count() const {
    return static_cast<std::uint8_t>(lanes_.size());
  }

  TransportStats stats() const;
  const ChannelStats& channel_stats() const { return channel_.stats(); }
  const JitterStats& jitter_stats(std::uint8_t layer = 0) const {
    return lanes_[layer].jitter.stats();
  }
  const FecStats& fec_stats(std::uint8_t layer = 0) const {
    return lanes_[layer].fec_rec.stats();
  }
  core::BufferPoolStats fec_pool_stats(std::uint8_t layer = 0) const {
    return lanes_[layer].fec_rec.pool_stats();
  }
  const DepacketizerStats& depacketizer_stats(std::uint8_t layer = 0) const {
    return lanes_[layer].depack.stats();
  }
  const TransportConfig& config() const { return cfg_; }

 private:
  struct Lane {
    Lane(const TransportConfig& cfg)
        : packetizer(cfg.packetizer),
          fec_enc(cfg.fec),
          // The packetizer never emits a payload above max(mtu, 1).
          fec_rec(cfg.fec, kWireHeaderBytes +
                               std::max<std::size_t>(cfg.packetizer.mtu, 1)),
          jitter(cfg.jitter) {}
    Packetizer packetizer;
    FecEncoder fec_enc;
    FecRecovery fec_rec;
    JitterBuffer jitter;
    Depacketizer depack;
  };

  TransportConfig cfg_;
  NetChannel channel_;
  std::vector<Lane> lanes_;
  std::uint64_t nals_sent_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t recovered_accepted_ = 0;
  std::uint64_t recovered_late_ = 0;
  std::uint64_t layer_dropped_ = 0;
};

}  // namespace affectsys::net
