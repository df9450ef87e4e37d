// XOR-parity forward error correction over fixed-size groups of data
// packets.
//
// Sender: every `group` consecutive data packets produce one parity
// packet whose payload is [u16 xor-of-member-lengths][XOR of the
// members' full wire blobs, zero-padded to the longest].  Because the
// XOR runs over serialize_packet output, recovery reconstructs the
// entire packet — header and payload — bit-exactly, so a recovered
// picture decodes identically to a clean one.
//
// Receiver: caches the wire blob of every data packet it sees (keyed by
// extended sequence).  A parity group with exactly one missing member
// XORs the survivors against the parity to rebuild it; groups with all
// members present are discarded, groups with two or more missing stay
// pending until the stragglers arrive or the group goes stale
// (unrecoverable).  Parity packets ride their own sequence counter and
// never enter the jitter buffer, so losing one costs nothing but its
// protection.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/buffer_pool.hpp"
#include "net/wire.hpp"

namespace affectsys::net {

struct FecConfig {
  bool enabled = false;
  /// Data packets covered per parity packet.  Larger groups cost less
  /// overhead but any two losses inside a group are unrecoverable.
  std::uint8_t group = 4;
};

class FecEncoder {
 public:
  explicit FecEncoder(const FecConfig& cfg) : cfg_(cfg) {}

  /// Accumulates one sent data packet; returns the parity packet when
  /// this packet completes a group, nullopt otherwise (or if disabled).
  std::optional<MediaPacket> add(const MediaPacket& p);

  std::uint64_t parity_emitted() const { return parity_emitted_; }

 private:
  FecConfig cfg_;
  std::vector<std::uint8_t> acc_;       ///< running XOR of member blobs
  std::vector<std::uint8_t> blob_;      ///< per-add wire staging (reused)
  std::uint16_t len_xor_ = 0;           ///< running XOR of member lengths
  std::uint8_t members_ = 0;
  std::uint16_t base_ = 0;              ///< seq of the group's first member
  std::uint16_t parity_seq_ = 0;        ///< parity-space counter
  std::uint64_t parity_emitted_ = 0;
};

struct FecStats {
  std::uint64_t data_seen = 0;
  std::uint64_t parity_seen = 0;
  std::uint64_t packets_recovered = 0;
  std::uint64_t groups_complete = 0;   ///< parity discarded, nothing missing
  std::uint64_t groups_unrecoverable = 0;  ///< >=2 losses or stale/corrupt
};

class FecRecovery {
 public:
  /// `max_blob_bytes` is the largest wire blob the link can carry
  /// (kWireHeaderBytes + the packetizer MTU; TransportLink passes it)
  /// and sizes the cache's pool blocks.  Larger blobs still work,
  /// through the pool's heap fallback.
  explicit FecRecovery(const FecConfig& cfg, std::size_t max_blob_bytes = 2048)
      : cfg_(cfg), max_blob_bytes_(max_blob_bytes) {}

  /// Records a received (or recovered) data packet's wire blob.
  void add_data(const MediaPacket& p);

  /// Records a received parity packet.
  void add_parity(const MediaPacket& p);

  /// Attempts recovery across all pending parity groups; returns the
  /// packets rebuilt this call (already re-registered via add_data, so
  /// overlapping future groups see them).
  std::vector<MediaPacket> recover();

  const FecStats& stats() const { return stats_; }
  /// The blob cache's pool counters (all zero before the first blob).
  core::BufferPoolStats pool_stats() const {
    return pool_ ? pool_->stats() : core::BufferPoolStats{};
  }

 private:
  void prune();
  /// Copies `bytes` into a pooled buffer (the pool is created lazily on
  /// first use, so FEC-off links pay nothing).
  core::BufferRef make_blob(std::span<const std::uint8_t> bytes);

  FecConfig cfg_;
  std::size_t max_blob_bytes_;
  FecStats stats_;
  SeqUnroller unroller_;  ///< data-seq space
  /// Cached wire blobs live in pooled refcounted buffers instead of
  /// per-entry vectors: the cache holds at most 1024 blobs (see
  /// prune()), so a 1100-block pool keeps the steady state entirely
  /// within one arena.  Blocks are max_blob_bytes_ long, so the arena
  /// holds ~1100 MTU-sized packets (about 155 KiB with headers at a
  /// 96-byte MTU).  The pool is declared (and therefore destroyed)
  /// after the map's refs release back into it.
  std::unique_ptr<core::BufferPool> pool_;
  std::map<std::uint64_t, core::BufferRef> blobs_;
  std::vector<std::uint8_t> wire_scratch_;  ///< add_data serialization
  std::vector<MediaPacket> parities_;
};

}  // namespace affectsys::net
