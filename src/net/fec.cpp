#include "net/fec.hpp"

#include <algorithm>
#include <utility>

namespace affectsys::net {

std::optional<MediaPacket> FecEncoder::add(const MediaPacket& p) {
  if (!cfg_.enabled || cfg_.group == 0) return std::nullopt;
  if (members_ == 0) base_ = p.seq;
  serialize_packet_into(p, blob_);
  if (blob_.size() > acc_.size()) acc_.resize(blob_.size(), 0);
  for (std::size_t i = 0; i < blob_.size(); ++i) acc_[i] ^= blob_[i];
  len_xor_ ^= static_cast<std::uint16_t>(blob_.size());
  if (++members_ < cfg_.group) return std::nullopt;

  MediaPacket parity;
  parity.seq = parity_seq_++;
  parity.timestamp = p.timestamp;
  parity.generation = p.generation;
  // One encoder never mixes layers (the transport runs one per lane),
  // so the group's layer is the last member's.  The receiver routes the
  // parity to the matching lane's recovery by this field.
  parity.layer = p.layer;
  parity.kind = PacketKind::kParity;
  parity.fec_base = base_;
  parity.fec_count = cfg_.group;
  parity.payload.reserve(2 + acc_.size());
  parity.payload.push_back(static_cast<std::uint8_t>(len_xor_ >> 8));
  parity.payload.push_back(static_cast<std::uint8_t>(len_xor_ & 0xFF));
  parity.payload.insert(parity.payload.end(), acc_.begin(), acc_.end());
  acc_.clear();
  len_xor_ = 0;
  members_ = 0;
  ++parity_emitted_;
  return parity;
}

core::BufferRef FecRecovery::make_blob(std::span<const std::uint8_t> bytes) {
  if (!pool_) {
    // Sized for the prune() cap (1024 cached blobs) plus slack for the
    // handful alive mid-recover; blocks hold one MTU-bounded wire
    // packet, with heap fallback beyond.
    pool_ = std::make_unique<core::BufferPool>(core::BufferPoolConfig{
        .block_size = max_blob_bytes_, .blocks = 1100});
  }
  core::BufferRef ref = pool_->acquire(bytes.size());
  std::copy(bytes.begin(), bytes.end(), ref.data());
  return ref;
}

void FecRecovery::add_data(const MediaPacket& p) {
  if (!cfg_.enabled) return;
  ++stats_.data_seen;
  serialize_packet_into(p, wire_scratch_);
  blobs_.emplace(unroller_.unroll(p.seq), make_blob(wire_scratch_));
  prune();
}

void FecRecovery::add_parity(const MediaPacket& p) {
  if (!cfg_.enabled) return;
  ++stats_.parity_seen;
  if (p.fec_count == 0 || p.payload.size() < 2) {
    ++stats_.groups_unrecoverable;
    return;
  }
  parities_.push_back(p);
}

std::vector<MediaPacket> FecRecovery::recover() {
  std::vector<MediaPacket> rebuilt;
  if (!cfg_.enabled) return rebuilt;
  const std::uint64_t horizon =
      blobs_.empty() ? 0 : blobs_.rbegin()->first;
  auto it = parities_.begin();
  while (it != parities_.end()) {
    const MediaPacket& parity = *it;
    const std::uint64_t base = unroller_.peek(parity.fec_base);
    std::uint64_t missing_ext = 0;
    int missing = 0;
    for (std::uint64_t ext = base; ext < base + parity.fec_count; ++ext) {
      if (blobs_.count(ext) == 0) {
        missing_ext = ext;
        ++missing;
      }
    }
    if (missing == 0) {
      ++stats_.groups_complete;
      it = parities_.erase(it);
      continue;
    }
    if (missing > 1) {
      // Stragglers may still arrive; give up once the stream has moved
      // far past the group (bounded memory, deterministic either way).
      if (horizon > base + parity.fec_count + 512) {
        ++stats_.groups_unrecoverable;
        it = parities_.erase(it);
      } else {
        ++it;
      }
      continue;
    }
    // Exactly one member missing: XOR the survivors back out.
    std::vector<std::uint8_t> blob(parity.payload.begin() + 2,
                                   parity.payload.end());
    std::uint16_t len =
        static_cast<std::uint16_t>((parity.payload[0] << 8) |
                                   parity.payload[1]);
    for (std::uint64_t ext = base; ext < base + parity.fec_count; ++ext) {
      if (ext == missing_ext) continue;
      const std::span<const std::uint8_t> member = blobs_.at(ext).span();
      for (std::size_t i = 0; i < member.size() && i < blob.size(); ++i) {
        blob[i] ^= member[i];
      }
      len ^= static_cast<std::uint16_t>(member.size());
    }
    bool ok = len >= kWireHeaderBytes && len <= blob.size();
    if (ok) {
      blob.resize(len);
      if (auto packet = parse_packet(blob)) {
        blobs_.emplace(missing_ext, make_blob(blob));
        rebuilt.push_back(std::move(*packet));
        ++stats_.packets_recovered;
      } else {
        ok = false;
      }
    }
    if (!ok) ++stats_.groups_unrecoverable;
    it = parities_.erase(it);
  }
  prune();
  return rebuilt;
}

void FecRecovery::prune() {
  // Bounded cache: the stream only ever needs the last few groups.
  while (blobs_.size() > 1024) blobs_.erase(blobs_.begin());
}

}  // namespace affectsys::net
