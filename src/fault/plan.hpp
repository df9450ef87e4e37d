// Deterministic fault planning: a FaultPlan is a seeded, wall-clock-free
// schedule of fault decisions.  Every injector in src/fault consults the
// plan at well-defined sites (one NAL unit, one audio chunk, one server
// tick...) and the plan answers "inject kind K here" or "no fault" as a
// pure function of (seed, rate, kind mask, decision index) — so any run,
// however hostile, replays bit-identically from its seed.  A disabled
// plan (rate 0 or empty kind mask) never advances its RNG and costs one
// branch per site, which is what makes the rate-0 byte-identity property
// (faulted path == clean path) hold by construction.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

namespace affectsys::fault {

/// Every injectable fault, across the three suites.  The numeric value
/// doubles as the bit position in kind masks.
enum class FaultKind : std::uint8_t {
  // Bitstream faults (per NAL unit / per start code).
  kNalBitFlip = 0,      ///< flip 1-7 payload bits mid-NAL
  kNalTruncate = 1,     ///< cut the payload short (possibly to zero bytes)
  kNalDuplicate = 2,    ///< deliver the unit twice
  kNalReorder = 3,      ///< swap the unit with its successor
  kStartCodeDamage = 4, ///< corrupt one byte of an Annex-B start code
  // Audio faults (per capture chunk).
  kAudioDrop = 5,       ///< chunk lost entirely (capture gap)
  kAudioZero = 6,       ///< chunk delivered as silence
  kAudioClip = 7,       ///< hard-clipped samples (overdriven capture)
  kAudioRateGlitch = 8, ///< sample-and-hold at half rate for one chunk
  // Serve faults (per session tick / per server tick).
  kSessionStall = 9,     ///< session produces no audio for 1-3 s of media
  kBatcherFallback = 10, ///< batcher forced through per-window forwards
  kAdmissionBurst = 11,  ///< admission storm pressure (driven by tests)
  // Network faults (per media packet at the transport channel).
  kPacketLoss = 12,      ///< drop one packet
  kBurstLoss = 13,       ///< drop this packet and the next 1-3 sent
  kPacketDelay = 14,     ///< hold the packet 1..max_delay ticks (jitter)
  kPacketDuplicate = 15, ///< deliver the packet twice
  kPacketReorder = 16,   ///< deliver after the next-sent packet
};

inline constexpr std::size_t kNumFaultKinds = 17;

constexpr std::uint32_t kind_bit(FaultKind k) {
  return 1u << static_cast<unsigned>(k);
}

inline constexpr std::uint32_t kBitstreamKinds =
    kind_bit(FaultKind::kNalBitFlip) | kind_bit(FaultKind::kNalTruncate) |
    kind_bit(FaultKind::kNalDuplicate) | kind_bit(FaultKind::kNalReorder) |
    kind_bit(FaultKind::kStartCodeDamage);
inline constexpr std::uint32_t kAudioKinds =
    kind_bit(FaultKind::kAudioDrop) | kind_bit(FaultKind::kAudioZero) |
    kind_bit(FaultKind::kAudioClip) | kind_bit(FaultKind::kAudioRateGlitch);
inline constexpr std::uint32_t kServeKinds =
    kind_bit(FaultKind::kSessionStall) | kind_bit(FaultKind::kBatcherFallback) |
    kind_bit(FaultKind::kAdmissionBurst);
inline constexpr std::uint32_t kNetKinds =
    kind_bit(FaultKind::kPacketLoss) | kind_bit(FaultKind::kBurstLoss) |
    kind_bit(FaultKind::kPacketDelay) | kind_bit(FaultKind::kPacketDuplicate) |
    kind_bit(FaultKind::kPacketReorder);
/// Adding kNetKinds here cannot perturb pre-existing plans: every site
/// passes its own mask and the suite masks are disjoint, so a bitstream
/// (or audio, or serve) site's `cfg.kinds & site_mask` intersection is
/// unchanged by the new bits, and net sites consulted with a plan whose
/// mask excludes them never advance the RNG (see FaultPlan::next).
inline constexpr std::uint32_t kAllKinds =
    kBitstreamKinds | kAudioKinds | kServeKinds | kNetKinds;

/// Per-NAL faults a session's decode loop can apply in place (reorder
/// needs the whole stream, start-code damage needs packed bytes).
inline constexpr std::uint32_t kNalUnitKinds =
    kind_bit(FaultKind::kNalBitFlip) | kind_bit(FaultKind::kNalTruncate) |
    kind_bit(FaultKind::kNalDuplicate);

const char* fault_kind_name(FaultKind k);

struct FaultConfig {
  std::uint64_t seed = 1;
  /// Probability a consulted site faults, in [0, 1].  0 disables the
  /// plan entirely (no RNG state is ever advanced).
  double rate = 0.0;
  /// Which FaultKinds may fire (bitmask of kind_bit values).  Sites pass
  /// their own mask; the intersection is drawn from uniformly.
  std::uint32_t kinds = kAllKinds;

  bool enabled() const { return rate > 0.0 && kinds != 0; }
};

/// Tallies per kind; every injector records what it actually applied.
struct FaultCounts {
  std::array<std::uint64_t, kNumFaultKinds> by_kind{};
  std::uint64_t total = 0;

  void record(FaultKind k) {
    ++by_kind[static_cast<std::size_t>(k)];
    ++total;
  }
  std::uint64_t count(FaultKind k) const {
    return by_kind[static_cast<std::size_t>(k)];
  }
  FaultCounts& operator+=(const FaultCounts& o);
};

/// The stateful fault schedule: splitmix64 under the hood, advanced only
/// by fault decisions and fault-parameter draws — never by time, thread
/// id or allocation addresses.  One plan must only be consulted from one
/// logical stream of sites (e.g. one session), which the serve layer
/// guarantees because a session is touched by one task at a time.
class FaultPlan {
 public:
  explicit FaultPlan(const FaultConfig& cfg);

  const FaultConfig& config() const { return cfg_; }
  bool enabled() const { return cfg_.enabled(); }

  /// True when some kind in `mask` can ever fire: the plan is enabled
  /// and its configured kinds intersect `mask`.  A pure query — it
  /// consults no site and never advances the RNG.
  bool may_fire(std::uint32_t mask) const {
    return enabled() && (cfg_.kinds & mask) != 0;
  }

  /// One injection site: returns the kind to inject, or nullopt for "no
  /// fault".  `site_mask` restricts the draw to kinds meaningful at this
  /// site; kinds outside the plan's configured mask never fire.  When
  /// the plan is disabled or the masks don't intersect, the RNG does not
  /// advance — the clean path stays bit-identical and pays one branch.
  std::optional<FaultKind> next(std::uint32_t site_mask);

  /// Uniform draw in [0, n) for fault parameters (positions, lengths,
  /// values).  Call only while applying a fault `next()` returned, so
  /// the clean path never spends RNG state.
  std::uint64_t draw(std::uint64_t n);

  /// Sites consulted / faults fired so far.
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t faults() const { return faults_; }

 private:
  std::uint64_t next_u64();

  FaultConfig cfg_;
  std::uint64_t state_;
  std::uint64_t decisions_ = 0;
  std::uint64_t faults_ = 0;
};

}  // namespace affectsys::fault
