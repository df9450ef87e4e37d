// Kernel-optimization suite (ctest label "kernels", run by
// tools/run_verify.sh kernels): proves the optimized kernels against the
// pre-optimization references they kept callable — bit-identity where
// the discipline demands it (feature workspace path, strided deblocker,
// windowed half-pel MC, cached bit reader, the decoder as a whole),
// bounded drift where a numerically equivalent algorithm replaced the
// old one (real-input FFT, blocked GEMM).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "affect/features.hpp"
#include "affect/speech_synth.hpp"
#include "h264/bitstream.hpp"
#include "h264/deblock.hpp"
#include "h264/decoder.hpp"
#include "h264/encoder.hpp"
#include "h264/inter.hpp"
#include "h264/nal.hpp"
#include "h264/testvideo.hpp"
#include "nn/matrix.hpp"
#include "serve/workload.hpp"
#include "signal/features.hpp"
#include "signal/fft.hpp"
#include "signal/mel.hpp"
#include "signal/window.hpp"

using namespace affectsys;

namespace {

std::vector<double> make_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> noise(-0.05, 0.05);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    x[i] = std::sin(0.031 * t) + 0.4 * std::sin(0.173 * t + 0.5) +
           0.2 * std::sin(0.011 * t * t / static_cast<double>(n)) + noise(rng);
  }
  return x;
}

}  // namespace

// --- Real-input FFT -------------------------------------------------------

TEST(RfftPlan, MatchesComplexFftAcrossSizes) {
  for (const std::size_t n : {std::size_t{64}, std::size_t{256},
                              std::size_t{1024}, std::size_t{4096}}) {
    const std::vector<double> x = make_signal(n, 7 + static_cast<unsigned>(n));
    const std::vector<std::complex<double>> full = signal::fft_real(x);
    signal::RfftPlan plan(n);
    std::vector<std::complex<double>> onesided(plan.bins());
    std::vector<std::complex<double>> work(plan.work_size());
    plan.execute(x, onesided, work);
    double max_mag = 0.0;
    for (const auto& c : full) max_mag = std::max(max_mag, std::abs(c));
    for (std::size_t k = 0; k <= n / 2; ++k) {
      EXPECT_NEAR(onesided[k].real(), full[k].real(), 1e-9 * max_mag)
          << "n=" << n << " k=" << k;
      EXPECT_NEAR(onesided[k].imag(), full[k].imag(), 1e-9 * max_mag)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(RfftPlan, ZeroPadsNonPowerOfTwoInputs) {
  // 400-sample frame through a 512-point plan: the plan pads internally,
  // the complex path pads explicitly; spectra must agree.
  const std::vector<double> x = make_signal(400, 11);
  signal::RfftPlan plan(512);
  std::vector<std::complex<double>> onesided(plan.bins());
  std::vector<std::complex<double>> work(plan.work_size());
  plan.execute(x, onesided, work);

  std::vector<std::complex<double>> padded(512);
  signal::fft_real(x, padded);
  double max_mag = 0.0;
  for (const auto& c : padded) max_mag = std::max(max_mag, std::abs(c));
  for (std::size_t k = 0; k <= 256; ++k) {
    EXPECT_NEAR(onesided[k].real(), padded[k].real(), 1e-9 * max_mag);
    EXPECT_NEAR(onesided[k].imag(), padded[k].imag(), 1e-9 * max_mag);
  }
}

TEST(RfftPlan, InverseRoundTripsAndSupportsPrefixOutput) {
  constexpr std::size_t kN = 1024;
  const std::vector<double> x = make_signal(kN, 13);
  signal::RfftPlan plan(kN);
  std::vector<std::complex<double>> spec(plan.bins());
  std::vector<std::complex<double>> work(plan.work_size());
  plan.execute(x, spec, work);

  std::vector<double> back(kN);
  plan.inverse(spec, back, work);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-9) << "i=" << i;
  }

  std::vector<double> prefix(10);
  plan.inverse(spec, prefix, work);
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_DOUBLE_EQ(prefix[i], back[i]) << "i=" << i;
  }
}

TEST(RfftPlan, RejectsInvalidSizes) {
  EXPECT_THROW(signal::RfftPlan(0), std::invalid_argument);
  EXPECT_THROW(signal::RfftPlan(1), std::invalid_argument);
  EXPECT_THROW(signal::RfftPlan(96), std::invalid_argument);
}

TEST(Spectra, SpanAndAllocatingPathsAreByteIdentical) {
  const std::vector<double> x = make_signal(400, 17);
  constexpr std::size_t kFft = 512;
  const std::vector<double> alloc_ps = signal::power_spectrum(x, kFft);
  std::vector<double> span_ps(kFft / 2 + 1);
  std::vector<std::complex<double>> work(kFft + 1);
  signal::power_spectrum(x, kFft, span_ps, work);
  for (std::size_t k = 0; k < alloc_ps.size(); ++k) {
    EXPECT_EQ(alloc_ps[k], span_ps[k]) << "k=" << k;  // exact: same kernel
  }

  const std::vector<double> ref = signal::power_spectrum_ref(x, kFft);
  double max_p = 0.0;
  for (double p : ref) max_p = std::max(max_p, p);
  for (std::size_t k = 0; k < ref.size(); ++k) {
    EXPECT_NEAR(span_ps[k], ref[k], 1e-9 * max_p) << "k=" << k;
  }
}

TEST(Autocorrelation, RealPathTracksComplexReference) {
  const std::vector<double> x = make_signal(400, 19);
  const std::vector<double> fast = signal::autocorrelation(x);
  const std::vector<double> ref = signal::autocorrelation_ref(x);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t k = 0; k < fast.size(); ++k) {
    EXPECT_NEAR(fast[k], ref[k], 1e-9 * std::abs(ref[0])) << "k=" << k;
  }

  // Pitch on a strongly periodic signal: both estimators converge on
  // the same frequency.
  std::vector<double> tone(800);
  for (std::size_t i = 0; i < tone.size(); ++i) {
    tone[i] = std::sin(2.0 * std::numbers::pi * 200.0 *
                       static_cast<double>(i) / 16000.0);
  }
  const auto fast_pitch = signal::estimate_pitch(tone, 16000.0, 60.0, 400.0);
  const auto ref_pitch = signal::estimate_pitch_ref(tone, 16000.0, 60.0,
                                                    400.0);
  ASSERT_TRUE(fast_pitch.has_value());
  ASSERT_TRUE(ref_pitch.has_value());
  EXPECT_NEAR(*fast_pitch, *ref_pitch, 1e-6);
  EXPECT_NEAR(*fast_pitch, 200.0, 2.0);
}

// --- Feature pipeline -----------------------------------------------------

TEST(FeaturePipeline, WorkspacePathIsByteIdenticalToAllocatingPath) {
  affect::FeatureConfig fc;
  const affect::FeatureExtractor fx(fc);
  affect::SpeechSynthesizer synth(11);
  affect::FeatureWorkspace ws;  // deliberately reused across windows
  for (int u = 0; u < 3; ++u) {
    const auto utt = synth.synthesize(
        u % 2 ? affect::Emotion::kCalm : affect::Emotion::kAngry, 30 + u, 1.0,
        16000.0, 0.1);
    const nn::Matrix fresh = fx.extract(utt.samples);
    const nn::Matrix& reused = fx.extract_into(utt.samples, ws);
    ASSERT_EQ(fresh.rows(), reused.rows());
    ASSERT_EQ(fresh.cols(), reused.cols());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      ASSERT_EQ(fresh.flat()[i], reused.flat()[i]) << "window " << u
                                                   << " elem " << i;
    }
  }
}

TEST(FeaturePipeline, OptimizedPathTracksPrePrReference) {
  affect::FeatureConfig fc;
  const affect::FeatureExtractor fx(fc);
  affect::SpeechSynthesizer synth(23);
  const auto utt =
      synth.synthesize(affect::Emotion::kAngry, 42, 1.0, 16000.0, 0.1);
  const nn::Matrix opt = fx.extract(utt.samples);
  const nn::Matrix ref = fx.extract_ref(utt.samples);
  ASSERT_EQ(opt.rows(), ref.rows());
  ASSERT_EQ(opt.cols(), ref.cols());
  for (std::size_t i = 0; i < opt.size(); ++i) {
    EXPECT_NEAR(opt.flat()[i], ref.flat()[i], 1e-4) << "elem " << i;
  }
}

TEST(FeaturePipeline, MfccWorkspaceFrameTracksReference) {
  signal::MfccConfig mc;
  const signal::MfccExtractor mfcc(mc);
  const std::vector<double> frame = make_signal(mc.frame_len, 29);
  const std::vector<double> opt = mfcc.extract_frame(frame);
  const std::vector<double> ref = mfcc.extract_frame_ref(frame);
  ASSERT_EQ(opt.size(), ref.size());
  for (std::size_t k = 0; k < opt.size(); ++k) {
    EXPECT_NEAR(opt[k], ref[k], 1e-5) << "k=" << k;
  }
}

TEST(FeaturePipeline, FrameCountMatchesFrameSignal) {
  for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                 std::size_t{399}, std::size_t{400},
                                 std::size_t{401}, std::size_t{560},
                                 std::size_t{561}, std::size_t{1600}}) {
    for (const std::size_t hop : {std::size_t{160}, std::size_t{400},
                                  std::size_t{500}}) {
      const std::vector<double> x = make_signal(size, 31);
      const auto frames = signal::frame_signal(x, 400, hop);
      EXPECT_EQ(signal::frame_count(size, 400, hop), frames.size())
          << "size=" << size << " hop=" << hop;
      std::vector<double> buf(400);
      for (std::size_t t = 0; t < frames.size(); ++t) {
        signal::copy_frame(x, t, hop, buf);
        EXPECT_EQ(buf, frames[t]) << "size=" << size << " hop=" << hop
                                  << " t=" << t;
      }
    }
  }
}

// --- Deblocking -----------------------------------------------------------

namespace {

/// 64x64 frame (4x4 macroblocks) with gentle gradients plus a jump at
/// every macroblock boundary, and MbInfo mixing every boundary-strength
/// class: intra (bs 4 at MB edges / 3 inside), coded residual (bs 2),
/// motion difference (bs 1) and none (bs 0).
h264::YuvFrame make_mixed_frame(std::vector<h264::MbInfo>& mb_info) {
  h264::YuvFrame frame(64, 64);
  auto fill = [](h264::Plane& p) {
    for (int y = 0; y < p.height; ++y) {
      for (int x = 0; x < p.width; ++x) {
        p.at(x, y) = static_cast<std::uint8_t>(
            (x * 3 + y * 2 + ((x / 16) + (y / 16)) * 25) & 0xFF);
      }
    }
  };
  fill(frame.y);
  fill(frame.cb);
  fill(frame.cr);
  mb_info.assign(static_cast<std::size_t>(frame.mb_count()), h264::MbInfo{});
  const int cols = frame.mb_cols();
  for (int mby = 0; mby < frame.mb_rows(); ++mby) {
    for (int mbx = 0; mbx < cols; ++mbx) {
      h264::MbInfo& mb = mb_info[static_cast<std::size_t>(mby) * cols + mbx];
      const int cls = (mbx + mby) % 4;
      if (cls == 0) {
        mb.intra = true;
      } else if (cls == 1) {
        for (int i = 0; i < 16; i += 3) mb.nonzero[static_cast<size_t>(i)] = true;
      } else if (cls == 2) {
        mb.mv = {4 * mbx, 0};
      }  // cls == 3: all-zero MB -> bs 0 against its own kind
    }
  }
  return frame;
}

}  // namespace

TEST(Deblock, OptimizedMatchesReferenceAcrossAllQps) {
  std::vector<h264::MbInfo> mb_info;
  const h264::YuvFrame base = make_mixed_frame(mb_info);
  std::uint64_t modified_total = 0;
  for (int qp = 0; qp <= 51; ++qp) {
    h264::YuvFrame opt = base;
    h264::YuvFrame ref = base;
    const h264::DeblockStats so = h264::deblock_frame(opt, mb_info, qp);
    const h264::DeblockStats sr =
        h264::deblock_frame_reference(ref, mb_info, qp);
    EXPECT_EQ(so.edges_examined, sr.edges_examined) << "qp=" << qp;
    EXPECT_EQ(so.edges_filtered, sr.edges_filtered) << "qp=" << qp;
    EXPECT_EQ(so.pixels_modified, sr.pixels_modified) << "qp=" << qp;
    EXPECT_EQ(opt.y.data, ref.y.data) << "qp=" << qp;
    EXPECT_EQ(opt.cb.data, ref.cb.data) << "qp=" << qp;
    EXPECT_EQ(opt.cr.data, ref.cr.data) << "qp=" << qp;
    modified_total += so.pixels_modified;
  }
  // The sweep must exercise the filter for real: high QPs hit both the
  // strong (intra MB edges) and normal branches on this texture.
  EXPECT_GT(modified_total, 0u);
}

TEST(Deblock, StrongAndNormalBranchesBothFire) {
  // All-intra at high QP drives bs 4 (strong) on MB edges and bs 3
  // (normal) inside; the optimized filter must modify pixels through
  // both code paths and agree with the reference exactly.
  std::vector<h264::MbInfo> mb_info;
  h264::YuvFrame frame = make_mixed_frame(mb_info);
  for (auto& mb : mb_info) mb = h264::MbInfo{};
  for (auto& mb : mb_info) mb.intra = true;
  h264::YuvFrame ref = frame;
  const h264::DeblockStats so = h264::deblock_frame(frame, mb_info, 51);
  const h264::DeblockStats sr = h264::deblock_frame_reference(ref, mb_info, 51);
  EXPECT_GT(so.pixels_modified, 0u);
  EXPECT_EQ(so.pixels_modified, sr.pixels_modified);
  EXPECT_EQ(frame.y.data, ref.y.data);
  EXPECT_EQ(frame.cb.data, ref.cb.data);
  EXPECT_EQ(frame.cr.data, ref.cr.data);
}

// --- Motion compensation --------------------------------------------------

namespace {

h264::Plane random_plane(int w, int h, unsigned seed) {
  h264::Plane p(w, h);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> d(0, 255);
  for (auto& v : p.data) v = static_cast<std::uint8_t>(d(rng));
  return p;
}

/// Block origins for a `size` block: both plane corners and the middle.
std::vector<int> block_origins(int extent, int size) {
  return {0, (extent - size) / 2, extent - size};
}

/// Vector components (in `unit`s of a sample) that put the block's
/// support inside the plane, across each border, and wholly beyond it.
std::vector<int> vector_components(int extent, int unit) {
  std::vector<int> v;
  for (int d = -5 * unit; d <= 5 * unit; ++d) v.push_back(d);
  for (const int far : {extent + 7, 3 * extent}) {
    v.push_back(far * unit);
    v.push_back(far * unit + unit - 1);
    v.push_back(-far * unit);
    v.push_back(-far * unit - 1);
  }
  return v;
}

}  // namespace

TEST(HalfPelMc, FastPathMatchesSampleHalfpel) {
  const struct {
    int w, h;
  } planes[] = {{16, 16}, {64, 64}, {48, 32}};
  int phase_hits[4] = {};
  unsigned seed = 400;
  for (const auto& pl : planes) {
    const h264::Plane ref = random_plane(pl.w, pl.h, seed++);
    for (const int size : {16, 8, 4}) {
      std::uint8_t pred[16 * 16];
      for (const int x0 : block_origins(pl.w, size)) {
        for (const int y0 : block_origins(pl.h, size)) {
          for (const int dx : vector_components(pl.w, 2)) {
            for (const int dy : vector_components(pl.h, 2)) {
              const h264::MotionVector mv{dx, dy};
              h264::motion_compensate_halfpel(ref, x0, y0, size, mv, pred);
              ++phase_hits[(dx & 1) + 2 * (dy & 1)];
              for (int y = 0; y < size; ++y) {
                for (int x = 0; x < size; ++x) {
                  ASSERT_EQ(pred[y * size + x],
                            h264::sample_halfpel(ref, 2 * (x0 + x) + dx,
                                                 2 * (y0 + y) + dy))
                      << pl.w << "x" << pl.h << " size " << size << " at ("
                      << x0 << "," << y0 << ") mv (" << dx << "," << dy
                      << ") sample (" << x << "," << y << ")";
                }
              }
            }
          }
        }
      }
    }
  }
  for (const int hits : phase_hits) EXPECT_GT(hits, 0);
}

TEST(FullPelMc, MatchesAtClamped) {
  const h264::Plane ref = random_plane(48, 32, 410);
  for (const int size : {16, 8, 4}) {
    std::uint8_t pred[16 * 16];
    for (const int x0 : block_origins(ref.width, size)) {
      for (const int y0 : block_origins(ref.height, size)) {
        for (const int dx : vector_components(ref.width, 1)) {
          for (const int dy : vector_components(ref.height, 1)) {
            h264::motion_compensate(ref, x0, y0, size, {dx, dy}, pred);
            for (int y = 0; y < size; ++y) {
              for (int x = 0; x < size; ++x) {
                ASSERT_EQ(pred[y * size + x],
                          ref.at_clamped(x0 + x + dx, y0 + y + dy))
                    << "size " << size << " at (" << x0 << "," << y0
                    << ") mv (" << dx << "," << dy << ")";
              }
            }
          }
        }
      }
    }
  }
}

TEST(FullPelMc, RejectsBlocksLargerThanAMacroblock) {
  const h264::Plane ref = random_plane(64, 64, 420);
  std::uint8_t pred[32 * 32];
  EXPECT_THROW(h264::motion_compensate(ref, 0, 0, 17, {}, pred),
               std::invalid_argument);
  EXPECT_THROW(h264::motion_compensate_halfpel(ref, 0, 0, 17, {1, 1}, pred),
               std::invalid_argument);
}

// --- Bit reader -----------------------------------------------------------

namespace {

/// The bit-at-a-time reader BitReader's cached window replaced: the
/// reference for values, bits_consumed() and exception positions.
class BitwiseReader {
 public:
  explicit BitwiseReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool get_bit() {
    if (pos_ >= data_.size() * 8) {
      throw h264::BitstreamError("BitReader: read past end of stream");
    }
    const bool b = (data_[pos_ / 8] >> (7 - pos_ % 8)) & 1u;
    ++pos_;
    return b;
  }
  std::uint32_t get_bits(unsigned count) {
    if (count > 32) throw std::invalid_argument("get_bits: count > 32");
    std::uint32_t v = 0;
    for (unsigned i = 0; i < count; ++i) v = (v << 1) | get_bit();
    return v;
  }
  std::uint32_t get_ue() {
    unsigned zeros = 0;
    while (!get_bit()) {
      if (++zeros > 31) {
        throw h264::BitstreamError("get_ue: malformed Exp-Golomb");
      }
    }
    return (1u << zeros) - 1 + (zeros ? get_bits(zeros) : 0);
  }
  std::int32_t get_se() {
    const std::uint32_t code = get_ue();
    const auto k = static_cast<std::int64_t>((code + 1) / 2);
    return static_cast<std::int32_t>(code % 2 == 1 ? k : -k);
  }
  std::size_t bits_consumed() const { return pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// One read's outcome: the value, or the exception's message.
struct ReadResult {
  std::int64_t value = 0;
  std::string error;
  bool operator==(const ReadResult&) const = default;
};

template <typename Reader>
ReadResult apply_op(Reader& r, int op, unsigned count) {
  ReadResult out;
  try {
    switch (op) {
      case 0: out.value = r.get_bit(); break;
      case 1: out.value = r.get_bits(count); break;
      case 2: out.value = r.get_ue(); break;
      default: out.value = r.get_se(); break;
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

/// Runs the same seeded op sequence through both readers, comparing the
/// outcome and bits_consumed() after every op.
void expect_readers_agree(std::span<const std::uint8_t> buf, unsigned seed,
                          int ops) {
  h264::BitReader fast(buf);
  BitwiseReader ref(buf);
  std::mt19937 rng(seed);
  for (int i = 0; i < ops; ++i) {
    const int op = static_cast<int>(rng() % 4);
    const unsigned count = rng() % 34;  // 33 exercises the count check
    const ReadResult a = apply_op(fast, op, count);
    const ReadResult b = apply_op(ref, op, count);
    ASSERT_EQ(a, b) << "op " << i << " kind " << op << " count " << count
                    << " buf " << buf.size() << "B seed " << seed;
    ASSERT_EQ(fast.bits_consumed(), ref.bits_consumed())
        << "op " << i << " buf " << buf.size() << "B seed " << seed;
  }
}

}  // namespace

TEST(BitReaderFast, MatchesBitwiseReaderOnRandomBuffers) {
  std::mt19937 rng(500);
  for (unsigned trial = 0; trial < 600; ++trial) {
    std::vector<std::uint8_t> buf(rng() % 24);
    // Skew toward zero-heavy bytes: long Exp-Golomb prefixes, including
    // the malformed 32-zero case, only show up in sparse data.
    const unsigned density = trial % 3;
    for (auto& b : buf) {
      b = static_cast<std::uint8_t>(rng());
      for (unsigned k = 0; k < density; ++k) {
        b &= static_cast<std::uint8_t>(rng());
      }
    }
    expect_readers_agree(buf, trial, 40);
  }
}

TEST(BitReaderFast, MatchesBitwiseReaderOnTruncatedStreams) {
  // A well-formed stream of (ue, se, n-bit) fields cut at every byte
  // length: each cut must fail at the same bit position with the same
  // error, and every field before it must read back the same.
  struct Field {
    std::uint32_t ue;
    std::int32_t se;
    std::uint32_t bits;
    unsigned nbits;
  };
  std::mt19937 rng(510);
  std::vector<Field> fields(40);
  h264::BitWriter bw;
  for (Field& f : fields) {
    const unsigned shift = rng() % 32;
    f.ue = static_cast<std::uint32_t>(rng()) >> shift;
    f.se = static_cast<std::int32_t>(rng() % 2001) - 1000;
    f.nbits = rng() % 33;
    const auto draw = static_cast<std::uint32_t>(rng());
    f.bits = f.nbits == 0 ? 0 : draw >> (32 - f.nbits);
    bw.put_ue(f.ue);
    bw.put_se(f.se);
    bw.put_bits(f.bits, f.nbits);
  }
  bw.finish_rbsp();
  const std::vector<std::uint8_t> full = bw.bytes();
  for (std::size_t len = 0; len <= full.size(); ++len) {
    const std::span<const std::uint8_t> cut(full.data(), len);
    h264::BitReader fast(cut);
    BitwiseReader ref(cut);
    for (std::size_t i = 0; i < fields.size(); ++i) {
      const Field& f = fields[i];
      const ReadResult ue = apply_op(fast, 2, 0);
      ASSERT_EQ(ue, apply_op(ref, 2, 0)) << "len " << len << " field " << i;
      const ReadResult se = apply_op(fast, 3, 0);
      ASSERT_EQ(se, apply_op(ref, 3, 0)) << "len " << len << " field " << i;
      const ReadResult bits = apply_op(fast, 1, f.nbits);
      ASSERT_EQ(bits, apply_op(ref, 1, f.nbits))
          << "len " << len << " field " << i;
      ASSERT_EQ(fast.bits_consumed(), ref.bits_consumed())
          << "len " << len << " field " << i;
      if (len == full.size()) {
        // The uncut stream reads back exactly what was written.
        EXPECT_EQ(ue.value, f.ue);
        EXPECT_EQ(se.value, f.se);
        EXPECT_EQ(bits.value, f.bits);
      }
    }
  }
}

TEST(BitReaderFast, AllZeroStreamIsMalformedAfter32Zeros) {
  const std::vector<std::uint8_t> zeros(8, 0);
  h264::BitReader r(zeros);
  EXPECT_THROW(r.get_ue(), h264::BitstreamError);
  EXPECT_EQ(r.bits_consumed(), 32u);
  const std::vector<std::uint8_t> short_zeros(3, 0);
  h264::BitReader s(short_zeros);
  EXPECT_THROW(s.get_ue(), h264::BitstreamError);
  EXPECT_EQ(s.bits_consumed(), 24u);  // ran off the end first
}

// --- Decoder as a whole ---------------------------------------------------

namespace {

/// The serve workload's prototype clip (64x64, mostly inter-coded), the
/// clip every served video session decodes.
const std::vector<h264::NalUnit>& workload_clip() {
  static const std::vector<h264::NalUnit> nals = [] {
    const serve::WorkloadConfig wc;
    h264::Encoder enc(wc.encoder);
    return h264::unpack_annexb(enc.encode_annexb(
        h264::generate_mixed_video(wc.video, wc.quiet_fraction)));
  }();
  return nals;
}

void fnv_plane(std::uint64_t& h, const h264::Plane& p) {
  for (const std::uint8_t b : p.data) {
    h ^= b;
    h *= 1099511628211ull;
  }
}

/// FNV-1a digest of every picture of `loops` passes over the workload
/// clip, restarting the decoder per pass as a served session does.
/// `recycle` hands every picture back to the decoder for reuse; `stages`,
/// when given, is attached as the decoder's module-time profile.
std::uint64_t decode_digest(int loops, bool recycle,
                            h264::DecodeActivity* first_loop = nullptr,
                            h264::DecodeStageTimes* stages = nullptr) {
  const h264::DecoderConfig cfg{/*enable_deblock=*/true, /*resilient=*/true};
  h264::Decoder dec(cfg);
  dec.time_stages(stages);
  std::uint64_t h = 1469598103934665603ull;
  for (int loop = 0; loop < loops; ++loop) {
    dec.reset(cfg);
    for (const h264::NalUnit& nal : workload_clip()) {
      if (auto pic = dec.decode_nal(nal)) {
        fnv_plane(h, pic->frame.y);
        fnv_plane(h, pic->frame.cb);
        fnv_plane(h, pic->frame.cr);
        if (recycle) dec.recycle(std::move(pic->frame));
      }
    }
    if (loop == 0 && first_loop) *first_loop = dec.activity();
  }
  return h;
}

// Digest of three fresh-frame passes, recorded before the decoder's
// fast path landed: the fast path must not move a single pixel.
constexpr std::uint64_t kWorkloadClipDigest = 0xd61838c70172c160ull;

}  // namespace

TEST(Decoder, RecycledFramesDecodeLikeFreshFrames) {
  // Intra prediction at the frame's top/left edges and at top-right 4x4
  // neighbours reads samples not decoded yet, so a recycled frame must
  // be refilled with exactly the values a fresh frame starts from.
  EXPECT_EQ(decode_digest(3, /*recycle=*/false), kWorkloadClipDigest);
  EXPECT_EQ(decode_digest(3, /*recycle=*/true), kWorkloadClipDigest);
}

TEST(Decoder, FastPathKeepsActivityCountersAtReferenceValues) {
  // The power model converts these counters into module energies, so a
  // faster decode must leave every one of them where the per-sample
  // decoder put them (values recorded on that decoder).
  h264::DecodeActivity a;
  decode_digest(1, /*recycle=*/true, &a);
  // Attaching a module-time profile (what bench_kernels does) times
  // every module and changes neither the pixels nor the counters.
  h264::DecodeActivity profiled;
  h264::DecodeStageTimes stages;
  EXPECT_EQ(decode_digest(1, /*recycle=*/true, &profiled, &stages),
            decode_digest(1, /*recycle=*/true));
  EXPECT_GT(stages.mc_ns, 0u);
  EXPECT_GT(stages.iqit_ns, 0u);
  EXPECT_GT(stages.deblock_ns, 0u);
  EXPECT_EQ(profiled.bits_parsed, a.bits_parsed);
  EXPECT_EQ(profiled.iqit_blocks, a.iqit_blocks);

  EXPECT_EQ(a.nal_units, 50u);
  EXPECT_EQ(a.bytes_in, 11960u);
  EXPECT_EQ(a.bits_parsed, 95105u);
  EXPECT_EQ(a.residual_blocks, 17040u);
  EXPECT_EQ(a.coefficients, 8123u);
  EXPECT_EQ(a.iqit_blocks, 5326u);
  EXPECT_EQ(a.intra_mbs, 65u);
  EXPECT_EQ(a.inter_mbs, 645u);
  EXPECT_EQ(a.skip_mbs, 58u);
  EXPECT_EQ(a.deblock_edges_examined, 25344u);
  EXPECT_EQ(a.deblock_edges_filtered, 14685u);
  EXPECT_EQ(a.deblock_pixels, 125552u);
  EXPECT_EQ(a.frames_decoded, 48u);
}

// --- GEMM -----------------------------------------------------------------

namespace {

nn::Matrix make_matrix(std::size_t rows, std::size_t cols, unsigned seed,
                       bool integer) {
  nn::Matrix m(rows, cols);
  std::mt19937 rng(seed);
  if (integer) {
    std::uniform_int_distribution<int> d(-4, 4);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        m(r, c) = static_cast<float>(d(rng));
      }
    }
  } else {
    std::uniform_real_distribution<float> d(-1.0f, 1.0f);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) m(r, c) = d(rng);
    }
  }
  return m;
}

}  // namespace

TEST(Gemm, MicroKernelIsExactOnSmallIntegers) {
  // Small integer entries make every partial sum exactly representable,
  // so any accumulation order gives the same floats: the micro-kernel
  // must equal the reference bit for bit, including the 5x7x9 and 1x1
  // tail-only shapes.
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{5, 7, 9}, {1, 1, 1}, {4, 64, 16}, {17, 33, 5}, {64, 64, 64}};
  unsigned seed = 100;
  for (const auto& s : shapes) {
    const nn::Matrix a = make_matrix(s.m, s.k, seed++, true);
    const nn::Matrix b = make_matrix(s.k, s.n, seed++, true);
    const nn::Matrix opt = a.matmul(b);
    const nn::Matrix ref = a.matmul_reference(b);
    for (std::size_t i = 0; i < opt.size(); ++i) {
      ASSERT_EQ(opt.flat()[i], ref.flat()[i])
          << s.m << "x" << s.k << "x" << s.n << " elem " << i;
    }
  }
}

TEST(Gemm, MicroKernelTracksReferenceOnRealValues) {
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{5, 7, 9}, {3, 100, 40}, {63, 65, 31}, {128, 128, 128}};
  unsigned seed = 200;
  for (const auto& s : shapes) {
    const nn::Matrix a = make_matrix(s.m, s.k, seed++, false);
    const nn::Matrix b = make_matrix(s.k, s.n, seed++, false);
    const nn::Matrix opt = a.matmul(b);
    const nn::Matrix ref = a.matmul_reference(b);
    const float tol = 1e-5f * static_cast<float>(s.k);
    for (std::size_t i = 0; i < opt.size(); ++i) {
      ASSERT_NEAR(opt.flat()[i], ref.flat()[i], tol)
          << s.m << "x" << s.k << "x" << s.n << " elem " << i;
    }
  }
}

TEST(Gemm, MatmulTransposedUnchangedByColumnBlocking) {
  // matmul_transposed kept one scalar accumulator per element over the
  // full ascending k range, so its 4-column blocking is bit-exact for
  // arbitrary float data, tails included.
  const nn::Matrix a = make_matrix(7, 33, 300, false);
  const nn::Matrix b = make_matrix(10, 33, 301, false);
  const nn::Matrix blocked = a.matmul_transposed(b);
  ASSERT_EQ(blocked.rows(), 7u);
  ASSERT_EQ(blocked.cols(), 10u);
  for (std::size_t r = 0; r < 7; ++r) {
    for (std::size_t c = 0; c < 10; ++c) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < 33; ++k) acc += a(r, k) * b(c, k);
      ASSERT_EQ(blocked(r, c), acc) << r << "," << c;
    }
  }
}
