#include "h264/inter.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "h264/intra.hpp"  // sad_block

namespace affectsys::h264 {

namespace {

/// Extra samples the 6-tap support adds per dimension (2 before, 3 after).
constexpr int kTapSpan = 5;
constexpr int kMaxWindow = kMbSize + kTapSpan;

void check_block_size(int size) {
  if (size < 0 || size > kMbSize) {
    throw std::invalid_argument(
        "motion compensation: block size must be in [0, 16]");
  }
}

/// Copies the w x h window whose top-left sample is (x, y) into `out`
/// (row stride w), clamping each coordinate into the plane exactly as
/// Plane::at_clamped does.  Rows whose span lies inside the plane are
/// one memcpy; otherwise every row reads through one column-index table.
void fetch_clamped(const Plane& ref, int x, int y, int w, int h,
                   std::uint8_t* out) {
  const bool inside = x >= 0 && x + w <= ref.width;
  int cols[kMaxWindow];
  if (!inside) {
    for (int i = 0; i < w; ++i) cols[i] = std::clamp(x + i, 0, ref.width - 1);
  }
  for (int j = 0; j < h; ++j) {
    const std::uint8_t* row =
        ref.data.data() +
        static_cast<std::size_t>(std::clamp(y + j, 0, ref.height - 1)) *
            ref.width;
    std::uint8_t* dst = out + j * w;
    if (inside) {
      std::memcpy(dst, row + x, static_cast<std::size_t>(w));
    } else {
      for (int i = 0; i < w; ++i) dst[i] = row[cols[i]];
    }
  }
}

}  // namespace

void motion_compensate(const Plane& ref, int x0, int y0, int size,
                       MotionVector mv, std::uint8_t* pred) {
  check_block_size(size);
  fetch_clamped(ref, x0 + mv.dx, y0 + mv.dy, size, size, pred);
}

void average_predictions(const std::uint8_t* a, const std::uint8_t* b,
                         std::uint8_t* out, int count) {
  for (int i = 0; i < count; ++i) {
    out[i] = static_cast<std::uint8_t>((static_cast<int>(a[i]) + b[i] + 1) / 2);
  }
}

namespace {

/// 6-tap filter over six consecutive integer samples.
int six_tap(int a, int b, int c, int d, int e, int f) {
  return a - 5 * b + 20 * c + 20 * d - 5 * e + f;
}

/// Horizontal half-pel value at integer row y between (x, y) and
/// (x+1, y), unclipped and unshifted (scale 32).
int half_h_raw(const Plane& ref, int x, int y) {
  return six_tap(ref.at_clamped(x - 2, y), ref.at_clamped(x - 1, y),
                 ref.at_clamped(x, y), ref.at_clamped(x + 1, y),
                 ref.at_clamped(x + 2, y), ref.at_clamped(x + 3, y));
}

}  // namespace

std::uint8_t sample_halfpel(const Plane& ref, int hx, int hy) {
  // Floor division so negative half-pel coordinates resolve correctly.
  const int x = hx >> 1;
  const int y = hy >> 1;
  const bool fx = hx & 1;
  const bool fy = hy & 1;
  if (!fx && !fy) return ref.at_clamped(x, y);
  if (fx && !fy) {
    return clamp_pixel((half_h_raw(ref, x, y) + 16) >> 5);
  }
  if (!fx && fy) {
    const int v = six_tap(ref.at_clamped(x, y - 2), ref.at_clamped(x, y - 1),
                          ref.at_clamped(x, y), ref.at_clamped(x, y + 1),
                          ref.at_clamped(x, y + 2), ref.at_clamped(x, y + 3));
    return clamp_pixel((v + 16) >> 5);
  }
  // Diagonal: 6-tap vertically over horizontal half-pel intermediates.
  const int j = six_tap(half_h_raw(ref, x, y - 2), half_h_raw(ref, x, y - 1),
                        half_h_raw(ref, x, y), half_h_raw(ref, x, y + 1),
                        half_h_raw(ref, x, y + 2), half_h_raw(ref, x, y + 3));
  return clamp_pixel((j + 512) >> 10);
}

void motion_compensate_halfpel(const Plane& ref, int x0, int y0, int size,
                               MotionVector mv_half, std::uint8_t* pred) {
  if ((mv_half.dx & 1) == 0 && (mv_half.dy & 1) == 0) {
    // Integer vector: plain copy path (fast and bit-identical to the
    // full-pel compensator).
    motion_compensate(ref, x0, y0, size, {mv_half.dx >> 1, mv_half.dy >> 1},
                      pred);
    return;
  }
  check_block_size(size);
  const bool fx = mv_half.dx & 1;
  const bool fy = mv_half.dy & 1;
  // Fetch the whole 6-tap support once, then filter separably.  The
  // window's origin is two samples above and left of the block's first
  // integer position (floor of the half-pel vector), so window sample
  // (r, c) is at_clamped(x + c - 2, y + r - 2) and every tap below reads
  // exactly the samples sample_halfpel would.
  const int w = size + kTapSpan;
  std::uint8_t win[kMaxWindow * kMaxWindow];
  fetch_clamped(ref, x0 + (mv_half.dx >> 1) - 2, y0 + (mv_half.dy >> 1) - 2, w,
                w, win);
  auto tap = [](const std::uint8_t* p, int step) {
    return six_tap(p[0], p[step], p[2 * step], p[3 * step], p[4 * step],
                   p[5 * step]);
  };
  if (fx && !fy) {
    for (int y = 0; y < size; ++y) {
      const std::uint8_t* row = win + (y + 2) * w;
      for (int x = 0; x < size; ++x) {
        pred[y * size + x] = clamp_pixel((tap(row + x, 1) + 16) >> 5);
      }
    }
  } else if (!fx && fy) {
    for (int y = 0; y < size; ++y) {
      const std::uint8_t* col = win + y * w + 2;
      for (int x = 0; x < size; ++x) {
        pred[y * size + x] = clamp_pixel((tap(col + x, w) + 16) >> 5);
      }
    }
  } else {
    // Diagonal: unshifted horizontal intermediates for every window
    // row, then the vertical 6-tap over them at the combined scale 1024.
    int mid[kMaxWindow * kMbSize];
    for (int r = 0; r < w; ++r) {
      for (int x = 0; x < size; ++x) {
        mid[r * size + x] = tap(win + r * w + x, 1);
      }
    }
    for (int y = 0; y < size; ++y) {
      for (int x = 0; x < size; ++x) {
        const int* m = mid + y * size + x;
        const int j = six_tap(m[0], m[size], m[2 * size], m[3 * size],
                              m[4 * size], m[5 * size]);
        pred[y * size + x] = clamp_pixel((j + 512) >> 10);
      }
    }
  }
}

MotionVector motion_search_halfpel(const Plane& src, const Plane& ref,
                                   int x0, int y0, int size, int range,
                                   int* out_sad) {
  int best_sad = 0;
  const MotionVector full = motion_search(src, ref, x0, y0, size, range,
                                          &best_sad);
  MotionVector best{2 * full.dx, 2 * full.dy};
  std::uint8_t pred[kMbSize * kMbSize];
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const MotionVector cand{2 * full.dx + dx, 2 * full.dy + dy};
      motion_compensate_halfpel(ref, x0, y0, size, cand, pred);
      // Same zero-bias units as the full-pel search (half-pel costs less).
      const int sad = sad_block(src, x0, y0, size, pred) +
                      (std::abs(cand.dx) + std::abs(cand.dy));
      if (sad < best_sad) {
        best_sad = sad;
        best = cand;
      }
    }
  }
  if (out_sad) *out_sad = best_sad;
  return best;
}

MotionVector motion_search(const Plane& src, const Plane& ref, int x0,
                           int y0, int size, int range, int* out_sad) {
  MotionVector best{};
  int best_sad = std::numeric_limits<int>::max();
  for (int dy = -range; dy <= range; ++dy) {
    for (int dx = -range; dx <= range; ++dx) {
      int sad = 0;
      for (int y = 0; y < size && sad < best_sad; ++y) {
        for (int x = 0; x < size; ++x) {
          sad += std::abs(
              static_cast<int>(src.at(x0 + x, y0 + y)) -
              static_cast<int>(ref.at_clamped(x0 + x + dx, y0 + y + dy)));
        }
      }
      // Slight zero-bias so static content prefers the null vector.
      sad += 2 * (std::abs(dx) + std::abs(dy));
      if (sad < best_sad) {
        best_sad = sad;
        best = {dx, dy};
      }
    }
  }
  if (out_sad) *out_sad = best_sad;
  return best;
}

}  // namespace affectsys::h264
