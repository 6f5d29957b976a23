// Stream profiling: one calibration decode that records the cost of every
// slice (and therefore picture and GOP) of a stream, in deterministic work
// units and in measured nanoseconds.
//
// This is the bridge between the real decoder and the virtual-time
// multiprocessor simulator: the paper measured its speedup/load-balance/
// synchronization figures on a 16-processor SGI Challenge; this reproduction
// replays the same scheduling policies over real per-task costs on a
// simulated P-processor machine (DESIGN.md §1), so the figures are
// reproducible on any host, including a single-core one.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mpeg2/decoder.h"
#include "mpeg2/types.h"

namespace pmp2::sched {

struct SliceCost {
  std::uint64_t units = 0;   // deterministic work units (WorkMeter::units)
  std::int64_t ns = 0;       // measured decode time of this slice
};

struct PictureCost {
  mpeg2::PictureType type = mpeg2::PictureType::kI;
  int temporal_reference = 0;
  std::vector<SliceCost> slices;

  [[nodiscard]] std::uint64_t units() const {
    std::uint64_t sum = 0;
    for (const auto& s : slices) sum += s.units;
    return sum;
  }
  [[nodiscard]] std::int64_t ns() const {
    std::int64_t sum = 0;
    for (const auto& s : slices) sum += s.ns;
    return sum;
  }
};

struct GopCost {
  std::vector<PictureCost> pictures;
  std::uint64_t stream_bytes = 0;  // coded bytes of this GOP
  /// closed_gop: its leading pictures reference nothing before the GOP.
  bool closed = true;

  [[nodiscard]] std::uint64_t units() const {
    std::uint64_t sum = 0;
    for (const auto& p : pictures) sum += p.units();
    return sum;
  }
  [[nodiscard]] std::int64_t ns() const {
    std::int64_t sum = 0;
    for (const auto& p : pictures) sum += p.ns();
    return sum;
  }
};

/// Complete cost profile of one stream.
struct StreamProfile {
  bool ok = false;
  std::vector<GopCost> gops;
  std::uint64_t stream_bytes = 0;
  std::int64_t scan_ns = 0;         // measured startcode-scan time
  double ns_per_unit = 0.0;         // calibration: measured ns / work units
  int width = 0, height = 0;
  int slices_per_picture = 0;
  double frame_rate = 30.0;

  [[nodiscard]] int total_pictures() const {
    int n = 0;
    for (const auto& g : gops) n += static_cast<int>(g.pictures.size());
    return n;
  }
  [[nodiscard]] std::int64_t frame_bytes() const {
    const int cw = (width + 15) / 16 * 16;
    const int ch = (height + 15) / 16 * 16;
    return static_cast<std::int64_t>(cw) * ch * 3 / 2;
  }

  /// Task cost in simulated ns: deterministic units scaled by the
  /// calibration constant (default), or the raw measurement.
  [[nodiscard]] std::int64_t slice_cost_ns(const SliceCost& s,
                                           bool measured) const {
    return measured
               ? s.ns
               : static_cast<std::int64_t>(static_cast<double>(s.units) *
                                           ns_per_unit);
  }
};

/// Runs the calibration decode (sequential; one slice timed at a time).
[[nodiscard]] StreamProfile profile_stream(
    std::span<const std::uint8_t> stream);

/// Tiles the profile's GOPs until it covers at least `target_pictures`
/// pictures — the profile-level analogue of how the paper built its
/// 1120-picture streams by repeating a short clip. Cost structure, GOP
/// size, scan rate and calibration are preserved.
[[nodiscard]] StreamProfile replicate_profile(const StreamProfile& profile,
                                              int target_pictures);

}  // namespace pmp2::sched
