// Admission control for the multi-stream DecodeServer (docs/SERVING.md).
//
// Before a session touches the worker pool, its stream is characterized
// from the preamble alone — sequence header bit rate, VBV buffer size,
// frame rate, and resolution — the MPEG-2 bandwidth-characterization
// angle (PAPERS.md): those four numbers bound the decode work the stream
// can demand per second, so the server can admit by *predicted* load
// instead of discovering an overload after it already missed deadlines.
//
// The load model is deliberately simple and fully deterministic (unit
// tests pin it exactly):
//
//   mb_per_s     = ceil(w/16) * ceil(h/16) * frame_rate
//   burst_rate   = bit_rate + vbv_bits * frame_rate / kVbvAmortPictures
//   load         = mb_per_s * (kPelCostShare
//                              + kBitCostShare * bits_per_mb / kRefBitsPerMb)
//
// mb_per_s is the pel-proportional half of decode cost (IDCT, MC,
// reconstruction run per macroblock regardless of coded size); the coded
// bits per macroblock scale the VLC half. burst_rate, not the nominal
// rate, feeds bits_per_mb: a stream may legally drain its whole VBV
// buffer in a short window, so admission must budget for the burst a
// compliant encoder can emit, amortized over kVbvAmortPictures pictures.
//
// Capacity is expressed in the same load units. The AdmissionController
// never blocks: decide() is pure bookkeeping under the caller's lock, and
// the server maps kQueue to its FIFO wait list.
//
// The model's shape is fixed; its scale is host-dependent. The load is
// the prior, and under the default capacity the controller calibrates
// what each session is charged from measured cost (docs/SERVING.md):
//
//   - The server reports every cleanly decoded GOP's measured worker
//     share. A running session's charge becomes an EWMA of its own
//     shares in load units, over kTargetOccupancy.
//   - A stream class is the header fields the model reads (size, frame
//     rate, bit rate, VBV size). Each session's first observation records
//     its measured / predicted ratio for its class. A newcomer is charged
//     its prior times the highest ratio among its class's last
//     kClassWindow sessions, over kTargetOccupancy, at most the prior.
//
// So a header that misstates its stream's cost misjudges only streams
// that carry the same header, and one cheap session cannot lower its
// class's charge while a recent one cost more. A class not yet observed,
// and so an uncalibrated controller, decides exactly as the static model
// does. An explicit Config::capacity is operator units and never
// calibrates.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pmp2::serve {

/// Load-model constants (documented above; tests pin the arithmetic).
inline constexpr double kPelCostShare = 0.6;
inline constexpr double kBitCostShare = 0.4;
inline constexpr double kRefBitsPerMb = 512.0;
inline constexpr int kVbvAmortPictures = 30;
/// Default per-worker capacity in load units: one worker sustains roughly
/// a 704x480@30 stream at 5 Mb/s (~39.6k mb/s at its coded density) with
/// ~25% headroom. Hosts that know better pass an explicit capacity.
inline constexpr double kDefaultWorkerCapacity = 50'000.0;
/// EWMA weight of a session's newest measured GOP share.
inline constexpr double kMeasuredShareAlpha = 0.3;
/// Worker occupancy a measured charge budgets for: a session measured at
/// one full worker is charged kDefaultWorkerCapacity / 0.8, keeping the
/// prior's headroom for GOP cost variance and for the scan tasks and
/// display emission that also run on the workers.
inline constexpr double kTargetOccupancy = 0.8;
/// Recent sessions of a stream class whose highest ratio a newcomer of
/// that class is charged by.
inline constexpr std::size_t kClassWindow = 8;
/// Stream classes remembered; the oldest is forgotten first.
inline constexpr std::size_t kMaxStreamClasses = 32;

/// What the preamble scan learned about one stream.
struct StreamLoadProfile {
  bool valid = false;        // preamble parsed (invalid streams are rejected)
  int width = 0;
  int height = 0;
  int mb_width = 0;
  int mb_height = 0;
  double frame_rate = 0.0;          // pictures/sec from the sequence header
  std::int64_t bit_rate = 0;        // nominal bits/sec
  std::int64_t vbv_bits = 0;        // VBV buffer size in bits (16 kbit units)
  double burst_bits_per_s = 0.0;    // bit_rate + VBV drain amortization
  double mb_per_s = 0.0;            // macroblocks/sec at the header rate
  double bits_per_mb = 0.0;         // burst bits per macroblock
  double predicted_load = 0.0;      // admission units (model above)
};

/// Characterizes `stream` from its preamble only (sequence header +
/// extensions up to the first GOP header) — O(preamble bytes), no decode.
/// `valid` is false when no sequence header parses, and predicted_load is
/// then 0.
[[nodiscard]] StreamLoadProfile characterize_stream(
    std::span<const std::uint8_t> stream);

enum class AdmissionDecision : std::uint8_t {
  kAdmit,   // capacity available: start now
  kQueue,   // over capacity but queueable: wait for capacity to free up
  kReject,  // invalid stream, or over capacity with queueing disabled/full
};

[[nodiscard]] std::string_view admission_decision_name(AdmissionDecision d);

/// What one admitted session holds against capacity: the admission-time
/// charge until the controller observes one of its GOPs, then its own
/// measured share in load units. The server keeps one per session.
struct AdmissionCharge {
  AdmissionCharge() = default;
  // Implicit on purpose: the charge of a stream at its prior.
  AdmissionCharge(const StreamLoadProfile& p)  // NOLINT
      : load(p.predicted_load) {}
  double load = 0.0;            // load units counted in admitted_load
  double measured_share = 0.0;  // EWMA of GOP worker shares (0: none yet)
};

/// A copy of one controller's state (DecodeServer::admission()).
struct AdmissionSnapshot {
  double capacity = 0.0;       // configured or default load units
  double admitted_load = 0.0;  // running sessions' charges
  int running = 0;
  int queued = 0;
  std::int64_t calibrated_gops = 0;  // GOP observations folded into charges
};

/// Capacity bookkeeping for one server. Not thread-safe by itself — the
/// server calls it under its scheduling mutex.
class AdmissionController {
 public:
  struct Config {
    double capacity = 0.0;    // total load units (<=0: workers * default)
    int max_sessions = 0;     // concurrently running sessions (0 = no cap)
    int max_queued = 0;       // sessions allowed to wait (0 = reject instead)
  };

  AdmissionController(const Config& config, int workers)
      : config_(config),
        capacity_(config.capacity > 0
                      ? config.capacity
                      : kDefaultWorkerCapacity * (workers > 0 ? workers : 1)) {
  }

  /// Folds one completed GOP of the admitted session with profile `p`
  /// into its `charge` and, on the session's first observation, into its
  /// stream class: `measured_share` is the GOP's decode CPU time over its
  /// display time, in workers. Ignored under an explicit capacity and
  /// when the share is not a positive finite number.
  void observe(AdmissionCharge& charge, const StreamLoadProfile& p,
               double measured_share);

  /// What a session with profile `p` would be charged if admitted now:
  /// the prior scaled by its class's highest recent ratio (header above).
  [[nodiscard]] AdmissionCharge charge_for(const StreamLoadProfile& p) const;

  /// Decision for a new stream with profile `p`. Does not change state —
  /// the server commits with admit()/enqueue() after it acted on the
  /// decision.
  [[nodiscard]] AdmissionDecision decide(const StreamLoadProfile& p) const;

  /// Commits an admitted session and returns what it is charged.
  AdmissionCharge admit(const StreamLoadProfile& p) {
    const AdmissionCharge c = charge_for(p);
    admitted_load_ += c.load;
    ++running_;
    return c;
  }
  /// Releases a finished/cancelled session's charge.
  void release(const AdmissionCharge& c) {
    admitted_load_ -= c.load;
    --running_;
    // Mixed loads leave rounding residue; an empty server holds none.
    if (admitted_load_ < 0 || running_ == 0) admitted_load_ = 0;
  }
  void enqueue() { ++queued_; }
  void dequeue() { --queued_; }

  /// True when `p` would fit right now (the admit() half of decide()).
  [[nodiscard]] bool fits(const StreamLoadProfile& p) const {
    if (config_.max_sessions > 0 && running_ >= config_.max_sessions) {
      return false;
    }
    return admitted_load_ + charge_for(p).load <= capacity_;
  }

  [[nodiscard]] int running() const { return running_; }
  [[nodiscard]] AdmissionSnapshot snapshot() const {
    return {capacity_, admitted_load_, running_, queued_, calibrated_gops_};
  }

 private:
  /// The last kClassWindow first-GOP ratios of one stream class.
  struct StreamClass {
    int width = 0;
    int height = 0;
    double frame_rate = 0.0;
    std::int64_t bit_rate = 0;
    std::int64_t vbv_bits = 0;
    std::array<double, kClassWindow> ratios{};  // 0: slot unused
    std::size_t next = 0;

    [[nodiscard]] bool holds(const StreamLoadProfile& p) const {
      return width == p.width && height == p.height &&
             frame_rate == p.frame_rate && bit_rate == p.bit_rate &&
             vbv_bits == p.vbv_bits;
    }
  };
  void record_ratio(const StreamLoadProfile& p, double ratio);

  Config config_;
  double capacity_;
  double admitted_load_ = 0.0;
  int running_ = 0;
  int queued_ = 0;
  std::int64_t calibrated_gops_ = 0;
  std::vector<StreamClass> classes_;
  std::size_t next_class_ = 0;  // replaced next once classes_ is full
};

}  // namespace pmp2::serve
