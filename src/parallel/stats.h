// Per-worker and per-run statistics for the parallel decoders, matching the
// quantities the paper reports: compute time, synchronization/queue wait
// time, per-worker task counts, decoded pictures/sec, and peak memory.
//
// WorkerLoadSummary is the single place load-balance and synchronization
// metrics (Figs. 6/12) are derived: both the real decoders (WorkerStats)
// and the virtual-time simulator (SimWorkerStats) feed their per-worker
// busy/sync vectors through summarize_load() instead of re-deriving
// max/mean imbalance ad hoc in each bench binary.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mpeg2/frame.h"
#include "mpeg2/types.h"

namespace pmp2::parallel {

struct WorkerStats {
  std::int64_t compute_ns = 0;  // thread CPU time spent decoding
  std::int64_t sync_ns = 0;     // wall time blocked on queues/dependencies
  std::int64_t idle_ns = 0;     // run wall time minus compute minus sync
                                // (derived once the run finishes)
  std::uint64_t tasks = 0;      // GOPs, pictures or slices completed
  mpeg2::WorkMeter work;
};

/// Why a recovery action fired (docs/ROBUSTNESS.md's fault model).
enum class RecoveryCause : std::uint8_t {
  kSliceError,        // slice syntax error, concealed
  kPictureHeader,     // picture header/extension unparseable
  kMissingReference,  // P/B picture with no reference available
  kOpenGop,           // GOP decoder fed a non-closed GOP
  kScanTruncated,     // structure scan failed mid-stream; prefix kept
  kWatchdog,          // scheduler made no progress within the deadline
  kDisplayTimeout,    // display never received every picture
};

[[nodiscard]] std::string_view recovery_cause_name(RecoveryCause cause);

/// One bounded-recovery event. Coordinates are decode-order indices; -1
/// where the dimension does not apply.
struct ErrorRecord {
  RecoveryCause cause = RecoveryCause::kSliceError;
  int gop = -1;
  int picture = -1;  // decode-order picture index within the stream
  std::uint64_t byte_offset = 0;
};

/// Thread-safe, capped error-record collector shared by the workers of one
/// run. The cap bounds memory on 100%-corrupt input; overflow is counted.
class ErrorLog {
 public:
  static constexpr std::size_t kMaxRecords = 64;

  void add(const ErrorRecord& record) {
    const std::scoped_lock lock(mutex_);
    if (records_.size() < kMaxRecords) {
      records_.push_back(record);
    } else {
      ++dropped_;
    }
  }

  /// Moves the collected records out (call after the workers joined).
  void drain(std::vector<ErrorRecord>& records, int& dropped) {
    const std::scoped_lock lock(mutex_);
    records = std::move(records_);
    records_.clear();
    dropped = dropped_;
  }

 private:
  std::mutex mutex_;
  std::vector<ErrorRecord> records_;
  int dropped_ = 0;
};

/// Last-known pipeline state captured when a watchdog or display deadline
/// fires (RunResult::hung). The harnesses print this to stderr so a hung
/// run leaves evidence, not just a nonzero exit code.
struct HangEvidence {
  std::string where;           // "display" | "coordinator"
  std::int64_t waited_ns = 0;  // the deadline that expired
  std::int64_t epoch = -1;     // scheduling epoch (slice coordinator/engine)
  int pictures_delivered = 0;  // emitted in display order before the stall
  int pictures_indexed = 0;    // pictures the scan had indexed by then
  [[nodiscard]] std::string to_string() const;
};

struct RunResult {
  bool ok = false;
  double wall_s = 0.0;      // total decode wall time (excluding nothing)
  double scan_s = 0.0;      // time the scan pass took
  int pictures = 0;
  std::uint64_t checksum = 0;  // order-sensitive digest of display output
  std::uint64_t stream_bytes = 0;         // coded bytes decoded
  std::int64_t peak_frame_bytes = 0;  // high-water frame memory
  int concealed_slices = 0;  // slices patched by error concealment
  int concealed_pictures = 0;  // whole pictures synthesized by quarantine
  int quarantined_gops = 0;  // distinct GOPs with at least one recovery
  bool hung = false;  // a watchdog/display deadline fired (run incomplete)
  HangEvidence hang;  // what the watchdog saw (meaningful only when hung)
  std::vector<ErrorRecord> errors;  // capped at ErrorLog::kMaxRecords
  int errors_dropped = 0;           // records beyond the cap
  std::vector<WorkerStats> workers;

  // Dispatch accounting (GOP and adaptive decoders): how the engine
  // split the stream between whole-GOP and per-picture tasks.
  int gop_mode_gops = 0;       // GOPs decoded whole (throughput mode)
  int exploded_gops = 0;       // GOPs exploded into picture tasks
  /// Always 0: the engine serves one FIFO per session, so no task ever
  /// moves between worker deques. Kept because the repository benchmark
  /// (benchmark/drive.cpp) reads it.
  std::uint64_t stolen_tasks = 0;
  // Frame-pool effectiveness.
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;

  /// Completed despite damage: ok with recovery events recorded.
  [[nodiscard]] bool degraded() const {
    return concealed_slices > 0 || concealed_pictures > 0 || !errors.empty();
  }

  [[nodiscard]] double pictures_per_second() const {
    return wall_s > 0 ? pictures / wall_s : 0.0;
  }
  [[nodiscard]] double megabytes_per_second() const {
    return wall_s > 0 ? static_cast<double>(stream_bytes) / 1e6 / wall_s
                      : 0.0;
  }
};

/// Load-balance / synchronization metrics over one run's workers. Derived
/// in exactly one place (summarize_load) so every bench and report agrees
/// on the definitions:
///   imbalance   = max worker busy time / mean worker busy time
///   sync_ratio  = mean over workers of sync / (sync + busy)  (Fig. 12)
///   utilization = total busy / (total busy + sync + idle)
struct WorkerLoadSummary {
  int workers = 0;
  std::uint64_t tasks = 0;
  std::int64_t min_busy_ns = 0;
  std::int64_t max_busy_ns = 0;
  double avg_busy_ns = 0.0;
  std::int64_t total_busy_ns = 0;
  std::int64_t total_sync_ns = 0;
  std::int64_t total_idle_ns = 0;
  double imbalance = 0.0;
  double sync_ratio = 0.0;
  double utilization = 0.0;
};

/// Core derivation over parallel per-worker vectors. `idle_ns` and `tasks`
/// may be empty (treated as all-zero); the spans must otherwise share one
/// length.
[[nodiscard]] WorkerLoadSummary summarize_load(
    std::span<const std::int64_t> busy_ns,
    std::span<const std::int64_t> sync_ns,
    std::span<const std::int64_t> idle_ns = {},
    std::span<const std::uint64_t> tasks = {});

/// Convenience over a real-decoder run (busy = compute_ns).
[[nodiscard]] WorkerLoadSummary summarize_load(const RunResult& result);

/// Fills each worker's idle_ns from the run wall time:
/// idle = wall - compute - sync, clamped at zero. Called by both parallel
/// decoders after joining their workers.
void derive_idle(RunResult& result);

/// Order-sensitive FNV-1a over a frame's display-area pels, chained with a
/// running digest. Every decoder variant must produce the same final value.
[[nodiscard]] std::uint64_t chain_frame_checksum(std::uint64_t digest,
                                                 const mpeg2::Frame& frame);

}  // namespace pmp2::parallel
