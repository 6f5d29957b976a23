// Per-stage counter attribution over the decode pipeline.
//
// The paper decomposes decode time per functional stage (scan, VLC
// decode, IDCT, motion compensation) to locate the memory-bound parts
// (§7). This layer reproduces that decomposition on live counters: each
// worker thread binds a WorkerProf (which opens per-thread counters from
// a shared CounterSource), and the mpeg2 core marks stage boundaries
// with StageScope — a TLS-checked RAII guard that costs one TLS load and
// a branch when profiling is off, so the hot path needs no signature
// changes and no #ifdefs.
//
// Attribution model: counters are read at every stage transition; the
// delta since the previous read is charged to the stage being left.
// Totals accumulate per (worker, stage); StageProfiler::aggregate()
// sums across workers after they join. Per-task deltas
// (take_task_delta) feed the live telemetry counter columns.
//
// Reading counters at block granularity is deliberate and expensive
// (two reads per scope; a perf group read is ~1us) — stage profiling is
// opt-in (`parallel_playback --prof-counters`), like the paper's
// TangoLite runs were a separate, slower experiment.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/prof/counters.h"

namespace pmp2::obs {
class JsonValue;
}  // namespace pmp2::obs

namespace pmp2::obs::prof {

/// Pipeline stages, in paper order. kOther absorbs everything between
/// marked regions (dispatch, header parse, reference management).
enum class Stage : unsigned {
  kScan = 0,   // startcode scan / demux (scan thread or scan task)
  kVlc,        // variable-length block decode
  kIdct,       // inverse DCT + store
  kMc,         // motion compensation / prediction
  kConceal,    // error concealment
  kOther,
  kCount,
};

inline constexpr int kStageCount = static_cast<int>(Stage::kCount);

[[nodiscard]] const char* stage_name(Stage s);

/// Accumulated counters for one stage.
struct StageTotals {
  CounterSample counters;
  std::uint64_t enters = 0;
};

/// One worker thread's attribution state. Bound (and only touched) by
/// the thread that called StageProfiler::bind(); aggregate readers wait
/// for the worker to unbind/join first.
class WorkerProf {
 public:
  /// Charges the delta since the last read to the current stage and
  /// enters `next`. Returns the previous stage (for scoped restore).
  Stage switch_stage(Stage next);

  /// Flush + return all counters accumulated since the previous take
  /// (per-task delta for telemetry). Zero sample when counters are
  /// unavailable on this thread.
  CounterSample take_task_delta();

  [[nodiscard]] const StageTotals& stage(Stage s) const {
    return stages_[static_cast<int>(s)];
  }
  [[nodiscard]] bool counting() const { return tc_ != nullptr; }

 private:
  friend class StageProfiler;
  std::unique_ptr<ThreadCounters> tc_;
  CounterSample last_;
  CounterSample task_accum_;
  Stage cur_ = Stage::kOther;
  StageTotals stages_[kStageCount];
};

/// The TLS hook StageScope reads. Null (profiling off) on any thread
/// that has not bound a WorkerProf.
extern thread_local WorkerProf* tls_worker_prof;

/// Aggregated profile of one run, serializable as "pmp2-prof/1".
struct ProfSummary {
  static constexpr const char* kSchema = "pmp2-prof/1";

  std::string source;           // CounterSource name: perf|software|fake
  unsigned mask = 0;            // counters present in the samples
  int workers = 0;              // worker slots that bound counters
  std::string kernels_backend;  // identity: which kernel backend ran

  StageTotals stages[kStageCount];
  CounterSample total;          // sum over stages

  /// Derived per-sample ratios; 0 when the inputs are not in `mask`.
  [[nodiscard]] static double ipc(const CounterSample& s);
  [[nodiscard]] static double miss_rate(const CounterSample& s);
  [[nodiscard]] static double stall_frac(const CounterSample& s);
  [[nodiscard]] bool has_hw() const {
    return (mask & counter_bit(Counter::kCycles)) &&
           (mask & counter_bit(Counter::kInstructions));
  }
};

/// Owns the counter source and per-worker slots for one run (or several
/// sequential runs re-binding the same slots).
class StageProfiler {
 public:
  /// `slots` is the maximum concurrently-bound threads (one per worker;
  /// workers also run the scan tasks). `source` must not be null.
  StageProfiler(std::unique_ptr<CounterSource> source, int slots);
  ~StageProfiler();

  StageProfiler(const StageProfiler&) = delete;
  StageProfiler& operator=(const StageProfiler&) = delete;

  /// Opens counters for the calling thread on slot `slot` (0-based) and
  /// installs the TLS hook. Rebinding a slot (sequential runs) keeps its
  /// accumulated stage totals. Returns the bound WorkerProf, or nullptr
  /// when `slot` is out of range.
  WorkerProf* bind(int slot);

  /// Clears the calling thread's TLS hook (call before the thread
  /// exits; bind() on another run installs it again).
  static void unbind();

  [[nodiscard]] const char* source_name() const { return source_->name(); }
  [[nodiscard]] unsigned mask() const { return source_->mask(); }
  [[nodiscard]] int slots() const { return static_cast<int>(slots_.size()); }

  /// Sums all slots. Call after worker threads have joined.
  [[nodiscard]] ProfSummary aggregate() const;

 private:
  std::unique_ptr<CounterSource> source_;
  std::vector<WorkerProf> slots_;
};

/// RAII stage marker. One TLS load + branch when profiling is off.
class StageScope {
 public:
  explicit StageScope(Stage s) : w_(tls_worker_prof) {
    if (w_) prev_ = w_->switch_stage(s);
  }
  ~StageScope() {
    if (w_) w_->switch_stage(prev_);
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  WorkerProf* w_;
  Stage prev_ = Stage::kOther;
};

/// Serialization: deterministic "pmp2-prof/1" JSON document.
void write_prof_json(std::ostream& os, const ProfSummary& summary);
bool parse_prof_json(const JsonValue& doc, ProfSummary* out,
                     std::string* error);
bool load_prof_json(const std::string& path, ProfSummary* out,
                    std::string* error);

/// Human-readable per-stage table + the paper-§7 ideal-vs-stall split
/// (pmp2_analyze --prof, parallel_playback --prof-counters).
void write_prof_text(std::ostream& os, const ProfSummary& summary);

}  // namespace pmp2::obs::prof
