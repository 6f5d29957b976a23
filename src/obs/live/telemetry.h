// In-flight run telemetry (docs/OBSERVABILITY.md, "Live telemetry").
//
// Everything the post-mortem stack (tracer, registry, reports) can say, it
// says after the run. This layer is the in-flight half: per-worker
// TelemetryCells that decoders update on every picture/GOP completion, a
// shared frame-latency histogram windowed by the sampler, and a couple of
// whole-run scalars (queue depth, whole-picture concealments) that have
// more than one writer.
//
// Concurrency design:
//   * One TelemetryCell per worker plus one for the scan and one for the
//     display process. Each cell has exactly one logical writer (the
//     owning thread; the scan cell by whichever worker holds the session's
//     one scan claim, handed over under the engine's mutex; the display
//     cell under the DisplaySink mutex, which serializes its writers) and
//     is published through a seqlock so the sampler reads a *consistent*
//     multi-field snapshot without ever blocking a decoder.
//   * The payload fields are relaxed atomics and the sequence word uses
//     acquire/release (the Boehm seqlock construction), so the whole cell
//     is data-race-free under TSan — scripts/ci.sh runs the writer-storm
//     test in the tsan stage to hold that line.
//   * Cells are cache-line padded (alignas) so a worker bumping its own
//     counters never bounces another worker's line.
//   * Null-sink discipline, same as the tracer and registry: decoders test
//     one pointer per event; with no LiveTelemetry attached nothing else
//     is paid.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/prof/counters.h"
#include "util/timer.h"

namespace pmp2::obs::live {

/// One consistent cell snapshot. All cumulative unless noted; timestamps
/// are nanoseconds on the owning LiveTelemetry's epoch (construction).
struct CellSample {
  std::int64_t pictures = 0;         // pictures completed by this writer
  std::int64_t tasks = 0;            // GOPs or slices completed
  std::int64_t busy_ns = 0;          // CPU time spent decoding
  std::int64_t sync_ns = 0;          // wall time blocked on queues/deps
  std::int64_t bytes = 0;            // bytes scanned/decoded by this writer
  std::int64_t concealed = 0;        // concealed slices
  std::int64_t quarantined = 0;      // whole pictures synthesized
  std::int64_t last_latency_ns = 0;  // latency of the newest completion
  std::int64_t last_progress_ns = -1;  // when it completed (-1 = never)
  // Cumulative hardware counters (zero unless a StageProfiler is attached
  // to the decoder; see LiveTelemetry::counter_mask for which are live).
  std::int64_t cycles = 0;
  std::int64_t instructions = 0;
  std::int64_t cache_refs = 0;
  std::int64_t cache_misses = 0;
  std::int64_t stalled_backend = 0;
};

/// Seqlock-published, cache-line-padded per-worker cell. Single logical
/// writer; any number of concurrent readers via sample().
class alignas(128) TelemetryCell {
 public:
  /// Consistent snapshot: retries while a write generation is open. With
  /// the single-writer discipline the critical section is tiny, but on a
  /// single-core host the writer can be preempted *inside* it — a pure
  /// spin then burns the reader's whole quantum before the writer can
  /// close the generation (the pre-PR-8 writer-storm flake). After a
  /// short optimistic spin the reader yields between retries.
  [[nodiscard]] CellSample sample() const {
    int spins = 0;
    const auto backoff = [&spins] {
      if (++spins > kSampleSpinLimit) std::this_thread::yield();
    };
    for (;;) {
      const std::uint64_t before = seq_.load(std::memory_order_acquire);
      if (before & 1) {  // write in progress
        backoff();
        continue;
      }
      CellSample out;
      out.pictures = pictures_.load(std::memory_order_relaxed);
      out.tasks = tasks_.load(std::memory_order_relaxed);
      out.busy_ns = busy_ns_.load(std::memory_order_relaxed);
      out.sync_ns = sync_ns_.load(std::memory_order_relaxed);
      out.bytes = bytes_.load(std::memory_order_relaxed);
      out.concealed = concealed_.load(std::memory_order_relaxed);
      out.quarantined = quarantined_.load(std::memory_order_relaxed);
      out.last_latency_ns =
          last_latency_ns_.load(std::memory_order_relaxed);
      out.last_progress_ns =
          last_progress_ns_.load(std::memory_order_relaxed);
      out.cycles = cycles_.load(std::memory_order_relaxed);
      out.instructions = instructions_.load(std::memory_order_relaxed);
      out.cache_refs = cache_refs_.load(std::memory_order_relaxed);
      out.cache_misses = cache_misses_.load(std::memory_order_relaxed);
      out.stalled_backend =
          stalled_backend_.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == before) return out;
      backoff();
    }
  }

  /// Writer-side RAII: opens one seqlock generation around a batch of
  /// field updates, so the sampler never observes a half-applied event.
  /// Owner thread only (or externally serialized, as the display cell is).
  class Write {
   public:
    explicit Write(TelemetryCell& cell) : cell_(cell) {
      // The RMW with acquire ordering keeps the field stores below from
      // hoisting above the odd marker; the closing release store keeps
      // them from sinking below the even marker.
      cell_.seq_.fetch_add(1, std::memory_order_acq_rel);
    }
    Write(const Write&) = delete;
    Write& operator=(const Write&) = delete;
    ~Write() {
      cell_.seq_.fetch_add(1, std::memory_order_release);
    }

    Write& add_pictures(std::int64_t d = 1) { return add(cell_.pictures_, d); }
    Write& add_tasks(std::int64_t d = 1) { return add(cell_.tasks_, d); }
    Write& add_busy_ns(std::int64_t d) { return add(cell_.busy_ns_, d); }
    Write& set_sync_ns(std::int64_t v) { return set(cell_.sync_ns_, v); }
    Write& set_bytes(std::int64_t v) { return set(cell_.bytes_, v); }
    Write& add_concealed(std::int64_t d) { return add(cell_.concealed_, d); }
    Write& add_quarantined(std::int64_t d = 1) {
      return add(cell_.quarantined_, d);
    }
    Write& set_last_latency_ns(std::int64_t v) {
      return set(cell_.last_latency_ns_, v);
    }
    Write& set_last_progress_ns(std::int64_t v) {
      return set(cell_.last_progress_ns_, v);
    }
    /// Folds a per-task counter delta (WorkerProf::take_task_delta) into
    /// the cell's cumulative counters.
    Write& add_counters(const prof::CounterSample& d) {
      add(cell_.cycles_,
          static_cast<std::int64_t>(d.get(prof::Counter::kCycles)));
      add(cell_.instructions_,
          static_cast<std::int64_t>(d.get(prof::Counter::kInstructions)));
      add(cell_.cache_refs_,
          static_cast<std::int64_t>(d.get(prof::Counter::kCacheRefs)));
      add(cell_.cache_misses_,
          static_cast<std::int64_t>(d.get(prof::Counter::kCacheMisses)));
      add(cell_.stalled_backend_,
          static_cast<std::int64_t>(d.get(prof::Counter::kStalledBackend)));
      return *this;
    }

   private:
    Write& add(std::atomic<std::int64_t>& f, std::int64_t d) {
      f.store(f.load(std::memory_order_relaxed) + d,
              std::memory_order_relaxed);
      return *this;
    }
    Write& set(std::atomic<std::int64_t>& f, std::int64_t v) {
      f.store(v, std::memory_order_relaxed);
      return *this;
    }
    TelemetryCell& cell_;
  };

 private:
  friend class Write;
  /// Optimistic spins before sample() starts yielding between retries.
  static constexpr int kSampleSpinLimit = 64;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::int64_t> pictures_{0};
  std::atomic<std::int64_t> tasks_{0};
  std::atomic<std::int64_t> busy_ns_{0};
  std::atomic<std::int64_t> sync_ns_{0};
  std::atomic<std::int64_t> bytes_{0};
  std::atomic<std::int64_t> concealed_{0};
  std::atomic<std::int64_t> quarantined_{0};
  std::atomic<std::int64_t> last_latency_ns_{0};
  std::atomic<std::int64_t> last_progress_ns_{-1};
  std::atomic<std::int64_t> cycles_{0};
  std::atomic<std::int64_t> instructions_{0};
  std::atomic<std::int64_t> cache_refs_{0};
  std::atomic<std::int64_t> cache_misses_{0};
  std::atomic<std::int64_t> stalled_backend_{0};
};

/// The per-run telemetry surface one decoder (or a sequence of decoder
/// runs sharing worker indices, as pmp2_soak does) publishes into and the
/// LiveSampler reads from. Attach via GopDecoderConfig::live /
/// SliceDecoderConfig::live; must outlive the decode and be sized with at
/// least as many workers as the decoder uses (the decoders ignore an
/// undersized instance rather than write out of range).
class LiveTelemetry {
 public:
  explicit LiveTelemetry(int workers)
      : workers_(workers > 0 ? workers : 0),
        cells_(static_cast<std::size_t>(workers_) + 2) {}

  [[nodiscard]] int workers() const { return workers_; }

  [[nodiscard]] TelemetryCell& worker(int w) {
    return cells_[static_cast<std::size_t>(w)];
  }
  [[nodiscard]] const TelemetryCell& worker(int w) const {
    return cells_[static_cast<std::size_t>(w)];
  }
  /// The scan/demux cell (bytes scanned, GOPs indexed).
  [[nodiscard]] TelemetryCell& scan() {
    return cells_[static_cast<std::size_t>(workers_)];
  }
  [[nodiscard]] const TelemetryCell& scan() const {
    return cells_[static_cast<std::size_t>(workers_)];
  }
  /// The display process's cell (pictures emitted in display order).
  [[nodiscard]] TelemetryCell& display() {
    return cells_[static_cast<std::size_t>(workers_) + 1];
  }
  [[nodiscard]] const TelemetryCell& display() const {
    return cells_[static_cast<std::size_t>(workers_) + 1];
  }

  /// Nanoseconds since construction — the telemetry epoch every
  /// last_progress_ns / snapshot timestamp is on.
  [[nodiscard]] std::int64_t now_ns() const { return timer_.elapsed_ns(); }

  /// Shared cumulative frame-latency histogram (all workers record; the
  /// sampler delta-windows it into trailing-1s/10s percentiles).
  [[nodiscard]] Histogram& frame_latency() { return frame_latency_; }
  [[nodiscard]] const Histogram& frame_latency() const {
    return frame_latency_;
  }

  /// Current depth of the decode work queue (GOPs scanned but not yet
  /// started). Multi-writer scalar, so it lives outside the cells.
  void add_queue_depth(std::int64_t d) {
    queue_depth_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t queue_depth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }

  /// Identity of the counter source feeding the cells' counter columns
  /// ("" = no profiler attached). Set once by the harness before decode
  /// threads start; the sampler stamps it into snapshots so consumers
  /// never misread software-clock numbers as PMU cycles.
  void set_counter_source(std::string name, unsigned mask) {
    counter_source_ = std::move(name);
    counter_mask_ = mask;
  }
  [[nodiscard]] const std::string& counter_source() const {
    return counter_source_;
  }
  [[nodiscard]] unsigned counter_mask() const { return counter_mask_; }

 private:
  int workers_;
  WallTimer timer_;
  std::string counter_source_;
  unsigned counter_mask_ = 0;
  Histogram frame_latency_;
  std::atomic<std::int64_t> queue_depth_{0};
  // workers_ worker cells, then scan, then display.
  std::vector<TelemetryCell> cells_;
};

}  // namespace pmp2::obs::live
