// Virtual-time multiprocessor simulator.
//
// One event-driven model of the engine's pipeline (the paper's Fig. 4: a
// scan process feeding a task queue, P worker processes, and a display
// process) over a StreamProfile on a simulated P-processor shared-memory
// machine. The scan admits each GOP to a single FIFO once its bytes are
// scanned; idle workers claim work earliest-idle first; the granularity
// (sched/adaptive.h) sets what a popped GOP becomes — one whole-GOP task,
// its remaining pictures split into slice tasks while another worker is
// idle (kAdaptive, which knows the idle workers exactly), or slice tasks
// along a decode-order picture chain (kSlice). Produces the
// quantities of the paper's evaluation — speedup, per-worker compute/sync
// time, load balance, memory-over-time — for any processor count,
// deterministically.
//
// Accounting rule: every claim's queue access (queue_overhead_ns) is
// charged to the claiming worker's sync time, as the engine's claim loop
// times the lock and dequeue as waiting.
//
// An optional NUMA extension models the paper's §7.2 DASH experiments:
// clustered processors, a cost penalty for operating on remote data, and
// optional per-cluster GOP queues.
#pragma once

#include <cstdint>
#include <vector>

#include "parallel/stats.h"
#include "sched/adaptive.h"
#include "sched/profile.h"

namespace pmp2::obs {
class Tracer;
}

namespace pmp2::sched {

struct SimConfig {
  int workers = 4;
  /// What a GOP popped from the queue becomes (sched/adaptive.h).
  Granularity granularity = Granularity::kWholeGop;
  /// false (default): deterministic work-unit costs scaled by the profile's
  /// calibration constant; true: raw measured per-slice nanoseconds.
  bool measured_costs = false;
  /// Multiplies every task cost: > 1 slows the virtual processors down.
  /// The memory experiments (Figs. 8/9) set this so one virtual worker
  /// decodes at the paper's per-processor rate (~5 pics/s at 704x480 on a
  /// 150 MHz R4400); otherwise a modern core outruns the 30 pics/s display
  /// so completely that the display backlog hides the workers x GOP-size
  /// effect the paper measured.
  double cost_scale = 1.0;
  /// Cost of one task-queue access (lock + dequeue), charged to sync. The
  /// paper measured this to be negligible; it is modelled anyway.
  std::int64_t queue_overhead_ns = 1'000;
  /// Per-picture overhead of chained pictures (re-reading picture headers,
  /// §5.2.1), charged to the worker that claims its first task.
  std::int64_t picture_overhead_ns = 20'000;
  /// Model the scan process: a GOP only enters the queue once its bytes
  /// have been scanned. When false all GOPs are ready at t = 0.
  bool model_scan = true;
  /// Pre-streaming front-end: the entire stream is scanned before any task
  /// becomes ready (the Amdahl-style upfront input stage). Default false =
  /// streaming demux, where a GOP is ready as soon as its own bytes have
  /// been scanned. Only meaningful when model_scan is set.
  bool upfront_scan = false;
  /// Bound on admitted GOPs not yet started: GOP g enters the queue only
  /// once GOP g - max_queued_gops has left it (claimed, or under kSlice
  /// its first picture opened). 0 = unbounded, the paper's configuration.
  int max_queued_gops = 0;
  /// Scan throughput; 0 derives it from the profile's measured scan time.
  double scan_bytes_per_ns = 0.0;
  /// Pace the display process at the stream frame rate (used by the memory
  /// timeline experiments; throughput experiments leave it off).
  bool paced_display = false;
  /// kSlice only: pictures open at once on the session-wide chain (1 is
  /// the paper's simple slice policy, 3 its improved one). A GOP kAdaptive
  /// splits opens its pictures without a cap, as the engine does.
  int max_open_pictures = 3;

  // --- Concealment cost model (fault-injection what-if analysis) ---
  /// Fraction of slices marked corrupt by a deterministic per-slice hash
  /// keyed on (fault_seed, gop, picture, slice). A corrupt slice's decode
  /// cost is replaced by conceal_cost_ns — concealment is a row copy, far
  /// cheaper than entropy decode — so the model answers how degradation
  /// shifts the speedup/load-balance picture (docs/ROBUSTNESS.md). 0 = off.
  double fault_slice_rate = 0.0;
  /// Virtual cost of concealing one corrupt slice (scaled by cost_scale
  /// like every other task cost).
  std::int64_t conceal_cost_ns = 2'000;
  /// Seed for the corrupt-slice selection hash.
  std::uint64_t fault_seed = 1;

  // --- NUMA extension (§7.2) ---
  int cluster_size = 0;         // 0 = centralized memory (UMA)
  double remote_penalty = 1.0;  // cost multiplier for remote-homed tasks
  /// One GOP queue per cluster (GOPs homed round-robin): a worker takes
  /// its own cluster's GOPs, and only once none are left takes the queue
  /// head that was scanned first.
  bool numa_local_queues = false;

  /// Optional span tracer (needs `workers` tracks; with `workers + 1`
  /// tracks the extra track records the scan process as per-GOP kScan
  /// spans, mirroring the live decoders). The simulator records every task
  /// and wait with its *virtual* timestamps, so two runs with identical
  /// config export byte-identical Chrome JSON.
  obs::Tracer* tracer = nullptr;
};

struct SimWorkerStats {
  std::int64_t busy_ns = 0;  // simulated compute
  std::int64_t sync_ns = 0;  // simulated waiting and queue access
  int tasks = 0;
  int remote_tasks = 0;  // NUMA: tasks executed away from their home
};

struct MemSample {
  std::int64_t t_ns = 0;
  std::int64_t bytes = 0;
};

struct SimResult {
  std::int64_t makespan_ns = 0;  // until the last picture is displayed
  int pictures = 0;
  int concealed_slices = 0;  // slices the fault model marked corrupt
  std::vector<SimWorkerStats> workers;
  /// Frame bytes, plus the stream buffer of whole-GOP claims. A GOP run
  /// whole owns its frames until it ends (the paper's Fig. 8 rule): each
  /// lives from its decode to max(display, GOP decode end). A picture of a
  /// split or chained GOP lives from its open to max(display, last use as
  /// a reference), the lifetime the engine's picture chains keep too.
  std::vector<MemSample> memory_timeline;
  std::int64_t peak_memory = 0;
  /// Scan-ahead buffer alone (the scan(t) term of Fig. 9): a whole-claimed
  /// GOP's bytes from its admission to the end of its claim (its decode
  /// end, or where it split).
  std::int64_t peak_stream_bytes = 0;

  /// Frame-latency objective (the second axis of the bi-criteria Pareto
  /// sweeps next to makespan): per picture, display time minus arrival,
  /// where arrival is the virtual time the picture's bytes finished
  /// scanning. Indexed by display order. Meaningful for paced sweeps
  /// (scan_bytes_per_ns set to the stream's real-time byte rate); in
  /// unpaced runs the scan outruns decode and latency degenerates to
  /// queueing + decode time.
  std::vector<std::int64_t> frame_latency_ns;

  // Dispatch accounting: how the popped GOPs were run.
  int gop_mode_gops = 0;  // GOPs run whole to the end (throughput mode)
  /// GOPs split into tasks (latency mode): under kAdaptive at their pop or
  /// at a picture boundary of their whole claim, under kSlice every GOP.
  int exploded_gops = 0;

  [[nodiscard]] double pictures_per_second() const {
    return makespan_ns > 0 ? pictures * 1e9 / static_cast<double>(makespan_ns)
                           : 0.0;
  }
  /// Percentile (q in [0, 100]) over frame_latency_ns with linear
  /// interpolation between order statistics; 0 when no latencies recorded.
  [[nodiscard]] std::int64_t latency_percentile(double q) const;
  [[nodiscard]] std::int64_t min_busy_ns() const;
  [[nodiscard]] std::int64_t max_busy_ns() const;
  [[nodiscard]] double avg_busy_ns() const;
  /// Average over workers of sync / (sync + busy), the paper's Fig. 12.
  [[nodiscard]] double sync_ratio() const;
  /// Shared load-balance/sync summary (same derivation as the real
  /// decoders, parallel::summarize_load); idle = makespan - busy - sync.
  [[nodiscard]] parallel::WorkerLoadSummary load_summary() const;
};

/// Runs `profile` through the model at `config.granularity`.
[[nodiscard]] SimResult simulate(const StreamProfile& profile,
                                 const SimConfig& config);

}  // namespace pmp2::sched
