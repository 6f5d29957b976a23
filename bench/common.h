// Shared infrastructure for the benchmark harnesses (one binary per table /
// figure of the paper). Provides the default reduced-scale workload (the
// full 1120-picture streams are reproducible with --pictures=1120), a disk
// cache for generated streams so the suite doesn't re-encode per binary,
// and profile helpers.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include <span>

#include "bitstream/startcode.h"
#include "obs/report.h"
#include "parallel/stats.h"
#include "sched/profile.h"
#include "sched/sim.h"
#include "streamgen/stream_factory.h"
#include "util/flags.h"
#include "util/table.h"

namespace pmp2::bench {

/// The pre-SWAR byte-wise startcode scan, kept verbatim as the "before"
/// half of the Table 2 before/after pair and as the identity oracle for
/// the Table 1 stream matrix.
std::vector<Startcode> seed_scan_all_startcodes(
    std::span<const std::uint8_t> data);

/// Default picture counts per resolution, sized so the whole bench suite
/// completes in minutes on one core. Scaled by --pictures (absolute) or
/// --scale (multiplier).
int default_pictures(int width);

/// Resolves the stream spec's picture count from flags.
streamgen::StreamSpec apply_scale(streamgen::StreamSpec spec,
                                  const Flags& flags);

/// Loads the stream from the on-disk cache (./bench_streams) or generates
/// and stores it. Cache key covers all generation parameters.
std::vector<std::uint8_t> load_or_generate(const streamgen::StreamSpec& spec);

/// Profile with in-process memoization (several benches sweep the same
/// stream at many worker counts).
const sched::StreamProfile& cached_profile(
    const streamgen::StreamSpec& spec);

/// Profile replicated to paper scale for the scheduler simulations:
/// --sim-pictures (default 1120, the paper's stream length) pictures, built
/// by tiling the measured GOP costs, as the paper tiled its source clip.
sched::StreamProfile sim_profile(const streamgen::StreamSpec& spec,
                                 const Flags& flags);

/// `cfg` at slice granularity under the paper's improved slice policy
/// (cfg.max_open_pictures pictures open at once) or its simple one (one).
inline sched::SimConfig improved_slice(sched::SimConfig cfg) {
  cfg.granularity = sched::Granularity::kSlice;
  return cfg;
}
inline sched::SimConfig simple_slice(sched::SimConfig cfg) {
  cfg.max_open_pictures = 1;
  return improved_slice(cfg);
}

/// The paper's resolutions, largest optionally dropped via --max-res.
std::vector<streamgen::Resolution> resolutions(const Flags& flags);

/// Prints the standard bench header.
void print_header(const std::string& title, const std::string& paper_ref);

/// Appends the shared load-balance/sync fields (parallel/stats.cpp
/// definitions) to a report row, so every harness emits the same schema.
void append_load_summary(obs::RunReport::Row& row,
                         const parallel::WorkerLoadSummary& load);

/// Applies the --kernels=scalar|sse2|avx2 flag (same semantics as the
/// PMP2_KERNELS env override): selects the kernel backend for the rest of
/// the process. Unknown or unavailable backends warn on stderr and leave
/// the CPUID-selected table in place.
void apply_kernels_flag(const Flags& flags);

/// Stamps the run-identity meta fields (`kernels_backend`, `cpu_features`,
/// plus the host counter profile: `kernel_release`, `perf_event_paranoid`,
/// `counter_source`, `counters_available`) on a report, so report
/// consumers can tell runs on different kernel backends or differently
/// counter-capable hosts apart (tools/bench_check treats a backend change
/// as an identity mismatch, not a metric regression, and suppresses
/// counter columns across a counter_source change).
void set_kernel_identity(obs::RunReport& report);

/// Warns about unknown flags at the end of main().
int finish(const Flags& flags);

/// finish() plus the structured JSON run report: when --report-out=PATH was
/// passed, stamps the kernel-backend identity meta and writes `report`
/// there (errors go to stderr and the exit code).
int finish(const Flags& flags, obs::RunReport& report);

}  // namespace pmp2::bench
