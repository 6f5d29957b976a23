// Per-layer measurements for the traced run, timed from the benchmark's
// own thread around calls into each layer's public functions: the scan,
// the sequential decoder with its stage split, and the IDCT kernel, each
// replayed over a plan's distinct inputs.
#pragma once

#include <memory>

#include "inputs.h"
#include "obs/prof/stage_prof.h"

namespace pmp2::benchmark {

struct LayerTimes {
  double scan_ns_per_byte = 0.0;
  double scan_us_per_gop = 0.0;
  double seq_ms_per_pic = 0.0;
  // seq_ms_per_pic split by the decoder's stage marks; sums to it.
  double vlc_ms_per_pic = 0.0;
  double idct_ms_per_pic = 0.0;
  double mc_ms_per_pic = 0.0;
  double conceal_ms_per_pic = 0.0;
  double other_ms_per_pic = 0.0;
  double idct_ns_per_block = 0.0;
  double blocks_per_pic = 0.0;
};

[[nodiscard]] LayerTimes replay_layers(const Plan& plan);

/// Share of the profiled CPU time spent in each stage, and that CPU time.
struct StageSplit {
  double share[obs::prof::kStageCount] = {};
  double cpu_s = 0.0;
};

[[nodiscard]] StageSplit stage_split(const obs::prof::StageProfiler& prof);

/// A software-clock profiler with one slot per worker plus the scan.
[[nodiscard]] std::unique_ptr<obs::prof::StageProfiler> make_profiler(
    int slots);

/// Decodes each distinct input once with a profiled 4-worker
/// AdaptiveDecoder: the in-situ stage split for workloads whose measured
/// path (DecodeServer) takes no profiler. `process_cpu_s` receives the
/// process CPU the replay took.
[[nodiscard]] StageSplit replay_in_situ(const Plan& plan,
                                        double& process_cpu_s);

}  // namespace pmp2::benchmark
