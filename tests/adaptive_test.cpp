// Adaptive granularity scheduler tests: the dispatch-policy arithmetic
// (steal order, cost EWMA, explode decision), the frame-latency objective,
// the virtual-time simulator's determinism and work conservation, and the
// hybrid decoder's core guarantee — dispatch mode is invisible in the
// output. The checksum matrix asserts adaptive == gop == slice byte-
// identically on every Table-1 stream shape, clean and under injected
// faults; the stress test exercises the engine's contended claim paths
// and the profiler test concurrent slot binds (both also run under TSan
// via scripts/ci.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "bitstream/startcode.h"
#include "inject/fault.h"
#include "mpeg2/decoder.h"
#include "obs/prof/counters.h"
#include "obs/prof/stage_prof.h"
#include "parallel/adaptive/adaptive_decoder.h"
#include "parallel/display.h"
#include "parallel/gop_decoder.h"
#include "parallel/slice_parallel.h"
#include "sched/adaptive.h"
#include "sched/profile.h"
#include "streamgen/stream_factory.h"

namespace pmp2 {
namespace {

using parallel::AdaptiveDecoder;
using parallel::AdaptiveDecoderConfig;
using parallel::GopDecoderConfig;
using parallel::GopParallelDecoder;
using parallel::RunResult;
using parallel::SliceDecoderConfig;
using parallel::SliceParallelDecoder;

// ---------------------------------------------------------------------------
// steal_order: deterministic, index-based victim selection.

TEST(StealOrder, CoversEveryOtherWorkerExactlyOnce) {
  for (int workers : {2, 3, 4, 8, 14}) {
    for (int self = 0; self < workers; ++self) {
      const auto order = sched::steal_order(self, workers);
      ASSERT_EQ(order.size(), static_cast<std::size_t>(workers - 1));
      std::set<int> seen(order.begin(), order.end());
      EXPECT_EQ(seen.size(), order.size()) << "duplicates for self=" << self;
      EXPECT_EQ(seen.count(self), 0u) << "self-steal for self=" << self;
      for (const int v : order) {
        EXPECT_GE(v, 0);
        EXPECT_LT(v, workers);
      }
    }
  }
}

TEST(StealOrder, StartsAtNextWorkerAndWraps) {
  const auto order = sched::steal_order(2, 4);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 3);
  EXPECT_EQ(order[1], 0);
  EXPECT_EQ(order[2], 1);
}

TEST(StealOrder, DeterministicAcrossCalls) {
  EXPECT_EQ(sched::steal_order(5, 14), sched::steal_order(5, 14));
}

TEST(StealOrder, SingleWorkerHasNoVictims) {
  EXPECT_TRUE(sched::steal_order(0, 1).empty());
  EXPECT_TRUE(sched::steal_order(0, 0).empty());
}

// ---------------------------------------------------------------------------
// CostEwma + should_explode: the dispatch decision.

TEST(AdaptivePolicy, EwmaStartsUncalibratedThenTracksRate) {
  sched::CostEwma ewma;
  EXPECT_EQ(ewma.predict(1000), -1);
  EXPECT_EQ(ewma.average_ns(), -1);
  ewma.observe(10'000, 1'000);  // 10 ns/byte
  EXPECT_EQ(ewma.predict(2'000), 20'000);
  EXPECT_EQ(ewma.average_ns(), 10'000);
  // Second observation at 20 ns/byte with alpha 0.3: 0.7*10 + 0.3*20 = 13.
  ewma.observe(20'000, 1'000);
  EXPECT_EQ(ewma.predict(1'000), 13'000);
  EXPECT_EQ(ewma.average_ns(), 15'000);
  EXPECT_EQ(ewma.observations(), 2);
}

TEST(AdaptivePolicy, EwmaIgnoresDegenerateObservations) {
  sched::CostEwma ewma;
  ewma.observe(0, 1'000);
  ewma.observe(1'000, 0);
  ewma.observe(-5, 1'000);
  EXPECT_EQ(ewma.observations(), 0);
  EXPECT_EQ(ewma.predict(1'000), -1);
}

TEST(AdaptivePolicy, ExplodesWhenUncalibrated) {
  sched::AdaptivePolicy policy;
  sched::CostEwma ewma;  // no observations
  EXPECT_TRUE(sched::should_explode(policy, 4, 100, ewma, 1'000));
}

TEST(AdaptivePolicy, ExplodesWhenQueueShallow) {
  sched::AdaptivePolicy policy;
  sched::CostEwma ewma;
  ewma.observe(10'000, 1'000);
  // Depth threshold defaults to the worker count.
  EXPECT_TRUE(sched::should_explode(policy, 4, 3, ewma, 1'000));
  EXPECT_FALSE(sched::should_explode(policy, 4, 4, ewma, 1'000));
  policy.depth_threshold = 2;
  EXPECT_FALSE(sched::should_explode(policy, 4, 3, ewma, 1'000));
  EXPECT_TRUE(sched::should_explode(policy, 4, 1, ewma, 1'000));
}

TEST(AdaptivePolicy, ExplodesPredictedStragglers) {
  sched::AdaptivePolicy policy;  // cost_factor 2.0
  sched::CostEwma ewma;
  ewma.observe(10'000, 1'000);  // avg 10'000 ns, 10 ns/byte
  // Deep queue, cheap GOP: run whole.
  EXPECT_FALSE(sched::should_explode(policy, 4, 10, ewma, 1'000));
  // A GOP predicted at >2x the average cost is a straggler: explode.
  EXPECT_TRUE(sched::should_explode(policy, 4, 10, ewma, 2'100));
}

// ---------------------------------------------------------------------------
// Frame-latency objective: percentile math over the recorded latencies.

TEST(AdaptiveLatencyObjective, PercentileInterpolatesOrderStatistics) {
  sched::SimResult r;
  r.frame_latency_ns = {40, 10, 30, 20};  // unsorted on purpose
  EXPECT_EQ(r.latency_percentile(0), 10);
  EXPECT_EQ(r.latency_percentile(100), 40);
  // q=50 over 4 samples: rank 1.5 -> 20 + 0.5*(30-20) = 25.
  EXPECT_EQ(r.latency_percentile(50), 25);
  // q=99 over 4 samples: rank 2.97 -> 30 + 0.97*(40-30) = 39 (truncated).
  EXPECT_EQ(r.latency_percentile(99), 39);
}

TEST(AdaptiveLatencyObjective, EmptyAndSingletonAreWellDefined) {
  sched::SimResult r;
  EXPECT_EQ(r.latency_percentile(99), 0);
  r.frame_latency_ns = {7};
  EXPECT_EQ(r.latency_percentile(0), 7);
  EXPECT_EQ(r.latency_percentile(99), 7);
  EXPECT_EQ(r.latency_percentile(100), 7);
}

// ---------------------------------------------------------------------------
// simulate_adaptive: deterministic, work-conserving, accounts every GOP.

const sched::StreamProfile& sim_profile() {
  static const sched::StreamProfile p = [] {
    streamgen::StreamSpec spec;
    spec.width = 176;
    spec.height = 120;
    spec.gop_size = 13;
    spec.pictures = 39;
    spec.bit_rate = 1'500'000;
    const auto stream = streamgen::generate_stream(spec);
    return sched::profile_stream(stream);
  }();
  return p;
}

TEST(AdaptiveSim, DeterministicAndWorkConserving) {
  const auto& p = sim_profile();
  ASSERT_TRUE(p.ok);
  sched::SimConfig cfg;
  cfg.workers = 4;
  cfg.measured_costs = false;
  const sched::AdaptivePolicy policy;
  const auto a = sched::simulate_adaptive(p, cfg, policy);
  const auto b = sched::simulate_adaptive(p, cfg, policy);
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);
  EXPECT_EQ(a.gop_mode_gops, b.gop_mode_gops);
  EXPECT_EQ(a.exploded_gops, b.exploded_gops);
  EXPECT_EQ(a.stolen_tasks, b.stolen_tasks);
  EXPECT_EQ(a.frame_latency_ns, b.frame_latency_ns);
  // Every picture decoded, every GOP dispatched exactly one way.
  EXPECT_EQ(a.pictures, p.total_pictures());
  EXPECT_EQ(a.gop_mode_gops + a.exploded_gops,
            static_cast<int>(p.gops.size()));
  EXPECT_EQ(a.frame_latency_ns.size(),
            static_cast<std::size_t>(p.total_pictures()));
}

// ---------------------------------------------------------------------------
// The real decoder. Dispatch mode must be invisible in the output.

std::uint64_t sequential_checksum(const std::vector<std::uint8_t>& stream) {
  mpeg2::Decoder dec;
  const auto out = dec.decode(stream);
  EXPECT_TRUE(out.ok);
  std::uint64_t sum = 0;
  for (const auto& f : out.frames) {
    sum = parallel::chain_frame_checksum(sum, *f);
  }
  return sum;
}

RunResult decode_adaptive(const std::vector<std::uint8_t>& stream,
                          int workers, bool quarantine) {
  AdaptiveDecoderConfig cfg;
  cfg.workers = workers;
  cfg.quarantine_gops = quarantine;
  return AdaptiveDecoder(cfg).decode(stream, {});
}

RunResult decode_gop(const std::vector<std::uint8_t>& stream, int workers,
                     bool quarantine) {
  GopDecoderConfig cfg;
  cfg.workers = workers;
  cfg.quarantine_gops = quarantine;
  return GopParallelDecoder(cfg).decode(stream, {});
}

RunResult decode_slice(const std::vector<std::uint8_t>& stream, int workers,
                       bool quarantine) {
  SliceDecoderConfig cfg;
  cfg.workers = workers;
  cfg.quarantine_gops = quarantine;
  return SliceParallelDecoder(cfg).decode(stream, {});
}

TEST(AdaptiveDecoder, MatchesSequentialReferenceOnCleanStream) {
  streamgen::StreamSpec spec;
  spec.width = 176;
  spec.height = 120;
  spec.gop_size = 13;
  spec.pictures = 39;
  spec.bit_rate = 1'500'000;
  const auto stream = streamgen::generate_stream(spec);
  const std::uint64_t reference = sequential_checksum(stream);
  for (const int workers : {1, 2, 4, 8}) {
    const auto r = decode_adaptive(stream, workers, false);
    ASSERT_TRUE(r.ok) << workers << " workers";
    EXPECT_EQ(r.pictures, 39) << workers << " workers";
    EXPECT_EQ(r.checksum, reference) << workers << " workers";
    EXPECT_EQ(r.gop_mode_gops + r.exploded_gops, 3) << workers << " workers";
  }
}

TEST(AdaptiveDecoder, DeliversDisplayOrder) {
  streamgen::StreamSpec spec;
  spec.width = 176;
  spec.height = 120;
  spec.gop_size = 4;
  spec.pictures = 12;
  spec.bit_rate = 1'500'000;
  const auto stream = streamgen::generate_stream(spec);
  AdaptiveDecoderConfig cfg;
  cfg.workers = 4;
  std::vector<int> order;
  const auto r = AdaptiveDecoder(cfg).decode(
      stream, [&](mpeg2::FramePtr f) { order.push_back(f->display_index); });
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(order.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(AdaptiveDecoder, ShallowQueueExplodesDeepQueueRunsWhole) {
  streamgen::StreamSpec spec;
  spec.width = 176;
  spec.height = 120;
  spec.gop_size = 4;
  spec.pictures = 32;  // 8 GOPs
  spec.bit_rate = 1'500'000;
  const auto stream = streamgen::generate_stream(spec);
  // depth_threshold 1: a GOP explodes only when nothing else is queued.
  // With 8 GOPs racing 2 workers the queue is deep almost always, so most
  // GOPs must run whole once the EWMA calibrates.
  AdaptiveDecoderConfig cfg;
  cfg.workers = 2;
  cfg.depth_threshold = 1;
  cfg.cost_factor = 1e9;  // straggler rule off
  const auto r = AdaptiveDecoder(cfg).decode(stream, {});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.gop_mode_gops + r.exploded_gops, 8);
  EXPECT_GT(r.gop_mode_gops, 0);
  // Forced-explode counterpart: an enormous depth threshold.
  AdaptiveDecoderConfig latency;
  latency.workers = 2;
  latency.depth_threshold = 1'000'000;
  const auto l = AdaptiveDecoder(latency).decode(stream, {});
  ASSERT_TRUE(l.ok);
  EXPECT_EQ(l.exploded_gops, 8);
  EXPECT_EQ(l.gop_mode_gops, 0);
  EXPECT_EQ(l.checksum, r.checksum);  // dispatch mode invisible
}

TEST(AdaptiveDecoder, FourWorkersBindProfilerSlotsConcurrently) {
  // Every worker and the scan producer bind their own profiler slot at
  // the same time; under TSan this proves bind() shares no state.
  streamgen::StreamSpec spec;
  spec.width = 176;
  spec.height = 120;
  spec.gop_size = 4;
  spec.pictures = 16;
  spec.bit_rate = 1'500'000;
  const auto stream = streamgen::generate_stream(spec);
  const std::uint64_t reference = sequential_checksum(stream);
  for (const bool adaptive : {true, false}) {
    obs::prof::StageProfiler prof(
        std::make_unique<obs::prof::SoftwareCounterSource>(), 5);
    RunResult r;
    if (adaptive) {
      AdaptiveDecoderConfig cfg;
      cfg.workers = 4;
      cfg.prof = &prof;
      r = AdaptiveDecoder(cfg).decode(stream, {});
    } else {
      GopDecoderConfig cfg;
      cfg.workers = 4;
      cfg.prof = &prof;
      r = GopParallelDecoder(cfg).decode(stream, {});
    }
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.checksum, reference);
    const obs::prof::ProfSummary summary = prof.aggregate();
    EXPECT_EQ(summary.workers, 5) << "4 workers + the scan slot";
    EXPECT_GT(summary.stages[static_cast<int>(obs::prof::Stage::kScan)].enters,
              0u);
  }
}

// ---------------------------------------------------------------------------
// Checksum matrix: all 16 Table-1 stream shapes, clean and faulted. The
// picture counts are bounded for test speed; every GOP size still
// exercises its dispatch shape (gop4 explodes often, gop31 rarely).

struct MatrixStream {
  streamgen::StreamSpec spec;
  std::vector<std::uint8_t> clean;
  std::vector<std::uint8_t> faulted;  // clean + one stomped slice
};

void corrupt_middle_slice(std::vector<std::uint8_t>& stream);

/// The 16 Table-1 shapes with bounded picture counts, generated once and
/// shared by the clean and faulted matrix tests (stream generation, not
/// decoding, dominates their budget). Two GOPs for the small resolutions
/// (cross-GOP scheduling), a single bounded GOP for the large ones.
const std::vector<MatrixStream>& matrix_streams() {
  static const std::vector<MatrixStream> streams = [] {
    std::vector<MatrixStream> out;
    for (auto spec : streamgen::table1_specs(0)) {
      spec.pictures = spec.width <= 352 ? 2 * spec.gop_size
                                        : std::min(spec.gop_size, 13);
      MatrixStream ms;
      ms.spec = spec;
      ms.clean = streamgen::generate_stream(spec);
      ms.faulted = ms.clean;
      corrupt_middle_slice(ms.faulted);
      out.push_back(std::move(ms));
    }
    return out;
  }();
  return streams;
}

/// Stomps the payload of one slice in the middle of the last GOP (startcode
/// kept): a guaranteed syntax error with no startcode emulation.
void corrupt_middle_slice(std::vector<std::uint8_t>& stream) {
  const auto s = mpeg2::scan_structure(stream);
  ASSERT_TRUE(s.valid);
  const auto& gop = s.gops.back();
  const auto& info = gop.pictures[gop.pictures.size() / 2];
  ASSERT_FALSE(info.slices.empty());
  const auto offset = info.slices[info.slices.size() / 2].offset;
  std::uint64_t end = stream.size();
  for (const auto& sc : scan_all_startcodes(stream)) {
    if (sc.byte_offset > offset) {
      end = sc.byte_offset;
      break;
    }
  }
  for (std::uint64_t i = offset + 5; i < end; ++i) stream[i] = 0xFF;
}

TEST(AdaptiveChecksumMatrix, AllStreamsMatchCleanAndFaulted) {
  // One test (not one per variant): generation dominates the budget and
  // ctest runs each TEST in its own process, so splitting would pay for
  // the 16 streams twice.
  for (const auto& ms : matrix_streams()) {
    const std::uint64_t reference = sequential_checksum(ms.clean);
    const auto a = decode_adaptive(ms.clean, 4, false);
    const auto g = decode_gop(ms.clean, 4, false);
    const auto s = decode_slice(ms.clean, 4, false);
    ASSERT_TRUE(a.ok && g.ok && s.ok) << ms.spec.name();
    EXPECT_EQ(a.checksum, reference) << ms.spec.name();
    EXPECT_EQ(g.checksum, reference) << ms.spec.name();
    EXPECT_EQ(s.checksum, reference) << ms.spec.name();

    const auto fa = decode_adaptive(ms.faulted, 4, true);
    const auto fg = decode_gop(ms.faulted, 4, true);
    const auto fs = decode_slice(ms.faulted, 4, true);
    ASSERT_TRUE(fa.ok && fg.ok && fs.ok) << ms.spec.name();
    EXPECT_GE(fa.concealed_slices, 1) << ms.spec.name();
    EXPECT_EQ(fa.checksum, fg.checksum) << ms.spec.name();
    EXPECT_EQ(fs.checksum, fg.checksum) << ms.spec.name();
  }
}

TEST(AdaptiveChecksumMatrix, InjectedFaultsPreserveDispatchEquivalence) {
  // Randomized faults from the soak corruptor (deterministic plan): the
  // dispatch-equivalence invariant must hold whenever both runs complete.
  streamgen::StreamSpec spec;
  spec.width = 176;
  spec.height = 120;
  spec.gop_size = 13;
  spec.pictures = 39;
  spec.bit_rate = 1'500'000;
  const auto stream = streamgen::generate_stream(spec);
  int compared = 0;
  for (std::uint64_t i = 0; i < 24; ++i) {
    const auto fault = inject::plan_fault(/*seed=*/0x5eed, i);
    const auto corrupt = inject::apply_fault(stream, fault);
    const auto a = decode_adaptive(corrupt, 4, true);
    const auto g = decode_gop(corrupt, 4, true);
    if (!a.ok || !g.ok) continue;
    EXPECT_EQ(a.checksum, g.checksum) << fault.name();
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

// ---------------------------------------------------------------------------
// Claim-path stress (TSan target): repeated contended decodes must be
// deterministic and mode-independent.

TEST(AdaptiveStress, ContendedStealPathsStayDeterministic) {
  streamgen::StreamSpec spec;
  spec.width = 176;
  spec.height = 120;
  spec.gop_size = 4;
  spec.pictures = 24;  // 6 GOPs across 8 workers: constant contention
  spec.bit_rate = 1'500'000;
  auto stream = streamgen::generate_stream(spec);
  corrupt_middle_slice(stream);  // recovery paths under contention too
  const auto first = decode_adaptive(stream, 8, true);
  ASSERT_TRUE(first.ok);
  const auto reference = decode_gop(stream, 8, true);
  ASSERT_TRUE(reference.ok);
  EXPECT_EQ(first.checksum, reference.checksum);
  for (int rep = 0; rep < 10; ++rep) {
    const auto r = decode_adaptive(stream, 8, true);
    ASSERT_TRUE(r.ok) << "rep " << rep;
    EXPECT_EQ(r.checksum, first.checksum) << "rep " << rep;
    EXPECT_EQ(r.pictures, 24) << "rep " << rep;
  }
}

}  // namespace
}  // namespace pmp2
