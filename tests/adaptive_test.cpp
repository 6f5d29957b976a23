// Adaptive granularity scheduler tests: the cost EWMA, the frame-latency
// objective, the virtual-time simulator's determinism, work conservation
// and idle-worker split rule, and the
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
#include <string>
#include <utility>
#include <vector>

#include "bitstream/startcode.h"
#include "inject/fault.h"
#include "mpeg2/decoder.h"
#include "obs/prof/counters.h"
#include "obs/prof/stage_prof.h"
#include "obs/tracer.h"
#include "parallel/adaptive/adaptive_decoder.h"
#include "parallel/display.h"
#include "parallel/gop_decoder.h"
#include "parallel/slice_parallel.h"
#include "sched/adaptive.h"
#include "sched/profile.h"
#include "sched/sim.h"
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
// CostEwma: the cost predictor behind the fairness charge.

TEST(AdaptivePolicy, EwmaStartsUncalibratedThenTracksRate) {
  sched::CostEwma ewma;
  EXPECT_EQ(ewma.predict(1000), -1);
  ewma.observe(10'000, 1'000);  // 10 ns/byte
  EXPECT_EQ(ewma.predict(2'000), 20'000);
  // Second observation at 20 ns/byte with alpha 0.3: 0.7*10 + 0.3*20 = 13.
  ewma.observe(20'000, 1'000);
  EXPECT_EQ(ewma.predict(1'000), 13'000);
}

TEST(AdaptivePolicy, EwmaIgnoresDegenerateObservations) {
  sched::CostEwma ewma;
  ewma.observe(0, 1'000);
  ewma.observe(1'000, 0);
  ewma.observe(-5, 1'000);
  EXPECT_EQ(ewma.predict(1'000), -1);
  ewma.observe(10'000, 1'000);
  ewma.observe(-5, 1'000);  // ignored: the rate stays 10 ns/byte
  EXPECT_EQ(ewma.predict(1'000), 10'000);
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
// The simulator at adaptive granularity: deterministic, work-conserving,
// accounts every GOP.

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
  cfg.granularity = sched::Granularity::kAdaptive;
  const auto a = sched::simulate(p, cfg);
  const auto b = sched::simulate(p, cfg);
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);
  EXPECT_EQ(a.gop_mode_gops, b.gop_mode_gops);
  EXPECT_EQ(a.exploded_gops, b.exploded_gops);
  EXPECT_EQ(a.frame_latency_ns, b.frame_latency_ns);
  // Every picture decoded, every GOP dispatched exactly one way.
  EXPECT_EQ(a.pictures, p.total_pictures());
  EXPECT_EQ(a.gop_mode_gops + a.exploded_gops,
            static_cast<int>(p.gops.size()));
  EXPECT_EQ(a.frame_latency_ns.size(),
            static_cast<std::size_t>(p.total_pictures()));
}

// The idle-worker rule. One worker is never idle while a GOP is claimed,
// so kAdaptive at one worker is exactly kWholeGop, and kWholeGop never
// splits at any worker count.
TEST(AdaptiveSim, NeverSplitsAtOneWorkerOrUnderWholeGop) {
  const auto& p = sim_profile();
  const int gops = static_cast<int>(p.gops.size());
  sched::SimConfig cfg;
  cfg.workers = 1;
  cfg.granularity = sched::Granularity::kAdaptive;
  const auto adaptive = sched::simulate(p, cfg);
  EXPECT_EQ(adaptive.exploded_gops, 0);
  EXPECT_EQ(adaptive.gop_mode_gops, gops);
  cfg.granularity = sched::Granularity::kWholeGop;
  const auto whole = sched::simulate(p, cfg);
  EXPECT_EQ(adaptive.makespan_ns, whole.makespan_ns);
  EXPECT_EQ(adaptive.peak_memory, whole.peak_memory);
  EXPECT_EQ(adaptive.peak_stream_bytes, whole.peak_stream_bytes);
  EXPECT_EQ(adaptive.frame_latency_ns, whole.frame_latency_ns);
  for (const int workers : {2, 4, 8}) {
    cfg.workers = workers;
    const auto r = sched::simulate(p, cfg);
    EXPECT_EQ(r.exploded_gops, 0) << workers << " workers";
    EXPECT_EQ(r.gop_mode_gops, gops) << workers << " workers";
  }
}

// Three GOPs, all queued at once, on two workers: both workers start a
// GOP whole (neither is idle), the first to finish takes the third whole,
// and once the other finishes and finds nothing to claim, the third GOP
// splits at its next picture boundary. Every picture runs exactly once:
// whole inside a claim, or after the split as one task per slice.
TEST(AdaptiveSim, SplitsMidGopWhenAWorkerGoesIdle) {
  const auto& p = sim_profile();
  ASSERT_EQ(p.gops.size(), 3u);
  sched::SimConfig cfg;
  cfg.workers = 2;
  cfg.model_scan = false;
  cfg.granularity = sched::Granularity::kAdaptive;
  obs::Tracer tracer(cfg.workers);
  cfg.tracer = &tracer;
  const auto r = sched::simulate(p, cfg);
  EXPECT_EQ(r.gop_mode_gops, 2);
  EXPECT_EQ(r.exploded_gops, 1);

  // Whole-claim picture spans carry the display index, slice spans the
  // decode index: index everything by decode order.
  std::vector<const sched::PictureCost*> pics;
  std::vector<int> decode_of_display(
      static_cast<std::size_t>(p.total_pictures()), -1);
  int display_base = 0;
  for (const auto& gop : p.gops) {
    for (const auto& pc : gop.pictures) {
      decode_of_display[static_cast<std::size_t>(display_base +
                                                 pc.temporal_reference)] =
          static_cast<int>(pics.size());
      pics.push_back(&pc);
    }
    display_base += static_cast<int>(gop.pictures.size());
  }
  const int gop2_first =
      static_cast<int>(p.gops[0].pictures.size() + p.gops[1].pictures.size());
  std::vector<int> whole_runs(pics.size(), 0);
  std::vector<std::vector<int>> slices(pics.size());
  for (std::size_t i = 0; i < pics.size(); ++i) {
    slices[i].assign(pics[i]->slices.size(), 0);
  }
  int whole_claims = 0;
  std::vector<obs::Span> gop2_claim, gop2_pictures;
  for (int w = 0; w < cfg.workers; ++w) {
    for (const obs::Span& span : tracer.track(w).spans()) {
      if (span.kind == obs::SpanKind::kPicture) {
        ASSERT_GE(span.picture, 0);
        ++whole_runs[static_cast<std::size_t>(
            decode_of_display[static_cast<std::size_t>(span.picture)])];
        if (span.gop == 2) gop2_pictures.push_back(span);
      } else if (span.kind == obs::SpanKind::kSliceTask) {
        ASSERT_GE(span.picture, gop2_first);  // only GOP 2 splits
        auto& runs = slices[static_cast<std::size_t>(span.picture)];
        ASSERT_LT(span.slice, static_cast<int>(runs.size()));
        ++runs[static_cast<std::size_t>(span.slice)];
      } else if (span.kind == obs::SpanKind::kGopTask) {
        ++whole_claims;
        if (span.gop == 2) gop2_claim.push_back(span);
      }
    }
  }
  int split_pictures = 0;
  for (std::size_t i = 0; i < pics.size(); ++i) {
    const bool sliced = std::any_of(slices[i].begin(), slices[i].end(),
                                    [](int n) { return n > 0; });
    split_pictures += sliced ? 1 : 0;
    EXPECT_EQ(whole_runs[i], sliced ? 0 : 1) << "picture " << i;
    for (std::size_t s = 0; sliced && s < slices[i].size(); ++s) {
      EXPECT_EQ(slices[i][s], 1) << "picture " << i << " slice " << s;
    }
  }
  EXPECT_EQ(whole_claims, 3);  // the split GOP's claim ends at the split
  ASSERT_EQ(gop2_claim.size(), 1u);
  const int in_claim = static_cast<int>(gop2_pictures.size());
  const int n = static_cast<int>(p.gops[2].pictures.size());
  EXPECT_TRUE(std::all_of(
      gop2_pictures.begin(), gop2_pictures.end(),
      [&](const obs::Span& s) { return s.end_ns <= gop2_claim[0].end_ns; }));
  EXPECT_GT(in_claim, 0);
  EXPECT_LT(in_claim, n);
  EXPECT_EQ(in_claim + split_pictures, n);

  // Work conservation: with no per-picture overhead, the split costs
  // exactly the pictures the whole-GOP run decodes.
  cfg.tracer = nullptr;
  cfg.picture_overhead_ns = 0;
  const auto split = sched::simulate(p, cfg);
  cfg.granularity = sched::Granularity::kWholeGop;
  const auto whole = sched::simulate(p, cfg);
  std::int64_t split_busy = 0, whole_busy = 0;
  for (const auto& w : split.workers) split_busy += w.busy_ns;
  for (const auto& w : whole.workers) whole_busy += w.busy_ns;
  EXPECT_EQ(split_busy, whole_busy);
  EXPECT_LT(split.makespan_ns, whole.makespan_ns);
}

// Golden results of the whole-GOP and slice granularities, pinned when
// each still had its own event loop. The calibration and scan rate are
// pinned too (profile_stream measures both), so every run of every host
// must reproduce these strings exactly. Per worker: tasks/remote
// tasks/busy+sync (the queue access is a single rule, but which side of
// the busy/sync split it lands on is a documented choice, not a result).
std::string sim_digest(const sched::SimResult& r) {
  std::string out = "ms=" + std::to_string(r.makespan_ns) +
                    " pk=" + std::to_string(r.peak_memory) +
                    " st=" + std::to_string(r.peak_stream_bytes) +
                    " cs=" + std::to_string(r.concealed_slices) + " |";
  for (const auto& w : r.workers) {
    out += " " + std::to_string(w.tasks) + "/" +
           std::to_string(w.remote_tasks) + "/" +
           std::to_string(w.busy_ns + w.sync_ns);
  }
  return out;
}

TEST(AdaptiveSim, PinnedGopAndSliceResults) {
  sched::StreamProfile p = sched::replicate_profile(sim_profile(), 156);
  ASSERT_TRUE(p.ok);
  p.ns_per_unit = 100.0;
  p.scan_ns = static_cast<std::int64_t>(p.stream_bytes);  // 1 byte/ns

  enum class Kind { kGop, kSimple, kImproved };
  auto run = [&](Kind kind, sched::SimConfig cfg) {
    if (kind != Kind::kGop) {
      cfg.granularity = sched::Granularity::kSlice;
      if (kind == Kind::kSimple) cfg.max_open_pictures = 1;
    }
    return sched::simulate(p, cfg);
  };
  struct Case {
    const char* name;
    Kind kind;
    sched::SimConfig cfg;
  };
  std::vector<Case> cases;
  for (const auto& [name, kind] :
       {std::pair{"gop", Kind::kGop}, std::pair{"simple", Kind::kSimple},
        std::pair{"improved", Kind::kImproved}}) {
    for (const int workers : {1, 4, 14}) {
      sched::SimConfig cfg;
      cfg.workers = workers;
      cases.push_back({name, kind, cfg});
    }
    sched::SimConfig faulted;
    faulted.workers = 4;
    faulted.fault_slice_rate = 0.05;
    cases.push_back({name, kind, faulted});
  }
  sched::SimConfig numa;
  numa.workers = 8;
  numa.cluster_size = 4;
  numa.remote_penalty = 1.5;
  cases.push_back({"gop", Kind::kGop, numa});
  cases.push_back({"improved", Kind::kImproved, numa});
  numa.numa_local_queues = true;
  cases.push_back({"gop", Kind::kGop, numa});
  sched::SimConfig bounded;
  bounded.workers = 4;
  bounded.max_queued_gops = 1;
  cases.push_back({"gop", Kind::kGop, bounded});
  sched::SimConfig paced;  // the Fig. 8 memory configuration
  paced.workers = 4;
  paced.paced_display = true;
  paced.cost_scale = 20.0;
  cases.push_back({"gop", Kind::kGop, paced});
  cases.push_back({"improved", Kind::kImproved, paced});

  const std::vector<std::string> expected = {
      "ms=676240712 pk=758132 st=318836 cs=0 | 12/0/676240712",
      "ms=170140505 pk=2076020 st=318836 cs=0 | 3/0/168120512"
      " 3/0/170140505 3/0/169058609 3/0/169159321",
      "ms=57012832 pk=5590388 st=318836 cs=0 | 1/0/55712812"
      " 1/0/56773705 1/0/56725709 1/0/55792521 1/0/56853414"
      " 1/0/56805418 1/0/55872230 1/0/56933123 1/0/56885127"
      " 1/0/55951939 1/0/57012832 1/0/56964836 0/0/0 0/0/0",
      "ms=162191221 pk=2042228 st=318836 cs=62 | 3/0/158490912"
      " 3/0/161585905 3/0/160829109 3/0/162191221",
      "ms=680596712 pk=101376 st=0 cs=0 | 1248/0/680596712",
      "ms=190777112 pk=101376 st=0 cs=0 | 312/0/190549912"
      " 312/0/190580412 312/0/190619312 312/0/190777112",
      "ms=111476712 pk=101376 st=0 cs=0 | 92/0/110554112"
      " 93/0/111379212 91/0/111325912 90/0/110634412 91/0/110557412"
      " 78/0/110787512 88/0/111226712 90/0/110538012 92/0/110561812"
      " 96/0/111324212 91/0/111232812 88/0/111342612 90/0/111320612"
      " 78/0/111476712",
      "ms=188389012 pk=101376 st=0 cs=62 | 313/0/187718212"
      " 314/0/188389012 310/0/187719212 311/0/188143712",
      "ms=680596712 pk=168960 st=0 cs=0 | 1248/0/680596712",
      "ms=176743312 pk=168960 st=0 cs=0 | 312/0/176587112"
      " 312/0/176743312 312/0/176701312 312/0/176516412",
      "ms=69771112 pk=168960 st=0 cs=0 | 89/0/69568812 92/0/69418012"
      " 90/0/69471312 90/0/69412712 89/0/69383512 88/0/69416312"
      " 88/0/69386812 91/0/69616912 88/0/69367412 90/0/69391212"
      " 87/0/69765612 85/0/69463812 88/0/69434712 93/0/69771112",
      "ms=171212512 pk=168960 st=0 cs=62 | 306/0/170824612"
      " 309/0/171212512 322/0/171087412 311/0/170818112",
      "ms=141886118 pk=4064611 st=318836 cs=0 | 2/0/112358812"
      " 1/1/85133605 2/1/140255559 1/1/83635471 1/1/85213314"
      " 2/1/141886118 1/1/83715180 2/0/113579123",
      "ms=127599512 pk=168960 st=0 cs=0 | 156/78/127446162"
      " 158/78/127382612 155/78/127394212 155/78/127311712"
      " 155/78/127499412 155/78/127599512 158/78/127319162"
      " 156/78/127267062",
      "ms=141694209 pk=3833204 st=318836 cs=0 | 2/0/112358812"
      " 2/1/141694209 1/0/56853414 2/0/112593030 1/0/56773705"
      " 2/0/111479421 1/0/56805418 1/0/56933123",
      "ms=170140505 pk=1924482 st=133695 cs=0 | 3/0/168120512"
      " 3/0/170140505 3/0/169058609 3/0/169159321",
      "ms=5914237192 pk=2742289 st=318836 cs=0 | 3/0/3362353240"
      " 3/0/3402753100 3/0/3381115180 3/0/3383129420",
      "ms=5195177522 pk=1757184 st=0 cs=0 | 313/0/3518216240"
      " 311/0/3523134240 312/0/3522236240 312/0/3519688240",
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::string got = sim_digest(run(cases[i].kind, cases[i].cfg));
    EXPECT_EQ(got, expected[i]) << cases[i].name << " case " << i;
  }
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

RunResult decode_slice(
    const std::vector<std::uint8_t>& stream, int workers, bool quarantine,
    parallel::SlicePolicy policy = parallel::SlicePolicy::kImproved) {
  SliceDecoderConfig cfg;
  cfg.workers = workers;
  cfg.quarantine_gops = quarantine;
  cfg.policy = policy;
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

TEST(AdaptiveDecoder, SplitsOnlyWhenAWorkerIsIdle) {
  streamgen::StreamSpec spec;
  spec.width = 176;
  spec.height = 120;
  spec.gop_size = 4;
  spec.pictures = 32;  // 8 GOPs
  spec.bit_rate = 1'500'000;
  const auto stream = streamgen::generate_stream(spec);
  const auto reference = decode_gop(stream, 2, false);
  ASSERT_TRUE(reference.ok);
  // One worker is never idle while it holds a GOP: nothing splits.
  const auto one = decode_adaptive(stream, 1, false);
  ASSERT_TRUE(one.ok);
  EXPECT_EQ(one.exploded_gops, 0);
  EXPECT_EQ(one.gop_mode_gops, 8);
  EXPECT_EQ(one.checksum, reference.checksum);
  // More workers: every GOP still runs exactly one way, and where it
  // split (thread timing decides) is invisible in the output.
  for (const int workers : {2, 4}) {
    const auto r = decode_adaptive(stream, workers, false);
    ASSERT_TRUE(r.ok) << workers << " workers";
    EXPECT_EQ(r.gop_mode_gops + r.exploded_gops, 8) << workers << " workers";
    EXPECT_EQ(r.checksum, reference.checksum) << workers << " workers";
  }
}

TEST(AdaptiveDecoder, FourWorkersBindProfilerSlotsConcurrently) {
  // Every worker binds its own profiler slot at the same time; under TSan
  // this proves bind() shares no state. Workers also run the scan tasks,
  // so the scan stage lands in worker slots.
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
    EXPECT_EQ(summary.workers, 4) << "one slot per worker, none for scan";
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
  // The slice decoder runs each plan three times under each policy: a
  // damaged slice that wrote outside its row used to race another row's
  // task, so its output varied from run to run.
  streamgen::StreamSpec spec;
  spec.width = 176;
  spec.height = 120;
  spec.gop_size = 13;
  spec.pictures = 39;
  spec.bit_rate = 1'500'000;
  const auto stream = streamgen::generate_stream(spec);
  int compared = 0;
  int slice_compared = 0;
  for (std::uint64_t i = 0; i < 24; ++i) {
    const auto fault = inject::plan_fault(/*seed=*/0x5eed, i);
    const auto corrupt = inject::apply_fault(stream, fault);
    const auto g = decode_gop(corrupt, 4, true);
    if (!g.ok) continue;
    const auto a = decode_adaptive(corrupt, 4, true);
    if (a.ok) {
      EXPECT_EQ(a.checksum, g.checksum) << fault.name();
      ++compared;
    }
    for (const auto policy :
         {parallel::SlicePolicy::kSimple, parallel::SlicePolicy::kImproved}) {
      for (int run = 0; run < 3; ++run) {
        const auto s = decode_slice(corrupt, 4, true, policy);
        if (!s.ok) continue;
        EXPECT_EQ(s.checksum, g.checksum)
            << fault.name() << " policy " << static_cast<int>(policy)
            << " run " << run;
        ++slice_compared;
      }
    }
  }
  EXPECT_GT(compared, 0);
  EXPECT_GT(slice_compared, 0);
}

// ---------------------------------------------------------------------------
// Claim-path stress (TSan target): repeated contended decodes must be
// deterministic and mode-independent.

TEST(AdaptiveStress, ContendedClaimPathsStayDeterministic) {
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
