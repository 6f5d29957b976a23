// Additional scheduler-simulator properties: profile replication,
// cost scaling, scan modelling, and parameterized policy sweeps.
#include <gtest/gtest.h>

#include "sched/profile.h"
#include "sched/sim.h"
#include "streamgen/stream_factory.h"

namespace pmp2::sched {
namespace {

/// The paper's slice decoders: the simple policy opens one picture at a
/// time, the improved one max_open_pictures.
SimConfig improved_slice(SimConfig cfg) {
  cfg.granularity = Granularity::kSlice;
  return cfg;
}
SimConfig simple_slice(SimConfig cfg) {
  cfg.max_open_pictures = 1;
  return improved_slice(cfg);
}

const StreamProfile& base_profile() {
  static const StreamProfile p = [] {
    streamgen::StreamSpec spec;
    spec.width = 176;
    spec.height = 120;
    spec.gop_size = 4;
    spec.pictures = 16;
    spec.bit_rate = 1'500'000;
    const auto stream = streamgen::generate_stream(spec);
    return profile_stream(stream);
  }();
  return p;
}

TEST(ReplicateProfile, ReachesTargetAndPreservesStructure) {
  const auto& base = base_profile();
  const StreamProfile big = replicate_profile(base, 160);
  EXPECT_GE(big.total_pictures(), 160);
  EXPECT_EQ(big.total_pictures() % 16, 0);  // whole replicas of 4-GOP units
  EXPECT_EQ(big.ns_per_unit, base.ns_per_unit);
  EXPECT_EQ(big.slices_per_picture, base.slices_per_picture);
  // Scan rate preserved: scan_ns scales with stream_bytes.
  const double base_rate =
      static_cast<double>(base.stream_bytes) / base.scan_ns;
  const double big_rate = static_cast<double>(big.stream_bytes) / big.scan_ns;
  EXPECT_NEAR(big_rate / base_rate, 1.0, 0.01);
}

TEST(ReplicateProfile, NoOpWhenAlreadyBigEnough) {
  const auto& base = base_profile();
  const StreamProfile same = replicate_profile(base, 4);
  EXPECT_EQ(same.total_pictures(), base.total_pictures());
  EXPECT_EQ(same.gops.size(), base.gops.size());
}

TEST(CostScale, SlowsThroughputProportionally) {
  const auto profile = replicate_profile(base_profile(), 64);
  SimConfig fast;
  fast.workers = 4;
  SimConfig slow = fast;
  slow.cost_scale = 10.0;
  const double pps_fast = simulate(profile, fast).pictures_per_second();
  const double pps_slow = simulate(profile, slow).pictures_per_second();
  EXPECT_NEAR(pps_fast / pps_slow, 10.0, 1.5);
}

TEST(CostScale, DoesNotChangeSpeedupShape) {
  // Speedups are ratios: scaling all costs must leave them (nearly) alone.
  const auto profile = replicate_profile(base_profile(), 64);
  auto speedup_at = [&](double scale) {
    SimConfig one;
    one.workers = 1;
    one.cost_scale = scale;
    SimConfig four = one;
    four.workers = 4;
    return simulate(profile, four).pictures_per_second() /
           simulate(profile, one).pictures_per_second();
  };
  EXPECT_NEAR(speedup_at(1.0), speedup_at(8.0), 0.2);
}

TEST(ScanModel, SlowScanBottlenecksThroughput) {
  const auto profile = replicate_profile(base_profile(), 64);
  SimConfig cfg;
  cfg.workers = 8;
  cfg.model_scan = true;
  // Scan slower than 8 workers' decode rate: throughput pinned to scan.
  cfg.scan_bytes_per_ns = 1e-6;  // 1 KB/ms: absurdly slow
  const SimResult starved = simulate(profile, cfg);
  cfg.scan_bytes_per_ns = 1.0;  // 1 GB/s
  const SimResult fed = simulate(profile, cfg);
  EXPECT_LT(starved.pictures_per_second(), fed.pictures_per_second() / 4);
  // Workers starved by the scan accumulate sync (waiting) time.
  std::int64_t sync = 0;
  for (const auto& w : starved.workers) sync += w.sync_ns;
  EXPECT_GT(sync, 0);
}

TEST(ScanModel, DisabledMakesAllTasksImmediate) {
  const auto profile = replicate_profile(base_profile(), 64);
  SimConfig with;
  with.workers = 4;
  SimConfig without = with;
  without.model_scan = false;
  EXPECT_GE(
      simulate(profile, improved_slice(without)).pictures_per_second(),
      simulate(profile, improved_slice(with)).pictures_per_second() * 0.999);
}

/// The swept dispatch: the paper's two slice policies (their values keep
/// the instance names), whole GOPs, and the adaptive granularity.
enum class Dispatch : int {
  kSimpleSlice,
  kImprovedSlice,
  kWholeGop,
  kAdaptive
};

SimConfig dispatch_config(Dispatch dispatch) {
  SimConfig cfg;
  switch (dispatch) {
    case Dispatch::kSimpleSlice:
      return simple_slice(cfg);
    case Dispatch::kImprovedSlice:
      return improved_slice(cfg);
    case Dispatch::kWholeGop:
      cfg.granularity = Granularity::kWholeGop;
      break;
    case Dispatch::kAdaptive:
      cfg.granularity = Granularity::kAdaptive;
      break;
  }
  return cfg;
}

class PolicySweep
    : public ::testing::TestWithParam<std::tuple<int, Dispatch>> {};

TEST_P(PolicySweep, InvariantsHold) {
  const auto profile = replicate_profile(base_profile(), 48);
  SimConfig cfg = dispatch_config(std::get<1>(GetParam()));
  cfg.workers = std::get<0>(GetParam());
  const SimResult r = simulate(profile, cfg);
  // Work conservation: every GOP dispatched once, whole or as its tasks
  // (the profile's GOPs are all the same size), every slice run once.
  const int gops = static_cast<int>(profile.gops.size());
  const int pictures = profile.total_pictures();
  const int slices = pictures * profile.slices_per_picture;
  int tasks = 0;
  std::int64_t busy = 0;
  for (const auto& w : r.workers) {
    tasks += w.tasks;
    busy += w.busy_ns;
    EXPECT_GE(w.sync_ns, 0);
  }
  EXPECT_EQ(r.gop_mode_gops + r.exploded_gops, gops);
  if (cfg.granularity == Granularity::kAdaptive) {
    // A GOP split at its pop is one task per slice; one split later is its
    // whole claim (at least one picture) plus a task per slice of every
    // picture left (at least one).
    const int per_picture = profile.slices_per_picture;
    EXPECT_GE(tasks, r.gop_mode_gops + r.exploded_gops * (1 + per_picture));
    EXPECT_LE(tasks, r.gop_mode_gops + r.exploded_gops * (slices / gops));
    if (cfg.workers == 1) {
      EXPECT_EQ(r.exploded_gops, 0);
    }
  } else {
    EXPECT_EQ(tasks, r.gop_mode_gops + r.exploded_gops * (slices / gops));
  }
  EXPECT_GT(busy, 0);
  // Makespan bounds: at least the critical path of one picture, at most
  // the serial sum (plus overheads).
  EXPECT_GT(r.makespan_ns, 0);
  EXPECT_LE(r.pictures_per_second(),
            1e9 * cfg.workers * profile.total_pictures() /
                static_cast<double>(busy) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndPolicies, PolicySweep,
    ::testing::Combine(::testing::Values(1, 2, 5, 9, 16),
                       ::testing::Values(Dispatch::kSimpleSlice,
                                         Dispatch::kImprovedSlice,
                                         Dispatch::kWholeGop,
                                         Dispatch::kAdaptive)));

TEST(NumaSweep, PenaltyMonotone) {
  const auto profile = replicate_profile(base_profile(), 64);
  double prev = 1e18;
  for (const double penalty : {1.0, 1.3, 1.6, 2.0, 3.0}) {
    SimConfig cfg;
    cfg.workers = 8;
    cfg.cluster_size = 4;
    cfg.remote_penalty = penalty;
    const double pps =
        simulate(profile, improved_slice(cfg))
            .pictures_per_second();
    EXPECT_LE(pps, prev * 1.001) << penalty;
    prev = pps;
  }
}

TEST(NumaSweep, LocalQueuesBeatSharedQueueOnRemoteCount) {
  // With a shared queue, variable GOP costs steadily de-align workers from
  // the round-robin task homes, so a good fraction of tasks run remote;
  // per-cluster queues eliminate nearly all of that.
  const auto profile = replicate_profile(base_profile(), 64);
  SimConfig shared_q;
  shared_q.workers = 4;
  shared_q.cluster_size = 1;  // 4 clusters of one processor
  shared_q.remote_penalty = 2.0;
  auto local_q = shared_q;
  local_q.numa_local_queues = true;
  auto remote_count = [](const SimResult& r) {
    int n = 0;
    for (const auto& w : r.workers) n += w.remote_tasks;
    return n;
  };
  const int shared_remote = remote_count(simulate(profile, shared_q));
  const int local_remote = remote_count(simulate(profile, local_q));
  EXPECT_GT(shared_remote, 0);
  EXPECT_LT(local_remote, shared_remote);
}

TEST(MemoryTimeline, MonotoneTimeAndDrainsToZero) {
  const auto profile = replicate_profile(base_profile(), 64);
  for (const auto granularity :
       {Granularity::kWholeGop, Granularity::kAdaptive, Granularity::kSlice}) {
    SCOPED_TRACE(static_cast<int>(granularity));
    SimConfig cfg;
    cfg.workers = 4;
    cfg.paced_display = true;
    cfg.granularity = granularity;
    const SimResult r = simulate(profile, cfg);
    ASSERT_FALSE(r.memory_timeline.empty());
    std::int64_t prev_t = -1;
    for (const auto& s : r.memory_timeline) {
      EXPECT_GT(s.t_ns, prev_t);
      prev_t = s.t_ns;
      EXPECT_GE(s.bytes, 0);
    }
    EXPECT_EQ(r.memory_timeline.back().bytes, 0);
    EXPECT_EQ(r.peak_memory,
              std::max_element(r.memory_timeline.begin(),
                               r.memory_timeline.end(),
                               [](const MemSample& a, const MemSample& b) {
                                 return a.bytes < b.bytes;
                               })
                  ->bytes);
  }
}

}  // namespace
}  // namespace pmp2::sched
