// Virtual-time scheduler-simulator tests: work conservation, speedup
// bounds, the paper's qualitative properties (slice knees, improved-policy
// advantage, NUMA penalty), all on deterministic work-unit costs.
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

const StreamProfile& profile_176() {
  static const StreamProfile p = [] {
    streamgen::StreamSpec spec;
    spec.width = 176;
    spec.height = 120;
    spec.gop_size = 13;
    spec.pictures = 39;
    spec.bit_rate = 1'500'000;
    const auto stream = streamgen::generate_stream(spec);
    return profile_stream(stream);
  }();
  return p;
}

SimConfig base_config(int workers) {
  SimConfig cfg;
  cfg.workers = workers;
  cfg.measured_costs = false;  // deterministic
  return cfg;
}

TEST(Profile, CapturesStructure) {
  const auto& p = profile_176();
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.gops.size(), 3u);
  EXPECT_EQ(p.total_pictures(), 39);
  EXPECT_EQ(p.slices_per_picture, 8);
  EXPECT_GT(p.ns_per_unit, 0.0);
  for (const auto& g : p.gops) {
    EXPECT_EQ(g.pictures.size(), 13u);
    EXPECT_GT(g.stream_bytes, 0u);
    for (const auto& pic : g.pictures) {
      EXPECT_EQ(pic.slices.size(), 8u);
      EXPECT_GT(pic.units(), 0u);
    }
  }
}

TEST(Profile, PictureCostsVaryByType) {
  // The decode-cost mix differs by type (I: all-intra coefficient work;
  // B: two motion-compensated predictions per macroblock). The robust
  // invariant for load-balance experiments is that per-picture costs are
  // positive, of the same order, and not all identical.
  const auto& p = profile_176();
  std::uint64_t units_by_type[4] = {};
  int count_by_type[4] = {};
  std::uint64_t total = 0;
  int n = 0;
  for (const auto& g : p.gops) {
    for (const auto& pic : g.pictures) {
      units_by_type[static_cast<int>(pic.type)] += pic.units();
      ++count_by_type[static_cast<int>(pic.type)];
      total += pic.units();
      ++n;
    }
  }
  const double mean = static_cast<double>(total) / n;
  for (const int t : {1, 2, 3}) {
    ASSERT_GT(count_by_type[t], 0) << t;
    const double avg =
        static_cast<double>(units_by_type[t]) / count_by_type[t];
    EXPECT_GT(avg, 0.3 * mean) << t;
    EXPECT_LT(avg, 3.0 * mean) << t;
  }
  const double i_avg = static_cast<double>(units_by_type[1]) /
                       count_by_type[1];
  const double b_avg = static_cast<double>(units_by_type[3]) /
                       count_by_type[3];
  EXPECT_NE(i_avg, b_avg);
}

TEST(GopSim, WorkConservation) {
  const auto& p = profile_176();
  const SimResult r1 = simulate(p, base_config(1));
  for (const int workers : {2, 4, 8}) {
    const SimResult r = simulate(p, base_config(workers));
    std::int64_t total_busy = 0;
    int total_tasks = 0;
    for (const auto& w : r.workers) {
      total_busy += w.busy_ns;
      total_tasks += w.tasks;
    }
    std::int64_t busy1 = 0;
    for (const auto& w : r1.workers) busy1 += w.busy_ns;
    EXPECT_EQ(total_busy, busy1) << workers;  // same work, redistributed
    EXPECT_EQ(total_tasks, 3);
  }
}

TEST(GopSim, SpeedupBoundedByWorkersAndTasks) {
  const auto& p = profile_176();
  const double base = simulate(p, base_config(1)).pictures_per_second();
  double prev = 0;
  for (const int workers : {1, 2, 3, 4, 8}) {
    const double pps =
        simulate(p, base_config(workers)).pictures_per_second();
    const double speedup = pps / base;
    EXPECT_LE(speedup, workers + 1e-9);
    EXPECT_LE(speedup, 3.0 + 1e-9);  // only 3 GOP tasks exist
    EXPECT_GE(pps, prev * 0.999);    // monotone non-decreasing
    prev = pps;
  }
}

TEST(GopSim, ManyGopsScaleNearlyLinearly) {
  streamgen::StreamSpec spec;
  spec.width = 176;
  spec.height = 120;
  spec.gop_size = 4;
  spec.pictures = 96;  // 24 GOP tasks
  spec.bit_rate = 1'500'000;
  const auto stream = streamgen::generate_stream(spec);
  const StreamProfile p = profile_stream(stream);
  ASSERT_TRUE(p.ok);
  const double base = simulate(p, base_config(1)).pictures_per_second();
  const double pps4 = simulate(p, base_config(4)).pictures_per_second();
  EXPECT_GT(pps4 / base, 3.2);  // near-linear, as the paper's Fig. 5
}

TEST(GopSim, MemoryGrowsWithWorkers) {
  const auto& p = profile_176();
  auto cfg2 = base_config(2);
  auto cfg8 = base_config(8);
  cfg2.paced_display = cfg8.paced_display = true;
  const SimResult r2 = simulate(p, cfg2);
  const SimResult r8 = simulate(p, cfg8);
  EXPECT_GT(r8.peak_memory, r2.peak_memory);
}

TEST(SliceSim, SimpleKneeAtSlicesPerPicture) {
  // 176x120 has 8 slices/picture: with the simple policy, 8 workers and 16
  // workers must give (almost) identical throughput.
  const auto& p = profile_176();
  const double pps8 =
      simulate(p, simple_slice(base_config(8)))
          .pictures_per_second();
  const double pps16 =
      simulate(p, simple_slice(base_config(16)))
          .pictures_per_second();
  EXPECT_NEAR(pps16 / pps8, 1.0, 0.01);
}

TEST(SliceSim, ImprovedBeatsSimple) {
  const auto& p = profile_176();
  for (const int workers : {4, 8, 12}) {
    const double simple =
        simulate(p, simple_slice(base_config(workers)))
            .pictures_per_second();
    const double improved =
        simulate(p, improved_slice(base_config(workers)))
            .pictures_per_second();
    EXPECT_GE(improved, simple * 0.999) << workers;
  }
  // Past the knee the improved policy must be strictly better.
  const double simple12 =
      simulate(p, simple_slice(base_config(12)))
          .pictures_per_second();
  const double improved12 =
      simulate(p, improved_slice(base_config(12)))
          .pictures_per_second();
  EXPECT_GT(improved12, simple12 * 1.05);
}

TEST(SliceSim, SyncRatioDropsWithImprovedPolicy) {
  const auto& p = profile_176();
  const SimResult simple =
      simulate(p, simple_slice(base_config(12)));
  const SimResult improved =
      simulate(p, improved_slice(base_config(12)));
  EXPECT_GT(simple.sync_ratio(), improved.sync_ratio());
}

TEST(SliceSim, GopVersionFasterThanSlice) {
  // Table 4: GOP > improved slice > simple slice in max throughput.
  streamgen::StreamSpec spec;
  spec.width = 176;
  spec.height = 120;
  spec.gop_size = 4;
  spec.pictures = 64;
  spec.bit_rate = 1'500'000;
  const auto stream = streamgen::generate_stream(spec);
  const StreamProfile p = profile_stream(stream);
  const auto cfg = base_config(8);
  const double gop = simulate(p, cfg).pictures_per_second();
  const double improved =
      simulate(p, improved_slice(cfg)).pictures_per_second();
  const double simple =
      simulate(p, simple_slice(cfg)).pictures_per_second();
  EXPECT_GE(gop, improved * 0.98);
  EXPECT_GE(improved, simple * 0.98);
}

TEST(SliceSim, WorkConservation) {
  const auto& p = profile_176();
  for (const auto& cfg :
       {simple_slice(base_config(4)), improved_slice(base_config(4))}) {
    const SimResult r = simulate(p, cfg);
    int tasks = 0;
    for (const auto& w : r.workers) tasks += w.tasks;
    EXPECT_EQ(tasks, 39 * 8);
  }
}

TEST(SliceSim, OneWorkerMatchesSequentialCost) {
  const auto& p = profile_176();
  auto cfg = base_config(1);
  cfg.queue_overhead_ns = 0;
  cfg.picture_overhead_ns = 0;
  cfg.model_scan = false;
  const SimResult r = simulate(p, simple_slice(cfg));
  std::int64_t total = 0;
  for (const auto& g : p.gops) {
    for (const auto& pic : g.pictures) {
      for (const auto& s : pic.slices) total += p.slice_cost_ns(s, false);
    }
  }
  EXPECT_EQ(r.workers[0].busy_ns, total);
  EXPECT_GE(r.makespan_ns, total);  // display ordering cannot shrink it
}

TEST(NumaSim, RemotePenaltyReducesSpeedup) {
  // §7.2: on DASH, remote-miss latency is the main impediment.
  const auto& p = profile_176();
  auto uma = base_config(8);
  auto numa = base_config(8);
  numa.cluster_size = 4;
  numa.remote_penalty = 1.5;
  const double pps_uma =
      simulate(p, improved_slice(uma)).pictures_per_second();
  const double pps_numa =
      simulate(p, improved_slice(numa)).pictures_per_second();
  EXPECT_LT(pps_numa, pps_uma);
}

TEST(NumaSim, LocalQueuesReduceRemoteTasks) {
  streamgen::StreamSpec spec;
  spec.width = 176;
  spec.height = 120;
  spec.gop_size = 4;
  spec.pictures = 96;
  spec.bit_rate = 1'500'000;
  const auto stream = streamgen::generate_stream(spec);
  const StreamProfile p = profile_stream(stream);
  auto shared_q = base_config(8);
  shared_q.cluster_size = 4;
  shared_q.remote_penalty = 1.5;
  auto local_q = shared_q;
  local_q.numa_local_queues = true;
  auto remote_count = [](const SimResult& r) {
    int n = 0;
    for (const auto& w : r.workers) n += w.remote_tasks;
    return n;
  };
  const SimResult shared = simulate(p, shared_q);
  const SimResult local = simulate(p, local_q);
  EXPECT_LT(remote_count(local), remote_count(shared));
  EXPECT_GE(local.pictures_per_second(), shared.pictures_per_second());
}

TEST(Sim, PacedDisplayStretchesMakespan) {
  const auto& p = profile_176();
  auto fast = base_config(8);
  auto paced = base_config(8);
  paced.paced_display = true;
  const SimResult rf = simulate(p, fast);
  const SimResult rp = simulate(p, paced);
  EXPECT_GE(rp.makespan_ns, rf.makespan_ns);
  // 39 pictures at 30/s >= 1.26 s.
  EXPECT_GE(rp.makespan_ns, static_cast<std::int64_t>(38.0 / 30.0 * 1e9));
}

TEST(Sim, DeterministicAcrossRuns) {
  const auto& p = profile_176();
  const SimResult a = simulate(p, improved_slice(base_config(5)));
  const SimResult b = simulate(p, improved_slice(base_config(5)));
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);
  EXPECT_EQ(a.peak_memory, b.peak_memory);
  for (std::size_t i = 0; i < a.workers.size(); ++i) {
    EXPECT_EQ(a.workers[i].busy_ns, b.workers[i].busy_ns);
    EXPECT_EQ(a.workers[i].sync_ns, b.workers[i].sync_ns);
  }
}

}  // namespace
}  // namespace pmp2::sched
