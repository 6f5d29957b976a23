// Memory-model tests (paper Fig. 9): shape of mem(t) = scan(t) + frames(t),
// scaling with workers/GOP size/resolution, the infeasible 1408x960 case,
// and agreement with the scheduler simulator's memory timeline.
#include <gtest/gtest.h>

#include "model/memory_model.h"
#include "sched/profile.h"
#include "sched/sim.h"
#include "streamgen/stream_factory.h"

namespace pmp2::model {
namespace {

MemoryModelParams paper_params(int workers, int gop_size, int width,
                               int height) {
  MemoryModelParams p;
  p.workers = workers;
  p.gop_size = gop_size;
  p.frame_bytes = static_cast<std::int64_t>(width) * height * 3 / 2;
  // Paper-scale rates: scan ~200 pics/s worth of bytes, decode ~5 pics/s
  // per processor at 704x480 (scaled by pixel count), display 30/s.
  const double pixels = static_cast<double>(width) * height;
  p.decode_pics_per_s = 5.0 * (704.0 * 480.0) / pixels;
  p.coded_bytes_per_pic = 5e6 / 8 / 30;  // 5 Mb/s at 30 pics/s
  p.scan_bytes_per_s = 200 * p.coded_bytes_per_pic;
  p.display_pics_per_s = 30;
  p.total_pictures = 1120;
  return p;
}

TEST(MemoryModel, TotalIsScanPlusFrames) {
  const MemoryModel m(paper_params(7, 13, 704, 480));
  for (double t = 0; t < 30; t += 1.7) {
    const auto p = m.at(t);
    EXPECT_DOUBLE_EQ(p.total(), p.scan_bytes + p.frame_bytes);
    EXPECT_GE(p.scan_bytes, 0.0);
    EXPECT_GE(p.frame_bytes, 0.0);
  }
}

TEST(MemoryModel, MemoryAtTimeZeroIsZero) {
  const MemoryModel m(paper_params(7, 13, 704, 480));
  EXPECT_DOUBLE_EQ(m.at(0).total(), 0.0);
}

TEST(MemoryModel, PeakGrowsWithWorkers) {
  const auto p4 = MemoryModel(paper_params(4, 13, 704, 480)).peak_bytes();
  const auto p11 = MemoryModel(paper_params(11, 13, 704, 480)).peak_bytes();
  EXPECT_GT(p11, p4);
}

TEST(MemoryModel, PeakGrowsWithResolution) {
  // Isolate the frame-size effect by fixing the decode rate (otherwise the
  // smaller picture's faster decode builds a display backlog that blurs
  // the comparison).
  auto small_p = paper_params(7, 13, 352, 240);
  auto large_p = paper_params(7, 13, 1408, 960);
  small_p.decode_pics_per_s = large_p.decode_pics_per_s = 5.0;
  const auto small = MemoryModel(small_p).peak_bytes();
  const auto large = MemoryModel(large_p).peak_bytes();
  EXPECT_GT(large, 4 * small);

  // At the paper's real (resolution-dependent) rates the larger picture
  // still needs more memory.
  const auto small_real = MemoryModel(paper_params(7, 13, 352, 240)).peak_bytes();
  const auto large_real =
      MemoryModel(paper_params(7, 13, 1408, 960)).peak_bytes();
  EXPECT_GT(large_real, small_real);
}

TEST(MemoryModel, InfeasibleCaseExceeds500MB) {
  // The paper: 1408x960, 31 pictures/GOP, 11 processors could not run in
  // the 500 MB available to the program.
  auto params = paper_params(11, 31, 1408, 960);
  params.coded_bytes_per_pic = 7e6 / 8 / 30;  // 7 Mb/s stream
  params.scan_bytes_per_s = 90 * params.coded_bytes_per_pic;  // Table 2
  const auto peak = MemoryModel(params).peak_bytes();
  EXPECT_GT(peak, 500ll << 20);
}

TEST(MemoryModel, ModerateCaseFits) {
  const auto peak = MemoryModel(paper_params(7, 13, 352, 240)).peak_bytes();
  EXPECT_LT(peak, 200ll << 20);
}

TEST(MemoryModel, RunLengthAtLeastDisplayTime) {
  const MemoryModel m(paper_params(7, 13, 704, 480));
  EXPECT_GE(m.run_length_s(), 1120 / 30.0 - 1e-9);
}

TEST(MemoryModel, MemoryDrainsByEndOfRun) {
  const MemoryModel m(paper_params(7, 13, 704, 480));
  const auto points = m.timeline(0.25, 1e9);
  ASSERT_FALSE(points.empty());
  EXPECT_LT(points.back().total(), 0.05 * m.peak_bytes());
}

TEST(MemoryModel, AgreesWithSimulatorShape) {
  // Drive both the simulator and the analytical model from the same
  // profile; peaks must agree within a factor of ~2 (the paper reports the
  // model as "very close" to the measured behaviour).
  streamgen::StreamSpec spec;
  spec.width = 176;
  spec.height = 120;
  spec.gop_size = 13;
  spec.pictures = 52;
  spec.bit_rate = 1'500'000;
  const auto stream = streamgen::generate_stream(spec);
  const sched::StreamProfile profile = sched::profile_stream(stream);
  ASSERT_TRUE(profile.ok);

  sched::SimConfig cfg;
  cfg.workers = 4;
  cfg.paced_display = true;
  const sched::SimResult sim = sched::simulate(profile, cfg);

  MemoryModelParams params;
  params.workers = 4;
  params.gop_size = 13;
  params.frame_bytes = profile.frame_bytes();
  params.total_pictures = profile.total_pictures();
  params.coded_bytes_per_pic =
      static_cast<double>(profile.stream_bytes) / profile.total_pictures();
  params.scan_bytes_per_s =
      profile.scan_ns > 0
          ? static_cast<double>(profile.stream_bytes) * 1e9 / profile.scan_ns
          : 1e12;
  // One worker's decode rate from the profile's calibrated costs.
  double total_s = 0;
  for (const auto& g : profile.gops) {
    for (const auto& pic : g.pictures) {
      for (const auto& s : pic.slices) {
        total_s += static_cast<double>(profile.slice_cost_ns(s, false)) * 1e-9;
      }
    }
  }
  params.decode_pics_per_s = profile.total_pictures() / total_s;
  params.display_pics_per_s = profile.frame_rate;

  const auto model_peak = MemoryModel(params).peak_bytes();
  EXPECT_GT(model_peak, sim.peak_memory / 2);
  EXPECT_LT(model_peak, sim.peak_memory * 2);
}

}  // namespace
}  // namespace pmp2::model
