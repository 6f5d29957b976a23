// Parallel-runtime tests: display primitives, and the paper's core
// correctness invariant — every parallel decoder variant produces output
// bit-identical to the sequential decoder, in display order.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "mpeg2/decoder.h"
#include "parallel/adaptive/adaptive_decoder.h"
#include "parallel/display.h"
#include "parallel/gop_decoder.h"
#include "parallel/slice_parallel.h"
#include "streamgen/stream_factory.h"

namespace pmp2::parallel {
namespace {

using streamgen::StreamSpec;
using streamgen::generate_stream;

// --- DisplaySink -------------------------------------------------------------

mpeg2::FramePtr make_frame(int display_index, std::uint8_t fill) {
  auto f = std::make_shared<mpeg2::Frame>(32, 32);
  std::fill_n(f->y(), 32 * 32, fill);
  std::fill_n(f->cb(), 16 * 16, fill);
  std::fill_n(f->cr(), 16 * 16, fill);
  f->display_index = display_index;
  return f;
}

TEST(DisplaySink, ReordersOutOfOrderArrivals) {
  std::vector<int> emitted;
  DisplaySink sink(4, [&](mpeg2::FramePtr f) {
    emitted.push_back(f->display_index);
  });
  sink.push(make_frame(2, 2));
  sink.push(make_frame(0, 0));
  sink.push(make_frame(1, 1));
  sink.push(make_frame(3, 3));
  sink.wait_done();
  EXPECT_EQ(emitted, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sink.max_buffered(), 2u);  // frame 2 waited for 0 and 1
}

TEST(DisplaySink, ChecksumOrderSensitive) {
  DisplaySink a(2, {});
  a.push(make_frame(0, 10));
  a.push(make_frame(1, 20));
  a.wait_done();
  DisplaySink b(2, {});
  b.push(make_frame(0, 20));
  b.push(make_frame(1, 10));
  b.wait_done();
  EXPECT_NE(a.checksum(), b.checksum());
}

TEST(DisplaySink, WatchdogTripsWhenPicturesGoMissing) {
  // The display watchdog behind RunResult::hung: pictures are owed but
  // none arrive, so the progress-based deadline returns false instead of
  // blocking forever.
  DisplaySink sink(3, {});
  sink.push(make_frame(0, 0));
  sink.push(make_frame(1, 1));
  EXPECT_FALSE(sink.wait_done_for(20'000'000));  // picture 2 never came
  EXPECT_EQ(sink.emitted(), 2);
  // A late delivery satisfies a subsequent wait.
  sink.push(make_frame(2, 2));
  EXPECT_TRUE(sink.wait_done_for(20'000'000));
  EXPECT_EQ(sink.emitted(), 3);
}

TEST(HangEvidence, ToStringCarriesWatchdogState) {
  // The evidence line parallel_playback / pmp2_soak print on a hung exit.
  HangEvidence hang;
  hang.where = "display";
  hang.waited_ns = 250'000'000;
  hang.pictures_delivered = 7;
  hang.pictures_indexed = 13;
  std::string text = hang.to_string();
  EXPECT_NE(text.find("display"), std::string::npos) << text;
  EXPECT_NE(text.find("250 ms"), std::string::npos) << text;
  EXPECT_NE(text.find("7/13"), std::string::npos) << text;
  EXPECT_EQ(text.find("epoch"), std::string::npos) << text;
  hang.epoch = 42;  // the coordinator branch adds its scheduling epoch
  text = hang.to_string();
  EXPECT_NE(text.find("scheduling epoch 42"), std::string::npos) << text;
}

TEST(DisplaySink, ConcurrentPushers) {
  std::atomic<int> emitted{0};
  std::vector<int> order;
  std::mutex m;
  DisplaySink sink(64, [&](mpeg2::FramePtr f) {
    const std::scoped_lock lock(m);
    order.push_back(f->display_index);
    emitted.fetch_add(1);
  });
  {
    std::vector<std::jthread> pushers;
    for (int t = 0; t < 4; ++t) {
      pushers.emplace_back([&, t] {
        for (int i = t; i < 64; i += 4) {
          sink.push(make_frame(i, static_cast<std::uint8_t>(i)));
        }
      });
    }
  }
  sink.wait_done();
  EXPECT_EQ(emitted.load(), 64);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  // Pushers hash off the lock; the chain must still match the sequential
  // oracle folded in display order.
  std::uint64_t want = 0;
  for (int i = 0; i < 64; ++i) {
    want = chain_frame_checksum(want,
                                *make_frame(i, static_cast<std::uint8_t>(i)));
  }
  EXPECT_EQ(sink.checksum(), want);
}

// --- frame_digest -------------------------------------------------------------

// Fills every byte of every plane, padding included, with pseudo-random pels.
mpeg2::FramePtr make_noise_frame(int width, int height) {
  auto f = std::make_shared<mpeg2::Frame>(width, height);
  std::uint32_t state = 12345;
  for (int p = 0; p < 3; ++p) {
    const int rows = p == 0 ? f->coded_height() : f->coded_height() / 2;
    const int bytes = rows * f->stride(p);
    for (int i = 0; i < bytes; ++i) {
      state = state * 1664525u + 1013904223u;
      f->plane(p)[i] = static_cast<std::uint8_t>(state >> 24);
    }
  }
  return f;
}

struct Pel {
  int plane, x, y;
};

TEST(FrameDigest, EveryDisplayByteMatters) {
  struct Case {
    int width, height;
    std::vector<Pel> pels;
  };
  const std::vector<Case> cases = {
      // First and last display byte of each plane.
      {176, 120,
       {{0, 0, 0}, {0, 175, 119}, {1, 0, 0}, {1, 87, 59}, {2, 0, 0},
        {2, 87, 59}}},
      // Row tails: 200 = 6 x 32 + 8 luma and 100 = 3 x 32 + 4 chroma bytes.
      {200, 64, {{0, 192, 5}, {0, 199, 5}, {1, 96, 7}, {2, 99, 31}}},
      // Odd display size: the last chroma column and row are display pels.
      {177, 121, {{1, 88, 10}, {2, 88, 60}, {1, 40, 60}, {0, 176, 120}}},
  };
  for (const Case& c : cases) {
    auto frame = make_noise_frame(c.width, c.height);
    const std::uint64_t base = frame_digest(*frame);
    for (const Pel& pel : c.pels) {
      std::uint8_t& byte =
          frame->plane(pel.plane)[pel.y * frame->stride(pel.plane) + pel.x];
      byte ^= 0x01;
      EXPECT_NE(frame_digest(*frame), base)
          << c.width << "x" << c.height << " plane " << pel.plane << " ("
          << pel.x << ", " << pel.y << ")";
      byte ^= 0x01;
    }
    EXPECT_EQ(frame_digest(*frame), base);
  }
}

TEST(FrameDigest, PaddingIsIgnored) {
  auto frame = make_noise_frame(177, 121);
  const std::uint64_t base = frame_digest(*frame);
  for (int p = 0; p < 3; ++p) {
    const int width = p == 0 ? 177 : 89;
    const int height = p == 0 ? 121 : 61;
    const int rows = p == 0 ? frame->coded_height() : frame->coded_height() / 2;
    const int stride = frame->stride(p);
    ASSERT_LT(width, stride);
    ASSERT_LT(height, rows);
    std::uint8_t* plane = frame->plane(p);
    for (int y = 0; y < rows; ++y) {
      for (int x = 0; x < stride; ++x) {
        if (x >= width || y >= height) plane[y * stride + x] ^= 0xFF;
      }
    }
  }
  EXPECT_EQ(frame_digest(*frame), base);
}

// --- Parallel decoders vs sequential ----------------------------------------

StreamSpec test_spec(int gop_size, int pictures) {
  StreamSpec spec;
  spec.width = 176;
  spec.height = 120;
  spec.gop_size = gop_size;
  spec.pictures = pictures;
  spec.bit_rate = 1'500'000;
  return spec;
}

std::uint64_t sequential_checksum(std::span<const std::uint8_t> stream,
                                  int* pictures = nullptr) {
  mpeg2::Decoder dec;
  std::uint64_t digest = 0;
  int count = 0;
  const auto st = dec.decode_stream(stream, [&](mpeg2::FramePtr f) {
    digest = chain_frame_checksum(digest, *f);
    ++count;
  });
  EXPECT_TRUE(st.ok);
  if (pictures) *pictures = count;
  return digest;
}

class GopDecoderEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(GopDecoderEquivalence, MatchesSequential) {
  const auto stream = generate_stream(test_spec(4, 16));
  int pictures = 0;
  const std::uint64_t want = sequential_checksum(stream, &pictures);
  GopDecoderConfig cfg;
  cfg.workers = GetParam();
  GopParallelDecoder dec(cfg);
  const RunResult r = dec.decode(stream);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.pictures, pictures);
  EXPECT_EQ(r.checksum, want);
}

INSTANTIATE_TEST_SUITE_P(Workers, GopDecoderEquivalence,
                         ::testing::Values(1, 2, 3, 5));

class SliceDecoderEquivalence
    : public ::testing::TestWithParam<std::tuple<int, SlicePolicy>> {};

TEST_P(SliceDecoderEquivalence, MatchesSequential) {
  const auto stream = generate_stream(test_spec(13, 26));
  int pictures = 0;
  const std::uint64_t want = sequential_checksum(stream, &pictures);
  SliceDecoderConfig cfg;
  cfg.workers = std::get<0>(GetParam());
  cfg.policy = std::get<1>(GetParam());
  SliceParallelDecoder dec(cfg);
  const RunResult r = dec.decode(stream);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.pictures, pictures);
  EXPECT_EQ(r.checksum, want);
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndPolicies, SliceDecoderEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(SlicePolicy::kSimple,
                                         SlicePolicy::kImproved)));

TEST(ParallelDecoders, AllVariantsAgreeOnLargerStream) {
  const auto stream = generate_stream(test_spec(13, 39));
  const std::uint64_t want = sequential_checksum(stream);

  GopDecoderConfig gcfg;
  gcfg.workers = 3;
  const RunResult g = GopParallelDecoder(gcfg).decode(stream);
  ASSERT_TRUE(g.ok);
  EXPECT_EQ(g.checksum, want);

  for (const auto policy : {SlicePolicy::kSimple, SlicePolicy::kImproved}) {
    SliceDecoderConfig scfg;
    scfg.workers = 3;
    scfg.policy = policy;
    const RunResult s = SliceParallelDecoder(scfg).decode(stream);
    ASSERT_TRUE(s.ok);
    EXPECT_EQ(s.checksum, want);
  }
}

TEST(ParallelDecoders, SliceDecoderDecodesOpenGops) {
  // Clear closed_gop (the bit after the 25-bit time_code) in every GOP
  // header. The slice decoder carries references across GOPs and needs
  // no closed GOPs; the GOP decoder does, and refuses the stream.
  auto stream = generate_stream(test_spec(13, 39));
  for (const auto& gop : mpeg2::scan_structure(stream).gops) {
    stream[gop.offset + 7] &= 0xBF;
  }
  const auto structure = mpeg2::scan_structure(stream);
  ASSERT_TRUE(structure.valid);
  ASSERT_EQ(structure.gops.size(), 3u);
  for (const auto& gop : structure.gops) ASSERT_FALSE(gop.closed);
  const std::uint64_t want = sequential_checksum(stream);
  for (const auto policy : {SlicePolicy::kSimple, SlicePolicy::kImproved}) {
    SliceDecoderConfig scfg;
    scfg.workers = 4;
    scfg.policy = policy;
    const RunResult s = SliceParallelDecoder(scfg).decode(stream);
    ASSERT_TRUE(s.ok);
    EXPECT_EQ(s.pictures, 39);
    EXPECT_EQ(s.checksum, want);
  }
  GopDecoderConfig gcfg;
  gcfg.workers = 4;
  EXPECT_FALSE(GopParallelDecoder(gcfg).decode(stream).ok);
}

TEST(ParallelDecoders, FrameCallbackDeliversDisplayOrder) {
  const auto stream = generate_stream(test_spec(4, 12));
  std::vector<int> order;
  GopDecoderConfig cfg;
  cfg.workers = 2;
  const RunResult r = GopParallelDecoder(cfg).decode(
      stream, [&](mpeg2::FramePtr f) { order.push_back(f->display_index); });
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(order.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ParallelDecoders, WorkerStatsAccountAllSlices) {
  const auto stream = generate_stream(test_spec(13, 13));
  SliceDecoderConfig cfg;
  cfg.workers = 4;
  const RunResult r = SliceParallelDecoder(cfg).decode(stream);
  ASSERT_TRUE(r.ok);
  std::uint64_t slices = 0;
  for (const auto& w : r.workers) slices += w.tasks;
  EXPECT_EQ(slices, 13u * 8u);  // 8 slices per 176x120 picture
}

TEST(ParallelDecoders, GopMemoryTrackedAndBounded) {
  const auto stream = generate_stream(test_spec(4, 16));
  mpeg2::MemoryTracker tracker;
  GopDecoderConfig cfg;
  cfg.workers = 2;
  cfg.tracker = &tracker;
  const RunResult r = GopParallelDecoder(cfg).decode(stream);
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.peak_frame_bytes, 0);
  // Frame bytes for 176x120: ~33 KB. Peak must cover at least the 3
  // reference/destination frames of one worker.
  const std::int64_t frame_bytes = 176 * 128 * 3 / 2;
  EXPECT_GE(r.peak_frame_bytes, 3 * frame_bytes);

  // A whole GOP keeps only the frames a later picture of it can still
  // reference: B frames are never retained, and every reference frame is
  // released when its GOP ends. One worker makes the peak deterministic,
  // and it must not grow with the GOP size (the streams of
  // SliceMemoryIndependentOfGopSize); the adaptive decoder at one worker
  // keeps the same bound.
  mpeg2::MemoryTracker g_small, g_large;
  cfg.workers = 1;
  cfg.tracker = &g_small;
  ASSERT_TRUE(GopParallelDecoder(cfg).decode(generate_stream(test_spec(4, 8)))
                  .ok);
  cfg.tracker = &g_large;
  ASSERT_TRUE(
      GopParallelDecoder(cfg).decode(generate_stream(test_spec(16, 16))).ok);
  EXPECT_EQ(g_large.peak_bytes(), g_small.peak_bytes());
  EXPECT_LE(g_large.peak_bytes(), 4 * frame_bytes);
}

TEST(ParallelDecoders, SliceMemoryIndependentOfGopSize) {
  // The paper's claim: slice-version memory depends on resolution only.
  mpeg2::MemoryTracker t_small, t_large;
  const auto small = generate_stream(test_spec(4, 8));
  const auto large = generate_stream(test_spec(16, 16));
  SliceDecoderConfig cfg;
  cfg.workers = 4;
  cfg.tracker = &t_small;
  ASSERT_TRUE(SliceParallelDecoder(cfg).decode(small).ok);
  cfg.tracker = &t_large;
  ASSERT_TRUE(SliceParallelDecoder(cfg).decode(large).ok);
  // Peak is a handful of frames either way (open window + refs + display
  // backlog); exact counts vary with thread timing, but quadrupling the
  // GOP size must not scale memory the way it does in the GOP decoder
  // (workers x GOP size frames). Allow generous slack, cap the absolute
  // footprint at ~10 frames.
  // Thread timing varies the exact peak (display backlog, pool growth);
  // the GOP decoder at 4 workers x GOP 16 would need ~4 x (16 + 2) frames,
  // so a 13-frame cap still separates the two designs decisively.
  const std::int64_t frame_bytes = 176 * 128 * 3 / 2;
  EXPECT_LE(t_large.peak_bytes(), 3 * t_small.peak_bytes());
  EXPECT_LE(t_large.peak_bytes(), 13 * frame_bytes);

  // The adaptive decoder at one worker never splits a GOP (no worker is
  // ever idle while it holds one), so it keeps the GOP decoder's
  // one-worker peak, independent of the GOP size.
  mpeg2::MemoryTracker a_small, a_large;
  AdaptiveDecoderConfig acfg;
  acfg.workers = 1;
  acfg.tracker = &a_small;
  const RunResult rs = AdaptiveDecoder(acfg).decode(small);
  ASSERT_TRUE(rs.ok);
  acfg.tracker = &a_large;
  const RunResult rl = AdaptiveDecoder(acfg).decode(large);
  ASSERT_TRUE(rl.ok);
  EXPECT_EQ(rs.exploded_gops, 0);
  EXPECT_EQ(rl.exploded_gops, 0);
  EXPECT_EQ(a_large.peak_bytes(), a_small.peak_bytes());
  EXPECT_LE(a_large.peak_bytes(), 4 * frame_bytes);

  // With more workers the one 16-picture GOP always splits: a worker with
  // no claim waits while the GOP decodes (at pop time, the workers not
  // started yet count too). A split GOP keeps the chain's picture
  // lifetime (B frames never retained, a reference frame only while an
  // unopened picture of its GOP can use it), so it never holds more
  // frames than its own pictures. Its pictures open without a cap,
  // though, so one preempted row can stall the display while later
  // pictures complete. On an idle 4-vCPU host the peak was 4 frames at 2
  // workers and 4-10 at 4 (twenty runs each), up to 16 under
  // oversubscription.
  GopDecoderConfig gcfg;
  gcfg.workers = 1;
  const RunResult reference = GopParallelDecoder(gcfg).decode(large);
  ASSERT_TRUE(reference.ok);
  for (const int workers : {2, 4}) {
    mpeg2::MemoryTracker tracker;
    acfg.workers = workers;
    acfg.tracker = &tracker;
    const RunResult r = AdaptiveDecoder(acfg).decode(large);
    ASSERT_TRUE(r.ok) << workers << " workers";
    EXPECT_EQ(r.exploded_gops, 1) << workers << " workers";
    EXPECT_EQ(r.checksum, reference.checksum) << workers << " workers";
    EXPECT_LE(tracker.peak_bytes(), 16 * frame_bytes) << workers << " workers";
  }
}

TEST(ParallelDecoders, SplitGopDecodesPicturesAsRowTasks) {
  // The one 16-picture GOP splits at its pop (at least one other worker
  // waits), and a split GOP's pictures run as macroblock-row tasks: more
  // tasks than one per picture plus the whole-GOP claim a later split
  // would add.
  const auto large = generate_stream(test_spec(16, 16));
  GopDecoderConfig gcfg;
  gcfg.workers = 1;
  const RunResult reference = GopParallelDecoder(gcfg).decode(large);
  ASSERT_TRUE(reference.ok);
  AdaptiveDecoderConfig acfg;
  acfg.workers = 4;
  const RunResult r = AdaptiveDecoder(acfg).decode(large);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.exploded_gops, 1);
  std::uint64_t tasks = 0;
  for (const WorkerStats& w : r.workers) tasks += w.tasks;
  EXPECT_GT(tasks, 16u + 1u);
  EXPECT_EQ(r.checksum, reference.checksum);
}

TEST(ParallelDecoders, RejectsGarbage) {
  const std::vector<std::uint8_t> garbage(1024, 0xAA);
  GopDecoderConfig gcfg;
  EXPECT_FALSE(GopParallelDecoder(gcfg).decode(garbage).ok);
  SliceDecoderConfig scfg;
  EXPECT_FALSE(SliceParallelDecoder(scfg).decode(garbage).ok);
}

}  // namespace
}  // namespace pmp2::parallel
