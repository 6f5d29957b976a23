// Fault-injection & bounded-recovery tests (docs/ROBUSTNESS.md): the
// corruptor is deterministic and replayable, resync lands on true
// startcodes, GOP quarantine confines damage to the faulted GOP in both
// parallel decoders, concealed pictures stay recognizable, and nothing
// hangs even on 100%-corrupt input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "bitstream/startcode.h"
#include "inject/degrade.h"
#include "inject/fault.h"
#include "mpeg2/decoder.h"
#include "mpeg2/frame.h"
#include "parallel/adaptive/adaptive_decoder.h"
#include "parallel/display.h"
#include "parallel/gop_decoder.h"
#include "parallel/slice_parallel.h"
#include "sched/profile.h"
#include "sched/sim.h"
#include "streamgen/stream_factory.h"

namespace pmp2 {
namespace {

using inject::FaultKind;
using inject::FaultReport;
using inject::FaultSpec;
using parallel::GopDecoderConfig;
using parallel::GopParallelDecoder;
using parallel::RecoveryCause;
using parallel::RunResult;
using parallel::SliceDecoderConfig;
using parallel::SliceParallelDecoder;

streamgen::StreamSpec spec_3gops() {
  streamgen::StreamSpec spec;
  spec.width = 176;
  spec.height = 120;
  spec.gop_size = 13;
  spec.pictures = 39;
  spec.bit_rate = 1'500'000;
  return spec;
}

/// Stomps one slice's payload (startcode kept) with 0xFF — a guaranteed
/// syntax error with no startcode emulation (see concealment_test.cpp).
void corrupt_slice(std::vector<std::uint8_t>& stream, int gop, int pic,
                   int slice) {
  const auto s = mpeg2::scan_structure(stream);
  ASSERT_TRUE(s.valid);
  const auto& info = s.gops[static_cast<std::size_t>(gop)]
                         .pictures[static_cast<std::size_t>(pic)];
  const auto offset = info.slices[static_cast<std::size_t>(slice)].offset;
  std::uint64_t end = stream.size();
  for (const auto& sc : scan_all_startcodes(stream)) {
    if (sc.byte_offset > offset) {
      end = sc.byte_offset;
      break;
    }
  }
  for (std::uint64_t i = offset + 5; i < end; ++i) stream[i] = 0xFF;
}

/// Destroys every slice startcode of one picture (0x01 prefix byte ->
/// 0xFE): the scan then sees a picture with no slices at all, forcing
/// whole-picture concealment under quarantine.
void erase_picture_slices(std::vector<std::uint8_t>& stream, int gop,
                          int pic) {
  const auto s = mpeg2::scan_structure(stream);
  ASSERT_TRUE(s.valid);
  const auto& info = s.gops[static_cast<std::size_t>(gop)]
                         .pictures[static_cast<std::size_t>(pic)];
  ASSERT_FALSE(info.slices.empty());
  for (const auto& sl : info.slices) stream[sl.offset + 2] = 0xFE;
}

/// Decodes with both parallel decoders under quarantine, collecting frames
/// by display index. Returns {gop_result, slice_result}.
struct QuarantineRun {
  RunResult result;
  std::vector<mpeg2::FramePtr> frames;  // indexed by display_index
};

QuarantineRun run_gop_quarantine(const std::vector<std::uint8_t>& stream,
                                 int pictures) {
  QuarantineRun run;
  run.frames.resize(static_cast<std::size_t>(pictures));
  GopDecoderConfig cfg;
  cfg.workers = 3;
  cfg.quarantine_gops = true;
  cfg.watchdog_ns = 20'000'000'000;
  run.result = GopParallelDecoder(cfg).decode(stream, [&](mpeg2::FramePtr f) {
    const auto i = static_cast<std::size_t>(f->display_index);
    if (i < run.frames.size()) run.frames[i] = std::move(f);
  });
  return run;
}

QuarantineRun run_slice_quarantine(const std::vector<std::uint8_t>& stream,
                                   int pictures) {
  QuarantineRun run;
  run.frames.resize(static_cast<std::size_t>(pictures));
  SliceDecoderConfig cfg;
  cfg.workers = 3;
  cfg.policy = parallel::SlicePolicy::kImproved;
  cfg.quarantine_gops = true;
  cfg.watchdog_ns = 20'000'000'000;
  run.result =
      SliceParallelDecoder(cfg).decode(stream, [&](mpeg2::FramePtr f) {
        const auto i = static_cast<std::size_t>(f->display_index);
        if (i < run.frames.size()) run.frames[i] = std::move(f);
      });
  return run;
}

// ---------------------------------------------------------------- corruptor

TEST(FaultInjection, DeterministicAndSeedSensitive) {
  const auto stream = streamgen::generate_stream(spec_3gops());
  for (const FaultKind kind : inject::kAllFaultKinds) {
    FaultSpec spec;
    spec.kind = kind;
    spec.seed = 42;
    spec.count = 3;
    FaultReport r1, r2;
    const auto a = inject::apply_fault(stream, spec, &r1);
    const auto b = inject::apply_fault(stream, spec, &r2);
    EXPECT_EQ(a, b) << spec.name();
    EXPECT_EQ(r1.events.size(), r2.events.size()) << spec.name();
    EXPECT_FALSE(r1.events.empty()) << spec.name();
    for (const auto& e : r1.events) {
      EXPECT_LT(e.offset, stream.size()) << spec.name();
    }
    EXPECT_NE(a, stream) << spec.name() << " changed nothing";
    spec.seed = 43;
    const auto c = inject::apply_fault(stream, spec, nullptr);
    EXPECT_NE(a, c) << spec.name() << " ignored the seed";
  }
}

TEST(FaultInjection, PreambleIsNeverDamaged) {
  const auto stream = streamgen::generate_stream(spec_3gops());
  const auto s = mpeg2::scan_structure(stream);
  ASSERT_TRUE(s.valid);
  // Protected region: sequence header through the first GOP header.
  const std::uint64_t guard = s.gops[0].offset + 8;
  for (const FaultKind kind : inject::kAllFaultKinds) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      FaultSpec spec;
      spec.kind = kind;
      spec.seed = seed;
      spec.count = 4;
      const auto out = inject::apply_fault(stream, spec, nullptr);
      ASSERT_GE(out.size(), guard) << spec.name();
      EXPECT_TRUE(std::equal(stream.begin(),
                             stream.begin() + static_cast<long>(guard),
                             out.begin()))
          << spec.name() << " touched the preamble";
    }
  }
}

TEST(FaultInjection, KindNamesRoundTrip) {
  for (const FaultKind kind : inject::kAllFaultKinds) {
    FaultKind parsed;
    ASSERT_TRUE(inject::parse_fault_kind(inject::fault_kind_name(kind),
                                         parsed))
        << inject::fault_kind_name(kind);
    EXPECT_EQ(parsed, kind);
  }
  FaultKind parsed;
  EXPECT_FALSE(inject::parse_fault_kind("no-such-fault", parsed));
}

TEST(FaultInjection, PlanFaultIsDeterministicAndCyclesKinds) {
  std::set<FaultKind> kinds;
  std::set<std::string> names;
  for (std::uint64_t i = 0; i < 32; ++i) {
    const FaultSpec a = inject::plan_fault(7, i);
    const FaultSpec b = inject::plan_fault(7, i);
    EXPECT_EQ(a.name(), b.name()) << i;
    kinds.insert(a.kind);
    names.insert(a.name());
  }
  EXPECT_EQ(kinds.size(), std::size(inject::kAllFaultKinds));
  EXPECT_GT(names.size(), 16u);  // seeds/counts vary, not just kinds
  // A different base seed produces a different schedule.
  EXPECT_NE(inject::plan_fault(7, 0).name(), inject::plan_fault(8, 0).name());
}

// ------------------------------------------------------------------- resync

TEST(FaultInjection, ResyncLandsOnTrueStartcodeForEveryStraddlePhase) {
  // Place the startcode prefix at every alignment mod 8 so the SWAR
  // scanner sees every word-straddle phase.
  for (std::uint64_t phase = 0; phase < 8; ++phase) {
    const std::uint64_t sc_at = 64 + phase;
    std::vector<std::uint8_t> buf(sc_at, 0x55);
    buf.push_back(0x00);
    buf.push_back(0x00);
    buf.push_back(0x01);
    buf.push_back(0xB3);
    buf.insert(buf.end(), 32, 0x55);
    for (const std::uint64_t error_byte : {std::uint64_t{0}, sc_at - 1}) {
      EXPECT_EQ(mpeg2::resync_distance(buf, error_byte), sc_at - error_byte)
          << "phase " << phase << " error at " << error_byte;
    }
    // An error inside the startcode itself resyncs at zero distance only
    // if the prefix is still ahead of it.
    EXPECT_EQ(mpeg2::resync_distance(buf, sc_at), 0u) << phase;
  }
  // No startcode ahead: the distance is the remaining stream.
  const std::vector<std::uint8_t> junk(100, 0x55);
  EXPECT_EQ(mpeg2::resync_distance(junk, 10), 90u);
}

// ------------------------------------------------------------ display ranks

TEST(FaultInjection, DisplayRanksMatchTemporalReferenceOnCleanGops) {
  const auto stream = streamgen::generate_stream(spec_3gops());
  const auto s = mpeg2::scan_structure(stream);
  ASSERT_TRUE(s.valid);
  for (const auto& gop : s.gops) {
    const auto ranks = mpeg2::display_ranks(gop);
    ASSERT_EQ(ranks.size(), gop.pictures.size());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      EXPECT_EQ(ranks[i], gop.pictures[i].temporal_reference);
    }
  }
}

TEST(FaultInjection, DisplayRanksAreGapFreeOnCorruptReferences) {
  // Duplicate, out-of-range and wild temporal references (what a corrupted
  // picture header yields) must still map to a permutation of [0, n).
  mpeg2::GopInfo gop;
  for (const int tref : {7, 7, 3, 999, 0, -2}) {
    mpeg2::PictureInfo pic;
    pic.temporal_reference = tref;
    gop.pictures.push_back(pic);
  }
  const auto ranks = mpeg2::display_ranks(gop);
  ASSERT_EQ(ranks.size(), gop.pictures.size());
  std::set<int> seen(ranks.begin(), ranks.end());
  EXPECT_EQ(seen.size(), ranks.size());
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), static_cast<int>(ranks.size()) - 1);
}

// ----------------------------------------------------------- recovery plumbing

TEST(FaultInjection, ErrorLogCapsRecords) {
  parallel::ErrorLog log;
  for (int i = 0; i < 100; ++i) {
    log.add({RecoveryCause::kSliceError, i, i, 0});
  }
  std::vector<parallel::ErrorRecord> records;
  int dropped = 0;
  log.drain(records, dropped);
  EXPECT_EQ(records.size(), parallel::ErrorLog::kMaxRecords);
  EXPECT_EQ(dropped, 100 - static_cast<int>(parallel::ErrorLog::kMaxRecords));
}

TEST(FaultInjection, DisplayDeadlineFiresAndRecovers) {
  mpeg2::FramePool pool(176, 120);
  parallel::DisplaySink sink(2, {});
  auto f0 = pool.acquire();
  f0->display_index = 0;
  sink.push(std::move(f0));
  // Only 1 of 2 pictures arrived: the bounded wait must report failure.
  EXPECT_FALSE(sink.wait_done_for(50'000'000));
  auto f1 = pool.acquire();
  f1->display_index = 1;
  sink.push(std::move(f1));
  EXPECT_TRUE(sink.wait_done_for(50'000'000));
}

// --------------------------------------------------------------- quarantine

TEST(GopQuarantine, SiblingGopsBitExactInBothDecoders) {
  auto stream = streamgen::generate_stream(spec_3gops());
  mpeg2::Decoder clean_dec;
  const auto clean = clean_dec.decode(stream);
  ASSERT_TRUE(clean.ok);
  ASSERT_EQ(clean.frames.size(), 39u);

  corrupt_slice(stream, /*gop=*/1, /*pic=*/3, /*slice=*/4);

  for (const bool slice_level : {false, true}) {
    const QuarantineRun run = slice_level ? run_slice_quarantine(stream, 39)
                                          : run_gop_quarantine(stream, 39);
    const char* const which = slice_level ? "slice" : "gop";
    ASSERT_TRUE(run.result.ok) << which;
    EXPECT_FALSE(run.result.hung) << which;
    EXPECT_EQ(run.result.pictures, 39) << which;
    EXPECT_GE(run.result.concealed_slices, 1) << which;
    EXPECT_EQ(run.result.quarantined_gops, 1) << which;
    ASSERT_FALSE(run.result.errors.empty()) << which;
    EXPECT_EQ(run.result.errors[0].cause, RecoveryCause::kSliceError)
        << which;
    EXPECT_EQ(run.result.errors[0].gop, 1) << which;
    // The blast radius is GOP 1 (display indices [13, 26)): every other
    // GOP's pictures are bit-exact against the clean decode.
    for (int i = 0; i < 39; ++i) {
      if (i >= 13 && i < 26) continue;
      const auto& frame = run.frames[static_cast<std::size_t>(i)];
      ASSERT_TRUE(frame) << which << " missing display index " << i;
      EXPECT_TRUE(
          frame->same_pels(*clean.frames[static_cast<std::size_t>(i)]))
          << which << " display index " << i;
    }
  }
}

TEST(GopQuarantine, ConcealedPicturePsnrBounded) {
  auto stream = streamgen::generate_stream(spec_3gops());
  mpeg2::Decoder clean_dec;
  const auto clean = clean_dec.decode(stream);
  ASSERT_TRUE(clean.ok);

  // Destroy every slice of one mid-stream picture: quarantine synthesizes
  // the whole frame from the nearest reference.
  erase_picture_slices(stream, /*gop=*/1, /*pic=*/3);

  for (const bool slice_level : {false, true}) {
    const QuarantineRun run = slice_level ? run_slice_quarantine(stream, 39)
                                          : run_gop_quarantine(stream, 39);
    const char* const which = slice_level ? "slice" : "gop";
    ASSERT_TRUE(run.result.ok) << which;
    EXPECT_FALSE(run.result.hung) << which;
    EXPECT_EQ(run.result.pictures, 39) << which;
    EXPECT_GE(run.result.concealed_pictures, 1) << which;
    EXPECT_EQ(run.result.quarantined_gops, 1) << which;
    // Concealed + damage-adjacent frames stay recognizable: the copy of a
    // neighbouring reference is far from garbage on a continuous scene.
    inject::PsnrAccumulator psnr;
    for (int i = 13; i < 26; ++i) {
      const auto& frame = run.frames[static_cast<std::size_t>(i)];
      ASSERT_TRUE(frame) << which << " missing display index " << i;
      psnr.add(*frame, *clean.frames[static_cast<std::size_t>(i)]);
    }
    EXPECT_GE(psnr.degraded_frames(), 1) << which;
    EXPECT_GT(psnr.min_db(), 10.0) << which;
    // Sibling GOPs are still bit-exact.
    for (int i = 0; i < 39; ++i) {
      if (i >= 13 && i < 26) continue;
      const auto& frame = run.frames[static_cast<std::size_t>(i)];
      ASSERT_TRUE(frame) << which << " missing display index " << i;
      EXPECT_TRUE(
          frame->same_pels(*clean.frames[static_cast<std::size_t>(i)]))
          << which << " display index " << i;
    }
  }
}

TEST(GopQuarantine, FullyCorruptStreamTerminatesInBothDecoders) {
  streamgen::StreamSpec spec = spec_3gops();
  spec.gop_size = 4;
  spec.pictures = 12;
  auto stream = streamgen::generate_stream(spec);
  const auto s = mpeg2::scan_structure(stream);
  ASSERT_TRUE(s.valid);
  // 100% corrupt: every slice of every picture of every GOP.
  for (std::size_t g = 0; g < s.gops.size(); ++g) {
    for (std::size_t p = 0; p < s.gops[g].pictures.size(); ++p) {
      const int slices =
          static_cast<int>(s.gops[g].pictures[p].slices.size());
      for (int sl = 0; sl < slices; ++sl) {
        corrupt_slice(stream, static_cast<int>(g), static_cast<int>(p), sl);
      }
    }
  }
  for (const bool slice_level : {false, true}) {
    const QuarantineRun run = slice_level ? run_slice_quarantine(stream, 12)
                                          : run_gop_quarantine(stream, 12);
    const char* const which = slice_level ? "slice" : "gop";
    EXPECT_FALSE(run.result.hung) << which;
    ASSERT_TRUE(run.result.ok) << which;
    EXPECT_EQ(run.result.pictures, 12) << which;
    EXPECT_GT(run.result.concealed_slices, 0) << which;
    EXPECT_EQ(run.result.quarantined_gops,
              static_cast<int>(s.gops.size()))
        << which;
    for (const auto& frame : run.frames) EXPECT_TRUE(frame) << which;
  }
}

TEST(GopQuarantine, TruncatedScanKeepsDecodedPrefix) {
  auto stream = streamgen::generate_stream(spec_3gops());
  const auto s = mpeg2::scan_structure(stream);
  ASSERT_TRUE(s.valid);
  // Destroy GOP 2's second picture header (picture type 7 is invalid):
  // the structure scan fails there and recovery keeps the scanned prefix.
  const auto at = s.gops[2].pictures[1].offset;
  stream[at + 4] = 0xFF;
  stream[at + 5] = 0xFF;
  for (const bool slice_level : {false, true}) {
    const QuarantineRun run = slice_level ? run_slice_quarantine(stream, 39)
                                          : run_gop_quarantine(stream, 39);
    const char* const which = slice_level ? "slice" : "gop";
    ASSERT_TRUE(run.result.ok) << which;
    EXPECT_FALSE(run.result.hung) << which;
    // GOPs 0 and 1 (26 pictures) decode; the partial GOP 2 prefix may add
    // a few more, but never the full 39.
    EXPECT_GE(run.result.pictures, 26) << which;
    EXPECT_LT(run.result.pictures, 39) << which;
    bool truncated = false;
    for (const auto& e : run.result.errors) {
      if (e.cause == RecoveryCause::kScanTruncated) truncated = true;
    }
    EXPECT_TRUE(truncated) << which;
  }
}

TEST(GopQuarantine, ScanDamageCostsOneGop) {
  // This plan clobbers a startcode in GOP 0. The scan logs the damage and
  // resyncs at GOP 1, so GOPs 1 and 2 (26 pictures) decode in every
  // decoder; without the resync the scan ended at GOP 0 with no picture.
  const FaultSpec fault = inject::plan_fault(0x5eed, 181);
  ASSERT_EQ(fault.name(), "clobber-startcode:seed=365731947859761127:count=2");
  const auto stream =
      inject::apply_fault(streamgen::generate_stream(spec_3gops()), fault);
  parallel::AdaptiveDecoderConfig adaptive;
  adaptive.workers = 3;
  adaptive.quarantine_gops = true;
  const RunResult runs[] = {
      run_gop_quarantine(stream, 39).result,
      run_slice_quarantine(stream, 39).result,
      parallel::AdaptiveDecoder(adaptive).decode(stream, {}),
  };
  for (const RunResult& r : runs) {
    ASSERT_TRUE(r.ok);
    EXPECT_FALSE(r.hung);
    EXPECT_GE(r.pictures, 26);
    EXPECT_EQ(r.pictures, runs[0].pictures);
    EXPECT_EQ(r.checksum, runs[0].checksum);
    EXPECT_TRUE(std::any_of(r.errors.begin(), r.errors.end(), [](auto& e) {
      return e.cause == RecoveryCause::kScanTruncated;
    }));
  }
}

// ------------------------------------------------------------- sim model

TEST(SimFaultModel, ConcealmentCostModelIsDeterministic) {
  streamgen::StreamSpec spec = spec_3gops();
  spec.pictures = 26;
  const auto stream = streamgen::generate_stream(spec);
  const sched::StreamProfile profile = sched::profile_stream(stream);

  sched::SimConfig cfg;
  cfg.workers = 4;
  cfg.fault_slice_rate = 0.3;
  cfg.fault_seed = 11;

  const auto a = sched::simulate(profile, cfg);
  const auto b = sched::simulate(profile, cfg);
  EXPECT_EQ(a.concealed_slices, b.concealed_slices);
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);
  EXPECT_GT(a.concealed_slices, 0);
  EXPECT_EQ(a.pictures, 26);

  // Rate 0 conceals nothing; rate 1 conceals every slice; the partial rate
  // sits strictly between.
  sched::SimConfig clean = cfg;
  clean.fault_slice_rate = 0.0;
  EXPECT_EQ(sched::simulate(profile, clean).concealed_slices, 0);
  sched::SimConfig all = cfg;
  all.fault_slice_rate = 1.0;
  const auto full = sched::simulate(profile, all);
  EXPECT_GT(full.concealed_slices, a.concealed_slices);
  // Concealment is cheaper than decoding: the fully-degraded run finishes
  // no later than the clean one.
  EXPECT_LE(full.makespan_ns, sched::simulate(profile, clean).makespan_ns);

  // The slice granularity sees the same fault schedule.
  sched::SimConfig sliced = cfg;
  sliced.granularity = sched::Granularity::kSlice;
  const auto sl = sched::simulate(profile, sliced);
  EXPECT_GT(sl.concealed_slices, 0);
  EXPECT_EQ(sl.pictures, 26);
  EXPECT_EQ(sl.concealed_slices,
            sched::simulate(profile, sliced).concealed_slices);
}

}  // namespace
}  // namespace pmp2
