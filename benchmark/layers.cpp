#include "layers.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "drive.h"
#include "mpeg2/decoder.h"
#include "mpeg2/kernels/kernels.h"
#include "mpeg2/structure_scan.h"
#include "parallel/adaptive/adaptive_decoder.h"
#include "util/timer.h"

namespace pmp2::benchmark {

namespace {

using obs::prof::Stage;

// Replays repeat until they took this long, so short inputs time steadily.
constexpr double kMinReplaySeconds = 0.2;

// Written with the kernel results so the optimizer keeps the calls.
volatile std::int64_t g_sink = 0;

/// Keeps every 17th coded block, at most 4096: the corpus spans I, P and
/// B pictures yet stays cache-resident, so timing it measures the kernel
/// rather than DRAM.
struct BlockHarvest : mpeg2::BlockObserver {
  std::vector<mpeg2::Block> blocks;
  std::uint64_t seen = 0;
  void on_block(const mpeg2::Block& b, bool) override {
    if (seen++ % 17 == 0 && blocks.size() < 4096) blocks.push_back(b);
  }
};

/// Decodes every input on this thread with the sequential decoder
/// (concealing on faulted inputs); returns the pictures delivered.
int decode_all(const Plan& plan, mpeg2::BlockObserver* observer) {
  int pictures = 0;
  for (const Input& in : plan.inputs) {
    mpeg2::Decoder decoder(nullptr, in.faulted);
    decoder.set_block_observer(observer);
    (void)decoder.decode_stream(in.bytes,
                                [&](mpeg2::FramePtr) { ++pictures; });
  }
  return std::max(pictures, 1);
}

double share(const StageSplit& split, Stage s) {
  return split.share[static_cast<int>(s)];
}

}  // namespace

std::unique_ptr<obs::prof::StageProfiler> make_profiler(int slots) {
  return std::make_unique<obs::prof::StageProfiler>(
      std::make_unique<obs::prof::SoftwareCounterSource>(), slots);
}

StageSplit stage_split(const obs::prof::StageProfiler& prof) {
  const obs::prof::ProfSummary summary = prof.aggregate();
  StageSplit split;
  double total = 0.0;
  for (int s = 0; s < obs::prof::kStageCount; ++s) {
    split.share[s] = static_cast<double>(
        summary.stages[s].counters.get(obs::prof::Counter::kTaskClockNs));
    total += split.share[s];
  }
  if (total > 0) {
    for (double& v : split.share) v /= total;
  }
  split.cpu_s = total / 1e9;
  return split;
}

LayerTimes replay_layers(const Plan& plan) {
  LayerTimes t;
  {
    std::uint64_t bytes = 0;
    std::uint64_t gops = 0;
    const ThreadCpuTimer cpu;
    do {
      for (const Input& in : plan.inputs) {
        mpeg2::StructureScanner scan(in.bytes);
        if (!scan.scan_preamble()) continue;
        mpeg2::GopInfo gop;
        while (scan.next_gop(gop)) ++gops;
        bytes += in.bytes.size();
      }
    } while (cpu.elapsed_s() < kMinReplaySeconds);
    const auto ns = static_cast<double>(cpu.elapsed_ns());
    t.scan_ns_per_byte = ns / static_cast<double>(std::max<std::uint64_t>(bytes, 1));
    t.scan_us_per_gop = ns / 1e3 / static_cast<double>(std::max<std::uint64_t>(gops, 1));
  }

  // The unprofiled pass times the decoder; the profiled pass (stage marks
  // cost a clock read each) only splits that time.
  const ThreadCpuTimer cpu;
  const int pictures = decode_all(plan, nullptr);
  t.seq_ms_per_pic = static_cast<double>(cpu.elapsed_ns()) / 1e6 / pictures;
  BlockHarvest harvest;
  const auto prof = make_profiler(1);
  prof->bind(0);
  (void)decode_all(plan, &harvest);
  obs::prof::StageProfiler::unbind();
  const StageSplit split = stage_split(*prof);
  t.vlc_ms_per_pic = share(split, Stage::kVlc) * t.seq_ms_per_pic;
  t.idct_ms_per_pic = share(split, Stage::kIdct) * t.seq_ms_per_pic;
  t.mc_ms_per_pic = share(split, Stage::kMc) * t.seq_ms_per_pic;
  t.conceal_ms_per_pic = share(split, Stage::kConceal) * t.seq_ms_per_pic;
  t.other_ms_per_pic =
      (share(split, Stage::kOther) + share(split, Stage::kScan)) *
      t.seq_ms_per_pic;
  t.blocks_per_pic = static_cast<double>(harvest.seen) / pictures;

  // The active IDCT kernel over the harvested corpus.
  std::vector<mpeg2::BlockSparsity> sparsity;
  for (const mpeg2::Block& b : harvest.blocks) {
    mpeg2::BlockSparsity s = mpeg2::BlockSparsity::none();
    for (int i = 0; i < 64; ++i) {
      if (b[static_cast<std::size_t>(i)] != 0) s.mark(i);
    }
    sparsity.push_back(s);
  }
  const mpeg2::kernels::KernelTable& kernels = mpeg2::kernels::active();
  std::uint64_t blocks = 0;
  std::int64_t sink = 0;
  const ThreadCpuTimer idct;
  do {
    for (std::size_t i = 0; i < harvest.blocks.size(); ++i) {
      mpeg2::Block b = harvest.blocks[i];
      kernels.idct(b, sparsity[i]);
      sink += b[0];
      ++blocks;
    }
  } while (!harvest.blocks.empty() && idct.elapsed_s() < kMinReplaySeconds);
  t.idct_ns_per_block = static_cast<double>(idct.elapsed_ns()) /
                        static_cast<double>(std::max<std::uint64_t>(blocks, 1));
  g_sink = sink;
  return t;
}

StageSplit replay_in_situ(const Plan& plan, double& process_cpu) {
  const auto prof = make_profiler(kWorkers + 1);
  parallel::AdaptiveDecoderConfig config;
  config.workers = kWorkers;
  config.prof = prof.get();
  const double cpu0 = process_cpu_s();
  for (const Input& in : plan.inputs) {
    config.quarantine_gops = in.faulted;
    (void)parallel::AdaptiveDecoder(config).decode(in.bytes);
  }
  process_cpu = process_cpu_s() - cpu0;
  return stage_split(*prof);
}

}  // namespace pmp2::benchmark
