#include "parallel/stats.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>

#include "mpeg2/frame.h"

namespace pmp2::parallel {

std::string HangEvidence::to_string() const {
  std::ostringstream os;
  os << "hang: no progress at the " << (where.empty() ? "unknown" : where)
     << " stage for " << waited_ns / 1'000'000 << " ms; "
     << pictures_delivered << "/" << pictures_indexed
     << " pictures delivered";
  if (epoch >= 0) os << "; scheduling epoch " << epoch;
  return os.str();
}

std::string_view recovery_cause_name(RecoveryCause cause) {
  switch (cause) {
    case RecoveryCause::kSliceError: return "slice-error";
    case RecoveryCause::kPictureHeader: return "picture-header";
    case RecoveryCause::kMissingReference: return "missing-reference";
    case RecoveryCause::kOpenGop: return "open-gop";
    case RecoveryCause::kScanTruncated: return "scan-truncated";
    case RecoveryCause::kWatchdog: return "watchdog";
    case RecoveryCause::kDisplayTimeout: return "display-timeout";
  }
  return "unknown";
}

WorkerLoadSummary summarize_load(std::span<const std::int64_t> busy_ns,
                                 std::span<const std::int64_t> sync_ns,
                                 std::span<const std::int64_t> idle_ns,
                                 std::span<const std::uint64_t> tasks) {
  WorkerLoadSummary out;
  out.workers = static_cast<int>(busy_ns.size());
  if (busy_ns.empty()) return out;

  double sync_ratio_sum = 0.0;
  int sync_ratio_counted = 0;
  out.min_busy_ns = busy_ns[0];
  for (std::size_t i = 0; i < busy_ns.size(); ++i) {
    const std::int64_t busy = busy_ns[i];
    const std::int64_t sync = i < sync_ns.size() ? sync_ns[i] : 0;
    out.min_busy_ns = std::min(out.min_busy_ns, busy);
    out.max_busy_ns = std::max(out.max_busy_ns, busy);
    out.total_busy_ns += busy;
    out.total_sync_ns += sync;
    if (i < idle_ns.size()) out.total_idle_ns += idle_ns[i];
    if (i < tasks.size()) out.tasks += tasks[i];
    const double denom = static_cast<double>(sync + busy);
    if (denom > 0) {
      sync_ratio_sum += static_cast<double>(sync) / denom;
      ++sync_ratio_counted;
    }
  }
  out.avg_busy_ns = static_cast<double>(out.total_busy_ns) /
                    static_cast<double>(out.workers);
  out.imbalance = out.avg_busy_ns > 0
                      ? static_cast<double>(out.max_busy_ns) / out.avg_busy_ns
                      : 0.0;
  out.sync_ratio =
      sync_ratio_counted > 0 ? sync_ratio_sum / sync_ratio_counted : 0.0;
  const double occupied = static_cast<double>(
      out.total_busy_ns + out.total_sync_ns + out.total_idle_ns);
  out.utilization =
      occupied > 0 ? static_cast<double>(out.total_busy_ns) / occupied : 0.0;
  return out;
}

WorkerLoadSummary summarize_load(const RunResult& result) {
  std::vector<std::int64_t> busy, sync, idle;
  std::vector<std::uint64_t> tasks;
  busy.reserve(result.workers.size());
  sync.reserve(result.workers.size());
  idle.reserve(result.workers.size());
  tasks.reserve(result.workers.size());
  for (const auto& w : result.workers) {
    busy.push_back(w.compute_ns);
    sync.push_back(w.sync_ns);
    idle.push_back(w.idle_ns);
    tasks.push_back(w.tasks);
  }
  return summarize_load(busy, sync, idle, tasks);
}

void derive_idle(RunResult& result) {
  const auto wall_ns = static_cast<std::int64_t>(result.wall_s * 1e9);
  for (auto& w : result.workers) {
    w.idle_ns = std::max<std::int64_t>(0, wall_ns - w.compute_ns - w.sync_ns);
  }
}

namespace {

constexpr std::uint64_t kPrime = 0x100000001B3ULL;  // odd: *kPrime is a bijection
constexpr int kLanes = 4;
constexpr int kBlockBytes = kLanes * 8;

// Bijective in `lane` for a fixed word and in `word` for a fixed lane.
std::uint64_t step(std::uint64_t lane, std::uint64_t word) {
  return std::rotl((lane ^ word) * kPrime, 31);
}

}  // namespace

std::uint64_t frame_digest(const mpeg2::Frame& frame) {
  std::uint64_t lanes[kLanes] = {0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL,
                                 0xA4093822299F31D0ULL, 0x082EFA98EC4E6C89ULL};
  for (int p = 0; p < 3; ++p) {
    const int w = p == 0 ? frame.width() : (frame.width() + 1) / 2;
    const int h = p == 0 ? frame.height() : (frame.height() + 1) / 2;
    const int stride = frame.stride(p);
    const int body = w / kBlockBytes * kBlockBytes;
    const std::uint8_t* row = frame.plane(p);
    for (int y = 0; y < h; ++y, row += stride) {
      std::uint64_t words[kLanes];
      for (int x = 0; x < body; x += kBlockBytes) {
        std::memcpy(words, row + x, kBlockBytes);
        for (int l = 0; l < kLanes; ++l) lanes[l] = step(lanes[l], words[l]);
      }
      if (body < w) {
        // Zero-filled tail: for a fixed width the map from tail bytes to
        // words is injective, so the tail keeps the single-byte guarantee.
        std::memset(words, 0, sizeof words);
        std::memcpy(words, row + body, static_cast<std::size_t>(w - body));
        for (int l = 0; l < kLanes; ++l) lanes[l] = step(lanes[l], words[l]);
      }
    }
  }
  std::uint64_t digest = lanes[0];
  for (int l = 1; l < kLanes; ++l) digest = step(digest, lanes[l]);
  return digest;
}

std::uint64_t chain_digest(std::uint64_t digest, std::uint64_t frame_value) {
  return step(digest, frame_value);
}

std::uint64_t chain_frame_checksum(std::uint64_t digest,
                                   const mpeg2::Frame& frame) {
  return chain_digest(digest, frame_digest(frame));
}

}  // namespace pmp2::parallel
