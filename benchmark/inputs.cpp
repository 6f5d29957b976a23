#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <span>

#include "inject/fault.h"
#include "mpeg2/decoder.h"
#include "parallel/adaptive/adaptive_decoder.h"
#include "streamgen/stream_factory.h"
#include "util/rng.h"

namespace pmp2::benchmark {

namespace {

constexpr int kGopSize = 13;
constexpr int kBaseGops = 10;
constexpr int kBasePictures = kGopSize * kBaseGops;

/// One base stream: what the encoder is given, and the FNV-1a hash its
/// output must have.
struct BaseStream {
  const char* name;
  int width;
  int height;
  std::int64_t bit_rate;
  std::uint64_t fnv1a;
};

// Table-1 resolutions at the paper's bit rates. The hashes pin the
// encoder's output: a change to the encoder or the scene generator changes
// the inputs, and prepare_stream refuses to write them.
constexpr BaseStream kBaseStreams[] = {
    {"cif", 352, 240, 5'000'000, 0x5b5c0ac8fa80bee9},
    {"sd", 704, 480, 5'000'000, 0xb8c0a5726d83d065},
    {"hd", 1408, 960, 7'000'000, 0xb47b8ea53bb3a879},
};

const BaseStream* find_base(const std::string& name) {
  for (const auto& b : kBaseStreams) {
    if (name == b.name) return &b;
  }
  return nullptr;
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3ULL;
  }
  return h;
}

std::string stream_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".m2v";
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// A base stream cut into its preamble and its GOPs.
struct Source {
  const BaseStream* base = nullptr;
  std::vector<std::uint8_t> bytes;
  std::size_t preamble_end = 0;
  std::vector<std::pair<std::size_t, std::size_t>> gops;  // [begin, end)
};

bool load_source(const std::string& dir, const std::string& name,
                 Source& out, std::string& error) {
  out.base = find_base(name);
  const std::string path = stream_path(dir, name);
  std::ifstream in(path, std::ios::binary);
  if (!out.base || !in) {
    error = "missing " + path + " (run: python3 benchmark/run.py --prepare)";
    return false;
  }
  out.bytes.assign(std::istreambuf_iterator<char>(in), {});
  if (fnv1a(out.bytes) != out.base->fnv1a) {
    error = path + " does not match its pinned hash; delete it and prepare";
    return false;
  }
  const mpeg2::StreamStructure s = mpeg2::scan_structure(out.bytes);
  if (!s.valid || s.gops.size() != static_cast<std::size_t>(kBaseGops)) {
    error = path + ": expected " + std::to_string(kBaseGops) + " GOPs";
    return false;
  }
  for (const auto& g : s.gops) {
    if (!g.closed || g.pictures.size() != static_cast<std::size_t>(kGopSize)) {
      error = path + ": expected closed " + std::to_string(kGopSize) +
              "-picture GOPs";
      return false;
    }
    out.gops.emplace_back(g.offset, g.end_offset);
  }
  out.preamble_end = out.gops.front().first;
  return true;
}

/// Preamble + the GOPs `gops` in that order + sequence_end_code. Without
/// the end code the parallel decoders quarantine the last slice of every
/// non-first one-GOP segment while the sequential decoder accepts it
/// (README.md, "Known caveats").
Input cut(const Source& s, const std::string& label,
          const std::vector<int>& gops) {
  Input in;
  in.label = std::string(s.base->name) + "/" + label;
  in.width = s.base->width;
  in.height = s.base->height;
  const auto at = [&](std::size_t off) {
    return s.bytes.begin() + static_cast<std::ptrdiff_t>(off);
  };
  in.bytes.assign(at(0), at(s.preamble_end));
  for (const int g : gops) {
    const auto& [begin, end] = s.gops[static_cast<std::size_t>(g)];
    in.bytes.insert(in.bytes.end(), at(begin), at(end));
  }
  in.bytes.insert(in.bytes.end(), {0x00, 0x00, 0x01, 0xB7});
  return in;
}

std::vector<int> gop_range(int first, int count) {
  std::vector<int> out(static_cast<std::size_t>(count));
  std::iota(out.begin(), out.end(), first);
  return out;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(static_cast<std::uint32_t>(i))]);
  }
}

/// Clean inputs: the sequential reference decoder's output.
bool clean_oracle(Input& in, std::string& error) {
  mpeg2::Decoder decoder;
  std::uint64_t digest = 0;
  int pictures = 0;
  const auto status =
      decoder.decode_stream(in.bytes, [&](mpeg2::FramePtr frame) {
        digest = parallel::chain_frame_checksum(digest, *frame);
        ++pictures;
      });
  if (!status.ok || pictures == 0) {
    error = "sequential decoder failed on " + in.label;
    return false;
  }
  in.checksum = digest;
  in.pictures = pictures;
  return true;
}

/// Faulted inputs: a solo quarantine decode's output. True only when that
/// decode completed and recovery ran, so a session of this input provably
/// exercises concealment.
bool faulted_oracle(Input& in) {
  parallel::AdaptiveDecoderConfig config;
  config.quarantine_gops = true;
  config.watchdog_ns = kWatchdogNs;
  int pictures = 0;
  const parallel::RunResult r = parallel::AdaptiveDecoder(config).decode(
      in.bytes, [&](mpeg2::FramePtr) { ++pictures; });
  in.checksum = r.checksum;
  in.pictures = pictures;
  return r.ok && !r.hung && pictures > 0 &&
         (r.concealed_slices > 0 || r.concealed_pictures > 0);
}

bool plan_hd_single(Rng& rng, const std::string& dir, Plan& plan,
                    std::string& error) {
  Source hd;
  if (!load_source(dir, "hd", hd, error)) return false;
  // All ten GOPs, the last nine in a seeded order: the same work for every
  // seed. GOP 0 stays first because time to first frame is the decode of
  // the first GOP's I picture, whose size differs between GOPs.
  std::vector<int> rest = gop_range(1, kBaseGops - 1);
  shuffle(rest, rng);
  std::vector<int> order = {0};
  order.insert(order.end(), rest.begin(), rest.end());
  std::string label = "order";
  for (const int g : order) label += "-" + std::to_string(g);
  plan.server = false;
  plan.inputs.push_back(cut(hd, label, order));
  plan.requests = {0};
  return true;
}

bool plan_hd_seek(Rng& rng, const std::string& dir, Plan& plan,
                  std::string& error) {
  Source hd;
  if (!load_source(dir, "hd", hd, error)) return false;
  constexpr int kClipGops = 2;
  for (int g = 0; g + kClipGops <= kBaseGops; ++g) {
    plan.inputs.push_back(
        cut(hd, "g" + std::to_string(g) + "+2", gop_range(g, kClipGops)));
  }
  plan.clients = 4;
  const auto clips = static_cast<std::uint32_t>(plan.inputs.size());
  plan.requests.resize(4096);
  for (int& r : plan.requests) r = static_cast<int>(rng.next_below(clips));
  return true;
}

bool plan_live_segments(Rng& rng, double seconds, const std::string& dir,
                        Plan& plan, std::string& error) {
  Source src[2];
  if (!load_source(dir, "cif", src[0], error) ||
      !load_source(dir, "sd", src[1], error)) {
    return false;
  }
  for (const Source& s : src) {
    for (int g = 0; g < kBaseGops; ++g) {
      plan.inputs.push_back(cut(s, "g" + std::to_string(g), {g}));
    }
  }
  // 32 channels, alternating CIF and SD, each publishing one GOP every
  // GOP duration at a staggered phase, cycling through the stream's GOPs.
  constexpr int kChannels = 32;
  const auto period = static_cast<std::int64_t>(kGopSize / kFps * 1e9);
  const auto horizon = static_cast<std::int64_t>(seconds * 1e9);
  for (int c = 0; c < kChannels; ++c) {
    const auto phase = static_cast<std::int64_t>(
        (c + rng.next_double()) * static_cast<double>(period) / kChannels);
    const int first = static_cast<int>(rng.next_below(kBaseGops));
    for (std::int64_t k = 0; phase + k * period < horizon; ++k) {
      plan.arrivals.push_back(
          {phase + k * period,
           (c % 2) * kBaseGops + static_cast<int>((first + k) % kBaseGops)});
    }
  }
  std::sort(plan.arrivals.begin(), plan.arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.due_ns < b.due_ns; });
  plan.open_loop = true;
  plan.late_budget_s = kGopSize / kFps;
  return true;
}

bool plan_vod_faulted(Rng& rng, std::uint64_t seed, double seconds,
                      const std::string& dir, Plan& plan,
                      std::string& error) {
  Source src[2];
  if (!load_source(dir, "cif", src[0], error) ||
      !load_source(dir, "sd", src[1], error)) {
    return false;
  }
  constexpr int kClipGops = 5;
  constexpr int kStarts = kBaseGops - kClipGops + 1;
  for (const Source& s : src) {
    for (int g = 0; g < kStarts; ++g) {
      plan.inputs.push_back(
          cut(s, "g" + std::to_string(g) + "+5", gop_range(g, kClipGops)));
    }
  }
  const int clean = static_cast<int>(plan.inputs.size());
  // Faulted copies, half CIF and half SD. A planned fault that leaves the
  // decode without any concealment would not exercise recovery: skip it.
  constexpr int kFaulted = 8;
  constexpr std::uint64_t kMaxAttempts = 64;
  std::uint64_t attempt = 0;
  for (int j = 0; j < kFaulted; ++j) {
    for (;;) {
      if (attempt == kMaxAttempts) {
        error = "no recoverable fault found for vod_faulted";
        return false;
      }
      const int base = (j % 2) * kStarts +
                       static_cast<int>(rng.next_below(kStarts));
      const inject::FaultSpec spec = inject::plan_fault(seed, attempt++);
      Input in = plan.inputs[static_cast<std::size_t>(base)];
      in.label += "/" + spec.name();
      in.bytes = inject::apply_fault(in.bytes, spec);
      in.faulted = true;
      if (faulted_oracle(in)) {
        plan.inputs.push_back(std::move(in));
        break;
      }
    }
  }
  // Poisson arrivals at 12 sessions/s, conditioned on their count so every
  // seed offers the same load; exactly one session in four is faulted.
  constexpr double kRate = 12.0;
  const auto n = static_cast<std::size_t>(kRate * seconds + 0.5);
  std::vector<std::int64_t> due(n);
  for (auto& d : due) {
    d = static_cast<std::int64_t>(rng.next_double() * seconds * 1e9);
  }
  std::sort(due.begin(), due.end());
  // Inputs are dealt from shuffled decks, so every distinct input recurs
  // equally often and the CIF/SD mix does not drift with the seed.
  std::vector<int> decks[2];  // clean, faulted
  std::size_t faulted_pos = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 4 == 0) faulted_pos = i + rng.next_below(4);
    const bool faulted = i == faulted_pos;
    std::vector<int>& deck = decks[faulted ? 1 : 0];
    if (deck.empty()) {
      deck = faulted ? gop_range(clean, kFaulted) : gop_range(0, clean);
      shuffle(deck, rng);
    }
    plan.arrivals.push_back({due[i], deck.back()});
    deck.pop_back();
  }
  plan.open_loop = true;
  plan.late_budget_s = 1.0;
  return true;
}

}  // namespace

bool prepare_stream(const std::string& name, const std::string& dir,
                    std::string& error) {
  const BaseStream* base = find_base(name);
  if (!base) {
    error = "unknown stream " + name;
    return false;
  }
  streamgen::StreamSpec spec;
  spec.width = base->width;
  spec.height = base->height;
  spec.bit_rate = base->bit_rate;
  spec.gop_size = kGopSize;
  spec.pictures = kBasePictures;
  const std::vector<std::uint8_t> bytes = streamgen::generate_stream(spec);
  const std::uint64_t hash = fnv1a(bytes);
  if (hash != base->fnv1a) {
    error = name + ": encoder output hash " + hex(hash) + " != pinned " +
            hex(base->fnv1a);
    return false;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = stream_path(dir, name);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      error = "cannot write " + tmp;
      return false;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    error = "cannot rename " + tmp + ": " + ec.message();
    return false;
  }
  return true;
}

bool make_plan(const std::string& workload, std::uint64_t seed,
               double seconds, const std::string& dir, Plan& out,
               std::string& error) {
  out = Plan{};
  out.workload = workload;
  Rng rng(seed);
  bool ok = false;
  if (workload == "hd_single") {
    ok = plan_hd_single(rng, dir, out, error);
  } else if (workload == "hd_seek") {
    ok = plan_hd_seek(rng, dir, out, error);
  } else if (workload == "live_segments") {
    ok = plan_live_segments(rng, seconds, dir, out, error);
  } else if (workload == "vod_faulted") {
    ok = plan_vod_faulted(rng, seed, seconds, dir, out, error);
  } else {
    error = "unknown workload " + workload;
  }
  if (!ok) return false;
  for (Input& in : out.inputs) {
    if (!in.faulted && !clean_oracle(in, error)) return false;
  }
  return true;
}

}  // namespace pmp2::benchmark
