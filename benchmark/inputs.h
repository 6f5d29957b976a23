// Benchmark inputs: the three pinned 130-picture base streams, the clips
// and segments cut from them, fault-injected copies, the oracle output of
// every distinct input, and each workload's seeded request schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pmp2::benchmark {

inline constexpr double kFps = 30.0;  // the encoder's frame_rate_code 5
// Every decode runs with this watchdog, so a wedged one fails, not hangs.
inline constexpr std::int64_t kWatchdogNs = 10'000'000'000;

/// Encodes base stream `name` (cif, sd or hd) into `dir`/<name>.m2v. Fails
/// when the encoder's output differs from the pinned hash.
bool prepare_stream(const std::string& name, const std::string& dir,
                    std::string& error);

/// One distinct decode input and the output every correct decode of it
/// reproduces.
struct Input {
  std::string label;
  std::vector<std::uint8_t> bytes;
  int width = 0;
  int height = 0;
  bool faulted = false;
  std::uint64_t checksum = 0;  // oracle display-order digest
  int pictures = 0;            // oracle pictures delivered
};

/// A request of an open-loop schedule: when it is due, relative to the
/// start of the schedule, and which input it decodes.
struct Arrival {
  std::int64_t due_ns = 0;
  int input = 0;
};

/// Everything a workload's seed determines.
struct Plan {
  std::string workload;
  bool server = true;    // DecodeServer sessions, else AdaptiveDecoder
  bool open_loop = false;
  int clients = 1;       // closed loop: concurrent clients
  std::vector<Input> inputs;
  std::vector<int> requests;      // closed loop: input of request k (cycled)
  std::vector<Arrival> arrivals;  // open loop, sorted by due time
  double late_budget_s = 0.0;     // open loop: display deadline budget
};

/// Builds the plan of `workload` (hd_single, hd_seek, live_segments or
/// vod_faulted) for `seed` over `seconds` of schedule, reading the base
/// streams from `dir`. Computes every oracle.
bool make_plan(const std::string& workload, std::uint64_t seed,
               double seconds, const std::string& dir, Plan& out,
               std::string& error);

}  // namespace pmp2::benchmark
