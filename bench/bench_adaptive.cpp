// Adaptive-granularity Pareto sweep (docs/PERFORMANCE.md section 7).
//
// The paper fixes granularity per experiment: GOP tasks maximize
// throughput (Fig. 5), slice tasks minimize latency (Fig. 11). The
// adaptive granularity runs every GOP whole and splits it into
// macroblock-row tasks only while a worker is idle; this harness sweeps
// all three policies at 2/4/8/14 workers on both objectives:
//
//   - p99 frame latency, from a *paced* simulation where the scan process
//     delivers bytes at the stream's real-time rate (the broadcast-input
//     regime where splitting for idle workers pays off), and
//   - pictures/second, from an unpaced simulation (scan outruns decode,
//     the paper's throughput regime).
//
// A policy is Pareto-dominated when another is at least as good on both
// axes. The acceptance claim: adaptive matches or dominates both fixed
// modes at every worker count. All three are the one simulator model
// (sched::simulate) at different granularities.
#include <cstdint>
#include <string>

#include "bench/common.h"
#include "sched/sim.h"

using namespace pmp2;

namespace {

struct ModeResult {
  std::int64_t p99_ns = 0;  // paced p99 frame latency
  double pps = 0.0;         // unpaced throughput
  sched::SimResult paced;   // adaptive accounting lives here
};

/// True when `a` is at least as good as `b` on both axes, within `tol`
/// (relative): latency no more than (1+tol) of b's, throughput at least
/// (1-tol) of b's.
bool matches_or_dominates(const ModeResult& a, const ModeResult& b,
                          double tol) {
  const double lat_a = static_cast<double>(a.p99_ns);
  const double lat_b = static_cast<double>(b.p99_ns);
  return lat_a <= lat_b * (1.0 + tol) && a.pps >= b.pps * (1.0 - tol);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::print_header(
      "Adaptive granularity: latency/throughput Pareto sweep",
      "hybrid GOP/slice dispatch; cf. Bilas et al. Figs. 5 and 11");
  const auto worker_list = flags.get_int_list("workers", {2, 4, 8, 14});
  const int gop = static_cast<int>(flags.get_int("gop", 13));
  // "Matches" tolerance for the Pareto verdict: the simulator is
  // deterministic, but tie-breaking between policies can differ by a
  // queue-overhead quantum, so exact equality is too strict.
  const double tol = flags.get_double("tol", 0.01);

  obs::RunReport report("bench_adaptive",
                        "Adaptive vs fixed granularity: p99 frame latency "
                        "(paced) and throughput (unpaced)");
  report.set_meta("gop_size", gop);
  report.set_meta("pareto_tol", tol);

  int pareto_ok = 0, pareto_total = 0;

  for (const auto& res : bench::resolutions(flags)) {
    streamgen::StreamSpec spec;
    spec.width = res.width;
    spec.height = res.height;
    spec.bit_rate = res.bit_rate;
    spec.gop_size = gop;
    spec = bench::apply_scale(spec, flags);
    const auto profile = bench::sim_profile(spec, flags);

    // Real-time byte rate of this stream: the paced runs feed the scan at
    // exactly playback speed, so frame latency measures how long a picture
    // waits behind the dispatch policy, not behind an infinitely fast scan.
    const double realtime_bytes_per_ns =
        static_cast<double>(profile.stream_bytes) * profile.frame_rate /
        (static_cast<double>(profile.total_pictures()) * 1e9);

    std::cout << "\n--- " << res.width << "x" << res.height << " ("
              << profile.gops.size() << " GOPs, "
              << profile.slices_per_picture << " slices/picture) ---\n";

    Table table({"workers", "policy", "p99 latency (ms)", "pics/s",
                 "gop-mode", "exploded"});
    for (const int workers : worker_list) {
      sched::SimConfig paced;
      paced.workers = workers;
      paced.scan_bytes_per_ns = realtime_bytes_per_ns;
      sched::SimConfig unpaced;
      unpaced.workers = workers;

      auto run = [&](sched::Granularity granularity) {
        paced.granularity = unpaced.granularity = granularity;
        ModeResult r;
        r.paced = sched::simulate(profile, paced);
        r.p99_ns = r.paced.latency_percentile(99);
        r.pps = sched::simulate(profile, unpaced).pictures_per_second();
        return r;
      };
      const ModeResult gop_fixed = run(sched::Granularity::kWholeGop);
      const ModeResult slice_fixed = run(sched::Granularity::kSlice);
      const ModeResult adaptive = run(sched::Granularity::kAdaptive);

      const bool ok = matches_or_dominates(adaptive, gop_fixed, tol) &&
                      matches_or_dominates(adaptive, slice_fixed, tol);
      pareto_ok += ok ? 1 : 0;
      ++pareto_total;

      struct Named {
        const char* name;
        const ModeResult* r;
      };
      for (const auto& [name, r] :
           {Named{"gop", &gop_fixed}, Named{"slice", &slice_fixed},
            Named{"adaptive", &adaptive}}) {
        const bool is_adaptive = r == &adaptive;
        table.add_row(
            {std::to_string(workers), name,
             Table::fmt(static_cast<double>(r->p99_ns) / 1e6, 3),
             Table::fmt(r->pps, 1),
             is_adaptive ? std::to_string(r->paced.gop_mode_gops) : "-",
             is_adaptive ? std::to_string(r->paced.exploded_gops) : "-"});
        auto& row = report.add_row()
                        .set("width", res.width)
                        .set("height", res.height)
                        .set("workers", workers)
                        .set("policy", name)
                        .set("p99_latency_ns", r->p99_ns)
                        .set("pictures_per_second", r->pps);
        if (is_adaptive) {
          row.set("gop_mode_gops", r->paced.gop_mode_gops)
              .set("exploded_gops", r->paced.exploded_gops)
              .set("pareto_ok", ok);
        }
      }

      std::cout << "  P=" << workers << ": adaptive "
                << (ok ? "matches-or-dominates" : "DOMINATED by a fixed mode")
                << "  [p99 " << Table::fmt(adaptive.p99_ns / 1e6, 3) << " ms"
                << " vs gop " << Table::fmt(gop_fixed.p99_ns / 1e6, 3)
                << " / slice " << Table::fmt(slice_fixed.p99_ns / 1e6, 3)
                << "; pics/s " << Table::fmt(adaptive.pps, 1) << " vs gop "
                << Table::fmt(gop_fixed.pps, 1) << " / slice "
                << Table::fmt(slice_fixed.pps, 1) << "]\n";
    }
    std::cout << "\n";
    table.print(std::cout);
  }

  report.set_meta("pareto_ok", pareto_ok);
  report.set_meta("pareto_total", pareto_total);
  std::cout << "\nPareto verdict: adaptive matches-or-dominates both fixed"
            << " modes in " << pareto_ok << "/" << pareto_total
            << " (workers x resolution) cells (tol "
            << Table::fmt(tol * 100, 1) << "%).\n"
            << "Reading: GOP dispatch wins throughput but queues whole GOPs"
            << " ahead of the display; slice dispatch wins latency but pays"
            << " per-picture overhead; adaptive splits a GOP into row"
            << " tasks only while a worker is idle.\n";
  return bench::finish(flags, report);
}
