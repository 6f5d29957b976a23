// Real-time playback scenario (the paper's motivating application): decode
// a stream with the sequential decoder, the GOP-parallel decoder, both
// slice-parallel decoders and the adaptive hybrid, report pictures/sec
// against the 30 pics/s real-time bar, and verify all five outputs are
// bit-identical. Exits nonzero if any decode fails or diverges from the
// sequential reference.
//
//   ./parallel_playback [--width=352 --pictures=52 --gop=13 --workers=N]
//                       [--stream=in.m2v]
//                       [--trace-out=trace.json] [--journal-out=run.journal]
//                       [--trace-decoder=gop|slice-simple|slice-improved
//                                       |adaptive]
//                       [--report-out=report.json] [--metrics] [--analyze]
//                       [--live-out=live.ndjson] [--live-interval-ms=250]
//                       [--prom-out=live.prom] [--watchdog-ms=N]
//                       [--slo=latency_p99_ms=X,min_pics_s=Y,max_stall_ms=Z]
//                       [--inject-stall-ms=N]
//                       [--prof-counters] [--prof-json-out=run.prof.json]
//                       [--prof-out=run.folded] [--prof-interval-us=997]
//
// --trace-out captures a Chrome trace_event timeline (open in Perfetto /
// chrome://tracing) of the decoder named by --trace-decoder; --journal-out
// writes the same spans as a compact binary journal for tools/pmp2_analyze;
// --analyze runs the trace analyzer in-process and prints its report
// (docs/ANALYSIS.md); --report-out writes the table as a structured JSON
// run report with the counter registry attached; --metrics dumps the
// registry as text to stdout.
//
// --live-out streams one pmp2-live/1 NDJSON snapshot per sampling tick
// while the parallel decoders run (watch with tools/pmp2_top); --prom-out
// keeps a Prometheus-style exposition file atomically refreshed; --slo
// arms in-flight alert rules (raised on stderr as they fire, and recorded
// under "alerts" in the report). All three parallel decoders publish into
// one telemetry surface, so the stream covers the whole playback run.
// --watchdog-ms arms the decoders' hang watchdogs; a hung run exits
// nonzero with the watchdog's last-known-state evidence on stderr.
// --inject-stall-ms stalls the GOP decoder's frame consumer once,
// mid-stream, for N ms — a fault hook to watch the max_stall_ms SLO fire
// (and clear) on a real pipeline.
//
// --prof-counters attributes hardware counters (or the software fallback
// when perf is unavailable) per pipeline stage and prints the paper-§7
// ideal-vs-memory-stall split; --prof-json-out writes the pmp2-prof/1
// summary for pmp2_analyze --prof. --prof-out runs the in-process
// sampling profiler across the parallel decodes and writes collapsed
// stacks (flamegraph "folded" format; inspect with tools/pmp2_prof).
// --stream=in.m2v plays a file-backed elementary stream (memory-mapped;
// read fallback) instead of encoding a synthetic one.
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "io/mapped_file.h"
#include "mpeg2/decoder.h"
#include "mpeg2/kernels/kernels.h"
#include "obs/analysis/analyzer.h"
#include "obs/analysis/timeline.h"
#include "obs/live/sampler.h"
#include "obs/live/telemetry.h"
#include "obs/metrics.h"
#include "obs/prof/sampling.h"
#include "obs/prof/stage_prof.h"
#include "obs/report.h"
#include "obs/tracer.h"
#include "parallel/adaptive/adaptive_decoder.h"
#include "parallel/gop_decoder.h"
#include "parallel/slice_parallel.h"
#include "streamgen/stream_factory.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/timer.h"

using namespace pmp2;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  streamgen::StreamSpec spec;
  spec.width = static_cast<int>(flags.get_int("width", 352));
  spec.height = static_cast<int>(
      flags.get_int("height", spec.width * 240 / 352));
  spec.pictures = static_cast<int>(flags.get_int("pictures", 52));
  spec.gop_size = static_cast<int>(flags.get_int("gop", 13));
  spec.bit_rate = flags.get_int("bitrate", 5'000'000);
  const int workers = static_cast<int>(flags.get_int(
      "workers", std::max(2u, std::thread::hardware_concurrency())));
  const std::string trace_out = flags.get_string("trace-out", "");
  const std::string journal_out = flags.get_string("journal-out", "");
  const std::string trace_decoder =
      flags.get_string("trace-decoder", "slice-improved");
  const std::string report_out = flags.get_string("report-out", "");
  const bool dump_metrics = flags.get_bool("metrics", false);
  const bool analyze_trace = flags.get_bool("analyze", false);
  const std::string live_out = flags.get_string("live-out", "");
  const std::string prom_out = flags.get_string("prom-out", "");
  const std::int64_t live_interval_ms =
      flags.get_int("live-interval-ms", 250);
  const std::string slo_text = flags.get_string("slo", "");
  const std::int64_t watchdog_ms = flags.get_int("watchdog-ms", 0);
  const std::string prof_json_out = flags.get_string("prof-json-out", "");
  const bool prof_counters =
      flags.get_bool("prof-counters", false) || !prof_json_out.empty();
  const std::string prof_out = flags.get_string("prof-out", "");
  const std::int64_t prof_interval_us =
      flags.get_int("prof-interval-us", 997);

  // --kernels=scalar|sse2|avx2 forces the kernel backend (same values as
  // the PMP2_KERNELS env override); the default is the CPUID selection.
  const std::string kernels_flag = flags.get_string("kernels", "");
  if (!kernels_flag.empty()) {
    mpeg2::kernels::Backend kb;
    if (!mpeg2::kernels::parse_backend(kernels_flag, kb) ||
        !mpeg2::kernels::set_backend(kb)) {
      std::cerr << "error: --kernels=" << kernels_flag
                << " unknown or unavailable (have:";
      for (const auto b : mpeg2::kernels::available_backends()) {
        std::cerr << " " << mpeg2::kernels::backend_name(b);
      }
      std::cerr << ")\n";
      return 2;
    }
  }

  obs::live::SloRules slo;
  if (!slo_text.empty()) {
    std::string slo_error;
    if (!obs::live::SloRules::parse(slo_text, slo, &slo_error)) {
      std::cerr << "error: bad --slo: " << slo_error << "\n";
      return 2;
    }
  }

  const std::string stream_path = flags.get_string("stream", "");
  io::MappedFile stream_file;
  std::vector<std::uint8_t> generated;
  std::span<const std::uint8_t> stream;
  if (!stream_path.empty()) {
    if (!stream_file.open(stream_path) || stream_file.size() == 0) {
      std::cerr << "error: cannot read --stream=" << stream_path << "\n";
      return 2;
    }
    stream = stream_file.bytes();
    const auto structure = mpeg2::scan_structure(stream);
    if (!structure.valid) {
      std::cerr << "error: not an MPEG elementary stream: " << stream_path
                << "\n";
      return 2;
    }
    spec.width = structure.seq.horizontal_size;
    spec.height = structure.seq.vertical_size;
    std::cout << (stream_file.mapped() ? "Mapped " : "Read ")
              << stream.size() << " bytes from " << stream_path << " ("
              << spec.width << "x" << spec.height << ")...\n";
  } else {
    std::cout << "Encoding " << spec.pictures << " pictures at "
              << spec.width << "x" << spec.height << "...\n";
    generated = streamgen::generate_stream(spec);
    stream = generated;
  }

  // Track `workers` is the scan process; tracks [0, workers) are workers.
  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_out.empty() || !journal_out.empty() || analyze_trace) {
    tracer = std::make_unique<obs::Tracer>(workers + 1);
    tracer->track(workers).set_name("scan");
  }
  obs::Registry metrics;

  // One telemetry surface shared by all three parallel decoders (they run
  // back to back on the same worker indices), so --live-out streams the
  // whole playback run and the final snapshot's picture total matches the
  // sum over the report's parallel rows.
  std::unique_ptr<obs::live::LiveTelemetry> live;
  std::unique_ptr<obs::live::LiveSampler> sampler;
  if (!live_out.empty() || !prom_out.empty() || slo.any()) {
    live = std::make_unique<obs::live::LiveTelemetry>(workers);
    obs::live::LiveSampler::Options opt;
    opt.interval_ms = live_interval_ms;
    opt.slo = slo;
    opt.ndjson_path = live_out;
    opt.prometheus_path = prom_out;
    opt.on_alert = [](const obs::live::Alert& alert, bool fired) {
      std::cerr << "live-alert " << (fired ? "FIRED" : "cleared") << ": "
                << alert.rule << " value=" << alert.value
                << " threshold=" << alert.threshold << "\n";
    };
    sampler = std::make_unique<obs::live::LiveSampler>(*live, opt);
    sampler->start();
  }

  // Host counter capability is identity metadata whether or not profiling
  // runs: bench_check must never compare counter columns across
  // differently-capable hosts (docs/OBSERVABILITY.md).
  const obs::prof::HostProfile host = obs::prof::probe_host();

  // Slot `workers` is the scan process, like tracer track `workers`.
  std::unique_ptr<obs::prof::StageProfiler> prof;
  if (prof_counters) {
    prof = std::make_unique<obs::prof::StageProfiler>(
        obs::prof::make_counter_source(), workers + 1);
    if (live) live->set_counter_source(prof->source_name(), prof->mask());
  }

  obs::prof::SamplingProfiler stack_sampler;
  if (!prof_out.empty()) {
    obs::prof::SamplingOptions sopt;
    sopt.interval_us = static_cast<int>(prof_interval_us);
    if (!stack_sampler.start(sopt)) {
      std::cerr << "error: sampling profiler failed to start\n";
      return 2;
    }
  }

  Table t({"Decoder", "Workers", "Pictures/s", "Real-time (30/s)?",
           "Sync time %", "Output"});
  obs::RunReport report("parallel_playback",
                        "Playback of all decoders vs the real-time bar");
  report.set_meta("width", spec.width)
      .set_meta("height", spec.height)
      .set_meta("pictures", spec.pictures)
      .set_meta("gop_size", spec.gop_size)
      .set_meta("workers", workers)
      .set_meta("kernels_backend", mpeg2::kernels::active().name)
      .set_meta("cpu_features", mpeg2::kernels::cpu_features())
      .set_meta("kernel_release", host.kernel_release)
      .set_meta("perf_event_paranoid",
                static_cast<std::int64_t>(host.perf_event_paranoid))
      .set_meta("counter_source", host.source)
      .set_meta("counters_available", host.hw_available);
  report.attach_metrics(&metrics);

  // Sequential reference.
  std::uint64_t want = 0;
  {
    mpeg2::Decoder dec;
    WallTimer timer;
    int frames = 0;
    const auto st = dec.decode_stream(stream, [&](mpeg2::FramePtr f) {
      want = parallel::chain_frame_checksum(want, *f);
      ++frames;
    });
    const double pps = frames / timer.elapsed_s();
    if (!st.ok) {
      std::cerr << "sequential decode failed\n";
      return 1;
    }
    if (!stream_path.empty()) {
      spec.pictures = frames;  // file-backed runs learn the count here
      report.set_meta("pictures", frames);
    }
    t.add_row({"sequential", "1", Table::fmt(pps, 1),
               pps >= 30 ? "yes" : "no", "-", "reference"});
    report.add_row()
        .set("decoder", "sequential")
        .set("workers", 1)
        .set("pictures_per_second", pps)
        .set("bit_exact", true);
  }
  // The chained output checksum is the cross-backend identity anchor:
  // runs under PMP2_KERNELS=scalar, sse2 and avx2 must agree on it to the
  // byte (the kernel backends are bit-exact, not merely close).
  report.set_meta("stream_checksum", want);
  std::cout << "sequential checksum: 0x" << std::hex << want << std::dec
            << " (kernels: " << mpeg2::kernels::active().name << ")\n";

  int divergences = 0;
  int hangs = 0;
  auto record = [&](const char* name,
                    const parallel::RunResult& r) -> obs::RunReport::Row& {
    const auto load = parallel::summarize_load(r);
    const bool bit_exact = r.ok && r.checksum == want;
    if (!bit_exact) ++divergences;
    if (r.hung) {
      ++hangs;
      std::cerr << "error: " << name << " " << r.hang.to_string() << "\n";
    }
    const double pps = r.pictures_per_second();
    t.add_row({name, std::to_string(workers), Table::fmt(pps, 1),
               pps >= 30 ? "yes" : "no",
               Table::fmt(100 * load.sync_ratio, 1),
               !r.ok ? "DECODE FAILED"
                     : (bit_exact ? "bit-exact" : "MISMATCH")});
    auto& row = report.add_row();
    row.set("decoder", name)
        .set("pictures_per_second", pps)
        .set("bit_exact", bit_exact)
        .set("pictures", r.pictures)
        .set("concealed_slices", r.concealed_slices)
        .set("scan_s", r.scan_s)
        .set("peak_frame_bytes", r.peak_frame_bytes)
        .set("megabytes_per_second", r.megabytes_per_second());
    // Same load-summary schema as the bench harnesses.
    row.set("workers", workers)
        .set("tasks", load.tasks)
        .set("imbalance", load.imbalance)
        .set("sync_ratio", load.sync_ratio)
        .set("utilization", load.utilization);
    return row;
  };

  {
    mpeg2::MemoryTracker tracker;
    parallel::GopDecoderConfig cfg;
    cfg.workers = workers;
    cfg.tracker = &tracker;
    cfg.live = live.get();
    cfg.prof = prof.get();
    cfg.watchdog_ns = watchdog_ms * 1'000'000;
    if (trace_decoder == "gop") {
      cfg.tracer = tracer.get();
      cfg.metrics = &metrics;
    }
    // Stall fault hook: block the display consumer once at the stream's
    // midpoint. The bounded display queue backs the whole pipeline up, so
    // progress genuinely stops — the stall SLO must see it in flight.
    parallel::FrameCallback stall_cb;
    const std::int64_t inject_stall_ms =
        flags.get_int("inject-stall-ms", 0);
    if (inject_stall_ms > 0) {
      stall_cb = [seen = 0, at = spec.pictures / 2,
                  inject_stall_ms](mpeg2::FramePtr) mutable {
        if (++seen == at) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(inject_stall_ms));
        }
      };
    }
    record("GOP-parallel",
           parallel::GopParallelDecoder(cfg).decode(stream, stall_cb));
  }
  {
    parallel::SliceDecoderConfig cfg;
    cfg.workers = workers;
    cfg.policy = parallel::SlicePolicy::kSimple;
    cfg.live = live.get();
    cfg.prof = prof.get();
    cfg.watchdog_ns = watchdog_ms * 1'000'000;
    {
      mpeg2::MemoryTracker tracker;
      cfg.tracker = &tracker;
      if (trace_decoder == "slice-simple") {
        cfg.tracer = tracer.get();
        cfg.metrics = &metrics;
      }
      record("slice (simple)",
             parallel::SliceParallelDecoder(cfg).decode(stream));
    }
    {
      mpeg2::MemoryTracker tracker;
      cfg.tracker = &tracker;
      cfg.policy = parallel::SlicePolicy::kImproved;
      cfg.tracer = trace_decoder == "slice-improved" ? tracer.get() : nullptr;
      cfg.metrics = trace_decoder == "slice-improved" ? &metrics : nullptr;
      record("slice (improved)",
             parallel::SliceParallelDecoder(cfg).decode(stream));
    }
  }
  {
    mpeg2::MemoryTracker tracker;
    parallel::AdaptiveDecoderConfig cfg;
    cfg.workers = workers;
    cfg.tracker = &tracker;
    cfg.live = live.get();
    cfg.prof = prof.get();
    cfg.watchdog_ns = watchdog_ms * 1'000'000;
    if (trace_decoder == "adaptive") {
      cfg.tracer = tracer.get();
      cfg.metrics = &metrics;
    }
    const auto r = parallel::AdaptiveDecoder(cfg).decode(stream);
    record("adaptive", r)
        .set("gop_mode_gops", r.gop_mode_gops)
        .set("exploded_gops", r.exploded_gops)
        .set("pool_hits", static_cast<std::int64_t>(r.pool_hits))
        .set("pool_misses", static_cast<std::int64_t>(r.pool_misses));
    const std::uint64_t pool_total = r.pool_hits + r.pool_misses;
    std::cout << "adaptive dispatch: " << r.gop_mode_gops
              << " whole GOP(s), " << r.exploded_gops
              << " exploded, pool hit rate "
              << (pool_total > 0
                      ? Table::fmt(100.0 * static_cast<double>(r.pool_hits) /
                                       static_cast<double>(pool_total),
                                   1)
                      : "-")
              << "%\n";
  }

  // Final tick + alert log before the report is written, so the stream's
  // closing snapshot and the report agree on the run's totals.
  if (sampler) {
    sampler->stop();
    for (const auto& alert : sampler->alert_log()) {
      report.add_alert({alert.rule, alert.value, alert.threshold,
                        alert.fired_at_ns, alert.cleared_at_ns});
    }
    report.set_meta("live_snapshots",
                    static_cast<std::int64_t>(sampler->snapshots()));
    if (!live_out.empty()) {
      std::cout << "wrote " << live_out << " (" << sampler->snapshots()
                << " snapshots); watch with tools/pmp2_top\n";
    }
  }

  t.print(std::cout);
  std::cout << "\nNote: on a single-core host the threaded decoders cannot"
               " beat the sequential one; see the bench_* harnesses for the"
               " virtual-time multiprocessor results.\n";

  int rc = divergences > 0 || hangs > 0 ? 1 : 0;
  if (!prof_out.empty()) {
    stack_sampler.stop();
    const obs::prof::CollapsedProfile collapsed = stack_sampler.collapse();
    std::ofstream os(prof_out, std::ios::out | std::ios::trunc);
    if (os) {
      obs::prof::SamplingProfiler::write_collapsed(os, collapsed);
    }
    if (os) {
      std::cout << "wrote " << prof_out << " (" << collapsed.total
                << " samples, " << collapsed.stacks.size()
                << " stacks); inspect with tools/pmp2_prof\n";
      if (collapsed.dropped > 0) {
        std::cerr << "warning: sampling ring overflow dropped "
                  << collapsed.dropped << " sample(s)\n";
      }
    } else {
      std::cerr << "error: cannot write profile to " << prof_out << "\n";
      rc = 1;
    }
  }
  if (prof) {
    obs::prof::ProfSummary summary = prof->aggregate();
    summary.kernels_backend = mpeg2::kernels::active().name;
    std::cout << "\n=== stage counters (" << summary.source << ") ===\n";
    obs::prof::write_prof_text(std::cout, summary);
    if (!prof_json_out.empty()) {
      std::ofstream os(prof_json_out, std::ios::out | std::ios::trunc);
      if (os) obs::prof::write_prof_json(os, summary);
      if (os) {
        std::cout << "wrote " << prof_json_out
                  << "; decompose with pmp2_analyze --prof\n";
      } else {
        std::cerr << "error: cannot write profile to " << prof_json_out
                  << "\n";
        rc = 1;
      }
    }
  }
  if (divergences > 0) {
    std::cerr << "error: " << divergences
              << " decoder(s) failed or diverged from the sequential"
                 " reference\n";
  }
  if (hangs > 0) {
    std::cerr << "error: " << hangs << " decoder run(s) hung (watchdog"
              << " evidence above)\n";
  }
  if (sampler && !sampler->io_ok()) {
    std::cerr << "error: live telemetry exporter I/O failed\n";
    rc = 1;
  }
  if (tracer) {
    // Lossy-ring accounting in the run report: total plus per-track drops,
    // so a report consumer can tell an honest timeline from a truncated one
    // without opening the trace itself.
    report.set_meta("trace_decoder", trace_decoder)
        .set_meta("trace_spans", static_cast<std::int64_t>(
                                     tracer->total_spans()))
        .set_meta("trace_dropped", static_cast<std::int64_t>(
                                       tracer->total_dropped()));
    for (int i = 0; i <= workers; ++i) {
      const auto& track = tracer->track(i);
      if (track.dropped() > 0) {
        report.set_meta("trace_dropped_track_" + std::to_string(i),
                        static_cast<std::int64_t>(track.dropped()));
      }
    }
    if (tracer->total_dropped() > 0) {
      std::cerr << "warning: span ring overflow dropped "
                << tracer->total_dropped()
                << " span(s); timeline analyses will undercount\n";
    }
  }
  if (!trace_out.empty()) {
    if (tracer->write_chrome_trace_file(trace_out)) {
      std::cout << "wrote " << trace_out << " (" << tracer->total_spans()
                << " spans, decoder: " << trace_decoder
                << "); open in Perfetto or chrome://tracing\n";
    } else {
      std::cerr << "error: cannot write trace to " << trace_out << "\n";
      rc = 1;
    }
  }
  if (!journal_out.empty()) {
    if (tracer->write_journal_file(journal_out)) {
      std::cout << "wrote " << journal_out << " (" << tracer->total_spans()
                << " spans); analyze with tools/pmp2_analyze\n";
    } else {
      std::cerr << "error: cannot write journal to " << journal_out << "\n";
      rc = 1;
    }
  }
  if (analyze_trace) {
    std::cout << "\n=== trace analysis (" << trace_decoder << ") ===\n";
    const auto analysis =
        obs::analysis::analyze(obs::analysis::from_tracer(*tracer));
    obs::analysis::write_analysis_text(std::cout, analysis);
    if (!analysis.ok) {
      std::cerr << "error: trace analysis failed: " << analysis.error << "\n";
      rc = 1;
    }
  }
  if (dump_metrics) {
    std::cout << "\n";
    metrics.write_text(std::cout);
  }
  if (!report_out.empty()) {
    if (report.write_file(report_out)) {
      std::cout << "wrote " << report_out << " (" << report.rows()
                << " rows)\n";
    } else {
      std::cerr << "error: cannot write report to " << report_out << "\n";
      rc = 1;
    }
  }
  for (const auto& f : flags.unused()) {
    std::cerr << "warning: unused flag --" << f << "\n";
  }
  return rc;
}
