// Tests for the post-mortem analysis library (src/obs/analysis): timeline
// loaders (journal + Chrome round-trips), the analyzer against the
// simulator's own load summary, the critical-path walk, the drift
// detector, and bench-report comparison/aggregation.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/analysis/analyzer.h"
#include "obs/analysis/bench_compare.h"
#include "obs/analysis/drift.h"
#include "obs/analysis/timeline.h"
#include "obs/json_parse.h"
#include "obs/report.h"
#include "obs/tracer.h"
#include "sched/profile.h"
#include "sched/sim.h"

namespace pmp2 {
namespace {

using obs::SpanKind;
using obs::Tracer;
namespace analysis = obs::analysis;

// Synthetic profile: `gops` x `pics` x `slices` with mildly varying
// per-slice costs (deterministic), calibrated at `ns_per_unit`.
sched::StreamProfile make_profile(int gops, int pics, int slices,
                                  std::uint64_t base_units = 1000,
                                  double ns_per_unit = 2000.0) {
  sched::StreamProfile p;
  p.ok = true;
  p.width = 352;
  p.height = 240;
  p.slices_per_picture = slices;
  p.ns_per_unit = ns_per_unit;
  p.frame_rate = 30.0;
  int k = 0;
  for (int g = 0; g < gops; ++g) {
    sched::GopCost gc;
    gc.stream_bytes = 50'000;
    for (int i = 0; i < pics; ++i) {
      sched::PictureCost pc;
      pc.type = i == 0 ? mpeg2::PictureType::kI : mpeg2::PictureType::kP;
      pc.temporal_reference = i;
      for (int s = 0; s < slices; ++s, ++k) {
        sched::SliceCost sc;
        sc.units = base_units + static_cast<std::uint64_t>(37 * k % 211);
        sc.ns = static_cast<std::int64_t>(static_cast<double>(sc.units) *
                                          ns_per_unit);
        pc.slices.push_back(sc);
      }
      gc.pictures.push_back(pc);
    }
    p.stream_bytes += gc.stream_bytes;
    p.gops.push_back(std::move(gc));
  }
  p.scan_ns = static_cast<std::int64_t>(p.stream_bytes / 10);  // fast scan
  return p;
}

// --- Timeline loaders -----------------------------------------------------

TEST(Timeline, JournalRoundTripPreservesSpansNamesAndIds) {
  Tracer tracer(3);
  tracer.track(2).set_name("scan");
  tracer.emit(0, SpanKind::kSliceTask, 1000, 5000, 7, 2, -1);
  tracer.emit(0, SpanKind::kQueueWait, 5000, 6000);
  tracer.emit(1, SpanKind::kGopTask, 0, 9000, -1, -1, 3);
  tracer.emit(2, SpanKind::kScan, 0, 2500);

  std::stringstream ss;
  tracer.write_journal(ss);
  const analysis::Timeline tl = analysis::load_journal(ss);
  ASSERT_TRUE(tl.ok) << tl.error;
  ASSERT_EQ(tl.tracks.size(), 3u);
  // Unnamed tracks get the same fallback the live snapshot uses.
  EXPECT_EQ(tl.tracks[0].name, "worker 0");
  EXPECT_EQ(tl.tracks[1].name, "worker 1");
  EXPECT_EQ(tl.tracks[2].name, "scan");
  EXPECT_EQ(tl.total_spans(), 4u);
  EXPECT_FALSE(tl.lossy());

  ASSERT_EQ(tl.tracks[0].spans.size(), 2u);
  const obs::Span& s0 = tl.tracks[0].spans[0];
  EXPECT_EQ(s0.kind, SpanKind::kSliceTask);
  EXPECT_EQ(s0.begin_ns, 1000);
  EXPECT_EQ(s0.end_ns, 5000);
  EXPECT_EQ(s0.picture, 7);
  EXPECT_EQ(s0.slice, 2);
  EXPECT_EQ(s0.gop, -1);
  EXPECT_EQ(tl.tracks[0].spans[1].kind, SpanKind::kQueueWait);
  EXPECT_EQ(tl.tracks[1].spans[0].gop, 3);
  EXPECT_EQ(tl.tracks[2].spans[0].kind, SpanKind::kScan);
}

TEST(Timeline, JournalRoundTripPreservesDropAccounting) {
  Tracer tracer(1, /*capacity_per_track=*/4);
  for (int i = 0; i < 10; ++i) {
    tracer.emit(0, SpanKind::kSliceTask, i * 100, i * 100 + 50, i, 0, -1);
  }
  ASSERT_EQ(tracer.total_dropped(), 6u);

  std::stringstream ss;
  tracer.write_journal(ss);
  const analysis::Timeline tl = analysis::load_journal(ss);
  ASSERT_TRUE(tl.ok) << tl.error;
  EXPECT_EQ(tl.tracks[0].emitted, 10u);
  EXPECT_EQ(tl.tracks[0].dropped, 6u);
  EXPECT_EQ(tl.tracks[0].spans.size(), 4u);
  EXPECT_TRUE(tl.lossy());

  // The analyzer must surface the loss instead of silently under-counting.
  const analysis::Analysis a = analysis::analyze(tl);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_FALSE(a.warnings.empty());
  EXPECT_NE(a.warnings[0].find("lossy"), std::string::npos);
}

TEST(Timeline, JournalLoaderRejectsGarbage) {
  std::stringstream ss("NOTAJRNL-and-then-some-bytes");
  const analysis::Timeline tl = analysis::load_journal(ss);
  EXPECT_FALSE(tl.ok);
  EXPECT_FALSE(tl.error.empty());
}

TEST(Timeline, ChromeTraceRoundTripMatchesLiveSnapshot) {
  // Chrome export stores microsecond doubles: use multiples of 1000 ns so
  // the round-trip is exact and comparable span for span.
  Tracer tracer(2);
  tracer.track(1).set_name("scan");
  tracer.emit(0, SpanKind::kSliceTask, 5000, 125000, 3, 1, -1);
  tracer.emit(0, SpanKind::kBarrierWait, 125000, 180000);
  tracer.emit(1, SpanKind::kScan, 0, 90000);

  std::stringstream ss;
  tracer.write_chrome_trace(ss);
  const analysis::Timeline loaded = analysis::load_chrome_trace(ss.str());
  ASSERT_TRUE(loaded.ok) << loaded.error;
  const analysis::Timeline live = analysis::from_tracer(tracer);

  ASSERT_EQ(loaded.tracks.size(), live.tracks.size());
  for (std::size_t t = 0; t < live.tracks.size(); ++t) {
    EXPECT_EQ(loaded.tracks[t].name, live.tracks[t].name);
    ASSERT_EQ(loaded.tracks[t].spans.size(), live.tracks[t].spans.size());
    for (std::size_t i = 0; i < live.tracks[t].spans.size(); ++i) {
      const obs::Span& a = loaded.tracks[t].spans[i];
      const obs::Span& b = live.tracks[t].spans[i];
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.begin_ns, b.begin_ns);
      EXPECT_EQ(a.end_ns, b.end_ns);
      EXPECT_EQ(a.picture, b.picture);
      EXPECT_EQ(a.slice, b.slice);
      EXPECT_EQ(a.gop, b.gop);
    }
  }
}

// --- Analyzer vs simulator ------------------------------------------------

// The acceptance bar for pmp2_analyze: analyzing a traced run must
// reproduce the run's own Fig. 7 / Fig. 12 quantities (speedup, sync
// ratio) within 2%.
TEST(Analyzer, MatchesSliceSimLoadSummaryAt14Workers) {
  const auto profile = make_profile(8, 6, 28);
  sched::SimConfig cfg;
  cfg.workers = 14;
  cfg.granularity = sched::Granularity::kSlice;
  Tracer tracer(cfg.workers);
  cfg.tracer = &tracer;
  const sched::SimResult r = sched::simulate(profile, cfg);
  const parallel::WorkerLoadSummary sim = r.load_summary();

  const analysis::Analysis a = analysis::analyze(analysis::from_tracer(tracer));
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.worker_tracks, 14);
  EXPECT_EQ(a.speedup_ideal, 14.0);

  const double sim_speedup = sim.utilization * sim.workers;
  EXPECT_NEAR(a.speedup_actual, sim_speedup, 0.02 * sim_speedup);
  EXPECT_NEAR(a.load.sync_ratio, sim.sync_ratio,
              0.02 * sim.sync_ratio + 1e-6);
  EXPECT_NEAR(static_cast<double>(a.total_busy_ns),
              static_cast<double>(sim.total_busy_ns),
              0.02 * static_cast<double>(sim.total_busy_ns));
  EXPECT_NEAR(static_cast<double>(a.makespan_ns),
              static_cast<double>(r.makespan_ns),
              0.02 * static_cast<double>(r.makespan_ns));
}

TEST(Analyzer, MatchesGopSimLoadSummaryAt14Workers) {
  const auto profile = make_profile(28, 4, 4);
  sched::SimConfig cfg;
  cfg.workers = 14;
  Tracer tracer(cfg.workers);
  cfg.tracer = &tracer;
  const sched::SimResult r = sched::simulate(profile, cfg);
  const parallel::WorkerLoadSummary sim = r.load_summary();

  const analysis::Analysis a = analysis::analyze(analysis::from_tracer(tracer));
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.worker_tracks, 14);
  EXPECT_EQ(a.gops, 28);

  const double sim_speedup = sim.utilization * sim.workers;
  EXPECT_NEAR(a.speedup_actual, sim_speedup, 0.02 * sim_speedup);
  EXPECT_NEAR(a.load.sync_ratio, sim.sync_ratio,
              0.02 * sim.sync_ratio + 1e-6);
  EXPECT_NEAR(static_cast<double>(a.makespan_ns),
              static_cast<double>(r.makespan_ns),
              0.02 * static_cast<double>(r.makespan_ns));
}

// The ISSUE 4 acceptance bar for the input stage: with the scan process
// traced (workers + 1 tracks), the critical path reports how much serial
// scan time gates the workers, and the streaming demux (overlapped scan)
// must shrink that input-stage share versus the upfront front-end.
TEST(Analyzer, OverlappedScanShrinksCriticalInputAt14Workers) {
  const auto profile = make_profile(28, 4, 4);
  sched::SimConfig cfg;
  cfg.workers = 14;
  // Slow the scan to a tenth of the default so the input stage is a
  // visible fraction of the makespan (scan_ns = stream_bytes).
  cfg.scan_bytes_per_ns =
      static_cast<double>(profile.stream_bytes) /
      (10.0 * static_cast<double>(profile.scan_ns));

  auto analyze_with = [&](bool upfront, sched::SimResult* result) {
    Tracer tracer(cfg.workers + 1);  // extra track records the scan process
    sched::SimConfig run = cfg;
    run.upfront_scan = upfront;
    run.tracer = &tracer;
    *result = sched::simulate(profile, run);
    return analysis::analyze(analysis::from_tracer(tracer));
  };

  sched::SimResult upfront_r, overlap_r;
  const analysis::Analysis upfront = analyze_with(true, &upfront_r);
  const analysis::Analysis overlap = analyze_with(false, &overlap_r);
  ASSERT_TRUE(upfront.ok) << upfront.error;
  ASSERT_TRUE(overlap.ok) << overlap.error;

  // The scan track is a process track, not a worker.
  EXPECT_EQ(upfront.worker_tracks, 14);
  EXPECT_EQ(overlap.worker_tracks, 14);

  // Upfront: no worker starts until the whole stream is scanned, so the
  // full scan sits on the critical path. Overlapped: only the prefix up to
  // the last task a worker actually waited for can appear.
  EXPECT_GT(upfront.critical_input_ns, 0);
  EXPECT_LT(overlap.critical_input_ns, upfront.critical_input_ns);
  EXPECT_LT(overlap_r.makespan_ns, upfront_r.makespan_ns);

  // The load summary over worker tracks still matches the sim's own.
  const parallel::WorkerLoadSummary sim = overlap_r.load_summary();
  EXPECT_NEAR(overlap.load.sync_ratio, sim.sync_ratio,
              0.02 * sim.sync_ratio + 1e-6);
}

TEST(Analyzer, CriticalPathWalksAcrossWaits) {
  // worker 0: task A [0, 100us]. worker 1: waits for A, then task B
  // [100us, 200us]. Critical path = A -> B: all busy time is serial.
  Tracer tracer(2);
  tracer.emit(0, SpanKind::kSliceTask, 0, 100'000, 0, 0, -1);
  tracer.emit(1, SpanKind::kQueueWait, 0, 100'000);
  tracer.emit(1, SpanKind::kSliceTask, 100'000, 200'000, 0, 1, -1);

  const analysis::Analysis a = analysis::analyze(analysis::from_tracer(tracer));
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.makespan_ns, 200'000);
  EXPECT_EQ(a.total_busy_ns, 200'000);
  EXPECT_EQ(a.critical_spans, 2u);
  EXPECT_EQ(a.critical_busy_ns, 200'000);
  EXPECT_DOUBLE_EQ(a.parallelism, 1.0);
  EXPECT_DOUBLE_EQ(a.speedup_actual, 1.0);
  EXPECT_EQ(a.total_wait.queue_ns, 100'000);
  EXPECT_EQ(a.total_wait.barrier_ns, 0);

  // Graham bound: the serial chain caps every what-if at T1.
  bool saw_n1 = false;
  for (const analysis::WhatIf& w : a.what_if) {
    EXPECT_EQ(w.projected_ns, 200'000) << "N=" << w.workers;
    if (w.workers == 1) saw_n1 = true;
  }
  EXPECT_TRUE(saw_n1);
}

TEST(Analyzer, JsonOutputParsesWithDeclaredSchema) {
  Tracer tracer(2);
  tracer.emit(0, SpanKind::kSliceTask, 0, 50'000, 0, 0, -1);
  tracer.emit(1, SpanKind::kSliceTask, 0, 50'000, 0, 1, -1);
  const analysis::Analysis a = analysis::analyze(analysis::from_tracer(tracer));
  ASSERT_TRUE(a.ok);

  std::ostringstream os;
  analysis::write_analysis_json(os, a);
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(os.str(), doc, &err)) << err;
  const obs::JsonValue* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), "pmp2-analysis/1");
  const obs::JsonValue* makespan = doc.find("makespan_ns");
  ASSERT_NE(makespan, nullptr);
  EXPECT_EQ(makespan->as_int(), 50'000);
}

// --- Drift detector -------------------------------------------------------

// Emits one slice span per profile slice, `actual = predicted * factor(k)`.
template <typename FactorFn>
analysis::Timeline trace_from_profile(const sched::StreamProfile& profile,
                                      Tracer& tracer, FactorFn factor) {
  std::int64_t t = 0;
  int pic = 0;  // global decode-order picture index (slice span convention)
  int k = 0;
  for (const auto& g : profile.gops) {
    for (const auto& p : g.pictures) {
      for (std::size_t s = 0; s < p.slices.size(); ++s, ++k) {
        const std::int64_t cost = static_cast<std::int64_t>(
            static_cast<double>(p.slices[s].ns) * factor(k));
        tracer.emit(0, SpanKind::kSliceTask, t, t + cost, pic,
                    static_cast<int>(s), -1);
        t += cost;
      }
      ++pic;
    }
  }
  return analysis::from_tracer(tracer);
}

TEST(Drift, CleanTracePassesAndFitsScale) {
  const auto profile = make_profile(2, 3, 4);
  Tracer tracer(1);
  const auto tl = trace_from_profile(profile, tracer, [](int) { return 1.0; });

  const analysis::DriftReport r = analysis::detect_drift(tl, profile);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.slice_granularity);
  EXPECT_EQ(r.matched_tasks, 24);
  EXPECT_EQ(r.flagged_total, 0);
  EXPECT_TRUE(r.passed());
  // actual == units * ns_per_unit, so the fitted scale is the calibration.
  EXPECT_NEAR(r.scale, profile.ns_per_unit, 0.01 * profile.ns_per_unit);
  EXPECT_LT(r.mean_abs_rel_error, 1e-6);
  EXPECT_LT(r.median_abs_rel_error, 1e-6);
}

TEST(Drift, FlagsTheOneDoubledSlice) {
  const auto profile = make_profile(2, 3, 4);
  Tracer tracer(1);
  // Slice #18 = gop 1, picture 1 (local), slice 2 runs at twice its
  // predicted cost; everything else matches the model.
  const int doubled = (1 * 3 + 1) * 4 + 2;
  const auto tl = trace_from_profile(
      profile, tracer, [&](int k) { return k == doubled ? 2.0 : 1.0; });

  analysis::DriftOptions opts;
  opts.tolerance = 0.5;
  opts.outlier_fraction = 0.0;  // no outlier absolution: one flag must fail
  const analysis::DriftReport r = analysis::detect_drift(tl, profile, opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.matched_tasks, 24);
  EXPECT_EQ(r.flagged_total, 1);
  EXPECT_EQ(r.allowed_outliers, 0);
  EXPECT_FALSE(r.passed());
  ASSERT_EQ(r.flagged.size(), 1u);
  EXPECT_EQ(r.flagged[0].gop, 1);
  EXPECT_EQ(r.flagged[0].slice, 2);
  // One doubled slice among 24 barely moves the median fit, so the
  // flagged task's relative error sits near +1.0.
  EXPECT_NEAR(r.flagged[0].rel_error, 1.0, 0.1);
}

TEST(Drift, MeasuredBasisUsesProfileNanoseconds) {
  // Give the units model the wrong shape (ns not proportional to units):
  // the measured basis must still fit perfectly.
  auto profile = make_profile(2, 2, 4);
  std::int64_t bump = 0;
  for (auto& g : profile.gops) {
    for (auto& p : g.pictures) {
      for (auto& s : p.slices) s.ns += (bump += 500'000);
    }
  }
  Tracer tracer(1);
  const auto tl = trace_from_profile(profile, tracer, [](int) { return 1.0; });

  analysis::DriftOptions opts;
  opts.measured = true;
  const analysis::DriftReport r = analysis::detect_drift(tl, profile, opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.measured);
  EXPECT_EQ(r.flagged_total, 0);
  EXPECT_TRUE(r.passed());
  EXPECT_LT(r.mean_abs_rel_error, 1e-6);
}

// --- Bench-report comparison and aggregation ------------------------------

obs::RunReport make_bench_report(double pps, double wall_s,
                                 bool drop_last_row = false) {
  obs::RunReport r("bench_fake", "synthetic comparison fixture");
  r.set_meta("workers", 14);
  r.add_row()
      .set("workers", 14)
      .set("policy", "improved")
      .set("pictures_per_second", pps)
      .set("wall_s", wall_s);
  if (!drop_last_row) {
    r.add_row()
        .set("workers", 14)
        .set("policy", "simple")
        .set("pictures_per_second", pps * 0.6)
        .set("wall_s", wall_s * 1.5);
  }
  return r;
}

obs::JsonValue parse_report(const obs::RunReport& r) {
  std::ostringstream os;
  r.write_json(os);
  obs::JsonValue doc;
  std::string err;
  EXPECT_TRUE(obs::json_parse(os.str(), doc, &err)) << err;
  return doc;
}

TEST(BenchCompare, MetricFieldClassification) {
  EXPECT_TRUE(analysis::is_metric_field("pictures_per_second"));
  EXPECT_TRUE(analysis::is_metric_field("decode_ns"));
  EXPECT_TRUE(analysis::is_metric_field("wall_s"));
  EXPECT_TRUE(analysis::is_metric_field("stream_bytes"));
  EXPECT_TRUE(analysis::is_metric_field("sync_ratio"));
  EXPECT_TRUE(analysis::is_metric_field("ns_per_op"));
  EXPECT_FALSE(analysis::is_metric_field("workers"));
  EXPECT_FALSE(analysis::is_metric_field("gop_size"));
  EXPECT_FALSE(analysis::is_metric_field("line_size"));
  EXPECT_FALSE(analysis::is_metric_field("policy"));

  EXPECT_TRUE(analysis::metric_higher_is_better("pictures_per_second"));
  EXPECT_TRUE(analysis::metric_higher_is_better("gop_speedup"));
  EXPECT_FALSE(analysis::metric_higher_is_better("decode_ns"));
  EXPECT_FALSE(analysis::metric_higher_is_better("wall_s"));
}

TEST(BenchCompare, DetectsRegressionBeyondTolerance) {
  // 12% throughput drop against the default 10% tolerance.
  const obs::JsonValue baseline = parse_report(make_bench_report(100.0, 1.0));
  const obs::JsonValue candidate = parse_report(make_bench_report(88.0, 1.0));
  const analysis::CompareResult r =
      analysis::compare_reports(baseline, candidate);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.rows, 2);
  ASSERT_FALSE(r.regressions.empty());
  EXPECT_FALSE(r.passed());
  bool saw_pps = false;
  for (const analysis::MetricDiff& d : r.regressions) {
    if (d.metric == "pictures_per_second") {
      saw_pps = true;
      EXPECT_NEAR(d.rel_delta, -0.12, 1e-9);
      EXPECT_TRUE(d.higher_better);
    }
  }
  EXPECT_TRUE(saw_pps);
}

TEST(BenchCompare, TenPercentRegressionFailsAtTighterTolerance) {
  // The documented gate for sim-driven (deterministic) metrics: a clean
  // 10% drop must fail when the tolerance is tightened below it.
  const obs::JsonValue baseline = parse_report(make_bench_report(100.0, 1.0));
  const obs::JsonValue candidate = parse_report(make_bench_report(90.0, 1.0));
  analysis::CompareOptions opts;
  opts.default_tolerance = 0.05;
  const analysis::CompareResult r =
      analysis::compare_reports(baseline, candidate, opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.passed());
  // And passes inside the default 10% band when the drop is small.
  const obs::JsonValue near = parse_report(make_bench_report(96.0, 1.0));
  EXPECT_TRUE(analysis::compare_reports(baseline, near).passed());
}

TEST(BenchCompare, LowerIsBetterMetricRegressesUpward) {
  const obs::JsonValue baseline = parse_report(make_bench_report(100.0, 1.0));
  const obs::JsonValue candidate = parse_report(make_bench_report(100.0, 1.2));
  const analysis::CompareResult r =
      analysis::compare_reports(baseline, candidate);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.passed());
  ASSERT_FALSE(r.regressions.empty());
  EXPECT_EQ(r.regressions[0].metric, "wall_s");
  EXPECT_FALSE(r.regressions[0].higher_better);
}

TEST(BenchCompare, AdvisoryMetricsDemoteRegressionsButNotCoverage) {
  // The CI bench stage's mode: metric deltas are listed but never fail.
  const obs::JsonValue baseline = parse_report(make_bench_report(100.0, 1.0));
  const obs::JsonValue worse = parse_report(make_bench_report(50.0, 3.0));
  analysis::CompareOptions opts;
  opts.advisory_metrics = true;
  const analysis::CompareResult r =
      analysis::compare_reports(baseline, worse, opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.regressions.empty());
  ASSERT_FALSE(r.advisories.empty());
  EXPECT_TRUE(r.passed());
  // Identity stays strict: a vanished row still fails in advisory mode.
  const obs::JsonValue fewer =
      parse_report(make_bench_report(100.0, 1.0, /*drop_last_row=*/true));
  const analysis::CompareResult lost =
      analysis::compare_reports(baseline, fewer, opts);
  ASSERT_TRUE(lost.ok) << lost.error;
  EXPECT_FALSE(lost.coverage_loss.empty());
  EXPECT_FALSE(lost.passed());
}

TEST(BenchCompare, MissingBaselineRowIsCoverageLoss) {
  const obs::JsonValue baseline = parse_report(make_bench_report(100.0, 1.0));
  const obs::JsonValue candidate =
      parse_report(make_bench_report(100.0, 1.0, /*drop_last_row=*/true));
  const analysis::CompareResult r =
      analysis::compare_reports(baseline, candidate);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.regressions.empty());
  ASSERT_FALSE(r.coverage_loss.empty());
  EXPECT_FALSE(r.passed());
}

TEST(BenchCompare, SuiteAggregationRoundTrips) {
  obs::RunReport a("bench_alpha", "first");
  a.add_row().set("workers", 2).set("speedup", 1.9);
  obs::RunReport b("bench_beta", "second");
  b.add_row().set("workers", 4).set("speedup", 3.4);
  std::ostringstream ja, jb;
  a.write_json(ja);
  b.write_json(jb);

  std::ostringstream suite;
  std::string err;
  ASSERT_TRUE(analysis::write_suite(
      suite,
      {{"a.json", ja.str()}, {"b.json", jb.str()}},
      &err))
      << err;

  obs::JsonValue doc;
  ASSERT_TRUE(obs::json_parse(suite.str(), doc, &err)) << err;
  const obs::JsonValue* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), analysis::kSuiteSchema);
  const obs::JsonValue* reports = doc.find("reports");
  ASSERT_NE(reports, nullptr);
  EXPECT_EQ(reports->items.size(), 2u);

  // A suite compared against itself is clean and covers both reports.
  const analysis::CompareResult cmp = analysis::compare_reports(doc, doc);
  ASSERT_TRUE(cmp.ok) << cmp.error;
  EXPECT_TRUE(cmp.passed());
  EXPECT_EQ(cmp.reports, 2);
  EXPECT_EQ(cmp.rows, 2);
}

TEST(BenchCompare, SuiteRejectsNonReportDocuments) {
  std::ostringstream suite;
  std::string err;
  EXPECT_FALSE(analysis::write_suite(
      suite, {{"bogus.json", "{\"schema\":\"not-a-bench-report\"}"}}, &err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace pmp2
