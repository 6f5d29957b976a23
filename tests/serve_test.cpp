// Multi-stream DecodeServer tests (docs/SERVING.md): the admission load
// model's deterministic arithmetic, reject-vs-queue decisions, the online
// capacity calibration, the weighted min-service fairness policy and its
// virtual-time validation, and the server itself — solo-equivalent checksums, session isolation
// under injected faults, bounded-queue backpressure, teardown frame-pool
// leak proofs, and concurrent open/decode/cancel/teardown lifecycles (the
// *Lifecycle* suites also run under TSan via scripts/ci.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "inject/fault.h"
#include "mpeg2/decoder.h"
#include "parallel/adaptive/adaptive_decoder.h"
#include "parallel/gop_decoder.h"
#include "sched/fairness.h"
#include "serve/admission.h"
#include "serve/server.h"
#include "streamgen/stream_factory.h"

namespace pmp2 {
namespace {

using serve::AdmissionCharge;
using serve::AdmissionController;
using serve::AdmissionDecision;
using serve::AdmissionSnapshot;
using serve::DecodeServer;
using serve::ServerConfig;
using serve::SessionConfig;
using serve::SessionResult;
using serve::SessionState;
using serve::StreamLoadProfile;

std::vector<std::uint8_t> make_stream(int width, int height, int gop_size,
                                      int pictures,
                                      std::int64_t bit_rate = 1'500'000,
                                      bool rate_control = true) {
  streamgen::StreamSpec spec;
  spec.width = width;
  spec.height = height;
  spec.gop_size = gop_size;
  spec.pictures = pictures;
  spec.bit_rate = bit_rate;
  spec.rate_control = rate_control;
  return streamgen::generate_stream(spec);
}

std::uint64_t solo_checksum(std::span<const std::uint8_t> stream,
                            int workers = 4) {
  parallel::GopDecoderConfig config;
  config.workers = workers;
  config.quarantine_gops = true;
  const auto r = parallel::GopParallelDecoder(config).decode(stream);
  EXPECT_TRUE(r.ok);
  return r.checksum;
}

// ---------------------------------------------------------------------------
// Load predictor: pure arithmetic over the preamble, pinned exactly.

TEST(Admission, CharacterizesStreamFromPreamble) {
  const auto stream = make_stream(352, 240, 13, 13, 5'000'000);
  const StreamLoadProfile p = serve::characterize_stream(stream);
  ASSERT_TRUE(p.valid);
  EXPECT_EQ(p.width, 352);
  EXPECT_EQ(p.height, 240);
  EXPECT_EQ(p.mb_width, 22);
  EXPECT_EQ(p.mb_height, 15);
  EXPECT_GT(p.frame_rate, 0.0);
  EXPECT_GT(p.bit_rate, 0);
  // The model's exact arithmetic, recomputed from the parsed fields: any
  // drift in the formula is a deliberate, test-visible change.
  EXPECT_DOUBLE_EQ(p.mb_per_s, 22.0 * 15.0 * p.frame_rate);
  EXPECT_DOUBLE_EQ(p.burst_bits_per_s,
                   static_cast<double>(p.bit_rate) +
                       static_cast<double>(p.vbv_bits) * p.frame_rate /
                           serve::kVbvAmortPictures);
  EXPECT_DOUBLE_EQ(p.bits_per_mb, p.burst_bits_per_s / p.mb_per_s);
  EXPECT_DOUBLE_EQ(p.predicted_load,
                   p.mb_per_s * (serve::kPelCostShare +
                                 serve::kBitCostShare * p.bits_per_mb /
                                     serve::kRefBitsPerMb));
  EXPECT_GT(p.predicted_load, 0.0);
}

TEST(Admission, VbvBufferRaisesPredictedLoad) {
  // Same pels, higher coded rate => more VLC work predicted.
  const auto lo = serve::characterize_stream(
      make_stream(352, 240, 13, 13, 1'000'000));
  const auto hi = serve::characterize_stream(
      make_stream(352, 240, 13, 13, 8'000'000));
  ASSERT_TRUE(lo.valid);
  ASSERT_TRUE(hi.valid);
  EXPECT_GT(hi.predicted_load, lo.predicted_load);
  // The pel-proportional floor: even a near-zero-rate stream costs at
  // least kPelCostShare of its macroblock rate.
  EXPECT_GE(lo.predicted_load, lo.mb_per_s * serve::kPelCostShare);
}

TEST(Admission, InvalidStreamIsInvalidProfile) {
  const std::vector<std::uint8_t> garbage(512, 0xA5);
  const StreamLoadProfile p = serve::characterize_stream(garbage);
  EXPECT_FALSE(p.valid);
  EXPECT_EQ(p.predicted_load, 0.0);
}

// ---------------------------------------------------------------------------
// AdmissionController: reject vs queue bookkeeping (no threads).

StreamLoadProfile profile_with_load(double load) {
  StreamLoadProfile p;
  p.valid = true;
  p.predicted_load = load;
  return p;
}

TEST(Admission, AdmitsUntilCapacityThenQueuesThenRejects) {
  AdmissionController::Config config;
  config.capacity = 100.0;
  config.max_queued = 1;
  AdmissionController ctl(config, 4);
  const auto p60 = profile_with_load(60.0);

  EXPECT_EQ(ctl.decide(p60), AdmissionDecision::kAdmit);
  ctl.admit(p60);
  // 60 + 60 > 100 and something is running: queue (one slot).
  EXPECT_EQ(ctl.decide(p60), AdmissionDecision::kQueue);
  ctl.enqueue();
  // Queue full: reject.
  EXPECT_EQ(ctl.decide(p60), AdmissionDecision::kReject);
  // Release frees capacity again.
  ctl.dequeue();
  ctl.release(p60);
  EXPECT_EQ(ctl.decide(p60), AdmissionDecision::kAdmit);
}

TEST(Admission, IdleServerAlwaysAdmits) {
  // Work-conserving rule: a stream whose load alone exceeds capacity is
  // admitted when nothing runs — it must never wait on capacity that can
  // never be free enough.
  AdmissionController::Config config;
  config.capacity = 10.0;
  AdmissionController ctl(config, 4);
  EXPECT_EQ(ctl.decide(profile_with_load(50.0)), AdmissionDecision::kAdmit);
  ctl.admit(profile_with_load(50.0));
  EXPECT_EQ(ctl.decide(profile_with_load(50.0)),
            AdmissionDecision::kReject);  // max_queued = 0
}

TEST(Admission, InvalidProfileAlwaysRejected) {
  AdmissionController ctl({}, 4);
  EXPECT_EQ(ctl.decide(StreamLoadProfile{}), AdmissionDecision::kReject);
}

TEST(Admission, MaxSessionsCapsConcurrency) {
  AdmissionController::Config config;
  config.capacity = 1e9;
  config.max_sessions = 1;
  AdmissionController ctl(config, 4);
  const auto tiny = profile_with_load(1.0);
  EXPECT_EQ(ctl.decide(tiny), AdmissionDecision::kAdmit);
  ctl.admit(tiny);
  EXPECT_EQ(ctl.decide(tiny), AdmissionDecision::kReject);
}

// ---------------------------------------------------------------------------
// Online calibration of the default capacity (per-session charges).

TEST(Admission, UncalibratedDecidesAsStaticModel) {
  // Before any observation the default capacity is workers x
  // kDefaultWorkerCapacity exactly, and decisions match a controller pinned
  // to that capacity, step for step.
  AdmissionController::Config config;
  config.max_queued = 1;
  AdmissionController calibratable(config, 4);
  config.capacity = 4 * serve::kDefaultWorkerCapacity;
  AdmissionController pinned(config, 4);
  const AdmissionSnapshot snap = calibratable.snapshot();
  EXPECT_EQ(snap.capacity, 4 * serve::kDefaultWorkerCapacity);
  EXPECT_EQ(snap.calibrated_gops, 0);
  for (const double load : {150'000.0, 50'000.0, 1.0, 60'000.0, 1.0}) {
    const auto p = profile_with_load(load);
    const AdmissionDecision d = calibratable.decide(p);
    EXPECT_EQ(d, pinned.decide(p)) << "load " << load;
    if (d == AdmissionDecision::kAdmit) {
      calibratable.admit(p);
      pinned.admit(p);
    } else if (d == AdmissionDecision::kQueue) {
      calibratable.enqueue();
      pinned.enqueue();
    }
  }
  // 150k + 50k filled the 200k exactly; the rest queued, then bounced.
  EXPECT_EQ(calibratable.snapshot().admitted_load, 200'000.0);
  EXPECT_EQ(calibratable.snapshot().queued, 1);
}

TEST(Admission, ChargeFollowsMeasuredShare) {
  AdmissionController::Config config;
  config.max_queued = 4;
  AdmissionController ctl(config, 2);  // 100k default capacity
  const auto p60k = profile_with_load(60'000.0);
  AdmissionCharge charge = ctl.admit(p60k);
  EXPECT_EQ(charge.load, 60'000.0);
  EXPECT_EQ(ctl.decide(profile_with_load(50'000.0)),
            AdmissionDecision::kQueue);
  // The first observation replaces the prior: a GOP that used half a
  // worker is charged half a worker at kTargetOccupancy.
  ctl.observe(charge, p60k, 0.5);
  const double half_worker =
      0.5 * serve::kDefaultWorkerCapacity / serve::kTargetOccupancy;
  EXPECT_DOUBLE_EQ(charge.load, half_worker);
  AdmissionSnapshot snap = ctl.snapshot();
  EXPECT_DOUBLE_EQ(snap.admitted_load, half_worker);
  EXPECT_EQ(snap.capacity, 100'000.0);  // the configured units never move
  EXPECT_EQ(snap.calibrated_gops, 1);
  EXPECT_EQ(ctl.decide(profile_with_load(50'000.0)),
            AdmissionDecision::kAdmit);
  // Later observations blend in with weight kMeasuredShareAlpha.
  ctl.observe(charge, p60k, 1.0);
  EXPECT_DOUBLE_EQ(charge.measured_share,
                   (1.0 - serve::kMeasuredShareAlpha) * 0.5 +
                       serve::kMeasuredShareAlpha * 1.0);
  // A session measured at 80% of both workers holds the whole capacity:
  // the occupancy target keeps the last 20% free.
  for (int i = 0; i < 64; ++i) ctl.observe(charge, p60k, 1.6);
  snap = ctl.snapshot();
  EXPECT_NEAR(snap.admitted_load, 100'000.0, 1e-3);
  EXPECT_EQ(snap.calibrated_gops, 66);
  EXPECT_EQ(ctl.decide(profile_with_load(10.0)), AdmissionDecision::kQueue);
  ctl.release(charge);
  EXPECT_EQ(ctl.snapshot().admitted_load, 0.0);
  EXPECT_EQ(ctl.snapshot().running, 0);
}

// A stream class with a distinct header (bit rate) per `rate`.
StreamLoadProfile class_profile(std::int64_t rate, double load) {
  StreamLoadProfile p = profile_with_load(load);
  p.width = 1408;
  p.height = 960;
  p.frame_rate = 30.0;
  p.bit_rate = rate;
  return p;
}

TEST(Admission, NewcomerIsChargedByItsClassMostExpensiveRecentSession) {
  AdmissionController ctl({}, 4);  // 200k default capacity
  const auto hd = class_profile(7'000'000, 100'000.0);
  const double predicted_share = 100'000.0 / serve::kDefaultWorkerCapacity;
  // Each session's first observation records its measured / predicted
  // ratio for its class; later ones only move its own charge.
  for (const double ratio : {0.1, 0.4, 0.2}) {
    AdmissionCharge c = ctl.admit(hd);
    ctl.observe(c, hd, ratio * predicted_share);
    ctl.observe(c, hd, 4.0);
    ctl.release(c);
  }
  EXPECT_DOUBLE_EQ(ctl.charge_for(hd).load,
                   100'000.0 * 0.4 / serve::kTargetOccupancy);
  // Another class, or the same size at another bit rate, pays its prior.
  EXPECT_EQ(ctl.charge_for(class_profile(5'000'000, 90'000.0)).load,
            90'000.0);
  // The expensive session ages out after kClassWindow newer ones.
  for (std::size_t i = 0; i < serve::kClassWindow; ++i) {
    AdmissionCharge c = ctl.admit(hd);
    ctl.observe(c, hd, 0.1 * predicted_share);
    ctl.release(c);
  }
  EXPECT_DOUBLE_EQ(ctl.charge_for(hd).load,
                   100'000.0 * 0.1 / serve::kTargetOccupancy);
  EXPECT_EQ(ctl.decide(hd), AdmissionDecision::kAdmit);
  // A class the model under-predicts is never charged above its prior.
  AdmissionCharge c = ctl.admit(hd);
  ctl.observe(c, hd, 2.0 * predicted_share);
  EXPECT_EQ(ctl.charge_for(hd).load, 100'000.0);
}

TEST(Admission, MisstatedHeaderChargesOnlyItsOwnClass) {
  // A header that overstates its bit rate makes its own session cheap to
  // hold, and later sessions with the same header; never other streams.
  AdmissionController::Config config;
  config.max_queued = 4;
  AdmissionController ctl(config, 2);  // 100k default capacity
  const auto overstated = class_profile(80'000'000, 90'000.0);
  AdmissionCharge held = ctl.admit(overstated);
  const auto hd = class_profile(7'000'000, 60'000.0);
  EXPECT_EQ(ctl.decide(hd), AdmissionDecision::kQueue);
  ctl.observe(held, overstated, 0.01);
  EXPECT_EQ(ctl.decide(hd), AdmissionDecision::kAdmit);
  ctl.admit(hd);
  // 625 + 60k + 60k > 100k: the second HD newcomer still waits.
  EXPECT_EQ(ctl.decide(hd), AdmissionDecision::kQueue);
  EXPECT_DOUBLE_EQ(ctl.snapshot().admitted_load,
                   60'000.0 + 0.01 * serve::kDefaultWorkerCapacity /
                                  serve::kTargetOccupancy);
  EXPECT_LT(ctl.charge_for(overstated).load, 1'000.0);
}

TEST(Admission, ExplicitCapacityNeverCalibrates) {
  AdmissionController::Config config;
  config.capacity = 100.0;
  AdmissionController ctl(config, 4);
  const auto p = class_profile(7'000'000, 60.0);
  AdmissionCharge charge = ctl.admit(p);
  ctl.observe(charge, p, 0.1);
  EXPECT_EQ(charge.load, 60.0);
  EXPECT_EQ(charge.measured_share, 0.0);
  EXPECT_EQ(ctl.charge_for(p).load, 60.0);
  const AdmissionSnapshot snap = ctl.snapshot();
  EXPECT_EQ(snap.admitted_load, 60.0);
  EXPECT_EQ(snap.calibrated_gops, 0);
}

TEST(Admission, IgnoresZeroAndDamagedObservations) {
  // What an empty GOP (no display time), an unmeasured task (no CPU time)
  // or a zero frame rate would report.
  AdmissionController ctl({}, 4);
  const auto p = class_profile(7'000'000, 60'000.0);
  AdmissionCharge charge = ctl.admit(p);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double share : {0.0, -0.0, -1.0, inf, -inf, nan}) {
    ctl.observe(charge, p, share);
  }
  EXPECT_EQ(charge.load, 60'000.0);
  EXPECT_EQ(charge.measured_share, 0.0);
  EXPECT_EQ(ctl.charge_for(p).load, 60'000.0);
  const AdmissionSnapshot snap = ctl.snapshot();
  EXPECT_EQ(snap.calibrated_gops, 0);
  EXPECT_EQ(snap.admitted_load, 60'000.0);
}

// ---------------------------------------------------------------------------
// Fairness policy: pick_session + the virtual-time validation sim.

TEST(Fairness, PicksLeastNormalizedService) {
  std::vector<sched::FairShare> s(3);
  s[0] = {1.0, 1000, true};
  s[1] = {1.0, 500, true};
  s[2] = {1.0, 2000, true};
  EXPECT_EQ(sched::pick_session(s), 1);
  s[1].runnable = false;
  EXPECT_EQ(sched::pick_session(s), 0);
  s[0].runnable = s[2].runnable = false;
  EXPECT_EQ(sched::pick_session(s), -1);
}

TEST(Fairness, WeightScalesService) {
  // Session 0 has twice the weight: at equal served_ns its normalized
  // service is half, so it wins.
  std::vector<sched::FairShare> s(2);
  s[0] = {2.0, 1000, true};
  s[1] = {1.0, 1000, true};
  EXPECT_EQ(sched::pick_session(s), 0);
  // Ties break toward the lowest index, deterministically.
  s[0] = {1.0, 1000, true};
  EXPECT_EQ(sched::pick_session(s), 0);
}

TEST(Fairness, SimConvergesToWeightRatios) {
  const std::vector<double> weights = {1.0, 2.0, 1.0};
  const std::vector<std::int64_t> costs = {1000, 1000, 1000};
  const auto r = sched::simulate_fair_service(weights, costs, 4, 4000);
  ASSERT_EQ(r.served_ns.size(), weights.size());
  const double total = static_cast<double>(r.served_ns[0] + r.served_ns[1] +
                                           r.served_ns[2]);
  // Weight ratios 1:2:1 => shares 25%/50%/25%, within one task of exact.
  EXPECT_NEAR(r.served_ns[0] / total, 0.25, 0.01);
  EXPECT_NEAR(r.served_ns[1] / total, 0.50, 0.01);
  EXPECT_NEAR(r.served_ns[2] / total, 0.25, 0.01);
}

TEST(Fairness, VirtualStartSeedsArrivalsAtRunningMinimum) {
  // Start-time fair queueing: an arrival's ledger starts at weight times
  // the minimum normalized service of the running set, not at zero.
  std::vector<sched::FairShare> running(2);
  running[0] = {1.0, 4000, true};
  running[1] = {2.0, 6000, true};  // normalized 3000 — the running minimum
  EXPECT_EQ(sched::virtual_start(1.0, running), 3000);
  EXPECT_EQ(sched::virtual_start(2.0, running), 6000);  // weight-scaled
  // Empty server: nothing to catch up to, start from zero.
  EXPECT_EQ(sched::virtual_start(1.0, {}), 0);
}

TEST(Fairness, VirtualStartPreventsLateArrivalStarvation) {
  // A veteran with minutes of accumulated service vs a fresh arrival:
  // unseeded, the newcomer wins every pick until its lifetime total
  // catches up; seeded, they alternate from the moment it arrives.
  std::vector<sched::FairShare> s(1);
  s[0] = {1.0, 300'000'000'000, true};  // 5 minutes of service
  sched::FairShare arrival{1.0, 0, true};
  arrival.served_ns = sched::virtual_start(arrival.weight, s);
  s.push_back(arrival);
  EXPECT_EQ(sched::pick_session(s), 0);  // tie breaks to the veteran
  s[0].served_ns += 1000;                // veteran runs one task...
  EXPECT_EQ(sched::pick_session(s), 1);  // ...then the arrival runs one
  s[1].served_ns += 1000;
  EXPECT_EQ(sched::pick_session(s), 0);  // alternation, not monopoly
}

TEST(Fairness, SimUnevenCostsStillTrackWeights) {
  // Different task costs per session must not break the weight shares:
  // min-service scheduling equalizes *time*, not task counts.
  const std::vector<double> weights = {1.0, 1.0};
  const std::vector<std::int64_t> costs = {500, 2000};
  const auto r = sched::simulate_fair_service(weights, costs, 2, 3000);
  const double total =
      static_cast<double>(r.served_ns[0] + r.served_ns[1]);
  EXPECT_NEAR(r.served_ns[0] / total, 0.5, 0.02);
  // And the cheap-task session ran ~4x as many tasks for that time.
  EXPECT_GT(r.tasks[0], 3 * r.tasks[1]);
}

// ---------------------------------------------------------------------------
// DecodeServer: solo equivalence, isolation, backpressure, teardown.

TEST(Server, SingleSessionMatchesSoloDecoder) {
  const auto stream = make_stream(176, 120, 13, 26);
  const std::uint64_t expected = solo_checksum(stream);
  ServerConfig config;
  config.workers = 4;
  config.watchdog_ns = 30'000'000'000;
  DecodeServer server(config);
  const auto id = server.submit(stream, {});
  const SessionResult r = server.wait(id);
  EXPECT_EQ(r.state, SessionState::kFinished);
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.hung);
  EXPECT_EQ(r.pictures, 26);
  EXPECT_EQ(r.pictures_delivered, 26);
  EXPECT_EQ(r.checksum, expected);
  EXPECT_EQ(r.pool_idle, r.pool_misses) << "frames leaked at teardown";
}

TEST(Server, ConcurrentSessionsAreIsolated) {
  // Two clean sessions and one corrupted neighbor decode concurrently;
  // the clean sessions' outputs must be byte-identical to solo runs.
  const auto a = make_stream(176, 120, 13, 26);
  const auto b = make_stream(176, 120, 4, 16);
  const std::uint64_t expect_a = solo_checksum(a);
  const std::uint64_t expect_b = solo_checksum(b);
  const auto corrupt =
      inject::apply_fault(a, inject::plan_fault(7, 0));

  ServerConfig config;
  config.workers = 4;
  config.watchdog_ns = 30'000'000'000;
  DecodeServer server(config);
  const auto ia = server.submit(a, {});
  const auto ic = server.submit(corrupt, {});
  const auto ib = server.submit(b, {});
  const SessionResult ra = server.wait(ia);
  const SessionResult rc = server.wait(ic);
  const SessionResult rb = server.wait(ib);

  EXPECT_TRUE(ra.ok);
  EXPECT_EQ(ra.checksum, expect_a);
  EXPECT_TRUE(rb.ok);
  EXPECT_EQ(rb.checksum, expect_b);
  EXPECT_FALSE(rc.hung);  // bounded recovery, never a wedge
  EXPECT_EQ(ra.pool_idle, ra.pool_misses);
  EXPECT_EQ(rb.pool_idle, rb.pool_misses);
  EXPECT_EQ(rc.pool_idle, rc.pool_misses);
}

TEST(Server, BoundedQueueStallsAndResumes) {
  // max_queued_gops = 1 throttles the scan to one unstarted GOP; the
  // session must still complete with the exact output (stall + resume,
  // not deadlock or reorder).
  const auto stream = make_stream(176, 120, 4, 32);
  const std::uint64_t expected = solo_checksum(stream);
  ServerConfig config;
  config.workers = 2;
  config.watchdog_ns = 30'000'000'000;
  DecodeServer server(config);
  SessionConfig sc;
  sc.max_queued_gops = 1;
  const auto id = server.submit(stream, std::move(sc));
  const SessionResult r = server.wait(id);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.checksum, expected);
  EXPECT_EQ(r.pictures_delivered, 32);
  EXPECT_EQ(r.pool_idle, r.pool_misses);
}

TEST(Server, OverCapacityQueuesThenRuns) {
  const auto stream = make_stream(176, 120, 13, 13);
  ServerConfig config;
  config.workers = 2;
  // Capacity fits exactly one of these streams; the rest must wait.
  const auto p = serve::characterize_stream(stream);
  ASSERT_TRUE(p.valid);
  config.admission.capacity = p.predicted_load * 1.5;
  config.admission.max_queued = 8;
  DecodeServer server(config);
  std::vector<serve::SessionId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(server.submit(stream, {}));
  int queued = 0;
  for (const auto id : ids) {
    if (server.decision(id) == AdmissionDecision::kQueue) ++queued;
  }
  EXPECT_GE(queued, 1) << "expected at least one session over capacity";
  for (const auto id : ids) {
    const SessionResult r = server.wait(id);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.pool_idle, r.pool_misses);
  }
}

TEST(Server, OverCapacityRejectsWhenQueueDisabled) {
  const auto stream = make_stream(176, 120, 13, 13);
  const auto p = serve::characterize_stream(stream);
  ASSERT_TRUE(p.valid);
  ServerConfig config;
  config.workers = 2;
  config.admission.capacity = p.predicted_load * 1.5;
  config.admission.max_queued = 0;
  DecodeServer server(config);
  const auto first = server.submit(stream, {});
  const auto second = server.submit(stream, {});
  const SessionResult r2 = server.wait(second);
  EXPECT_EQ(r2.state, SessionState::kRejected);
  EXPECT_FALSE(r2.ok);
  const SessionResult r1 = server.wait(first);
  EXPECT_TRUE(r1.ok);
}

TEST(Server, RejectsGarbageStream) {
  const std::vector<std::uint8_t> garbage(1024, 0x5A);
  DecodeServer server({});
  const auto id = server.submit(garbage, {});
  EXPECT_EQ(server.decision(id), AdmissionDecision::kReject);
  const SessionResult r = server.wait(id);
  EXPECT_EQ(r.state, SessionState::kRejected);
}

TEST(Server, CancelMidDecodeReleasesEveryFrame) {
  // A long session cancelled mid-GOP: in-flight tasks finish, nothing
  // leaks, the watchdog never wedges, and wait() returns kCancelled.
  const auto stream = make_stream(352, 240, 4, 64, 5'000'000);
  ServerConfig config;
  config.workers = 2;
  config.watchdog_ns = 30'000'000'000;
  DecodeServer server(config);
  SessionConfig sc;
  sc.max_queued_gops = 1;  // keep the scan mid-stream when we cancel
  const auto id = server.submit(stream, std::move(sc));
  // Let some decode happen so the cancel lands mid-flight, not pre-start.
  while (server.surfaces().size() == 0) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(server.cancel(id));
  const SessionResult r = server.wait(id);
  EXPECT_EQ(r.state, SessionState::kCancelled);
  EXPECT_FALSE(r.hung);
  EXPECT_EQ(r.pool_idle, r.pool_misses) << "cancel leaked pooled frames";
  EXPECT_FALSE(server.cancel(id));  // already terminal
}

TEST(Server, CancelQueuedSessionNeverStarts) {
  const auto stream = make_stream(176, 120, 13, 13);
  const auto p = serve::characterize_stream(stream);
  ServerConfig config;
  config.workers = 2;
  config.admission.capacity = p.predicted_load * 1.5;
  config.admission.max_queued = 4;
  DecodeServer server(config);
  const auto running = server.submit(stream, {});
  const auto waiting = server.submit(stream, {});
  if (server.decision(waiting) == AdmissionDecision::kQueue) {
    EXPECT_TRUE(server.cancel(waiting));
    const SessionResult r = server.wait(waiting);
    EXPECT_EQ(r.state, SessionState::kCancelled);
    EXPECT_EQ(r.pictures_delivered, 0);
  }
  EXPECT_TRUE(server.wait(running).ok);
}

TEST(Server, WatchdogVerdictSparesProgressingInFlightWork) {
  // The claim-side watchdog only consults this verdict after a full
  // epoch-static period with pending work. A single long in-flight task
  // that keeps landing pictures must not be condemned; claimable work an
  // idle worker sat through the whole period without claiming must be.
  constexpr std::int64_t wd = 1'000'000;
  // No pending work: never wedged, whatever the clocks say.
  EXPECT_FALSE(serve::watchdog_wedged(false, 0, 10 * wd, -1, wd));
  // Pending work, no claims outstanding: claimable-but-unclaimed (or
  // dependency-blocked with nothing running to unblock it) — wedged.
  EXPECT_TRUE(serve::watchdog_wedged(true, 0, 10 * wd, -1, wd));
  // One in-flight task that emitted a picture half a period ago: progress.
  EXPECT_FALSE(serve::watchdog_wedged(true, 1, 10 * wd, 10 * wd - wd / 2, wd));
  // In-flight but telemetry-silent for a full period: wedged.
  EXPECT_TRUE(serve::watchdog_wedged(true, 1, 10 * wd, 9 * wd, wd));
  // Never progressed (-1): measured from the telemetry epoch's origin.
  EXPECT_FALSE(serve::watchdog_wedged(true, 1, wd / 2, -1, wd));
  EXPECT_TRUE(serve::watchdog_wedged(true, 1, wd, -1, wd));
}

TEST(Server, ForgetReleasesTerminalSessions) {
  // A long-lived server must not retain every session ever submitted:
  // forget() frees a terminal session's state and telemetry surface,
  // leaving a tombstone for state()/decision().
  const auto stream = make_stream(176, 120, 13, 13);
  ServerConfig config;
  config.workers = 2;
  DecodeServer server(config);
  const auto id = server.submit(stream, {});
  const SessionResult r = server.wait(id);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(server.surfaces().size(), 1u);
  EXPECT_TRUE(server.forget(id));
  EXPECT_FALSE(server.forget(id));  // already forgotten
  EXPECT_EQ(server.surfaces().size(), 0u) << "surface retained";
  // Tombstone answers survive the release; wait() degrades to a stub.
  EXPECT_EQ(server.state(id), SessionState::kFinished);
  EXPECT_EQ(server.decision(id), AdmissionDecision::kAdmit);
  EXPECT_EQ(server.wait(id).state, SessionState::kFinished);
  EXPECT_FALSE(server.cancel(id));
  EXPECT_FALSE(server.forget(id + 99));  // unknown id
  // The pool keeps serving: ids never recycle, results stay solo-exact.
  const auto id2 = server.submit(stream, {});
  EXPECT_GT(id2, id);
  EXPECT_TRUE(server.wait(id2).ok);
}

TEST(Server, ForgetRefusesNonTerminalSessions) {
  // An admission-queued session is deterministically non-terminal: it
  // cannot be forgotten until it runs (or is cancelled) and finishes.
  const auto stream = make_stream(176, 120, 13, 13);
  const auto p = serve::characterize_stream(stream);
  ASSERT_TRUE(p.valid);
  ServerConfig config;
  config.workers = 2;
  config.admission.capacity = p.predicted_load * 1.5;
  config.admission.max_queued = 4;
  DecodeServer server(config);
  const auto running = server.submit(stream, {});
  const auto waiting = server.submit(stream, {});
  if (server.decision(waiting) == AdmissionDecision::kQueue &&
      server.state(waiting) == SessionState::kQueued) {
    EXPECT_FALSE(server.forget(waiting));
  }
  EXPECT_TRUE(server.wait(running).ok);
  EXPECT_TRUE(server.wait(waiting).ok);
  EXPECT_TRUE(server.forget(waiting));
}

TEST(Server, CalibratedCapacityStartsQueuedSessionsEarly) {
  // The header claims 80 Mb/s, so the static model predicts more than half
  // the 2-worker default capacity and the second and third sessions queue.
  // Each session's clean GOPs replace its prior with its measured share,
  // and the waiting sessions start then instead of when one finishes.
  const auto stream = make_stream(176, 120, 4, 48, 80'000'000, false);
  const auto p = serve::characterize_stream(stream);
  ASSERT_TRUE(p.valid);
  ServerConfig config;
  config.workers = 2;
  config.admission.max_queued = 4;
  config.watchdog_ns = 30'000'000'000;
  ASSERT_GT(2 * p.predicted_load,
            config.workers * serve::kDefaultWorkerCapacity);
  const std::uint64_t expected = solo_checksum(stream);
  DecodeServer server(config);
  std::vector<serve::SessionId> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(server.submit(stream, {}));
  EXPECT_EQ(server.decision(ids[0]), AdmissionDecision::kAdmit);
  EXPECT_EQ(server.decision(ids[1]), AdmissionDecision::kQueue);
  EXPECT_EQ(server.decision(ids[2]), AdmissionDecision::kQueue);
  std::vector<SessionResult> results;
  for (const auto id : ids) results.push_back(server.wait(id));
  for (const SessionResult& r : results) {
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.checksum, expected);
    EXPECT_EQ(r.pool_idle, r.pool_misses);
  }
  // Uncalibrated, a waiting session starts only when a running one
  // finalizes. Calibrated, the first session's first clean GOP shrinks its
  // charge and the second starts; the second's first GOP starts the third.
  EXPECT_LT(results[1].start_ns, results[0].finish_ns);
  EXPECT_LT(results[2].start_ns, results[1].finish_ns);
  const AdmissionSnapshot snap = server.admission();
  EXPECT_GT(snap.calibrated_gops, 0);
  EXPECT_EQ(snap.running, 0);
  EXPECT_EQ(snap.queued, 0);
  EXPECT_EQ(snap.admitted_load, 0.0);
}

TEST(Server, MisstatedHeaderDoesNotRechargeOtherSessions) {
  // A stream whose header overstates its bit rate decodes far cheaper than
  // its prior, so its own charge and its class's shrink. That measurement
  // must not carry over to other headers: two reference-rate SD sessions
  // whose priors do not fit together still run one after the other, as
  // they do with no calibration at all. Their only GOP is damaged, so
  // neither calibrates itself or their class.
  ServerConfig config;
  config.workers = 1;  // kDefaultWorkerCapacity
  config.admission.max_queued = 4;
  config.watchdog_ns = 30'000'000'000;
  DecodeServer server(config);
  const auto overstated = make_stream(176, 120, 4, 48, 80'000'000, false);
  ASSERT_TRUE(server.wait(server.submit(overstated, {})).ok);
  ASSERT_GT(server.admission().calibrated_gops, 0);

  const auto sd = inject::apply_fault(
      make_stream(704, 480, 6, 6, 5'000'000),
      inject::FaultSpec{inject::FaultKind::kDropSlice, 3, 1});
  const StreamLoadProfile p = serve::characterize_stream(sd);
  ASSERT_LE(p.predicted_load, serve::kDefaultWorkerCapacity);
  ASSERT_GT(2 * p.predicted_load, serve::kDefaultWorkerCapacity);
  const auto first = server.submit(sd, {});
  const auto second = server.submit(sd, {});
  const SessionResult a = server.wait(first);
  const SessionResult b = server.wait(second);
  ASSERT_EQ(a.quarantined_gops, 1) << "the fault concealed nothing";
  EXPECT_EQ(a.state, SessionState::kFinished);
  EXPECT_EQ(b.state, SessionState::kFinished);
  EXPECT_GE(b.start_ns, a.finish_ns);
}

TEST(Server, ConcealedGopsDoNotCalibrate) {
  // Every GOP of a lone quarantine session completes exactly once, either
  // clean (one calibration observation) or damaged (quarantined, skipped).
  const auto clean = make_stream(176, 120, 4, 16);
  const auto stream = inject::apply_fault(
      clean, inject::FaultSpec{inject::FaultKind::kDropSlice, 3, 1});
  ServerConfig config;
  config.workers = 2;
  config.watchdog_ns = 30'000'000'000;
  DecodeServer server(config);
  const SessionResult r = server.wait(server.submit(stream, {}));
  ASSERT_EQ(r.state, SessionState::kFinished);
  ASSERT_GT(r.quarantined_gops, 0) << "the fault concealed nothing";
  EXPECT_EQ(server.admission().calibrated_gops,
            r.pictures / 4 - r.quarantined_gops);
}

TEST(Server, AdmissionSnapshotIsSafeWhileSessionsDecode) {
  // Worker threads write the calibration on every GOP completion; a
  // client thread reads admission() concurrently (the TSan stage runs
  // this) and always sees a consistent copy.
  const auto stream = make_stream(176, 120, 4, 32);
  ServerConfig config;
  config.workers = 4;
  config.admission.max_queued = 8;
  config.watchdog_ns = 30'000'000'000;
  DecodeServer server(config);
  std::atomic<bool> done{false};
  std::int64_t reads = 0;
  std::thread reader([&] {
    std::int64_t last_gops = 0;
    while (!done.load(std::memory_order_acquire)) {
      const AdmissionSnapshot snap = server.admission();
      EXPECT_GE(snap.admitted_load, 0.0);
      EXPECT_GE(snap.calibrated_gops, last_gops);
      EXPECT_GE(snap.running, 0);
      EXPECT_GE(snap.queued, 0);
      EXPECT_LE(snap.running + snap.queued, 6);
      last_gops = snap.calibrated_gops;
      ++reads;
    }
  });
  std::vector<serve::SessionId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(server.submit(stream, {}));
  for (const auto id : ids) EXPECT_TRUE(server.wait(id).ok);
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(reads, 0);
  const AdmissionSnapshot snap = server.admission();
  EXPECT_EQ(snap.calibrated_gops, 6 * 8);
  EXPECT_EQ(snap.running, 0);
  EXPECT_EQ(snap.queued, 0);
  EXPECT_EQ(snap.admitted_load, 0.0);
}

TEST(Server, DestructorDrainsCleanly) {
  // Destroying the server with sessions still running must cancel and
  // join without hanging or crashing (graceful teardown).
  const auto stream = make_stream(352, 240, 13, 39, 5'000'000);
  {
    ServerConfig config;
    config.workers = 2;
    DecodeServer server(config);
    for (int i = 0; i < 3; ++i) server.submit(stream, {});
    // No drain: the destructor owns the teardown.
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Lifecycle stress (run under TSan via scripts/ci.sh stage_tsan):
// concurrent submit/decode/cancel/wait against one shared server.

TEST(ServerLifecycle, ConcurrentOpenDecodeCancelTeardown) {
  const auto stream = make_stream(176, 120, 4, 16);
  const std::uint64_t expected = solo_checksum(stream);
  ServerConfig config;
  config.workers = 4;
  config.watchdog_ns = 30'000'000'000;
  config.admission.max_queued = 64;
  DecodeServer server(config);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 4;
  std::atomic<int> ok_count{0};
  std::atomic<int> cancelled_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        SessionConfig sc;
        sc.weight = 1.0 + t;  // uneven weights across client threads
        const auto id = server.submit(stream, std::move(sc));
        // Every other session on half the threads is cancelled quickly.
        if (t % 2 == 0 && i % 2 == 1) {
          server.cancel(id);
        }
        const SessionResult r = server.wait(id);
        if (r.state == SessionState::kFinished) {
          EXPECT_EQ(r.checksum, expected);
          ++ok_count;
        } else {
          EXPECT_EQ(r.state, SessionState::kCancelled);
          ++cancelled_count;
        }
        EXPECT_FALSE(r.hung);
        EXPECT_EQ(r.pool_idle, r.pool_misses);
        // Half the threads release their sessions immediately, racing
        // forget() against the scheduler and other clients' submits.
        if (t % 2 == 1) EXPECT_TRUE(server.forget(id));
      }
    });
  }
  for (auto& c : clients) c.join();
  // Cancels may land after natural completion, so only the totals are
  // exact: every session reached a terminal state.
  EXPECT_EQ(ok_count + cancelled_count, kThreads * kPerThread);
  EXPECT_GT(ok_count.load(), 0);
  server.drain();
}

TEST(ServerLifecycle, SequentialSessionsReuseThePool) {
  // One long-lived server decoding sessions back to back: worker threads
  // persist across sessions, results stay solo-identical every time.
  const auto stream = make_stream(176, 120, 13, 13);
  const std::uint64_t expected = solo_checksum(stream);
  ServerConfig config;
  config.workers = 3;
  DecodeServer server(config);
  for (int round = 0; round < 5; ++round) {
    const auto id = server.submit(stream, {});
    const SessionResult r = server.wait(id);
    ASSERT_TRUE(r.ok) << "round " << round;
    EXPECT_EQ(r.checksum, expected) << "round " << round;
  }
  EXPECT_EQ(server.load_summary().workers, 3);
}

/// This process's thread count from /proc/self/status, or -1 if unreadable.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(ServerLifecycle, SessionsDoNotOwnThreads) {
  // Scanning is a worker task, so 64 open sessions on 2 workers add no
  // thread: the process holds the main thread and the pool, whatever the
  // session count.
  if (process_threads() < 0) {
    GTEST_SKIP() << "/proc/self/status unreadable";
  }
  const auto stream = make_stream(176, 120, 4, 12);
  const std::uint64_t expected = solo_checksum(stream);
  ServerConfig config;
  config.workers = 2;
  config.admission.capacity = 1e12;  // admit all 64 at once
  DecodeServer server(config);
  std::vector<serve::SessionId> ids;
  for (int i = 0; i < 64; ++i) {
    SessionConfig sc;
    sc.max_queued_gops = 1;
    ids.push_back(server.submit(stream, std::move(sc)));
  }
  const int max_threads = config.workers + 2;
  EXPECT_LE(process_threads(), max_threads) << "straight after submit";
  int peak = 0;
  for (const auto id : ids) {
    while (server.state(id) == SessionState::kRunning) {
      peak = std::max(peak, process_threads());
      std::this_thread::yield();
    }
  }
  EXPECT_LE(peak, max_threads) << "while the sessions ran";
  for (const auto id : ids) {
    const SessionResult r = server.wait(id);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.checksum, expected);
    EXPECT_EQ(r.pool_idle, r.pool_misses);
  }
}

// ---------------------------------------------------------------------------
// End of stream without sequence_end_code: the last slice of the last
// picture still decodes to its final macroblock, in every decoder.

std::uint64_t sequential_checksum(std::span<const std::uint8_t> stream) {
  mpeg2::Decoder decoder;
  std::uint64_t digest = 0;
  const auto status = decoder.decode_stream(stream, [&](mpeg2::FramePtr f) {
    digest = parallel::chain_frame_checksum(digest, *f);
  });
  EXPECT_TRUE(status.ok);
  return digest;
}

TEST(EndOfStream, SegmentsWithoutEndCodeDecodeEveryMacroblock) {
  // The Table-1 CIF stream cut into one-GOP segments (preamble + GOP), as
  // a live packager would publish them: no trailing end code.
  const auto base = make_stream(352, 240, 13, 130, 5'000'000);
  const mpeg2::StreamStructure s = mpeg2::scan_structure(base);
  ASSERT_TRUE(s.valid);
  ASSERT_EQ(s.gops.size(), 10u);
  const auto at = [&](std::uint64_t off) {
    return base.begin() + static_cast<std::ptrdiff_t>(off);
  };
  ServerConfig server_config;
  server_config.workers = 2;
  DecodeServer server(server_config);
  for (std::size_t g = 0; g < s.gops.size(); ++g) {
    std::vector<std::uint8_t> bare(base.begin(), at(s.gops.front().offset));
    bare.insert(bare.end(), at(s.gops[g].offset), at(s.gops[g].end_offset));
    std::vector<std::uint8_t> ended = bare;
    ended.insert(ended.end(), {0x00, 0x00, 0x01, 0xB7});
    const std::uint64_t want = sequential_checksum(ended);

    EXPECT_EQ(sequential_checksum(bare), want) << "sequential, GOP " << g;

    parallel::GopDecoderConfig gop_config;
    gop_config.workers = 2;
    gop_config.quarantine_gops = true;
    const auto gop = parallel::GopParallelDecoder(gop_config).decode(bare);
    ASSERT_TRUE(gop.ok) << "GOP " << g;
    EXPECT_EQ(gop.checksum, want) << "gop decoder, GOP " << g;
    EXPECT_EQ(gop.concealed_slices, 0) << "gop decoder, GOP " << g;

    parallel::AdaptiveDecoderConfig adaptive_config;
    adaptive_config.workers = 2;
    adaptive_config.quarantine_gops = true;
    const auto adaptive =
        parallel::AdaptiveDecoder(adaptive_config).decode(bare);
    ASSERT_TRUE(adaptive.ok) << "GOP " << g;
    EXPECT_EQ(adaptive.checksum, want) << "adaptive decoder, GOP " << g;
    EXPECT_EQ(adaptive.concealed_slices, 0) << "adaptive decoder, GOP " << g;

    const SessionResult r = server.wait(server.submit(bare, {}));
    ASSERT_TRUE(r.ok) << "GOP " << g;
    EXPECT_EQ(r.checksum, want) << "server session, GOP " << g;
    EXPECT_EQ(r.concealed_slices, 0) << "server session, GOP " << g;
  }
}

}  // namespace
}  // namespace pmp2
