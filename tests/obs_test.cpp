// Observability-layer tests: JSON writer/escaping, tracer ring semantics,
// Chrome trace_event export validity, metrics registry, the shared load
// summary, run reports, and the determinism guarantee of sim-fed traces.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bitstream/startcode.h"
#include "mpeg2/decoder.h"
#include "obs/json.h"
#include "obs/json_parse.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/tracer.h"
#include "parallel/gop_decoder.h"
#include "parallel/slice_parallel.h"
#include "parallel/stats.h"
#include "sched/sim.h"
#include "streamgen/stream_factory.h"

namespace pmp2 {
namespace {

// --- Minimal strict JSON parser (validity only). Accepts exactly the RFC
// 8259 grammar; used to round-trip-check every exporter in this suite.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!parse_value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  void skip_ws() {
    while (!at_end() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                         peek() == '\r')) {
      ++pos_;
    }
  }
  bool consume(char c) {
    if (at_end() || peek() != c) return false;
    ++pos_;
    return true;
  }
  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_value() {
    if (at_end()) return false;
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return parse_number();
    }
  }

  bool parse_object() {
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      if (!parse_string()) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (!parse_value()) return false;
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }

  bool parse_array() {
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      skip_ws();
      if (!parse_value()) return false;
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }

  bool parse_string() {
    if (!consume('"')) return false;
    while (!at_end()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return false;  // raw control char: invalid
      if (c == '\\') {
        ++pos_;
        if (at_end()) return false;
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + static_cast<std::size_t>(i) >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(
                    text_[pos_ + static_cast<std::size_t>(i)]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool parse_number() {
    const std::size_t start = pos_;
    consume('-');
    if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      return false;
    }
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
      ++pos_;
    }
    if (!at_end() && peek() == '.') {
      ++pos_;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return false;
      }
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return false;
      }
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    return pos_ > start;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool json_valid(std::string_view text) { return JsonChecker(text).valid(); }

int count_occurrences(const std::string& haystack, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// --- JSON writer ----------------------------------------------------------

TEST(Json, EscapesRfc8259) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("\n\t\r\b\f"), "\\n\\t\\r\\b\\f");
  EXPECT_EQ(obs::json_escape(std::string_view("\x01\x1f", 2)),
            "\\u0001\\u001f");
  // Non-ASCII bytes pass through untouched (UTF-8 payloads are legal JSON).
  EXPECT_EQ(obs::json_escape("\xc3\xa9"), "\xc3\xa9");
}

TEST(Json, DoubleFormatting) {
  EXPECT_EQ(obs::json_double(0.0), "0");
  EXPECT_EQ(obs::json_double(1.5), "1.5");
  EXPECT_EQ(obs::json_double(std::nan("")), "null");
  EXPECT_EQ(obs::json_double(std::numeric_limits<double>::infinity()),
            "null");
}

TEST(Json, WriterProducesValidCompactDocument) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("name").value("quo\"te");
  w.key("n").value(42);
  w.key("xs").begin_array();
  w.value(1.25).value(true).null();
  w.end_array();
  w.key("nested").begin_object().end_object();
  w.end_object();
  EXPECT_TRUE(w.done());
  const std::string doc = os.str();
  EXPECT_EQ(doc,
            "{\"name\":\"quo\\\"te\",\"n\":42,\"xs\":[1.25,true,null],"
            "\"nested\":{}}");
  EXPECT_TRUE(json_valid(doc));
}

// Escaped payload -> JsonWriter document -> strict obs::json_parse ->
// original bytes. Covers every control character and multi-byte UTF-8.
TEST(Json, ControlCharsRoundTripThroughStrictParser) {
  for (int c = 0; c < 0x20; ++c) {
    std::string payload = "a";
    payload.push_back(static_cast<char>(c));
    payload += "b";
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.begin_object();
    w.key("s").value(payload);
    w.end_object();
    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::json_parse(os.str(), doc, &err))
        << "byte 0x" << std::hex << c << ": " << err;
    const obs::JsonValue* s = doc.find("s");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->as_string(), payload) << "byte 0x" << std::hex << c;
  }
}

TEST(Json, NonAsciiBytesRoundTripThroughStrictParser) {
  const std::string payloads[] = {
      "\xc3\xa9",                               // 2-byte UTF-8 (e acute)
      "\xe2\x82\xac",                           // 3-byte UTF-8 (euro sign)
      "\xf0\x9f\x8e\xac",                       // 4-byte UTF-8 (clapper)
      std::string("del \x7f nbsp \xc2\xa0"),    // DEL is legal unescaped
  };
  for (const std::string& payload : payloads) {
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.begin_object();
    w.key("s").value(payload);
    w.end_object();
    EXPECT_TRUE(json_valid(os.str()));
    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::json_parse(os.str(), doc, &err)) << err;
    const obs::JsonValue* s = doc.find("s");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->as_string(), payload);
  }
}

// --- Tracer ring ----------------------------------------------------------

TEST(Tracer, RingOverflowKeepsNewestAndCountsDrops) {
  obs::TraceTrack track(4);
  for (int i = 0; i < 10; ++i) {
    obs::Span s;
    s.begin_ns = i;
    s.end_ns = i + 1;
    track.emit(s);
  }
  EXPECT_EQ(track.emitted(), 10u);
  EXPECT_EQ(track.dropped(), 6u);
  const auto spans = track.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first unwrap of the newest four spans (6, 7, 8, 9).
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[static_cast<std::size_t>(i)].begin_ns, 6 + i);
  }
}

TEST(Tracer, NoOverflowBelowCapacity) {
  obs::TraceTrack track(16);
  for (int i = 0; i < 10; ++i) track.emit(obs::Span{});
  EXPECT_EQ(track.dropped(), 0u);
  EXPECT_EQ(track.spans().size(), 10u);
}

TEST(Tracer, ChromeExportRoundTripsThroughStrictParser) {
  obs::Tracer tracer(2, /*capacity_per_track=*/8);
  // Track names with JSON-hostile characters must survive escaping.
  tracer.track(0).set_name("worker \"zero\"\\path\n");
  tracer.track(1).set_name("scan");
  tracer.emit(0, obs::SpanKind::kSliceTask, 1000, 2500, 3, 7, 1);
  tracer.emit(0, obs::SpanKind::kSyncWait, 2500, 2600);
  tracer.emit(1, obs::SpanKind::kScan, 0, 900);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string doc = os.str();
  EXPECT_TRUE(json_valid(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"slice p3 s7\""), std::string::npos);
  EXPECT_NE(doc.find("\"worker \\\"zero\\\"\\\\path\\n\""),
            std::string::npos);
  // Complete events carry microsecond fixed-point timestamps: 1000 ns
  // begins at 1.000 us and lasts 1.500 us.
  EXPECT_NE(doc.find("\"ts\":1.000,\"dur\":1.500"), std::string::npos);
  EXPECT_EQ(count_occurrences(doc, "\"ph\":\"X\""), 3);
  EXPECT_EQ(tracer.total_spans(), 3u);
  EXPECT_EQ(tracer.total_dropped(), 0u);
}

// --- Metrics --------------------------------------------------------------

TEST(Metrics, HistogramStatsAndPercentiles) {
  obs::Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.sum(), 5050);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Log2 buckets: percentiles are exact to within one octave.
  EXPECT_GE(h.percentile(0.5), 25.0);
  EXPECT_LE(h.percentile(0.5), 75.0);
  EXPECT_GE(h.percentile(0.99), 64.0);
  EXPECT_LE(h.percentile(0.99), 100.0);
  EXPECT_LE(h.percentile(1.0), 100.0);
}

TEST(Metrics, HistogramPercentileEmptyAndSingleSample) {
  obs::Histogram empty;
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(empty.percentile(q), 0.0) << "q=" << q;
  }
  obs::Histogram one;
  one.record(42);
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(one.percentile(q), 42.0) << "q=" << q;
  }
}

TEST(Metrics, HistogramPercentileEndpointsClampAndMonotone) {
  obs::Histogram h;
  for (const int v : {10, 20, 40, 80, 1000}) h.record(v);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1000.0);
  // Out-of-range quantiles clamp to the endpoints.
  EXPECT_DOUBLE_EQ(h.percentile(-0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(2.0), 1000.0);
  double prev = h.percentile(0.0);
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    const double v = h.percentile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(Metrics, RegistryDumpsAreValidAndDeterministic) {
  obs::Registry reg;
  reg.counter("decode.bytes").add(12345);
  reg.counter("slice.tasks").add(9);
  reg.histogram("slice.task_ns").record(100);
  reg.histogram("slice.task_ns").record(300);

  std::ostringstream text;
  reg.write_text(text);
  EXPECT_NE(text.str().find("decode.bytes = 12345"), std::string::npos);
  EXPECT_NE(text.str().find("slice.task_ns"), std::string::npos);

  std::ostringstream j1, j2;
  reg.write_json(j1);
  reg.write_json(j2);
  EXPECT_TRUE(json_valid(j1.str())) << j1.str();
  EXPECT_EQ(j1.str(), j2.str());
  EXPECT_NE(j1.str().find("\"count\":2"), std::string::npos);
}

TEST(Metrics, CounterLookupIsStable) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x");
  a.add(3);
  EXPECT_EQ(reg.counter("x").value(), 3);
  EXPECT_EQ(&reg.counter("x"), &a);
}

// --- Shared load summary --------------------------------------------------

TEST(LoadSummary, MatchesHandComputation) {
  const std::vector<std::int64_t> busy = {100, 200, 300};
  const std::vector<std::int64_t> sync = {50, 50, 50};
  const std::vector<std::int64_t> idle = {10, 0, 0};
  const std::vector<std::uint64_t> tasks = {1, 2, 3};
  const auto s = parallel::summarize_load(busy, sync, idle, tasks);
  EXPECT_EQ(s.workers, 3);
  EXPECT_EQ(s.tasks, 6u);
  EXPECT_EQ(s.min_busy_ns, 100);
  EXPECT_EQ(s.max_busy_ns, 300);
  EXPECT_DOUBLE_EQ(s.avg_busy_ns, 200.0);
  EXPECT_DOUBLE_EQ(s.imbalance, 1.5);
  // Mean over workers of sync / (sync + busy).
  EXPECT_DOUBLE_EQ(s.sync_ratio,
                   (50.0 / 150.0 + 50.0 / 250.0 + 50.0 / 350.0) / 3.0);
  EXPECT_DOUBLE_EQ(s.utilization, 600.0 / (600.0 + 150.0 + 10.0));
}

TEST(LoadSummary, EmptyAndZeroInputsAreSafe) {
  const auto empty = parallel::summarize_load({}, {});
  EXPECT_EQ(empty.workers, 0);
  EXPECT_DOUBLE_EQ(empty.imbalance, 0.0);
  const std::vector<std::int64_t> zeros = {0, 0};
  const auto z = parallel::summarize_load(zeros, zeros);
  EXPECT_DOUBLE_EQ(z.sync_ratio, 0.0);
  EXPECT_DOUBLE_EQ(z.utilization, 0.0);
}

// --- Run reports ----------------------------------------------------------

TEST(Report, SerializesValidDeterministicJson) {
  obs::Registry reg;
  reg.counter("tasks").add(4);
  obs::RunReport report("test_tool", "desc \"quoted\"");
  report.set_meta("workers", 4).set_meta("scale", 0.5);
  report.add_row().set("name", "a").set("ok", true).set("x", 1.25);
  report.add_row().set("name", "b").set("n", std::int64_t{7});
  report.attach_metrics(&reg);

  std::ostringstream o1, o2;
  report.write_json(o1);
  report.write_json(o2);
  const std::string doc = o1.str();
  EXPECT_EQ(doc, o2.str());
  EXPECT_TRUE(json_valid(doc)) << doc;
  EXPECT_NE(doc.find("\"tool\":\"test_tool\""), std::string::npos);
  EXPECT_NE(doc.find("\"desc \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(doc.find("\"rows\":["), std::string::npos);
  EXPECT_NE(doc.find("\"metrics\":{"), std::string::npos);
  EXPECT_EQ(doc.back(), '\n');
}

TEST(Report, WritesNamedObjectsAfterRows) {
  obs::RunReport report("test_tool", "desc");
  report.add_row().set("name", "a");
  std::ostringstream bare;
  report.write_json(bare);
  report.add_object("admission").set("calibrated_gops", 3).set("scale", 0.5);
  std::ostringstream with_object;
  report.write_json(with_object);
  const std::string doc = with_object.str();
  EXPECT_TRUE(json_valid(doc)) << doc;
  EXPECT_EQ(bare.str().find("admission"), std::string::npos);
  EXPECT_NE(doc.find("\"rows\":[{\"name\":\"a\"}],"
                     "\"admission\":{\"calibrated_gops\":3,"
                     "\"scale\":0.5}"),
            std::string::npos)
      << doc;
}

// --- Real decoder integration --------------------------------------------

streamgen::StreamSpec small_spec() {
  streamgen::StreamSpec spec;
  spec.width = 176;
  spec.height = 120;
  spec.gop_size = 13;
  spec.pictures = 26;
  spec.bit_rate = 1'500'000;
  return spec;
}

TEST(DecoderTrace, SliceSpansMatchTaskAndCounterTotals) {
  const auto stream = streamgen::generate_stream(small_spec());
  const int workers = 3;
  obs::Tracer tracer(workers + 1);
  obs::Registry metrics;
  parallel::SliceDecoderConfig cfg;
  cfg.workers = workers;
  cfg.policy = parallel::SlicePolicy::kImproved;
  cfg.tracer = &tracer;
  cfg.metrics = &metrics;
  const auto r = parallel::SliceParallelDecoder(cfg).decode(stream);
  ASSERT_TRUE(r.ok);

  std::uint64_t task_total = 0;
  for (const auto& w : r.workers) task_total += w.tasks;
  EXPECT_GT(task_total, 0u);

  std::uint64_t slice_spans = 0;
  bool scan_span = false;
  for (int t = 0; t < tracer.tracks(); ++t) {
    for (const auto& s : tracer.track(t).spans()) {
      if (s.kind == obs::SpanKind::kSliceTask) {
        ++slice_spans;
        EXPECT_LE(s.begin_ns, s.end_ns);
        EXPECT_GE(s.picture, 0);
        EXPECT_GE(s.slice, 0);
        EXPECT_LT(t, workers);  // slice tasks only on worker tracks
      }
      if (s.kind == obs::SpanKind::kScan) {
        scan_span = true;
        EXPECT_LT(t, workers);  // scan tasks run on the worker tracks
      }
    }
  }
  EXPECT_EQ(slice_spans, task_total);
  EXPECT_TRUE(scan_span);
  EXPECT_EQ(
      static_cast<std::uint64_t>(metrics.counter("slice.tasks").value()),
      task_total);
  EXPECT_EQ(metrics.counter("decode.bytes").value(),
            static_cast<std::int64_t>(stream.size()));
  EXPECT_EQ(metrics.histogram("slice.task_ns").count(),
            static_cast<std::int64_t>(task_total));
  // No-trace decode must agree bit-exactly with the traced one.
  parallel::SliceDecoderConfig plain;
  plain.workers = workers;
  plain.policy = parallel::SlicePolicy::kImproved;
  const auto want = parallel::SliceParallelDecoder(plain).decode(stream);
  ASSERT_TRUE(want.ok);
  EXPECT_EQ(r.checksum, want.checksum);
}

TEST(DecoderTrace, GopDecoderEmitsGopAndPictureSpans) {
  const auto stream = streamgen::generate_stream(small_spec());
  const int workers = 2;
  obs::Tracer tracer(workers + 1);
  obs::Registry metrics;
  parallel::GopDecoderConfig cfg;
  cfg.workers = workers;
  cfg.tracer = &tracer;
  cfg.metrics = &metrics;
  const auto r = parallel::GopParallelDecoder(cfg).decode(stream);
  ASSERT_TRUE(r.ok);
  // One decode task per GOP, whatever the worker that ran it: the worker
  // stats, the task counter and the task-time histogram agree.
  std::uint64_t task_total = 0;
  for (const auto& w : r.workers) task_total += w.tasks;
  EXPECT_EQ(task_total, 2u);
  EXPECT_EQ(metrics.counter("gop.tasks").value(), 2);
  EXPECT_EQ(metrics.histogram("gop.task_ns").count(), 2);
  std::uint64_t gop_spans = 0, picture_spans = 0, scan_spans = 0;
  for (int t = 0; t < tracer.tracks(); ++t) {
    for (const auto& s : tracer.track(t).spans()) {
      if (s.kind == obs::SpanKind::kGopTask) {
        ++gop_spans;
        EXPECT_GE(s.gop, 0);
      }
      if (s.kind == obs::SpanKind::kPicture) ++picture_spans;
      if (s.kind == obs::SpanKind::kScan) {
        ++scan_spans;
        EXPECT_LT(t, workers);  // scan tasks run on the worker tracks
      }
    }
  }
  EXPECT_EQ(gop_spans, 2u);  // 26 pictures, gop 13
  EXPECT_EQ(picture_spans, 26u);
  EXPECT_GT(scan_spans, 0u);
}

/// Same corruption idiom as concealment_test.cpp: stomp one slice payload.
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

TEST(DecoderTrace, GopDecoderConcealsAndReportsCorruptSlices) {
  auto stream = streamgen::generate_stream(small_spec());
  corrupt_slice(stream, 0, 3, 4);
  parallel::GopDecoderConfig cfg;
  cfg.workers = 2;
  cfg.conceal_errors = true;
  const auto r = parallel::GopParallelDecoder(cfg).decode(stream);
  ASSERT_TRUE(r.ok);
  EXPECT_GE(r.concealed_slices, 1);
  EXPECT_EQ(r.pictures, 26);
  // Without concealment the same stream must fail.
  parallel::GopDecoderConfig strict;
  strict.workers = 2;
  EXPECT_FALSE(parallel::GopParallelDecoder(strict).decode(stream).ok);
}

// --- Simulator determinism ------------------------------------------------

/// Synthetic profile: fully deterministic costs, no encoding involved.
sched::StreamProfile synthetic_profile() {
  sched::StreamProfile p;
  p.ok = true;
  p.width = 176;
  p.height = 144;
  p.slices_per_picture = 4;
  p.ns_per_unit = 100.0;
  p.scan_ns = 50'000;
  for (int g = 0; g < 3; ++g) {
    sched::GopCost gop;
    for (int i = 0; i < 4; ++i) {
      sched::PictureCost pic;
      pic.type = i == 0 ? mpeg2::PictureType::kI : mpeg2::PictureType::kP;
      pic.temporal_reference = i;
      for (int s = 0; s < 4; ++s) {
        sched::SliceCost slice;
        slice.units = static_cast<std::uint64_t>(100 + 13 * g + 7 * i + s);
        slice.ns = static_cast<std::int64_t>(slice.units) * 100;
        pic.slices.push_back(slice);
      }
      gop.pictures.push_back(pic);
    }
    gop.stream_bytes = 40'000;
    p.gops.push_back(gop);
    p.stream_bytes += gop.stream_bytes;
  }
  return p;
}

std::string sim_trace_json(sched::Granularity granularity,
                           int max_open_pictures = 3) {
  const auto profile = synthetic_profile();
  sched::SimConfig cfg;
  cfg.workers = 3;
  cfg.granularity = granularity;
  cfg.max_open_pictures = max_open_pictures;
  obs::Tracer tracer(cfg.workers);
  cfg.tracer = &tracer;
  const auto r = sched::simulate(profile, cfg);
  EXPECT_GT(r.makespan_ns, 0);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  return os.str();
}

TEST(SimTrace, TwoIdenticalRunsExportByteIdenticalJson) {
  for (const bool gop_level : {false, true}) {
    const auto granularity =
        gop_level ? sched::Granularity::kWholeGop : sched::Granularity::kSlice;
    const auto a = sim_trace_json(granularity);
    const auto b = sim_trace_json(granularity);
    EXPECT_EQ(a, b) << (gop_level ? "gop" : "slice");
    EXPECT_TRUE(json_valid(a));
    EXPECT_NE(a.find(gop_level ? "\"cat\":\"gop\"" : "\"cat\":\"slice\""),
              std::string::npos);
  }
}

TEST(SimTrace, SimplePolicyTraceIsDeterministicToo) {
  const auto a = sim_trace_json(sched::Granularity::kSlice, 1);
  const auto b = sim_trace_json(sched::Granularity::kSlice, 1);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(json_valid(a));
}

TEST(SimTrace, LoadSummaryConsistentWithLegacyAccessors) {
  const auto profile = synthetic_profile();
  sched::SimConfig cfg;
  cfg.workers = 3;
  const auto r = sched::simulate(profile, cfg);
  const auto load = r.load_summary();
  EXPECT_EQ(load.workers, 3);
  EXPECT_EQ(load.min_busy_ns, r.min_busy_ns());
  EXPECT_EQ(load.max_busy_ns, r.max_busy_ns());
  EXPECT_DOUBLE_EQ(load.avg_busy_ns, r.avg_busy_ns());
  EXPECT_DOUBLE_EQ(load.sync_ratio, r.sync_ratio());
  EXPECT_GT(load.utilization, 0.0);
  EXPECT_LE(load.utilization, 1.0);
}

TEST(SimReport, TwoIdenticalRunsSerializeByteIdentically) {
  auto make_report = [] {
    const auto profile = synthetic_profile();
    sched::SimConfig cfg;
    cfg.workers = 3;
    cfg.granularity = sched::Granularity::kSlice;
    const auto r = sched::simulate(profile, cfg);
    const auto load = r.load_summary();
    obs::RunReport report("sim_test", "determinism check");
    report.set_meta("workers", cfg.workers);
    report.add_row()
        .set("makespan_ns", r.makespan_ns)
        .set("pictures", r.pictures)
        .set("imbalance", load.imbalance)
        .set("sync_ratio", load.sync_ratio);
    std::ostringstream os;
    report.write_json(os);
    return os.str();
  };
  const auto a = make_report();
  const auto b = make_report();
  EXPECT_EQ(a, b);
  EXPECT_TRUE(json_valid(a));
}

}  // namespace
}  // namespace pmp2
