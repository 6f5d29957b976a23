#include "obs/live/sampler.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/json.h"
#include "obs/json_parse.h"

namespace pmp2::obs::live {

// ---------------------------------------------------------------------------
// SlidingWindow

void SlidingWindow::push(std::int64_t t_ns,
                         const HistogramSnapshot& cumulative,
                         std::int64_t events) {
  Bucket bucket;
  bucket.t_ns = t_ns;
  bucket.prev_t_ns = have_prev_ ? prev_t_ns_ : 0;
  bucket.delta = cumulative;
  if (have_prev_) bucket.delta.subtract(prev_);
  bucket.events = std::max<std::int64_t>(0, events - prev_events_);
  ring_.push_back(std::move(bucket));
  prev_ = cumulative;
  prev_events_ = events;
  prev_t_ns_ = t_ns;
  have_prev_ = true;
  // Expiry: a bucket whose tick time has left the longest window can never
  // be merged again.
  while (!ring_.empty() && ring_.front().t_ns <= t_ns - max_window_ns_) {
    ring_.pop_front();
  }
}

SlidingWindow::View SlidingWindow::over(std::int64_t now_ns,
                                        std::int64_t window_ns) const {
  View view;
  const std::int64_t start = now_ns - window_ns;
  std::int64_t covered_from = now_ns;
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if (it->t_ns <= start) break;  // older ticks are fully outside
    view.hist.add(it->delta);
    view.events += it->events;
    covered_from = it->prev_t_ns;
  }
  if (covered_from < now_ns) {
    // A bucket straddling the window edge is merged whole; clamp the span
    // to the window so the rate stays a trailing-window rate.
    view.span_ns = now_ns - std::max(covered_from, start);
  }
  return view;
}

// ---------------------------------------------------------------------------
// SloRules

bool SloRules::parse(std::string_view text, SloRules& out,
                     std::string* error) {
  SloRules rules;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    const std::string_view item = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      if (error) *error = "expected key=value in '" + std::string(item) + "'";
      return false;
    }
    const std::string_view key = item.substr(0, eq);
    const std::string value(item.substr(eq + 1));
    double parsed = 0;
    try {
      std::size_t used = 0;
      parsed = std::stod(value, &used);
      if (used != value.size()) throw std::invalid_argument(value);
    } catch (...) {
      if (error) *error = "bad number '" + value + "' for '" +
                          std::string(key) + "'";
      return false;
    }
    if (key == "latency_p99_ms") {
      rules.latency_p99_ms = parsed;
    } else if (key == "min_pics_s") {
      rules.min_pics_s = parsed;
    } else if (key == "max_stall_ms") {
      rules.max_stall_ms = parsed;
    } else if (key == "trigger_ticks") {
      rules.trigger_ticks = std::max(1, static_cast<int>(parsed));
    } else if (key == "clear_ticks") {
      rules.clear_ticks = std::max(1, static_cast<int>(parsed));
    } else {
      if (error) *error = "unknown SLO rule '" + std::string(key) + "'";
      return false;
    }
  }
  out = rules;
  return true;
}

// ---------------------------------------------------------------------------
// LiveSampler

LiveSampler::LiveSampler(LiveTelemetry& telemetry, Options options)
    : telemetry_(telemetry),
      options_(std::move(options)),
      window_(options_.window_long_ms * 1'000'000) {}

LiveSampler::~LiveSampler() { stop(); }

void LiveSampler::start() {
  if (started_) return;
  started_ = true;
  stopping_ = false;
  thread_ = std::thread([this] {
    for (;;) {
      bool stop_now;
      {
        std::unique_lock lock(stop_mutex_);
        stop_cv_.wait_for(lock,
                          std::chrono::milliseconds(options_.interval_ms),
                          [this] { return stopping_; });
        stop_now = stopping_;
      }
      sample_at(telemetry_.now_ns());
      if (stop_now) break;
    }
  });
}

void LiveSampler::stop() {
  if (!started_) return;
  {
    const std::scoped_lock lock(stop_mutex_);
    stopping_ = true;
    stop_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

LiveSnapshot LiveSampler::sample_at(std::int64_t now_ns) {
  const std::scoped_lock lock(tick_mutex_);
  LiveSnapshot snapshot = build_snapshot(now_ns);

  // SLO evaluation with hysteresis. The latency rule arms once the short
  // window has samples; throughput and stall arm once the run has made any
  // progress at all (so a sampler started before the decode never alarms
  // on the empty prefix), and stall additionally requires outstanding work
  // (a finished run aging quietly is not a stall).
  const bool any_progress = snapshot.pictures > 0;
  const bool outstanding =
      snapshot.queue_depth > 0 || snapshot.displayed < snapshot.pictures;
  evaluate_rule(latency_state_, snapshot.p99_1s_ms,
                options_.slo.latency_p99_ms,
                snapshot.p99_1s_ms > options_.slo.latency_p99_ms &&
                    window_.over(now_ns, options_.window_short_ms * 1'000'000)
                            .hist.count > 0,
                now_ns, snapshot.alerts);
  evaluate_rule(throughput_state_, snapshot.pics_per_s_1s,
                options_.slo.min_pics_s,
                any_progress &&
                    snapshot.pics_per_s_1s < options_.slo.min_pics_s,
                now_ns, snapshot.alerts);
  evaluate_rule(stall_state_, snapshot.stall_ms, options_.slo.max_stall_ms,
                any_progress && outstanding && snapshot.stall_ms >= 0 &&
                    snapshot.stall_ms > options_.slo.max_stall_ms,
                now_ns, snapshot.alerts);

  export_snapshot(snapshot);
  if (options_.on_snapshot) options_.on_snapshot(snapshot);
  return snapshot;
}

LiveSnapshot LiveSampler::build_snapshot(std::int64_t now_ns) {
  LiveSnapshot snapshot;
  snapshot.seq = ++seq_;
  snapshot.t_ns = now_ns;

  const int workers = telemetry_.workers();
  snapshot.workers.reserve(static_cast<std::size_t>(workers));
  if (prev_cells_.size() != static_cast<std::size_t>(workers)) {
    prev_cells_.assign(static_cast<std::size_t>(workers), CellSample{});
  }
  std::int64_t newest_progress = -1;
  // First tick: the baseline is the telemetry epoch (prev_cells_ are
  // zero), so utilization is meaningful from snapshot #1 on.
  const double tick_wall_ns = static_cast<double>(
      now_ns - std::max<std::int64_t>(0, prev_t_ns_));
  for (int w = 0; w < workers; ++w) {
    WorkerSample ws;
    ws.id = w;
    ws.cell = telemetry_.worker(w).sample();
    if (tick_wall_ns > 0) {
      const double busy_delta = static_cast<double>(
          ws.cell.busy_ns - prev_cells_[static_cast<std::size_t>(w)].busy_ns);
      ws.utilization = std::clamp(busy_delta / tick_wall_ns, 0.0, 1.0);
    }
    snapshot.pictures += ws.cell.pictures;
    newest_progress = std::max(newest_progress, ws.cell.last_progress_ns);
    snapshot.cycles += ws.cell.cycles;
    snapshot.instructions += ws.cell.instructions;
    snapshot.cache_refs += ws.cell.cache_refs;
    snapshot.cache_misses += ws.cell.cache_misses;
    snapshot.stalled_backend += ws.cell.stalled_backend;
    prev_cells_[static_cast<std::size_t>(w)] = ws.cell;
    snapshot.workers.push_back(std::move(ws));
  }
  const CellSample scan = telemetry_.scan().sample();
  const CellSample display = telemetry_.display().sample();
  snapshot.scan_bytes = scan.bytes;
  snapshot.displayed = display.pictures;
  newest_progress = std::max(newest_progress, scan.last_progress_ns);
  newest_progress = std::max(newest_progress, display.last_progress_ns);
  snapshot.queue_depth = telemetry_.queue_depth();
  snapshot.stall_ms =
      newest_progress >= 0
          ? static_cast<double>(now_ns - newest_progress) / 1e6
          : -1.0;

  const HistogramSnapshot cumulative = telemetry_.frame_latency().snapshot();
  window_.push(now_ns, cumulative, snapshot.pictures);
  const auto short_view =
      window_.over(now_ns, options_.window_short_ms * 1'000'000);
  const auto long_view =
      window_.over(now_ns, options_.window_long_ms * 1'000'000);
  snapshot.pics_per_s_1s = short_view.events_per_second();
  snapshot.pics_per_s_10s = long_view.events_per_second();
  snapshot.pics_per_s_total =
      now_ns > 0 ? static_cast<double>(snapshot.pictures) * 1e9 /
                       static_cast<double>(now_ns)
                 : 0.0;
  snapshot.p50_1s_ms = short_view.hist.percentile(0.50) / 1e6;
  snapshot.p95_1s_ms = short_view.hist.percentile(0.95) / 1e6;
  snapshot.p99_1s_ms = short_view.hist.percentile(0.99) / 1e6;
  snapshot.p50_10s_ms = long_view.hist.percentile(0.50) / 1e6;
  snapshot.p95_10s_ms = long_view.hist.percentile(0.95) / 1e6;
  snapshot.p99_10s_ms = long_view.hist.percentile(0.99) / 1e6;
  snapshot.p50_total_ms = cumulative.percentile(0.50) / 1e6;
  snapshot.p95_total_ms = cumulative.percentile(0.95) / 1e6;
  snapshot.p99_total_ms = cumulative.percentile(0.99) / 1e6;

  // Counter columns. The scan process counts too — its flush lands in the
  // scan cell, not a worker cell.
  snapshot.counter_source = telemetry_.counter_source();
  snapshot.cycles += scan.cycles;
  snapshot.instructions += scan.instructions;
  snapshot.cache_refs += scan.cache_refs;
  snapshot.cache_misses += scan.cache_misses;
  snapshot.stalled_backend += scan.stalled_backend;
  if (!snapshot.counter_source.empty()) {
    const std::int64_t totals[5] = {snapshot.cycles, snapshot.instructions,
                                    snapshot.cache_refs,
                                    snapshot.cache_misses,
                                    snapshot.stalled_backend};
    CounterTick tick;
    tick.t_ns = now_ns;
    for (int i = 0; i < 5; ++i) {
      tick.d[i] = std::max<std::int64_t>(0, totals[i] - prev_counters_[i]);
      prev_counters_[i] = totals[i];
    }
    counter_ring_.push_back(tick);
    const std::int64_t window_ns = options_.window_short_ms * 1'000'000;
    while (!counter_ring_.empty() &&
           counter_ring_.front().t_ns <= now_ns - window_ns) {
      counter_ring_.pop_front();
    }
    std::int64_t sum[5] = {0, 0, 0, 0, 0};
    for (const CounterTick& t : counter_ring_) {
      for (int i = 0; i < 5; ++i) sum[i] += t.d[i];
    }
    const auto ratio = [](std::int64_t num, std::int64_t den) {
      return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                     : 0.0;
    };
    snapshot.ipc_1s = ratio(sum[1], sum[0]);
    snapshot.miss_rate_1s = ratio(sum[3], sum[2]);
    snapshot.stall_frac_1s = ratio(sum[4], sum[0]);
  }
  prev_t_ns_ = now_ns;
  return snapshot;
}

void LiveSampler::evaluate_rule(RuleState& state, double value,
                                double threshold, bool violated,
                                std::int64_t now_ns,
                                std::vector<Alert>& active) {
  if (threshold <= 0) return;  // rule off
  if (violated) {
    ++state.violating;
    state.healthy = 0;
    if (state.active_index < 0 &&
        state.violating >= options_.slo.trigger_ticks) {
      Alert alert;
      alert.rule = state.name;
      alert.value = value;
      alert.threshold = threshold;
      alert.fired_at_ns = now_ns;
      state.active_index = static_cast<int>(alerts_.size());
      alerts_.push_back(alert);
      if (options_.on_alert) options_.on_alert(alert, true);
    }
  } else {
    ++state.healthy;
    state.violating = 0;
    if (state.active_index >= 0 &&
        state.healthy >= options_.slo.clear_ticks) {
      Alert& alert = alerts_[static_cast<std::size_t>(state.active_index)];
      alert.cleared_at_ns = now_ns;
      state.active_index = -1;
      if (options_.on_alert) options_.on_alert(alert, false);
    }
  }
  if (state.active_index >= 0) {
    active.push_back(alerts_[static_cast<std::size_t>(state.active_index)]);
  }
}

void LiveSampler::export_snapshot(const LiveSnapshot& snapshot) {
  if (!options_.ndjson_path.empty()) {
    if (!ndjson_opened_) {
      ndjson_.open(options_.ndjson_path,
                   std::ios::out | std::ios::trunc);
      ndjson_opened_ = true;
      if (!ndjson_) io_ok_ = false;
    }
    if (ndjson_) {
      write_snapshot_json(snapshot, ndjson_);
      ndjson_ << '\n';
      ndjson_.flush();
      if (!ndjson_) io_ok_ = false;
    }
  }
  if (!options_.prometheus_path.empty()) {
    if (!write_file_atomic(options_.prometheus_path,
                           prometheus_text(snapshot))) {
      io_ok_ = false;
    }
  }
}

std::vector<Alert> LiveSampler::alert_log() const {
  const std::scoped_lock lock(tick_mutex_);
  return alerts_;
}

std::uint64_t LiveSampler::snapshots() const {
  const std::scoped_lock lock(tick_mutex_);
  return seq_;
}

bool LiveSampler::io_ok() const {
  const std::scoped_lock lock(tick_mutex_);
  return io_ok_;
}

// ---------------------------------------------------------------------------
// Exporters

namespace {

void write_alert_json(JsonWriter& w, const Alert& alert) {
  w.begin_object();
  w.key("rule").value(alert.rule);
  w.key("value").value(alert.value);
  w.key("threshold").value(alert.threshold);
  w.key("fired_at_ns").value(alert.fired_at_ns);
  w.key("cleared_at_ns").value(alert.cleared_at_ns);
  w.key("active").value(alert.active());
  w.end_object();
}

}  // namespace

void write_snapshot_json(const LiveSnapshot& snapshot, std::ostream& os) {
  JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(LiveSnapshot::kSchema);
  w.key("seq").value(static_cast<std::int64_t>(snapshot.seq));
  w.key("t_ns").value(snapshot.t_ns);
  w.key("pictures").value(snapshot.pictures);
  w.key("displayed").value(snapshot.displayed);
  w.key("queue_depth").value(snapshot.queue_depth);
  w.key("scan_bytes").value(snapshot.scan_bytes);
  w.key("pics_per_s").begin_object();
  w.key("total").value(snapshot.pics_per_s_total);
  w.key("w1s").value(snapshot.pics_per_s_1s);
  w.key("w10s").value(snapshot.pics_per_s_10s);
  w.end_object();
  w.key("latency_ms").begin_object();
  w.key("w1s").begin_object();
  w.key("p50").value(snapshot.p50_1s_ms);
  w.key("p95").value(snapshot.p95_1s_ms);
  w.key("p99").value(snapshot.p99_1s_ms);
  w.end_object();
  w.key("w10s").begin_object();
  w.key("p50").value(snapshot.p50_10s_ms);
  w.key("p95").value(snapshot.p95_10s_ms);
  w.key("p99").value(snapshot.p99_10s_ms);
  w.end_object();
  w.key("total").begin_object();
  w.key("p50").value(snapshot.p50_total_ms);
  w.key("p95").value(snapshot.p95_total_ms);
  w.key("p99").value(snapshot.p99_total_ms);
  w.end_object();
  w.end_object();
  w.key("stall_ms").value(snapshot.stall_ms);
  if (!snapshot.counter_source.empty()) {
    // Additive: absent entirely on runs without a profiler, so old readers
    // and old NDJSON files are both fine.
    w.key("counters").begin_object();
    w.key("source").value(snapshot.counter_source);
    w.key("cycles").value(snapshot.cycles);
    w.key("instructions").value(snapshot.instructions);
    w.key("cache_refs").value(snapshot.cache_refs);
    w.key("cache_misses").value(snapshot.cache_misses);
    w.key("stalled_backend").value(snapshot.stalled_backend);
    w.key("ipc_w1s").value(snapshot.ipc_1s);
    w.key("miss_rate_w1s").value(snapshot.miss_rate_1s);
    w.key("stall_frac_w1s").value(snapshot.stall_frac_1s);
    w.end_object();
  }
  w.key("workers").begin_array();
  for (const auto& ws : snapshot.workers) {
    w.begin_object();
    w.key("id").value(ws.id);
    w.key("pictures").value(ws.cell.pictures);
    w.key("tasks").value(ws.cell.tasks);
    w.key("busy_ns").value(ws.cell.busy_ns);
    w.key("sync_ns").value(ws.cell.sync_ns);
    w.key("bytes").value(ws.cell.bytes);
    w.key("concealed").value(ws.cell.concealed);
    w.key("quarantined").value(ws.cell.quarantined);
    w.key("last_latency_ns").value(ws.cell.last_latency_ns);
    w.key("last_progress_ns").value(ws.cell.last_progress_ns);
    w.key("utilization").value(ws.utilization);
    if (!snapshot.counter_source.empty()) {
      w.key("cycles").value(ws.cell.cycles);
      w.key("instructions").value(ws.cell.instructions);
      w.key("cache_misses").value(ws.cell.cache_misses);
    }
    w.end_object();
  }
  w.end_array();
  w.key("alerts").begin_array();
  for (const auto& alert : snapshot.alerts) write_alert_json(w, alert);
  w.end_array();
  w.end_object();
}

std::string prometheus_text(const LiveSnapshot& snapshot) {
  std::ostringstream os;
  os << "# pmp2 live telemetry exposition (" << LiveSnapshot::kSchema
     << ")\n";
  os << "# TYPE pmp2_live_seq counter\n";
  os << "pmp2_live_seq " << snapshot.seq << "\n";
  os << "pmp2_live_t_seconds " << json_double(
            static_cast<double>(snapshot.t_ns) / 1e9) << "\n";
  os << "# TYPE pmp2_pictures_total counter\n";
  os << "pmp2_pictures_total " << snapshot.pictures << "\n";
  os << "pmp2_pictures_displayed " << snapshot.displayed << "\n";
  os << "# TYPE pmp2_queue_depth gauge\n";
  os << "pmp2_queue_depth " << snapshot.queue_depth << "\n";
  os << "pmp2_scan_bytes " << snapshot.scan_bytes << "\n";
  os << "# TYPE pmp2_pics_per_second gauge\n";
  os << "pmp2_pics_per_second{window=\"total\"} "
     << json_double(snapshot.pics_per_s_total) << "\n";
  os << "pmp2_pics_per_second{window=\"1s\"} "
     << json_double(snapshot.pics_per_s_1s) << "\n";
  os << "pmp2_pics_per_second{window=\"10s\"} "
     << json_double(snapshot.pics_per_s_10s) << "\n";
  os << "# TYPE pmp2_frame_latency_ms gauge\n";
  const struct {
    const char* window;
    double p50, p95, p99;
  } rows[] = {
      {"1s", snapshot.p50_1s_ms, snapshot.p95_1s_ms, snapshot.p99_1s_ms},
      {"10s", snapshot.p50_10s_ms, snapshot.p95_10s_ms, snapshot.p99_10s_ms},
      {"total", snapshot.p50_total_ms, snapshot.p95_total_ms,
       snapshot.p99_total_ms},
  };
  for (const auto& row : rows) {
    os << "pmp2_frame_latency_ms{window=\"" << row.window
       << "\",quantile=\"0.5\"} " << json_double(row.p50) << "\n";
    os << "pmp2_frame_latency_ms{window=\"" << row.window
       << "\",quantile=\"0.95\"} " << json_double(row.p95) << "\n";
    os << "pmp2_frame_latency_ms{window=\"" << row.window
       << "\",quantile=\"0.99\"} " << json_double(row.p99) << "\n";
  }
  os << "# TYPE pmp2_stall_ms gauge\n";
  os << "pmp2_stall_ms " << json_double(snapshot.stall_ms) << "\n";
  if (!snapshot.counter_source.empty()) {
    os << "# TYPE pmp2_hw_cycles_total counter\n";
    os << "pmp2_hw_cycles_total{source=\"" << snapshot.counter_source
       << "\"} " << snapshot.cycles << "\n";
    os << "pmp2_hw_instructions_total{source=\"" << snapshot.counter_source
       << "\"} " << snapshot.instructions << "\n";
    os << "pmp2_hw_cache_misses_total{source=\"" << snapshot.counter_source
       << "\"} " << snapshot.cache_misses << "\n";
    os << "# TYPE pmp2_ipc gauge\n";
    os << "pmp2_ipc{window=\"1s\"} " << json_double(snapshot.ipc_1s) << "\n";
    os << "pmp2_cache_miss_rate{window=\"1s\"} "
       << json_double(snapshot.miss_rate_1s) << "\n";
    os << "pmp2_stall_frac{window=\"1s\"} "
       << json_double(snapshot.stall_frac_1s) << "\n";
  }
  os << "# TYPE pmp2_worker_utilization gauge\n";
  for (const auto& ws : snapshot.workers) {
    os << "pmp2_worker_utilization{worker=\"" << ws.id << "\"} "
       << json_double(ws.utilization) << "\n";
    os << "pmp2_worker_pictures{worker=\"" << ws.id << "\"} "
       << ws.cell.pictures << "\n";
    os << "pmp2_worker_queue_wait_ns{worker=\"" << ws.id << "\"} "
       << ws.cell.sync_ns << "\n";
  }
  os << "# TYPE pmp2_alert_active gauge\n";
  for (const auto& alert : snapshot.alerts) {
    os << "pmp2_alert_active{rule=\"" << alert.rule << "\"} "
       << (alert.active() ? 1 : 0) << "\n";
  }
  return os.str();
}

bool write_file_atomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::out | std::ios::trunc);
    if (!os) return false;
    os.write(content.data(),
             static_cast<std::streamsize>(content.size()));
    if (!os) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

// ---------------------------------------------------------------------------
// NDJSON read side

namespace {

void parse_percentiles(const JsonValue* obj, double& p50, double& p95,
                       double& p99) {
  if (!obj) return;
  p50 = obj->get_double("p50");
  p95 = obj->get_double("p95");
  p99 = obj->get_double("p99");
}

}  // namespace

bool parse_snapshot(std::string_view line, LiveSnapshot& out,
                    std::string* error) {
  JsonValue doc;
  if (!json_parse(line, doc, error)) return false;
  if (!doc.is_object()) {
    if (error) *error = "snapshot line is not a JSON object";
    return false;
  }
  const std::string schema = doc.get_string("schema");
  if (schema != LiveSnapshot::kSchema) {
    if (error) *error = "schema mismatch: '" + schema + "'";
    return false;
  }
  LiveSnapshot snapshot;
  snapshot.seq = static_cast<std::uint64_t>(doc.get_int("seq"));
  snapshot.t_ns = doc.get_int("t_ns");
  snapshot.pictures = doc.get_int("pictures");
  snapshot.displayed = doc.get_int("displayed");
  snapshot.queue_depth = doc.get_int("queue_depth");
  snapshot.scan_bytes = doc.get_int("scan_bytes");
  if (const JsonValue* pps = doc.find("pics_per_s")) {
    snapshot.pics_per_s_total = pps->get_double("total");
    snapshot.pics_per_s_1s = pps->get_double("w1s");
    snapshot.pics_per_s_10s = pps->get_double("w10s");
  }
  if (const JsonValue* lat = doc.find("latency_ms")) {
    parse_percentiles(lat->find("w1s"), snapshot.p50_1s_ms,
                      snapshot.p95_1s_ms, snapshot.p99_1s_ms);
    parse_percentiles(lat->find("w10s"), snapshot.p50_10s_ms,
                      snapshot.p95_10s_ms, snapshot.p99_10s_ms);
    parse_percentiles(lat->find("total"), snapshot.p50_total_ms,
                      snapshot.p95_total_ms, snapshot.p99_total_ms);
  }
  snapshot.stall_ms = doc.get_double("stall_ms", -1.0);
  if (const JsonValue* counters = doc.find("counters")) {
    snapshot.counter_source = counters->get_string("source");
    snapshot.cycles = counters->get_int("cycles");
    snapshot.instructions = counters->get_int("instructions");
    snapshot.cache_refs = counters->get_int("cache_refs");
    snapshot.cache_misses = counters->get_int("cache_misses");
    snapshot.stalled_backend = counters->get_int("stalled_backend");
    snapshot.ipc_1s = counters->get_double("ipc_w1s");
    snapshot.miss_rate_1s = counters->get_double("miss_rate_w1s");
    snapshot.stall_frac_1s = counters->get_double("stall_frac_w1s");
  }
  if (const JsonValue* workers = doc.find("workers");
      workers && workers->is_array()) {
    for (const JsonValue& item : workers->items) {
      WorkerSample ws;
      ws.id = static_cast<int>(item.get_int("id"));
      ws.cell.pictures = item.get_int("pictures");
      ws.cell.tasks = item.get_int("tasks");
      ws.cell.busy_ns = item.get_int("busy_ns");
      ws.cell.sync_ns = item.get_int("sync_ns");
      ws.cell.bytes = item.get_int("bytes");
      ws.cell.concealed = item.get_int("concealed");
      ws.cell.quarantined = item.get_int("quarantined");
      ws.cell.last_latency_ns = item.get_int("last_latency_ns");
      ws.cell.last_progress_ns = item.get_int("last_progress_ns", -1);
      ws.cell.cycles = item.get_int("cycles");
      ws.cell.instructions = item.get_int("instructions");
      ws.cell.cache_misses = item.get_int("cache_misses");
      ws.utilization = item.get_double("utilization");
      snapshot.workers.push_back(std::move(ws));
    }
  }
  if (const JsonValue* alerts = doc.find("alerts");
      alerts && alerts->is_array()) {
    for (const JsonValue& item : alerts->items) {
      Alert alert;
      alert.rule = item.get_string("rule");
      alert.value = item.get_double("value");
      alert.threshold = item.get_double("threshold");
      alert.fired_at_ns = item.get_int("fired_at_ns");
      alert.cleared_at_ns = item.get_int("cleared_at_ns", -1);
      snapshot.alerts.push_back(std::move(alert));
    }
  }
  out = std::move(snapshot);
  return true;
}

}  // namespace pmp2::obs::live
