#include "obs/prof/stage_prof.h"

#include <cassert>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/json.h"
#include "obs/json_parse.h"

namespace pmp2::obs::prof {

thread_local WorkerProf* tls_worker_prof = nullptr;

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kScan:    return "scan";
    case Stage::kVlc:     return "vlc";
    case Stage::kIdct:    return "idct";
    case Stage::kMc:      return "mc";
    case Stage::kConceal: return "conceal";
    case Stage::kOther:   return "other";
    case Stage::kCount:   break;
  }
  return "?";
}

namespace {

/// stage_name inverse; Stage::kCount on unknown names.
Stage stage_from_name(const std::string& name) {
  for (int i = 0; i < kStageCount; ++i) {
    if (name == stage_name(static_cast<Stage>(i))) {
      return static_cast<Stage>(i);
    }
  }
  return Stage::kCount;
}

}  // namespace

Stage WorkerProf::switch_stage(Stage next) {
  const Stage prev = cur_;
  if (tc_) {
    CounterSample now;
    if (tc_->read(&now)) {
      const CounterSample d = now.delta_since(last_);
      stages_[static_cast<int>(cur_)].counters.accumulate(d);
      task_accum_.accumulate(d);
      last_ = now;
    }
  }
  if (next != cur_) {
    ++stages_[static_cast<int>(next)].enters;
    cur_ = next;
  }
  return prev;
}

CounterSample WorkerProf::take_task_delta() {
  switch_stage(cur_);  // flush the tail into the current stage
  CounterSample d = task_accum_;
  task_accum_ = CounterSample{};
  return d;
}

StageProfiler::StageProfiler(std::unique_ptr<CounterSource> source, int slots)
    : source_(std::move(source)), slots_(slots > 0 ? slots : 1) {
  assert(source_ != nullptr);
}

StageProfiler::~StageProfiler() = default;

WorkerProf* StageProfiler::bind(int slot) {
  if (slot < 0 || slot >= static_cast<int>(slots_.size())) return nullptr;
  WorkerProf& w = slots_[static_cast<std::size_t>(slot)];
  w.tc_ = source_->open_thread();
  w.last_ = CounterSample{};
  w.cur_ = Stage::kOther;
  if (w.tc_) w.tc_->read(&w.last_);
  tls_worker_prof = w.tc_ ? &w : nullptr;
  return &w;
}

void StageProfiler::unbind() { tls_worker_prof = nullptr; }

ProfSummary StageProfiler::aggregate() const {
  ProfSummary s;
  s.source = source_->name();
  s.mask = source_->mask();
  for (const WorkerProf& w : slots_) {
    if (w.counting()) ++s.workers;
    for (int i = 0; i < kStageCount; ++i) {
      s.stages[i].counters.accumulate(w.stages_[i].counters);
      s.stages[i].enters += w.stages_[i].enters;
    }
  }
  for (int i = 0; i < kStageCount; ++i) {
    s.total.accumulate(s.stages[i].counters);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Derived ratios

namespace {

double ratio(const CounterSample& s, Counter num, Counter den) {
  if (!s.has(num) || !s.has(den) || s.get(den) == 0) return 0.0;
  return static_cast<double>(s.get(num)) / static_cast<double>(s.get(den));
}

}  // namespace

double ProfSummary::ipc(const CounterSample& s) {
  return ratio(s, Counter::kInstructions, Counter::kCycles);
}

double ProfSummary::miss_rate(const CounterSample& s) {
  return ratio(s, Counter::kCacheMisses, Counter::kCacheRefs);
}

double ProfSummary::stall_frac(const CounterSample& s) {
  return ratio(s, Counter::kStalledBackend, Counter::kCycles);
}

// ---------------------------------------------------------------------------
// Serialization

namespace {

void write_sample_fields(JsonWriter& w, const CounterSample& s) {
  for (int i = 0; i < kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    if (s.has(c)) w.key(counter_name(c)).value(s.get(c));
  }
}

void parse_sample_fields(const JsonValue& obj, CounterSample* out) {
  *out = CounterSample{};
  for (int i = 0; i < kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    const JsonValue* v = obj.find(counter_name(c));
    if (v && v->is_number()) {
      out->v[i] = static_cast<std::uint64_t>(v->as_double());
      out->mask |= counter_bit(c);
    }
  }
}

}  // namespace

void write_prof_json(std::ostream& os, const ProfSummary& summary) {
  JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(ProfSummary::kSchema);
  w.key("source").value(summary.source);
  w.key("mask").value(static_cast<std::uint64_t>(summary.mask));
  w.key("workers").value(summary.workers);
  if (!summary.kernels_backend.empty()) {
    w.key("kernels_backend").value(summary.kernels_backend);
  }
  w.key("stages").begin_array();
  for (int i = 0; i < kStageCount; ++i) {
    const StageTotals& st = summary.stages[i];
    w.begin_object();
    w.key("stage").value(stage_name(static_cast<Stage>(i)));
    w.key("enters").value(st.enters);
    write_sample_fields(w, st.counters);
    w.end_object();
  }
  w.end_array();
  w.key("total").begin_object();
  write_sample_fields(w, summary.total);
  w.end_object();
  w.end_object();
  os << "\n";
}

bool parse_prof_json(const JsonValue& doc, ProfSummary* out,
                     std::string* error) {
  *out = ProfSummary{};
  if (doc.get_string("schema") != ProfSummary::kSchema) {
    if (error) {
      *error = "schema is '" + doc.get_string("schema") + "', expected '" +
               ProfSummary::kSchema + "'";
    }
    return false;
  }
  out->source = doc.get_string("source", "?");
  out->mask = static_cast<unsigned>(doc.get_int("mask", 0));
  out->workers = static_cast<int>(doc.get_int("workers", 0));
  out->kernels_backend = doc.get_string("kernels_backend", "");
  const JsonValue* stages = doc.find("stages");
  if (!stages || !stages->is_array()) {
    if (error) *error = "missing stages array";
    return false;
  }
  for (const JsonValue& row : stages->items) {
    if (!row.is_object()) continue;
    const Stage s = stage_from_name(row.get_string("stage"));
    if (s == Stage::kCount) continue;  // future stages parse forward
    StageTotals& st = out->stages[static_cast<int>(s)];
    st.enters = static_cast<std::uint64_t>(row.get_int("enters", 0));
    parse_sample_fields(row, &st.counters);
  }
  if (const JsonValue* total = doc.find("total"); total && total->is_object()) {
    parse_sample_fields(*total, &out->total);
  } else {
    for (int i = 0; i < kStageCount; ++i) {
      out->total.accumulate(out->stages[i].counters);
    }
  }
  return true;
}

bool load_prof_json(const std::string& path, ProfSummary* out,
                    std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  JsonValue doc;
  std::string parse_error;
  if (!json_parse(buf.str(), doc, &parse_error)) {
    if (error) *error = path + ": " + parse_error;
    return false;
  }
  return parse_prof_json(doc, out, error);
}

void write_prof_text(std::ostream& os, const ProfSummary& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "counter profile: source=%s workers=%d%s%s\n",
                s.source.c_str(), s.workers,
                s.kernels_backend.empty() ? "" : " backend=",
                s.kernels_backend.c_str());
  os << buf;
  const std::uint64_t total_clock = s.total.get(Counter::kTaskClockNs);
  const std::uint64_t total_cycles = s.total.get(Counter::kCycles);
  // Share of a stage: by cycles on PMU hosts, by task clock otherwise.
  const bool by_cycles = s.has_hw() && total_cycles > 0;
  os << "stage     enters        clock_ms";
  if (s.has_hw()) os << "      mcycles     ipc   miss%  stall%";
  os << "   share%\n";
  for (int i = 0; i < kStageCount; ++i) {
    const StageTotals& st = s.stages[i];
    const CounterSample& c = st.counters;
    std::snprintf(buf, sizeof buf, "%-8s %7llu %15.3f",
                  stage_name(static_cast<Stage>(i)),
                  static_cast<unsigned long long>(st.enters),
                  static_cast<double>(c.get(Counter::kTaskClockNs)) / 1e6);
    os << buf;
    if (s.has_hw()) {
      std::snprintf(buf, sizeof buf, " %12.3f %7.3f %7.2f %7.2f",
                    static_cast<double>(c.get(Counter::kCycles)) / 1e6,
                    ProfSummary::ipc(c), 100.0 * ProfSummary::miss_rate(c),
                    100.0 * ProfSummary::stall_frac(c));
      os << buf;
    }
    const double share =
        by_cycles
            ? (total_cycles
                   ? 100.0 * static_cast<double>(c.get(Counter::kCycles)) /
                         static_cast<double>(total_cycles)
                   : 0.0)
            : (total_clock
                   ? 100.0 *
                         static_cast<double>(c.get(Counter::kTaskClockNs)) /
                         static_cast<double>(total_clock)
                   : 0.0);
    std::snprintf(buf, sizeof buf, " %8.2f\n", share);
    os << buf;
  }
  if (s.has_hw()) {
    // The paper's §7 headline: how much of the actual time is ideal
    // compute vs memory-system stalls. stalled-cycles-backend is the
    // live-PMU analogue of its TangoLite memory-stall attribution.
    const double stall = ProfSummary::stall_frac(s.total);
    std::snprintf(buf, sizeof buf,
                  "ideal-vs-stall split (paper Sec. 7): ideal %.1f%% of cycles, "
                  "backend stalls %.1f%% (ipc %.3f, miss rate %.2f%%)\n",
                  100.0 * (1.0 - stall), 100.0 * stall,
                  ProfSummary::ipc(s.total),
                  100.0 * ProfSummary::miss_rate(s.total));
    os << buf;
  } else {
    os << "hardware counters unavailable (source=" << s.source
       << "): per-stage CPU-clock shares only; the Sec. 7 ideal-vs-stall "
          "split needs a PMU-capable host\n";
  }
}

}  // namespace pmp2::obs::prof
