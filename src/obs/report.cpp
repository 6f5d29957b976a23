#include "obs/report.h"

#include <fstream>
#include <ostream>

#include "obs/json.h"
#include "obs/metrics.h"

namespace pmp2::obs {

void ReportValue::write(JsonWriter& w) const {
  switch (kind_) {
    case Kind::kInt:
      w.value(int_);
      break;
    case Kind::kDouble:
      w.value(double_);
      break;
    case Kind::kBool:
      w.value(bool_);
      break;
    case Kind::kString:
      w.value(string_);
      break;
  }
}

namespace {

void write_fields(
    JsonWriter& w,
    const std::vector<std::pair<std::string, ReportValue>>& fields) {
  w.begin_object();
  for (const auto& [key, value] : fields) {
    w.key(key);
    value.write(w);
  }
  w.end_object();
}

}  // namespace

void RunReport::write_json(std::ostream& os) const {
  JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(kSchema);
  w.key("tool").value(tool_);
  w.key("description").value(description_);
  w.key("meta");
  write_fields(w, meta_);
  w.key("rows").begin_array();
  for (const auto& row : rows_) write_fields(w, row.fields_);
  w.end_array();
  for (const auto& [key, object] : objects_) {
    w.key(key);
    write_fields(w, object.fields_);
  }
  if (!alerts_.empty()) {
    w.key("alerts").begin_array();
    for (const auto& alert : alerts_) {
      w.begin_object();
      w.key("rule").value(alert.rule);
      w.key("value").value(alert.value);
      w.key("threshold").value(alert.threshold);
      w.key("fired_at_ns").value(alert.fired_at_ns);
      w.key("cleared_at_ns").value(alert.cleared_at_ns);
      w.end_object();
    }
    w.end_array();
  }
  if (metrics_) {
    w.key("metrics");
    metrics_->append_json(w);
  }
  w.end_object();
  os << "\n";
}

bool RunReport::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  write_json(out);
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace pmp2::obs
