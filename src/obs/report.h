// Structured JSON run reports: the machine-readable output of the bench
// harnesses and examples (--report-out=...), replacing ad-hoc printf tables
// as the source of record for the EXPERIMENTS.md figures.
//
// Shape:
//   {
//     "tool": "bench_fig6_gop_load_balance",
//     "description": "...",
//     "meta": { ... run-wide configuration ... },
//     "rows": [ { ... one data point ... }, ... ],
//     "<name>": { ... run-wide results, one per add_object() ... },
//     "metrics": { counters/histograms, when a Registry is attached }
//   }
//
// Field order is insertion order and numbers are formatted
// deterministically, so identical runs serialize byte-identically (no
// timestamps by design — stamp files externally if needed).
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace pmp2::obs {

class JsonWriter;
class Registry;

/// Small tagged value for report fields.
class ReportValue {
 public:
  ReportValue(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  ReportValue(int v) : ReportValue(static_cast<std::int64_t>(v)) {}
  ReportValue(std::uint64_t v)
      : ReportValue(static_cast<std::int64_t>(v)) {}
  ReportValue(double v) : kind_(Kind::kDouble), double_(v) {}
  ReportValue(bool v) : kind_(Kind::kBool), bool_(v) {}
  ReportValue(std::string v) : kind_(Kind::kString), string_(std::move(v)) {}
  ReportValue(const char* v) : ReportValue(std::string(v)) {}

  void write(JsonWriter& w) const;

 private:
  enum class Kind { kInt, kDouble, kBool, kString };
  Kind kind_;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  bool bool_ = false;
  std::string string_;
};

/// One SLO alert surfaced into a run report (the post-mortem record of an
/// in-flight live-telemetry alert; see docs/OBSERVABILITY.md).
struct ReportAlert {
  std::string rule;
  double value = 0;
  double threshold = 0;
  std::int64_t fired_at_ns = 0;
  std::int64_t cleared_at_ns = -1;  // -1 = still active at run end
};

class RunReport {
 public:
  /// Versioned schema tag written as the "schema" field of every report.
  /// Bump the trailing number whenever field meaning changes incompatibly;
  /// tools/bench_check refuses to compare documents with mismatched tags.
  static constexpr const char* kSchema = "pmp2-bench-report/1";
  /// One data point: an ordered list of named fields.
  class Row {
   public:
    Row& set(std::string key, ReportValue value) {
      fields_.emplace_back(std::move(key), std::move(value));
      return *this;
    }

   private:
    friend class RunReport;
    std::vector<std::pair<std::string, ReportValue>> fields_;
  };

  RunReport(std::string tool, std::string description)
      : tool_(std::move(tool)), description_(std::move(description)) {}

  /// Run-wide configuration (workers, resolution, flags...).
  RunReport& set_meta(std::string key, ReportValue value) {
    meta_.emplace_back(std::move(key), std::move(value));
    return *this;
  }

  /// Appends a data point; the reference stays valid (deque storage).
  Row& add_row() { return rows_.emplace_back(); }

  /// Adds a named top-level object of run-wide results (a server's final
  /// admission state, say), written after "rows". Reports that add none
  /// serialize exactly as before.
  Row& add_object(std::string key) {
    return objects_.emplace_back(std::move(key), Row{}).second;
  }

  /// Records one SLO alert; serialized as a top-level "alerts" array. The
  /// array is omitted entirely when no alert was recorded, so reports from
  /// runs without live SLOs stay byte-identical to earlier versions.
  RunReport& add_alert(ReportAlert alert) {
    alerts_.push_back(std::move(alert));
    return *this;
  }

  [[nodiscard]] std::size_t alerts() const { return alerts_.size(); }

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  /// Serializes the registry under "metrics"; the registry must outlive
  /// the report's write calls.
  void attach_metrics(const Registry* registry) { metrics_ = registry; }

  void write_json(std::ostream& os) const;

  /// Writes the JSON document to `path`; false on I/O error.
  [[nodiscard]] bool write_file(const std::string& path) const;

 private:
  std::string tool_;
  std::string description_;
  std::vector<std::pair<std::string, ReportValue>> meta_;
  std::deque<Row> rows_;
  std::deque<std::pair<std::string, Row>> objects_;
  std::vector<ReportAlert> alerts_;
  const Registry* metrics_ = nullptr;
};

}  // namespace pmp2::obs
