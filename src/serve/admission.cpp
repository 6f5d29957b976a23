#include "serve/admission.h"

#include <algorithm>
#include <cmath>

#include "mpeg2/structure_scan.h"

namespace pmp2::serve {

StreamLoadProfile characterize_stream(std::span<const std::uint8_t> stream) {
  StreamLoadProfile p;
  mpeg2::StructureScanner scanner(stream);
  if (!scanner.scan_preamble()) return p;
  const mpeg2::SequenceHeader& seq = scanner.seq();
  p.valid = true;
  p.width = seq.horizontal_size;
  p.height = seq.vertical_size;
  p.mb_width = scanner.mb_width();
  p.mb_height = scanner.mb_height();
  p.frame_rate = seq.frame_rate();
  p.bit_rate = seq.bit_rate;
  // vbv_buffer_size is coded in 16-kbit units (ISO 13818-2 §6.3.3).
  p.vbv_bits = static_cast<std::int64_t>(seq.vbv_buffer_size_value) * 16'384;
  p.burst_bits_per_s =
      static_cast<double>(p.bit_rate) +
      static_cast<double>(p.vbv_bits) * p.frame_rate / kVbvAmortPictures;
  p.mb_per_s = static_cast<double>(p.mb_width) *
               static_cast<double>(p.mb_height) * p.frame_rate;
  p.bits_per_mb = p.mb_per_s > 0 ? p.burst_bits_per_s / p.mb_per_s : 0.0;
  p.predicted_load =
      p.mb_per_s *
      (kPelCostShare + kBitCostShare * p.bits_per_mb / kRefBitsPerMb);
  return p;
}

std::string_view admission_decision_name(AdmissionDecision d) {
  switch (d) {
    case AdmissionDecision::kAdmit:
      return "admit";
    case AdmissionDecision::kQueue:
      return "queue";
    case AdmissionDecision::kReject:
      return "reject";
  }
  return "?";
}

AdmissionDecision AdmissionController::decide(
    const StreamLoadProfile& p) const {
  if (!p.valid) return AdmissionDecision::kReject;
  // Work-conserving: an idle server always admits, even a stream whose
  // predicted load alone exceeds capacity — otherwise such a stream could
  // wait forever on a capacity that will never be free enough.
  if (fits(p) || running_ == 0) return AdmissionDecision::kAdmit;
  if (config_.max_queued > 0 && queued_ < config_.max_queued) {
    return AdmissionDecision::kQueue;
  }
  return AdmissionDecision::kReject;
}

void AdmissionController::observe(AdmissionCharge& charge,
                                  const StreamLoadProfile& p,
                                  double measured_share) {
  if (config_.capacity > 0) return;
  // Rejects zero, negative, NaN and infinite shares (an unmeasured task,
  // an empty GOP, a zero frame rate).
  if (!(measured_share > 0) || !std::isfinite(measured_share)) return;
  if (charge.measured_share == 0) {
    const double ratio =
        measured_share / (p.predicted_load / kDefaultWorkerCapacity);
    if (ratio > 0 && std::isfinite(ratio)) record_ratio(p, ratio);
  }
  charge.measured_share =
      charge.measured_share == 0
          ? measured_share
          : (1.0 - kMeasuredShareAlpha) * charge.measured_share +
                kMeasuredShareAlpha * measured_share;
  const double load =
      charge.measured_share * kDefaultWorkerCapacity / kTargetOccupancy;
  admitted_load_ += load - charge.load;
  charge.load = load;
  ++calibrated_gops_;
}

AdmissionCharge AdmissionController::charge_for(
    const StreamLoadProfile& p) const {
  AdmissionCharge c = p;
  const auto k = std::find_if(classes_.begin(), classes_.end(),
                              [&](const StreamClass& e) { return e.holds(p); });
  if (k != classes_.end()) {
    const double ratio = *std::max_element(k->ratios.begin(), k->ratios.end());
    c.load *= std::min(1.0, ratio / kTargetOccupancy);
  }
  return c;
}

void AdmissionController::record_ratio(const StreamLoadProfile& p,
                                       double ratio) {
  auto k = std::find_if(classes_.begin(), classes_.end(),
                        [&](const StreamClass& e) { return e.holds(p); });
  if (k == classes_.end()) {
    const StreamClass fresh{p.width, p.height, p.frame_rate, p.bit_rate,
                            p.vbv_bits};
    if (classes_.size() < kMaxStreamClasses) {
      k = classes_.insert(classes_.end(), fresh);
    } else {
      k = classes_.begin() + static_cast<std::ptrdiff_t>(next_class_);
      *k = fresh;
      next_class_ = (next_class_ + 1) % kMaxStreamClasses;
    }
  }
  k->ratios[k->next] = ratio;
  k->next = (k->next + 1) % kClassWindow;
}

}  // namespace pmp2::serve
