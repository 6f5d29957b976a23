#include "parallel/gop_work.h"

#include <utility>
#include <vector>

#include "obs/live/telemetry.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace pmp2::parallel {

mpeg2::FramePtr conceal_whole_picture(const mpeg2::StreamStructure& structure,
                                      const mpeg2::PictureInfo& info,
                                      int display_index,
                                      const mpeg2::FramePtr& ref,
                                      mpeg2::FramePool& pool) {
  mpeg2::FramePtr dst = pool.acquire();
  dst->type = info.type;
  dst->temporal_reference = info.temporal_reference;
  dst->display_index = display_index;
  mpeg2::PictureContext pc;
  pc.seq = &structure.seq;
  pc.mb_width = structure.mb_width();
  pc.mb_height = structure.mb_height();
  pc.dst = dst.get();
  pc.fwd_ref = ref ? ref.get() : nullptr;
  for (int row = 0; row < pc.mb_height; ++row) mpeg2::conceal_slice(pc, row);
  return dst;
}

PictureOutcome decode_one_picture(std::span<const std::uint8_t> stream,
                                  const mpeg2::StreamStructure& structure,
                                  const mpeg2::PictureInfo& info,
                                  int gop_index, int pic_index,
                                  int display_base, int ranked_display_index,
                                  const mpeg2::FramePtr& fwd_ref,
                                  const mpeg2::FramePtr& bwd_ref,
                                  mpeg2::FramePool& pool, DisplaySink& display,
                                  WorkerStats& stats, const GopObs& gobs,
                                  int worker) {
  PictureOutcome out;
  const std::int64_t live_begin_ns = gobs.live ? gobs.live->now_ns() : 0;
  auto quarantine_picture = [&](RecoveryCause cause) {
    mpeg2::FramePtr dst = conceal_whole_picture(
        structure, info, ranked_display_index, bwd_ref ? bwd_ref : fwd_ref,
        pool);
    if (gobs.errors) {
      gobs.errors->add({cause, gop_index, pic_index, info.offset});
    }
    if (gobs.concealed_pics) {
      gobs.concealed_pics->fetch_add(1, std::memory_order_relaxed);
    }
    out.quarantined = true;
    out.frame = dst;
    display.push(std::move(dst));
    if (gobs.live) {
      // The synthesized frame still counts as a delivered picture; this
      // runs on the owning worker thread, so the cell write is safe.
      obs::live::TelemetryCell::Write lw(gobs.live->worker(worker));
      lw.add_pictures().add_quarantined().set_last_progress_ns(
          gobs.live->now_ns());
    }
  };

  pmp2::BitReader br(stream);
  br.seek_bytes(info.offset);
  mpeg2::PictureContext pic;
  pic.seq = &structure.seq;
  pic.mpeg1 = structure.mpeg1;
  if (info.slices.empty()) {
    // A picture whose every slice startcode was destroyed: nothing to
    // decode, so the whole frame must be synthesized.
    if (!gobs.quarantine) return out;
    quarantine_picture(RecoveryCause::kPictureHeader);
    return out;
  }
  if (!mpeg2::parse_picture_headers(br, pic.header, pic.ext)) {
    if (!gobs.quarantine) return out;
    quarantine_picture(RecoveryCause::kPictureHeader);
    return out;
  }
  pic.mb_width = structure.mb_width();
  pic.mb_height = structure.mb_height();

  if (pic.header.type != mpeg2::PictureType::kI) {
    const mpeg2::FramePtr& past =
        pic.header.type == mpeg2::PictureType::kP ? bwd_ref : fwd_ref;
    if (!past || (pic.header.type == mpeg2::PictureType::kB && !bwd_ref)) {
      if (!gobs.quarantine) return out;  // GOP not closed/self-contained
      quarantine_picture(RecoveryCause::kMissingReference);
      return out;
    }
  }

  mpeg2::FramePtr dst = pool.acquire();
  dst->type = pic.header.type;
  dst->temporal_reference = pic.header.temporal_reference;
  dst->display_index = gobs.quarantine
                           ? ranked_display_index
                           : display_base + pic.header.temporal_reference;
  pic.dst = dst.get();
  pic.dst_id = dst->trace_id();
  if (pic.header.type != mpeg2::PictureType::kI) {
    const mpeg2::FramePtr& past =
        pic.header.type == mpeg2::PictureType::kP ? bwd_ref : fwd_ref;
    pic.fwd_ref = past.get();
    pic.fwd_id = past->trace_id();
    if (pic.header.type == mpeg2::PictureType::kB) {
      pic.bwd_ref = bwd_ref.get();
      pic.bwd_id = bwd_ref->trace_id();
    }
  }
  int concealed_here = 0;
  mpeg2::PictureDecodeOptions opts;
  opts.tracer = gobs.tracer;
  opts.track = worker;
  opts.picture_id = pic_index;
  opts.conceal_errors = gobs.conceal_errors || gobs.quarantine;
  opts.concealed = &concealed_here;
  opts.resync = gobs.h_resync;
  {
    const std::int64_t pic_begin = gobs.tracer ? gobs.tracer->now_ns() : 0;
    const bool ok =
        mpeg2::decode_picture_slices(stream, info, pic, stats.work, opts);
    if (gobs.tracer) {
      gobs.tracer->emit(worker, obs::SpanKind::kPicture, pic_begin,
                        gobs.tracer->now_ns(), pic_index, -1, gop_index);
    }
    if (!ok) return out;  // unreachable when concealing
  }
  out.concealed_slices = concealed_here;
  if (concealed_here > 0) {
    if (gobs.concealed) {
      gobs.concealed->fetch_add(concealed_here, std::memory_order_relaxed);
    }
    if (gobs.quarantine && gobs.errors) {
      gobs.errors->add(
          {RecoveryCause::kSliceError, gop_index, pic_index, info.offset});
    }
  }
  out.frame = dst;
  display.push(std::move(dst));
  if (gobs.live) {
    const std::int64_t now = gobs.live->now_ns();
    const std::int64_t latency = now - live_begin_ns;
    gobs.live->frame_latency().record(latency);
    obs::live::TelemetryCell::Write lw(gobs.live->worker(worker));
    lw.add_pictures().set_last_latency_ns(latency).set_last_progress_ns(now);
    if (concealed_here > 0) lw.add_concealed(concealed_here);
  }
  return out;
}

GopOutcome decode_gop(std::span<const std::uint8_t> stream,
                      const mpeg2::StreamStructure& structure,
                      const GopTask& task, mpeg2::FramePool& pool,
                      DisplaySink& display, WorkerStats& stats,
                      const GopObs& gobs, int worker) {
  mpeg2::FramePtr fwd_ref, bwd_ref;
  int pic_index = task.decode_base;
  GopOutcome outcome;
  std::vector<int> ranks;
  if (gobs.quarantine) ranks = mpeg2::display_ranks(*task.info);
  for (int i = 0; i < static_cast<int>(task.info->pictures.size());
       ++i, ++pic_index) {
    const auto& info = task.info->pictures[static_cast<std::size_t>(i)];
    const int ranked =
        gobs.quarantine
            ? task.display_base + ranks[static_cast<std::size_t>(i)]
            : -1;
    PictureOutcome out = decode_one_picture(
        stream, structure, info, task.index, pic_index, task.display_base,
        ranked, fwd_ref, bwd_ref, pool, display, stats, gobs, worker);
    if (!out.frame) return outcome;
    if (out.quarantined || (out.concealed_slices > 0 && gobs.quarantine)) {
      outcome.damaged = true;
    }
    // References advance on every non-B picture — a quarantined picture's
    // synthesized frame serves as the reference, which is what bounds the
    // blast radius of a fault to its own GOP.
    const mpeg2::PictureType type = out.frame->type;
    if (type != mpeg2::PictureType::kB) {
      fwd_ref = bwd_ref;
      bwd_ref = std::move(out.frame);
    }
  }
  if (outcome.damaged && gobs.quarantined) {
    gobs.quarantined->fetch_add(1, std::memory_order_relaxed);
  }
  outcome.ok = true;
  return outcome;
}

}  // namespace pmp2::parallel
