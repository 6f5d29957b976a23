#include "parallel/gop_work.h"

#include <utility>

#include "obs/live/telemetry.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace pmp2::parallel {

bool open_picture(std::span<const std::uint8_t> stream,
                  const mpeg2::StreamStructure& structure,
                  const mpeg2::PictureInfo& info, int gop_index,
                  int pic_index, int display_base, int ranked_display_index,
                  const mpeg2::FramePtr& fwd_ref,
                  const mpeg2::FramePtr& bwd_ref, mpeg2::FramePool& pool,
                  DisplaySink& display, const GopObs& gobs, int worker,
                  OpenPicture& pic, PictureOutcome& out) {
  pic.live_begin_ns = gobs.live ? gobs.live->now_ns() : 0;
  mpeg2::PictureContext& ctx = pic.ctx;
  ctx.seq = &structure.seq;
  ctx.mpeg1 = structure.mpeg1;
  ctx.mb_width = structure.mb_width();
  ctx.mb_height = structure.mb_height();
  auto quarantine_picture = [&](RecoveryCause cause) {
    if (!gobs.quarantine) return false;
    mpeg2::FramePtr dst = pool.acquire();
    dst->type = info.type;
    dst->temporal_reference = info.temporal_reference;
    dst->display_index = ranked_display_index;
    ctx.dst = dst.get();
    ctx.fwd_ref = bwd_ref ? bwd_ref.get() : fwd_ref.get();
    for (int row = 0; row < ctx.mb_height; ++row) {
      mpeg2::conceal_slice(ctx, row);
    }
    if (gobs.errors) {
      gobs.errors->add({cause, gop_index, pic_index, info.offset});
    }
    if (gobs.concealed_pics) {
      gobs.concealed_pics->fetch_add(1, std::memory_order_relaxed);
    }
    out.damaged = true;
    out.frame = dst;
    display.push(std::move(dst));
    if (gobs.live) {
      // The synthesized frame still counts as a delivered picture; this
      // runs on the owning worker thread, so the cell write is safe.
      obs::live::TelemetryCell::Write lw(gobs.live->worker(worker));
      lw.add_pictures().add_quarantined().set_last_progress_ns(
          gobs.live->now_ns());
    }
    return false;
  };

  pmp2::BitReader br(stream);
  br.seek_bytes(info.offset);
  // A picture whose every slice startcode was destroyed has nothing to
  // decode, so the whole frame must be synthesized.
  if (info.slices.empty() ||
      !mpeg2::parse_picture_headers(br, ctx.header, ctx.ext)) {
    return quarantine_picture(RecoveryCause::kPictureHeader);
  }

  const mpeg2::PictureType type = ctx.header.type;
  const mpeg2::FramePtr& past =
      type == mpeg2::PictureType::kP ? bwd_ref : fwd_ref;
  if (type != mpeg2::PictureType::kI &&
      (!past || (type == mpeg2::PictureType::kB && !bwd_ref))) {
    // GOP not closed/self-contained.
    return quarantine_picture(RecoveryCause::kMissingReference);
  }

  pic.frame = pool.acquire();
  mpeg2::Frame& dst = *pic.frame;
  dst.type = type;
  dst.temporal_reference = ctx.header.temporal_reference;
  dst.display_index = gobs.quarantine
                          ? ranked_display_index
                          : display_base + ctx.header.temporal_reference;
  ctx.dst = &dst;
  ctx.dst_id = dst.trace_id();
  if (type != mpeg2::PictureType::kI) {
    ctx.fwd_ref = past.get();
    ctx.fwd_id = past->trace_id();
    if (type == mpeg2::PictureType::kB) {
      ctx.bwd_ref = bwd_ref.get();
      ctx.bwd_id = bwd_ref->trace_id();
    }
  }
  if (gobs.conceal_errors || gobs.quarantine) {
    pic.covered.assign(static_cast<std::size_t>(ctx.mb_width) *
                           static_cast<std::size_t>(ctx.mb_height),
                       0);
  }
  return true;
}

int decode_open_rows(std::span<const std::uint8_t> stream,
                     const mpeg2::PictureInfo& info, int pic_index, int row,
                     OpenPicture& pic, WorkerStats& stats, const GopObs& gobs,
                     int worker) {
  int concealed = 0;
  mpeg2::PictureDecodeOptions opts;
  opts.tracer = gobs.tracer;
  opts.track = worker;
  opts.picture_id = pic_index;
  opts.conceal_errors = gobs.conceal_errors || gobs.quarantine;
  opts.concealed = &concealed;
  opts.resync = gobs.h_resync;
  const bool ok = mpeg2::decode_picture_row(stream, info, row, pic.ctx,
                                            stats.work, opts, pic.covered);
  return ok ? concealed : -1;
}

PictureOutcome close_picture(OpenPicture& pic, int concealed,
                             const mpeg2::PictureInfo& info, int gop_index,
                             int pic_index, DisplaySink& display,
                             const GopObs& gobs, int worker) {
  if (!pic.covered.empty()) {
    concealed += mpeg2::conceal_coverage_gaps(pic.ctx, pic.covered);
  }
  PictureOutcome out;
  out.damaged = concealed > 0 && gobs.quarantine;
  if (concealed > 0) {
    if (gobs.concealed) {
      gobs.concealed->fetch_add(concealed, std::memory_order_relaxed);
    }
    if (gobs.quarantine && gobs.errors) {
      gobs.errors->add(
          {RecoveryCause::kSliceError, gop_index, pic_index, info.offset});
    }
  }
  out.frame = pic.frame;
  display.push(std::move(pic.frame));
  if (gobs.live) {
    const std::int64_t now = gobs.live->now_ns();
    const std::int64_t latency = now - pic.live_begin_ns;
    gobs.live->frame_latency().record(latency);
    obs::live::TelemetryCell::Write lw(gobs.live->worker(worker));
    lw.add_pictures().set_last_latency_ns(latency).set_last_progress_ns(now);
    if (concealed > 0) lw.add_concealed(concealed);
  }
  return out;
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
  OpenPicture pic;
  if (!open_picture(stream, structure, info, gop_index, pic_index,
                    display_base, ranked_display_index, fwd_ref, bwd_ref,
                    pool, display, gobs, worker, pic, out)) {
    return out;
  }
  const std::int64_t pic_begin = gobs.tracer ? gobs.tracer->now_ns() : 0;
  const int concealed =
      decode_open_rows(stream, info, pic_index, -1, pic, stats, gobs, worker);
  if (gobs.tracer) {
    gobs.tracer->emit(worker, obs::SpanKind::kPicture, pic_begin,
                      gobs.tracer->now_ns(), pic_index, -1, gop_index);
  }
  if (concealed < 0) return out;  // unreachable when concealing
  return close_picture(pic, concealed, info, gop_index, pic_index, display,
                       gobs, worker);
}

}  // namespace pmp2::parallel
