#include "mpeg2/decoder.h"

#include <algorithm>

#include "bitstream/startcode.h"
#include "mpeg2/kernels/kernels.h"
#include "mpeg2/structure_scan.h"
#include "obs/metrics.h"
#include "obs/prof/stage_prof.h"
#include "obs/tracer.h"

namespace pmp2::mpeg2 {

StreamStructure scan_structure(std::span<const std::uint8_t> stream) {
  // Drive the incremental scanner to completion: same index, one GOP at a
  // time (the streaming decoders consume StructureScanner directly).
  StreamStructure out;
  StructureScanner scanner(stream);
  GopInfo gop;
  while (scanner.next_gop(gop)) out.gops.push_back(std::move(gop));
  if (scanner.failed_in_gop()) out.gops.push_back(std::move(gop));
  out.seq = scanner.seq();
  out.ext = scanner.ext();
  if (scanner.failed()) return out;
  out.valid = scanner.have_seq() && !out.gops.empty();
  out.mpeg1 = out.valid && scanner.mpeg1();
  // Scope check: only 4:2:0 is implemented (the paper's configuration).
  if (!scanner.mpeg1() && out.ext.chroma_format != 1) out.valid = false;
  return out;
}

std::vector<int> display_ranks(const GopInfo& gop) {
  const int n = static_cast<int>(gop.pictures.size());
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return gop.pictures[static_cast<std::size_t>(a)].temporal_reference <
           gop.pictures[static_cast<std::size_t>(b)].temporal_reference;
  });
  std::vector<int> rank(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    rank[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;
  }
  return rank;
}

bool parse_picture_headers(BitReader& br, PictureHeader& ph,
                           PictureCodingExtension& pce) {
  if (!br.at_startcode_prefix() || br.peek(32) != 0x00000100) return false;
  br.skip(32);
  if (!parse_picture_header(br, ph)) return false;
  if (!br.align_to_next_startcode()) return false;
  if (br.peek(32) == 0x000001B5) {
    // MPEG-2: picture coding extension follows.
    br.skip(32);
    if (!parse_extension(br, nullptr, &pce)) return false;
    // Scope check: frame pictures only — progressive or interlaced
    // (frame_pred_frame_dct = 0 with field prediction / field DCT is
    // supported); field pictures are out of scope. Reject cleanly rather
    // than decode garbage.
    if (pce.picture_structure != 3) return false;
    return br.align_to_next_startcode();
  }
  // MPEG-1: synthesize the equivalent extension state from the header.
  pce = PictureCodingExtension{};
  if (ph.type != PictureType::kI) {
    if (ph.forward_f_code < 1) return false;
    pce.f_code[0][0] = pce.f_code[0][1] = ph.forward_f_code;
  }
  if (ph.type == PictureType::kB) {
    if (ph.backward_f_code < 1) return false;
    pce.f_code[1][0] = pce.f_code[1][1] = ph.backward_f_code;
  }
  return true;
}

void conceal_slice(const PictureContext& pic, int slice_row) {
  if (slice_row < 0 || slice_row >= pic.mb_height) return;
  obs::prof::StageScope conceal_stage(obs::prof::Stage::kConceal);
  const kernels::KernelTable& k = kernels::active();
  for (int p = 0; p < 3; ++p) {
    const int rows = p == 0 ? kMacroblockSize : kMacroblockSize / 2;
    const int y0 = slice_row * rows;
    const int stride = pic.dst->stride(p);
    std::uint8_t* dst = pic.dst->plane(p) + y0 * stride;
    if (pic.fwd_ref) {
      const std::uint8_t* src = pic.fwd_ref->plane(p) + y0 * stride;
      k.conceal_copy(dst, stride, src, stride, stride, rows);
    } else {
      k.conceal_fill(dst, stride, 128, stride, rows);
    }
  }
}

void conceal_mb_run(const PictureContext& pic, int row, int col0, int col1) {
  obs::prof::StageScope conceal_stage(obs::prof::Stage::kConceal);
  const kernels::KernelTable& k = kernels::active();
  for (int p = 0; p < 3; ++p) {
    const int rows = p == 0 ? kMacroblockSize : kMacroblockSize / 2;
    const int mb_cols = rows;  // macroblocks are square in every plane
    const int y0 = row * rows;
    const int x0 = col0 * mb_cols;
    const int width = (col1 - col0 + 1) * mb_cols;
    const int stride = pic.dst->stride(p);
    std::uint8_t* dst = pic.dst->plane(p) + y0 * stride + x0;
    if (pic.fwd_ref) {
      const std::uint8_t* src = pic.fwd_ref->plane(p) + y0 * stride + x0;
      k.conceal_copy(dst, stride, src, stride, width, rows);
    } else {
      k.conceal_fill(dst, stride, 128, width, rows);
    }
  }
}

int conceal_coverage_gaps(const PictureContext& pic,
                          const MbCoverage& covered) {
  int runs = 0;
  for (int row = 0; row < pic.mb_height; ++row) {
    const std::size_t base =
        static_cast<std::size_t>(row) * static_cast<std::size_t>(pic.mb_width);
    for (int col = 0; col < pic.mb_width;) {
      if (covered[base + static_cast<std::size_t>(col)]) {
        ++col;
        continue;
      }
      int end = col;
      while (end + 1 < pic.mb_width &&
             !covered[base + static_cast<std::size_t>(end) + 1]) {
        ++end;
      }
      conceal_mb_run(pic, row, col, end);
      ++runs;
      col = end + 1;
    }
  }
  return runs;
}

std::uint64_t resync_distance(std::span<const std::uint8_t> stream,
                              std::uint64_t error_byte) {
  const std::uint64_t from = std::min<std::uint64_t>(error_byte,
                                                     stream.size());
  return find_startcode_prefix(stream, from) - from;
}

bool decode_picture_row(std::span<const std::uint8_t> stream,
                        const PictureInfo& info, int row,
                        const PictureContext& pic, WorkMeter& work,
                        const PictureDecodeOptions& opts,
                        MbCoverage& covered) {
  const auto cover = [&](int first, int last) {
    if (covered.empty()) return;
    std::fill(covered.begin() + first, covered.begin() + last + 1,
              std::uint8_t{1});
  };
  int slice_ordinal = -1;
  for (const auto& slice : info.slices) {
    ++slice_ordinal;
    if (row >= 0 && std::min(slice.row, pic.mb_height - 1) != row) continue;
    BitReader br(stream);
    br.seek_bytes(slice.offset + 4);
    const std::int64_t begin_ns =
        opts.tracer ? opts.tracer->now_ns() : 0;
    const SliceResult r = decode_slice(br, slice.row, pic, opts.sink,
                                       opts.proc);
    if (opts.tracer) {
      opts.tracer->emit(opts.track, obs::SpanKind::kSliceTask, begin_ns,
                        opts.tracer->now_ns(), opts.picture_id,
                        slice_ordinal);
    }
    if (r.ok) {
      work += r.work;
      if (r.first_mb >= 0) cover(r.first_mb, r.last_mb);
    } else if (opts.conceal_errors) {
      const std::int64_t conceal_begin =
          opts.tracer ? opts.tracer->now_ns() : 0;
      if (opts.resync) {
        opts.resync->record(static_cast<std::int64_t>(
            resync_distance(stream, br.bit_position() / 8)));
      }
      conceal_slice(pic, slice.row);
      if (slice.row >= 0 && slice.row < pic.mb_height) {
        cover(slice.row * pic.mb_width, (slice.row + 1) * pic.mb_width - 1);
      }
      if (opts.concealed) ++*opts.concealed;
      if (opts.tracer) {
        opts.tracer->emit(opts.track, obs::SpanKind::kConceal, conceal_begin,
                          opts.tracer->now_ns(), opts.picture_id,
                          slice_ordinal);
      }
    } else {
      return false;
    }
  }
  return true;
}

bool decode_picture_slices(std::span<const std::uint8_t> stream,
                           const PictureInfo& info, const PictureContext& pic,
                           WorkMeter& work, const PictureDecodeOptions& opts) {
  // Macroblock-granular coverage for conceal_coverage_gaps: a damaged
  // picture must decode to the same bytes in every decoder and every run.
  MbCoverage covered;
  if (opts.conceal_errors) {
    covered.assign(static_cast<std::size_t>(pic.mb_width * pic.mb_height),
                   0);
  }
  if (!decode_picture_row(stream, info, -1, pic, work, opts, covered)) {
    return false;
  }
  if (!covered.empty()) {
    const int runs = conceal_coverage_gaps(pic, covered);
    if (opts.concealed) *opts.concealed += runs;
  }
  return true;
}

void DisplayReorder::push(FramePtr frame, std::vector<FramePtr>& out) {
  if (frame->type == PictureType::kB) {
    frame->display_index = next_display_index_++;
    out.push_back(std::move(frame));
    return;
  }
  if (pending_ref_) {
    pending_ref_->display_index = next_display_index_++;
    out.push_back(std::move(pending_ref_));
  }
  pending_ref_ = std::move(frame);
}

void DisplayReorder::flush(std::vector<FramePtr>& out) {
  if (pending_ref_) {
    pending_ref_->display_index = next_display_index_++;
    out.push_back(std::move(pending_ref_));
  }
}

Decoder::Status Decoder::decode_stream(std::span<const std::uint8_t> stream,
                                       const FrameCallback& on_frame,
                                       TraceSink* sink, int proc) {
  Status out;
  const StreamStructure structure = scan_structure(stream);
  if (!structure.valid) return out;
  out.seq = structure.seq;

  FramePool pool(structure.seq.horizontal_size, structure.seq.vertical_size,
                 tracker_);
  DisplayReorder reorder;
  FramePtr fwd_ref, bwd_ref;  // older / newer reference
  std::vector<FramePtr> ready;

  for (const auto& gop : structure.gops) {
    for (const auto& info : gop.pictures) {
      BitReader br(stream);
      br.seek_bytes(info.offset);
      PictureContext pic;
      pic.seq = &structure.seq;
      pic.mpeg1 = structure.mpeg1;
      pic.block_observer = block_observer_;
      if (!parse_picture_headers(br, pic.header, pic.ext)) return out;
      pic.mb_width = structure.mb_width();
      pic.mb_height = structure.mb_height();

      FramePtr dst = pool.acquire();
      dst->type = pic.header.type;
      dst->temporal_reference = pic.header.temporal_reference;
      pic.dst = dst.get();
      pic.dst_id = dst->trace_id();
      if (pic.header.type != PictureType::kI) {
        // P predicts from the most recent reference; B from both.
        const FramePtr& past =
            pic.header.type == PictureType::kP ? bwd_ref : fwd_ref;
        if (!past) return out;
        pic.fwd_ref = past.get();
        pic.fwd_id = past->trace_id();
        if (pic.header.type == PictureType::kB) {
          if (!bwd_ref) return out;
          pic.bwd_ref = bwd_ref.get();
          pic.bwd_id = bwd_ref->trace_id();
        }
      }

      PictureDecodeOptions opts;
      opts.sink = sink;
      opts.proc = proc;
      opts.conceal_errors = conceal_errors_;
      opts.concealed = &out.concealed_slices;
      if (!decode_picture_slices(stream, info, pic, out.work, opts)) {
        return out;
      }

      if (pic.header.type != PictureType::kB) {
        fwd_ref = bwd_ref;
        bwd_ref = dst;
      }
      reorder.push(std::move(dst), ready);
      for (auto& f : ready) on_frame(std::move(f));
      ready.clear();
    }
  }
  reorder.flush(ready);
  for (auto& f : ready) on_frame(std::move(f));
  out.ok = true;
  return out;
}

DecodedStream Decoder::decode(std::span<const std::uint8_t> stream,
                              TraceSink* sink, int proc) {
  DecodedStream out;
  const Status st = decode_stream(
      stream, [&out](FramePtr f) { out.frames.push_back(std::move(f)); },
      sink, proc);
  out.ok = st.ok;
  out.work = st.work;
  out.seq = st.seq;
  out.concealed_slices = st.concealed_slices;
  return out;
}

}  // namespace pmp2::mpeg2
