#include "sched/profile.h"

#include "bitstream/bit_reader.h"
#include "util/timer.h"

namespace pmp2::sched {

StreamProfile profile_stream(std::span<const std::uint8_t> stream) {
  StreamProfile out;
  out.stream_bytes = stream.size();

  WallTimer scan_timer;
  const mpeg2::StreamStructure structure = mpeg2::scan_structure(stream);
  out.scan_ns = scan_timer.elapsed_ns();
  if (!structure.valid) return out;
  out.width = structure.seq.horizontal_size;
  out.height = structure.seq.vertical_size;
  out.frame_rate = structure.seq.frame_rate();
  out.slices_per_picture = structure.mb_height();

  mpeg2::FramePool pool(out.width, out.height);
  mpeg2::FramePtr fwd_ref, bwd_ref;
  std::uint64_t total_units = 0;
  std::int64_t total_ns = 0;

  for (std::size_t g = 0; g < structure.gops.size(); ++g) {
    const auto& gop = structure.gops[g];
    GopCost gop_cost;
    gop_cost.stream_bytes = gop.end_offset - gop.offset;
    gop_cost.closed = gop.closed;
    for (const auto& info : gop.pictures) {
      pmp2::BitReader br(stream);
      br.seek_bytes(info.offset);
      mpeg2::PictureContext pic;
      pic.seq = &structure.seq;
      pic.mpeg1 = structure.mpeg1;
      if (!mpeg2::parse_picture_headers(br, pic.header, pic.ext)) return out;
      pic.mb_width = structure.mb_width();
      pic.mb_height = structure.mb_height();

      mpeg2::FramePtr dst = pool.acquire();
      pic.dst = dst.get();
      pic.dst_id = dst->trace_id();
      if (pic.header.type != mpeg2::PictureType::kI) {
        const mpeg2::FramePtr& past =
            pic.header.type == mpeg2::PictureType::kP ? bwd_ref : fwd_ref;
        if (!past) return out;
        pic.fwd_ref = past.get();
        pic.fwd_id = past->trace_id();
        if (pic.header.type == mpeg2::PictureType::kB) {
          pic.bwd_ref = bwd_ref.get();
          pic.bwd_id = bwd_ref->trace_id();
        }
      }

      PictureCost pic_cost;
      pic_cost.type = pic.header.type;
      pic_cost.temporal_reference = pic.header.temporal_reference;
      for (const auto& slice : info.slices) {
        pmp2::BitReader sbr(stream);
        sbr.seek_bytes(slice.offset + 4);
        WallTimer timer;
        const mpeg2::SliceResult r =
            mpeg2::decode_slice(sbr, slice.row, pic);
        if (!r.ok) return out;
        SliceCost cost;
        cost.ns = timer.elapsed_ns();
        cost.units = r.work.units();
        total_units += cost.units;
        total_ns += cost.ns;
        pic_cost.slices.push_back(cost);
      }
      gop_cost.pictures.push_back(std::move(pic_cost));

      if (pic.header.type != mpeg2::PictureType::kB) {
        fwd_ref = bwd_ref;
        bwd_ref = dst;
      }
    }
    out.gops.push_back(std::move(gop_cost));
  }

  out.ns_per_unit =
      total_units > 0 ? static_cast<double>(total_ns) / total_units : 1.0;
  out.ok = true;
  return out;
}

StreamProfile replicate_profile(const StreamProfile& profile,
                                int target_pictures) {
  StreamProfile out = profile;
  if (!profile.ok || profile.gops.empty()) return out;
  std::size_t src = 0;
  while (out.total_pictures() < target_pictures) {
    out.gops.push_back(profile.gops[src]);
    out.stream_bytes += profile.gops[src].stream_bytes;
    src = (src + 1) % profile.gops.size();
  }
  // Scale the measured scan time with the stream growth so the derived
  // scan rate (bytes/ns) stays the same.
  out.scan_ns = static_cast<std::int64_t>(
      static_cast<double>(profile.scan_ns) *
      static_cast<double>(out.stream_bytes) /
      static_cast<double>(profile.stream_bytes ? profile.stream_bytes : 1));
  return out;
}

}  // namespace pmp2::sched
