#include "mpeg2/structure_scan.h"

#include "bitstream/bit_reader.h"
#include "mpeg2/headers.h"

namespace pmp2::mpeg2 {

bool StructureScanner::scan_preamble() {
  DemuxUnit u;
  while (!have_pending_gop_) {
    if (failed_) return false;
    if (!demux_.next(u)) return false;  // stream ends before any GOP
    if (!handle_gap_unit(u)) {
      failed_ = true;
      return false;
    }
  }
  if (!have_seq_) {
    failed_ = true;
    return false;
  }
  // Scope check: only 4:2:0 is implemented (the paper's configuration).
  if (have_seq_ext_ && ext_.chroma_format != 1) {
    failed_ = true;
    return false;
  }
  return true;
}

bool StructureScanner::handle_gap_unit(const DemuxUnit& u) {
  BitReader br(stream_);
  br.seek_bytes(u.sc.byte_offset + 4);
  switch (u.sc.code) {
    case 0xB3: {  // sequence header
      if (!parse_sequence_header(br, seq_)) return false;
      have_seq_ = true;
      return true;
    }
    case 0xB5: {  // extension: only the sequence extension matters here
      if (br.peek(4) == 1) have_seq_ext_ = true;
      parse_extension(br, &ext_, nullptr);
      return true;
    }
    case 0xB8: {  // group start: the next GOP begins
      GopHeader gh;
      if (!parse_gop_header(br, gh)) return false;
      have_pending_gop_ = true;
      pending_offset_ = u.sc.byte_offset;
      pending_closed_ = gh.closed_gop;
      return true;
    }
    case 0x00:
      return false;  // pictures must live inside a GOP here
    case 0xB7:
      return true;  // sequence end
    default:
      return !is_slice_code(u.sc.code);  // slices must live inside a picture
  }
}

void StructureScanner::resync() {
  failed_ = failed_in_gop_ = false;
  DemuxUnit u;
  while (!have_pending_gop_ && demux_.next(u)) {
    if (u.sc.code != 0xB8) continue;
    BitReader br(stream_);
    br.seek_bytes(u.sc.byte_offset + 4);
    GopHeader gh;
    if (!parse_gop_header(br, gh)) continue;
    have_pending_gop_ = true;
    pending_offset_ = u.sc.byte_offset;
    pending_closed_ = gh.closed_gop;
  }
}

bool StructureScanner::next_gop(GopInfo& out) {
  out = GopInfo{};
  if (failed_) return false;
  DemuxUnit u;
  while (!have_pending_gop_) {
    if (!demux_.next(u)) return false;  // clean end of stream
    if (!handle_gap_unit(u)) {
      failed_ = true;
      return false;
    }
  }
  out.offset = pending_offset_;
  out.closed = pending_closed_;
  have_pending_gop_ = false;

  PictureInfo* pic = nullptr;
  while (demux_.next(u)) {
    BitReader br(stream_);
    br.seek_bytes(u.sc.byte_offset + 4);
    switch (u.sc.code) {
      case 0xB8: {  // next GOP: the current one is complete
        out.end_offset = u.sc.byte_offset;
        GopHeader gh;
        if (!parse_gop_header(br, gh)) {
          failed_ = true;  // the completed GOP still stands
        } else {
          have_pending_gop_ = true;
          pending_offset_ = u.sc.byte_offset;
          pending_closed_ = gh.closed_gop;
        }
        return true;
      }
      case 0xB3: {  // sequence header ends the GOP
        out.end_offset = u.sc.byte_offset;
        if (!parse_sequence_header(br, seq_)) {
          failed_ = true;
        } else {
          have_seq_ = true;
        }
        return true;
      }
      case 0xB7: {  // sequence end
        out.end_offset = u.sc.byte_offset;
        return true;
      }
      case 0xB5: {
        if (br.peek(4) == 1) have_seq_ext_ = true;
        parse_extension(br, &ext_, nullptr);
        break;
      }
      case 0x00: {  // picture start
        PictureHeader ph;
        if (!parse_picture_header(br, ph)) {
          failed_ = true;
          failed_in_gop_ = true;
          return false;
        }
        out.pictures.push_back({});
        pic = &out.pictures.back();
        pic->offset = u.sc.byte_offset;
        pic->type = ph.type;
        pic->temporal_reference = ph.temporal_reference;
        break;
      }
      default: {
        if (is_slice_code(u.sc.code)) {
          if (!pic) {
            failed_ = true;
            failed_in_gop_ = true;
            return false;
          }
          pic->slices.push_back({u.sc.byte_offset, u.sc.code - 1});
        }
        break;
      }
    }
  }
  out.end_offset = stream_.size();
  return true;
}

}  // namespace pmp2::mpeg2
