#include "mpeg2/slice_decode.h"

#include <cassert>

#include "mpeg2/dct.h"
#include "mpeg2/motion.h"
#include "mpeg2/vlc_tables.h"
#include "obs/prof/stage_prof.h"

namespace pmp2::mpeg2 {

namespace {

/// Builds the QuantContext for one block of this picture.
QuantContext make_quant(const PictureContext& pic, int quantiser_scale_code,
                        bool intra) {
  QuantContext q;
  q.matrix = intra ? pic.seq->intra_matrix.data()
                   : pic.seq->non_intra_matrix.data();
  q.quantiser_scale = quantiser_scale(quantiser_scale_code, pic.ext.q_scale_type);
  q.intra_dc_mult = intra_dc_mult(8 + pic.ext.intra_dc_precision);
  return q;
}

/// Decodes the AC run/level loop shared by intra and non-intra blocks.
/// `idx` is the next scan position (1 for intra after DC, 0 for
/// non-intra). Returns false on bad syntax.
bool decode_coefficients(BitReader& br, bool table_one, bool first_special,
                         bool mpeg1, const std::array<std::uint8_t, 64>& scan,
                         int idx, Block& q, WorkMeter& work,
                         BlockSparsity& sparsity) {
  // Sign-folded tables: one lookup yields run, level and sign (the old path
  // was lookup + a separate get_bit for the sign). Escape and EOB codes are
  // unchanged, and a folded hit consumes len+1 bits exactly as lookup+sign
  // did, so the bit positions visited are identical.
  const DctCoeffDecoder& dec = dct_coeff_decoder(table_one);
  bool first = first_special;
  for (;;) {
    int run;
    int level;
    if (first && br.peek(1) == 1) {
      // Special short form of run 0 / level 1 for the first coefficient of
      // a non-intra block (EOB cannot occur first).
      br.skip(1);
      level = br.get_bit() ? -1 : 1;
      run = 0;
    } else {
      std::int16_t value;
      if (!dec.decode(br, value)) return false;
      if (value == kVlcEob) break;
      if (value == kVlcEscape) {
        run = static_cast<int>(br.get(6));
        if (mpeg1) {
          // MPEG-1 (ISO 11172-2): 8-bit two's complement, with the 0x00 /
          // 0x80 markers extending to the 16-bit form for |level| >= 128.
          int b = static_cast<int>(br.get(8));
          if (b == 0) {
            level = static_cast<int>(br.get(8));  // 128..255
            if (level == 0) return false;
          } else if (b == 128) {
            level = static_cast<int>(br.get(8)) - 256;  // -255..-129
          } else {
            level = b >= 128 ? b - 256 : b;
          }
        } else {
          int v = static_cast<int>(br.get(12));
          if (v & 0x800) v -= 4096;
          if (v == 0) return false;  // forbidden escape level
          level = v;
        }
        ++work.escapes;
      } else {
        run = unpack_signed_run(value);
        level = unpack_signed_level(value);
      }
    }
    first = false;
    idx += run;
    if (idx > 63) return false;
    q[scan[idx]] = static_cast<std::int16_t>(level);
    sparsity.mark(scan[idx]);
    ++idx;
    ++work.coefficients;
  }
  return true;
}

}  // namespace

bool BlockDecoder::decode_intra(BitReader& br, const PictureContext& pic,
                                int quantiser_scale_code, bool luma,
                                int& dc_pred, Block& out, WorkMeter& work,
                                BlockSparsity* sparsity) {
  out.fill(0);
  std::int16_t size;
  const VlcDecoder& dc_dec =
      luma ? dct_dc_size_luma_decoder() : dct_dc_size_chroma_decoder();
  if (!dc_dec.decode(br, size)) return false;
  int diff = 0;
  if (size > 0) {
    const int bits = static_cast<int>(br.get(size));
    const int half = 1 << (size - 1);
    diff = (bits >= half) ? bits : bits + 1 - 2 * half;
  }
  dc_pred += diff;
  out[0] = static_cast<std::int16_t>(dc_pred);
  ++work.coefficients;

  BlockSparsity s = BlockSparsity::none();
  s.mark(0);  // DC always counts as present (predictor may be nonzero)
  const auto& scan = scan_order(pic.ext.alternate_scan);
  if (!decode_coefficients(br, pic.ext.intra_vlc_format,
                           /*first_special=*/false, pic.mpeg1, scan, 1, out,
                           work, s)) {
    return false;
  }
  dequantize_intra(out, make_quant(pic, quantiser_scale_code, true), s);
  if (sparsity) *sparsity = s;
  ++work.intra_blocks;
  ++work.coded_blocks;
  return true;
}

bool BlockDecoder::decode_non_intra(BitReader& br, const PictureContext& pic,
                                    int quantiser_scale_code, Block& out,
                                    WorkMeter& work, BlockSparsity* sparsity) {
  out.fill(0);
  BlockSparsity s = BlockSparsity::none();
  const auto& scan = scan_order(pic.ext.alternate_scan);
  if (!decode_coefficients(br, /*table_one=*/false, /*first_special=*/true,
                           pic.mpeg1, scan, 0, out, work, s)) {
    return false;
  }
  dequantize_non_intra(out, make_quant(pic, quantiser_scale_code, false), s);
  if (sparsity) *sparsity = s;
  ++work.coded_blocks;
  return true;
}

namespace {

/// The complete prediction of one macroblock: frame prediction uses
/// vector index r = 0; field prediction (frame pictures with
/// frame_motion_type = field) uses r = 0 for the top and r = 1 for the
/// bottom destination field, each with a reference-field select bit.
struct PredictionSpec {
  std::uint8_t flags = 0;  // kMotionForward / kMotionBackward bits
  bool field = false;
  MotionVector fwd[2], bwd[2];
  int fwd_select[2] = {0, 0}, bwd_select[2] = {0, 0};
};

/// Per-slice decoding state (predictors reset at slice boundaries).
struct SliceState {
  int dc_pred[3];      // QF-domain DC predictors: Y, Cb, Cr
  int pmv[2][2][2];    // [vector r][fwd/bwd s][x/y t], half-pel units
  int qscale_code;     // current quantiser_scale_code
  // Previous macroblock's prediction, for B-picture skipped MBs.
  PredictionSpec prev;
  bool have_prev = false;

  explicit SliceState(const PictureContext& pic) {
    reset_dc(pic);
    reset_pmv();
    qscale_code = 1;
  }
  void reset_dc(const PictureContext& pic) {
    const int r = 128 << pic.ext.intra_dc_precision;
    dc_pred[0] = dc_pred[1] = dc_pred[2] = r;
  }
  void reset_pmv() {
    for (auto& r : pmv) {
      for (auto& s : r) s[0] = s[1] = 0;
    }
  }
};

/// Stores (intra) or adds (non-intra) an IDCT result block. `dst` points
/// at the block's first pel; `stride` already includes any field-line
/// doubling.
void store_block(std::uint8_t* dst, int stride, const Block& b, bool add) {
  for (int r = 0; r < 8; ++r) {
    std::uint8_t* row = dst + r * stride;
    const std::int16_t* src = b.data() + r * 8;
    for (int c = 0; c < 8; ++c) {
      row[c] = clamp_pel(add ? row[c] + src[c] : src[c]);
    }
  }
}

/// Emits the scratch-buffer traffic of decoding + IDCTing one block, plus
/// the frame write (and read when adding).
void trace_block(TraceSink* sink, int proc, const PictureContext& pic,
                 int plane, int x, int y, int ncoef, bool add) {
  if (!sink) return;
  const std::uint64_t scratch = trace_layout::scratch_addr(proc, 0);
  // Coefficient writes during VLC decode (2 bytes each, scattered).
  for (int i = 0; i < ncoef; ++i) {
    sink->on_ref({scratch + static_cast<std::uint64_t>(i) * 2, 2,
                  static_cast<std::uint16_t>(proc), true});
  }
  // IDCT: full read + write of the 128-byte block in 8-byte units.
  for (int i = 0; i < 128; i += 8) {
    sink->on_ref({scratch + static_cast<std::uint64_t>(i), 8,
                  static_cast<std::uint16_t>(proc), false});
    sink->on_ref({scratch + static_cast<std::uint64_t>(i), 8,
                  static_cast<std::uint16_t>(proc), true});
  }
  const std::uint64_t base = trace_layout::frame_addr(pic.dst_id, plane, 0);
  const int stride = pic.dst->stride(plane);
  if (add) emit_region(sink, proc, false, base, stride, x, y, 8, 8);
  emit_region(sink, proc, true, base, stride, x, y, 8, 8);
}

/// Decodes the six blocks of one macroblock. With `field_dct` (dct_type =
/// 1 in interlaced frame pictures, §6.3.17.1) the four luma blocks cover
/// the macroblock's top/bottom *field* lines instead of quadrants.
bool decode_blocks(BitReader& br, const PictureContext& pic, SliceState& st,
                   int mb_x, int mb_y, bool intra, int cbp, bool field_dct,
                   WorkMeter& work, TraceSink* sink, int proc) {
  Block block;
  for (int b = 0; b < kBlocksPerMb420; ++b) {
    if ((cbp & (1 << (5 - b))) == 0) continue;
    const bool luma = b < 4;
    const int cc = luma ? 0 : (b == 4 ? 1 : 2);
    const std::uint64_t coef_before = work.coefficients;
    bool ok;
    BlockSparsity sparsity;
    {
      obs::prof::StageScope vlc_stage(obs::prof::Stage::kVlc);
      if (intra) {
        ok = BlockDecoder::decode_intra(br, pic, st.qscale_code, luma,
                                        st.dc_pred[cc], block, work,
                                        &sparsity);
      } else {
        ok = BlockDecoder::decode_non_intra(br, pic, st.qscale_code, block,
                                            work, &sparsity);
      }
    }
    if (!ok) return false;
    const int ncoef = static_cast<int>(work.coefficients - coef_before);
    if (pic.block_observer) pic.block_observer->on_block(block, intra);
    // Scoped to the rest of the iteration: the transform plus its store
    // (and the trace emit, null in profiled runs) are one IDCT stage.
    obs::prof::StageScope idct_stage(obs::prof::Stage::kIdct);
    idct_int(block, sparsity);
    int x, y, plane, stride;
    int line_step = 1;
    std::uint8_t* pels;
    if (luma) {
      plane = 0;
      stride = pic.dst->y_stride();
      x = mb_x * 16 + (b & 1) * 8;
      if (field_dct) {
        // Blocks 0/1: top field; 2/3: bottom field; 8 field lines each.
        y = mb_y * 16 + (b >> 1);
        line_step = 2;
      } else {
        y = mb_y * 16 + (b >> 1) * 8;
      }
      pels = pic.dst->y();
    } else {
      plane = cc;
      x = mb_x * 8;
      y = mb_y * 8;
      pels = pic.dst->plane(plane);
      stride = pic.dst->c_stride();
    }
    store_block(pels + y * stride + x, stride * line_step, block,
                /*add=*/!intra);
    trace_block(sink, proc, pic, plane, x, y, ncoef, !intra);
  }
  return true;
}

/// True iff every sample the half-pel vector references lies inside the
/// coded picture. A conforming encoder never emits vectors past the edge;
/// a corrupted stream may, and must not read or write out of bounds.
bool mv_in_picture(const PictureContext& pic, int mb_x, int mb_y,
                   MotionVector mv) {
  const int cw = pic.mb_width * kMacroblockSize;
  const int ch = pic.mb_height * kMacroblockSize;
  const int x = mb_x * kMacroblockSize + (mv.x >> 1);
  const int y = mb_y * kMacroblockSize + (mv.y >> 1);
  return x >= 0 && y >= 0 &&
         x + kMacroblockSize + ((mv.x & 1) ? 1 : 0) <= cw &&
         y + kMacroblockSize + ((mv.y & 1) ? 1 : 0) <= ch;
}

/// Field-prediction variant: the vertical component is in field lines.
bool mv_in_field(const PictureContext& pic, int mb_x, int mb_y,
                 MotionVector mv) {
  const int cw = pic.mb_width * kMacroblockSize;
  const int fh = pic.mb_height * kMacroblockSize / 2;
  const int x = mb_x * kMacroblockSize + (mv.x >> 1);
  const int y = mb_y * 8 + (mv.y >> 1);
  return x >= 0 && y >= 0 &&
         x + kMacroblockSize + ((mv.x & 1) ? 1 : 0) <= cw &&
         y + 8 + ((mv.y & 1) ? 1 : 0) <= fh;
}

/// Applies one direction (forward or backward) of a PredictionSpec.
[[nodiscard]] bool apply_direction(const PictureContext& pic, int mb_x,
                                   int mb_y, const Frame* ref, int ref_id,
                                   const PredictionSpec& spec, bool backward,
                                   McMode mode, WorkMeter& work,
                                   TraceSink* sink, int proc) {
  if (ref == nullptr) return false;
  const MotionVector* mvs = backward ? spec.bwd : spec.fwd;
  const int* selects = backward ? spec.bwd_select : spec.fwd_select;
  if (spec.field) {
    for (int r = 0; r < 2; ++r) {
      if (!mv_in_field(pic, mb_x, mb_y, mvs[r])) return false;
      mc_field_macroblock(*ref, ref_id, *pic.dst, pic.dst_id, mb_x, mb_y, r,
                          selects[r], mvs[r], mode, sink, proc);
    }
  } else {
    if (!mv_in_picture(pic, mb_x, mb_y, mvs[0])) return false;
    mc_macroblock(*ref, ref_id, *pic.dst, pic.dst_id, mb_x, mb_y, mvs[0],
                  mode, sink, proc);
  }
  work.mc_blocks += kBlocksPerMb420;
  return true;
}

/// Forms the motion-compensated prediction for one macroblock. Returns
/// false (corrupt stream) if a vector references outside the picture.
[[nodiscard]] bool predict_mb(const PictureContext& pic, int mb_x, int mb_y,
                              const PredictionSpec& spec, WorkMeter& work,
                              TraceSink* sink, int proc) {
  obs::prof::StageScope mc_stage(obs::prof::Stage::kMc);
  const bool use_fwd = (spec.flags & MbFlags::kMotionForward) != 0;
  const bool use_bwd = (spec.flags & MbFlags::kMotionBackward) != 0;
  if (use_fwd) {
    if (!apply_direction(pic, mb_x, mb_y, pic.fwd_ref, pic.fwd_id, spec,
                         false, McMode::kCopy, work, sink, proc)) {
      return false;
    }
  }
  if (use_bwd) {
    if (!apply_direction(pic, mb_x, mb_y, pic.bwd_ref, pic.bwd_id, spec,
                         true, use_fwd ? McMode::kAverage : McMode::kCopy,
                         work, sink, proc)) {
      return false;
    }
  }
  return true;
}

/// Handles one skipped macroblock (§7.6.6). Returns false on a corrupt
/// stream (vector out of picture at this macroblock's position).
[[nodiscard]] bool decode_skipped(const PictureContext& pic, SliceState& st,
                                  int address, WorkMeter& work,
                                  TraceSink* sink, int proc) {
  const int mb_x = address % pic.mb_width;
  const int mb_y = address / pic.mb_width;
  bool ok;
  if (pic.header.type == PictureType::kP) {
    // Zero vector frame copy; PMVs reset.
    st.reset_pmv();
    PredictionSpec zero;
    zero.flags = MbFlags::kMotionForward;
    ok = predict_mb(pic, mb_x, mb_y, zero, work, sink, proc);
  } else {
    // B: repeat the previous macroblock's prediction mode and vectors.
    ok = st.have_prev &&
         predict_mb(pic, mb_x, mb_y, st.prev, work, sink, proc);
  }
  st.reset_dc(pic);
  ++work.skipped_mbs;
  ++work.macroblocks;
  return ok;
}

/// Decodes the motion vectors of one direction (§6.3.17.3, §7.6.3):
/// one frame vector, or two field vectors with field selects. Updates the
/// slice PMVs per the standard's rules (frame vectors set both r entries;
/// field vertical predictors live at frame scale: predict with PMV/2,
/// store back 2x).
[[nodiscard]] bool decode_direction_vectors(BitReader& br,
                                            const PictureContext& pic,
                                            SliceState& st, int s,
                                            bool field, PredictionSpec& spec) {
  MotionVector* mvs = s == 0 ? spec.fwd : spec.bwd;
  int* selects = s == 0 ? spec.fwd_select : spec.bwd_select;
  if (!field) {
    if (!decode_mv_component(br, pic.ext.f_code[s][0], st.pmv[0][s][0]) ||
        !decode_mv_component(br, pic.ext.f_code[s][1], st.pmv[0][s][1])) {
      return false;
    }
    st.pmv[1][s][0] = st.pmv[0][s][0];
    st.pmv[1][s][1] = st.pmv[0][s][1];
    const int sf = (s == 0 ? pic.header.full_pel_forward
                           : pic.header.full_pel_backward)
                       ? 1
                       : 0;
    mvs[0] = {static_cast<std::int16_t>(st.pmv[0][s][0] << sf),
              static_cast<std::int16_t>(st.pmv[0][s][1] << sf)};
    mvs[1] = mvs[0];
    return true;
  }
  for (int r = 0; r < 2; ++r) {
    selects[r] = static_cast<int>(br.get_bit());
    if (!decode_mv_component(br, pic.ext.f_code[s][0], st.pmv[r][s][0])) {
      return false;
    }
    // Vertical: predictor divided by two, stored back doubled (§7.6.3.1).
    int vert = st.pmv[r][s][1] >> 1;
    if (!decode_mv_component(br, pic.ext.f_code[s][1], vert)) return false;
    st.pmv[r][s][1] = vert * 2;
    mvs[r] = {static_cast<std::int16_t>(st.pmv[r][s][0]),
              static_cast<std::int16_t>(vert)};
  }
  return true;
}

}  // namespace

SliceResult decode_slice(BitReader& br, int slice_row,
                         const PictureContext& pic, TraceSink* sink,
                         int proc) {
  SliceResult res;
  if (slice_row < 0 || slice_row >= pic.mb_height) return res;
  SliceState st(pic);
  const std::uint64_t start_bits = br.bit_position();

  // Slice header (after the startcode).
  st.qscale_code = static_cast<int>(br.get(5));
  if (st.qscale_code == 0) return res;
  if (br.peek(1) == 1) {
    br.skip(1 + 1 + 7);  // intra_slice_flag, intra_slice, reserved_bits
    while (br.peek(1) == 1) br.skip(9);  // extra_information_slice
  }
  if (br.get_bit() != 0) return res;  // extra_bit_slice must be 0

  int mb_address = slice_row * pic.mb_width - 1;  // previous MB address
  bool first_mb = true;

  for (;;) {
    if (br.overrun()) return res;
    // End of slice: the next 23 bits are zero (start of the next startcode).
    // Peeks past the end read as zero, so at the end of a stream with no
    // sequence_end_code (a spliced segment) this ends the slice only once
    // the remaining bits are all zero stuffing — a last macroblock shorter
    // than 23 bits still decodes.
    if (br.peek(23) == 0) break;
    // --- macroblock_address_increment ---
    int increment = 0;
    for (;;) {
      std::int16_t v;
      if (!mb_addr_inc_decoder().decode(br, v)) return res;
      if (v == kVlcEscape) {
        increment += 33;
        continue;
      }
      if (v == kVlcStuffing) continue;  // MPEG-1 stuffing: ignored
      increment += v;
      break;
    }
    if (first_mb) {
      // The first increment positions the first MB within the row; the MBs
      // before it are not skipped, they are simply outside this slice
      // (§6.3.16). Our encoder always emits 1 (restricted slice structure).
      mb_address += increment;
      first_mb = false;
    } else {
      if (mb_address + increment >= pic.mb_width * pic.mb_height) return res;
      for (int s = 1; s < increment; ++s) {
        if (!decode_skipped(pic, st, mb_address + s, res.work, sink, proc)) {
          return res;
        }
        ++res.macroblocks;
      }
      mb_address += increment;
    }
    if (mb_address < 0 || mb_address >= pic.mb_width * pic.mb_height) {
      return res;
    }
    if (res.first_mb < 0) res.first_mb = mb_address;
    const int mb_x = mb_address % pic.mb_width;
    const int mb_y = mb_address / pic.mb_width;

    // --- macroblock_modes (§6.3.17.1) ---
    std::int16_t flags16;
    if (!mb_type_decoder(static_cast<int>(pic.header.type))
             .decode(br, flags16)) {
      return res;
    }
    const auto flags = static_cast<std::uint8_t>(flags16);
    const bool intra = (flags & MbFlags::kIntra) != 0;
    const bool has_motion =
        (flags & (MbFlags::kMotionForward | MbFlags::kMotionBackward)) != 0;
    // frame_motion_type: present in interlaced frame pictures
    // (frame_pred_frame_dct = 0) when the MB carries motion.
    bool field_motion = false;
    if (has_motion && !pic.ext.frame_pred_frame_dct) {
      const auto motion_type = br.get(2);
      switch (motion_type) {
        case 0b01: field_motion = true; break;
        case 0b10: break;  // frame motion
        default: return res;  // dual prime / reserved: out of scope
      }
    }
    // dct_type: interlaced frame pictures, intra or coded MBs.
    bool field_dct = false;
    if (!pic.ext.frame_pred_frame_dct &&
        (intra || (flags & MbFlags::kPattern))) {
      field_dct = br.get_bit() != 0;
    }
    if (flags & MbFlags::kQuant) {
      st.qscale_code = static_cast<int>(br.get(5));
      if (st.qscale_code == 0) return res;
    }

    // --- motion vectors ---
    PredictionSpec spec;
    spec.flags = flags & (MbFlags::kMotionForward | MbFlags::kMotionBackward);
    spec.field = field_motion;
    if (flags & MbFlags::kMotionForward) {
      if (!decode_direction_vectors(br, pic, st, 0, field_motion, spec)) {
        return res;
      }
    }
    if (flags & MbFlags::kMotionBackward) {
      if (!decode_direction_vectors(br, pic, st, 1, field_motion, spec)) {
        return res;
      }
    }

    // --- prediction ---
    if (!intra) {
      if (pic.header.type == PictureType::kP &&
          (flags & MbFlags::kMotionForward) == 0) {
        // P-picture, no forward vector: zero-vector frame prediction,
        // PMV reset.
        st.reset_pmv();
        spec = PredictionSpec{};
        spec.flags = MbFlags::kMotionForward;
      }
      if (!predict_mb(pic, mb_x, mb_y, spec, res.work, sink, proc)) {
        return res;
      }
      if (pic.header.type == PictureType::kB) {
        st.prev = spec;
        st.have_prev = true;
      }
    } else {
      st.reset_pmv();
      // An intra MB provides no prediction to repeat for B skips; the
      // standard forbids skipped MBs right after intra in B pictures via
      // semantics, and our encoder complies. Keep previous mode unchanged.
    }

    // --- coded block pattern + blocks ---
    int cbp = 0;
    if (intra) {
      cbp = 63;
    } else if (flags & MbFlags::kPattern) {
      std::int16_t v;
      if (!coded_block_pattern_decoder().decode(br, v)) return res;
      cbp = v;
    }
    if (!intra) st.reset_dc(pic);
    if (cbp != 0) {
      if (!decode_blocks(br, pic, st, mb_x, mb_y, intra, cbp, field_dct,
                         res.work, sink, proc)) {
        return res;
      }
    }
    ++res.macroblocks;
    ++res.work.macroblocks;
    res.last_mb = mb_address;
  }

  br.byte_align();
  res.work.bits += br.bit_position() - start_bits;
  // Stream-buffer reads for this slice, in 8-byte units.
  if (sink) {
    const std::uint64_t from = start_bits / 8;
    const std::uint64_t to = br.bit_position() / 8;
    for (std::uint64_t a = from & ~7ull; a < to; a += 8) {
      sink->on_ref({trace_layout::kStreamBase + a, 8,
                    static_cast<std::uint16_t>(proc), false});
    }
  }
  res.ok = !br.overrun();
  return res;
}

}  // namespace pmp2::mpeg2
