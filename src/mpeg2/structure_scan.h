// Incremental stream-structure scanner: the streaming form of
// scan_structure (decoder.h).
//
// scan_structure walks the whole stream before any decode can start, which
// puts the full scan on the serial prefix of the pipeline (the Amdahl term
// behind the paper's Fig. 5 ceiling). StructureScanner yields the same
// GOP/picture/slice index one GOP at a time, so the scan process can
// enqueue GOP task k while workers already decode tasks 0..k-1:
//
//   StructureScanner scan(stream);
//   if (!scan.scan_preamble()) ...      // sequence header (+ extension)
//   GopInfo gop;
//   while (scan.next_gop(gop)) enqueue(gop);
//   if (scan.failed()) ...              // malformed stream
//
// The produced sequence of GopInfo values is byte-identical to
// scan_structure's `gops` vector (scan_structure is reimplemented on top of
// this class), with one streaming caveat: header state (sequence extension,
// hence mpeg1()) reflects only the bytes consumed so far. Streams that
// introduce their sequence extension after the first GOP header — none do
// in practice; the extension must follow its sequence header — would be
// classified MPEG-1 by a consumer that reads mpeg1() right after
// scan_preamble() but MPEG-2 by the full scan.
#pragma once

#include <cstdint>
#include <span>

#include "bitstream/demux.h"
#include "mpeg2/decoder.h"

namespace pmp2::mpeg2 {

class StructureScanner {
 public:
  explicit StructureScanner(std::span<const std::uint8_t> stream)
      : stream_(stream), demux_(stream) {}

  /// Consumes units up to and including the first GOP header: sequence
  /// header, extensions, user data. Returns true when a sequence header
  /// was parsed, a GOP header follows, and (for MPEG-2) the chroma format
  /// is the supported 4:2:0 — the streaming equivalent of
  /// StreamStructure::valid. On false, failed() distinguishes a parse
  /// error / unsupported format from a stream that simply ends first.
  bool scan_preamble();

  /// Yields the next complete GOP, with pictures, slices and end_offset
  /// filled exactly as scan_structure would. Returns false at end of
  /// stream or on a malformed stream (check failed()). When the failure
  /// struck mid-GOP (failed_in_gop()), `out` holds the partial GOP indexed
  /// so far — scan_structure keeps it, matching the seed scanner's partial
  /// output on malformed streams.
  bool next_gop(GopInfo& out);

  /// After a failure: skips to the next group start code whose GOP header
  /// parses and clears the failure, so next_gop() yields that GOP — or,
  /// when none is left, reports a clean end of stream. Lets a consumer
  /// that quarantines damaged GOPs lose only the GOP the damage hit.
  void resync();

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] bool failed_in_gop() const { return failed_in_gop_; }
  [[nodiscard]] const SequenceHeader& seq() const { return seq_; }
  [[nodiscard]] const SequenceExtension& ext() const { return ext_; }
  [[nodiscard]] bool have_seq() const { return have_seq_; }
  /// True while no sequence extension has been seen (ISO 11172-2 stream).
  [[nodiscard]] bool mpeg1() const { return !have_seq_ext_; }
  [[nodiscard]] int mb_width() const {
    return (seq_.horizontal_size + 15) / 16;
  }
  [[nodiscard]] int mb_height() const {
    return (seq_.vertical_size + 15) / 16;
  }
  /// Bytes the scan has consumed so far (for progress/scan-span tracing).
  [[nodiscard]] std::uint64_t position() const { return demux_.position(); }

 private:
  /// Handles one unit seen outside any GOP (before the first or between
  /// two). Sets pending_* on a GOP header. False on parse error.
  bool handle_gap_unit(const DemuxUnit& u);

  std::span<const std::uint8_t> stream_;
  StreamDemux demux_;
  SequenceHeader seq_;
  SequenceExtension ext_;
  bool have_seq_ = false;
  bool have_seq_ext_ = false;
  bool failed_ = false;
  bool failed_in_gop_ = false;
  // A GOP header has been consumed but its GOP not yet returned.
  bool have_pending_gop_ = false;
  std::uint64_t pending_offset_ = 0;
  bool pending_closed_ = true;
};

}  // namespace pmp2::mpeg2
