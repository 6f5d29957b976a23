// Per-worker event tracer for the parallel decoders and the virtual-time
// scheduler simulator.
//
// Each worker (plus the scan/display processes) owns one fixed-capacity
// ring-buffered track and emits closed spans — begin/end timestamp, task
// kind, picture/slice/GOP ids — with no locking on the hot path: a track
// has exactly one writer, and readers only run after the workers have
// joined (or, for the simulator, after the single-threaded run returns).
//
// Null-sink discipline (same as mpeg2::TraceSink): every decoder hook is a
// plain `if (tracer)` pointer test, so an untraced decode pays one
// predictable branch per task and nothing else.
//
// Timestamps are int64 nanoseconds relative to an arbitrary epoch: the real
// decoders use Tracer::now_ns() (wall time since tracer construction); the
// sched simulator feeds its deterministic virtual clock straight in, which
// is what makes two identical sim runs export byte-identical JSON.
//
// The exporter writes the Chrome trace_event format (JSON object with a
// "traceEvents" array of "X" complete events), loadable directly in
// chrome://tracing or https://ui.perfetto.dev.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/timer.h"

namespace pmp2::obs {

enum class SpanKind : std::uint8_t {
  kScan,       // startcode scan pass
  kGopTask,    // one GOP task (coarse-grained decoder)
  kSliceTask,  // one slice task (fine-grained decoder)
  kPicture,    // one picture inside a GOP task
  kSyncWait,   // blocked, cause unknown (legacy/unclassified)
  kDisplay,    // display-order emission
  kConceal,    // error concealment of a corrupt slice
  // Classified blocked time, the buckets of the analyzer's blocked-time
  // decomposition (docs/ANALYSIS.md):
  kQueueWait,     // consumer side: task queue empty (scan not ahead yet,
                  // or the stream has fewer tasks than workers)
  kBarrierWait,   // blocked on a data dependency / picture barrier
  kBackpressure,  // the slice simulation's open-picture bound reached
                  // (memory backpressure)
};

/// Stable lower-case name ("slice", "wait", "wait.queue", ...) used as the
/// event name prefix and the Chrome "cat" field.
[[nodiscard]] const char* span_kind_name(SpanKind kind);

/// True for the blocked-time kinds (kSyncWait and the classified waits).
[[nodiscard]] bool span_kind_is_wait(SpanKind kind);

/// Binary journal framing (shared with the obs::analysis loader). Fields
/// are written in host byte order; the magic doubles as the format sniffer
/// (a Chrome trace starts with '{').
inline constexpr char kJournalMagic[8] = {'P', 'M', 'P', '2',
                                          'J', 'R', 'N', 'L'};
inline constexpr std::uint32_t kJournalVersion = 1;

/// One closed span. 40 bytes; a track ring of the default capacity holds
/// the most recent ~32k spans per worker (~1.3 MiB).
struct Span {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t picture = -1;  // decode-order picture id (-1 = n/a)
  std::int32_t slice = -1;    // slice ordinal within the picture
  std::int32_t gop = -1;      // GOP ordinal within the stream
  SpanKind kind = SpanKind::kSliceTask;
};

/// Fixed-capacity single-writer span ring. On overflow the oldest spans are
/// overwritten (the tail of a run is what post-mortem debugging needs) and
/// the drop is counted.
class TraceTrack {
 public:
  explicit TraceTrack(std::size_t capacity) : capacity_(capacity) {
    ring_.reserve(capacity_ < 1024 ? capacity_ : 1024);
  }

  void emit(const Span& span) {
    if (ring_.size() < capacity_) {
      ring_.push_back(span);
    } else {
      ring_[static_cast<std::size_t>(emitted_ % capacity_)] = span;
    }
    ++emitted_;
  }

  /// Total spans ever emitted, including overwritten ones.
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return emitted_ > capacity_ ? emitted_ - capacity_ : 0;
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Retained spans, oldest first (unwraps the ring).
  [[nodiscard]] std::vector<Span> spans() const;

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  std::vector<Span> ring_;
  std::size_t capacity_;
  std::uint64_t emitted_ = 0;
  std::string name_;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 15;

  /// `tracks` is fixed at construction: decoders use one per worker plus
  /// one for the scan process (track index == worker count).
  explicit Tracer(int tracks, std::size_t capacity_per_track = kDefaultCapacity);

  [[nodiscard]] int tracks() const { return static_cast<int>(tracks_.size()); }
  [[nodiscard]] TraceTrack& track(int i) {
    return tracks_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const TraceTrack& track(int i) const {
    return tracks_[static_cast<std::size_t>(i)];
  }

  /// Wall-clock nanoseconds since construction (the trace epoch). Safe to
  /// call from any thread.
  [[nodiscard]] std::int64_t now_ns() const { return timer_.elapsed_ns(); }

  /// Records one closed span on `track`. Single writer per track; the
  /// caller supplies both timestamps (wall or virtual).
  void emit(int track, SpanKind kind, std::int64_t begin_ns,
            std::int64_t end_ns, int picture = -1, int slice = -1,
            int gop = -1) {
    Span span;
    span.begin_ns = begin_ns;
    span.end_ns = end_ns;
    span.picture = picture;
    span.slice = slice;
    span.gop = gop;
    span.kind = kind;
    tracks_[static_cast<std::size_t>(track)].emit(span);
  }

  [[nodiscard]] std::uint64_t total_spans() const;
  [[nodiscard]] std::uint64_t total_dropped() const;

  /// Writes the whole trace as a Chrome trace_event JSON object. Output is
  /// a pure function of the recorded spans and track names — byte-identical
  /// across runs when the spans are (the sim determinism guarantee). Drop
  /// accounting is exported per track ("dropped" in each thread_name
  /// metadata event plus a top-level "droppedByTrack" array) and in total
  /// ("droppedSpans").
  void write_chrome_trace(std::ostream& os) const;

  /// Convenience: writes the Chrome JSON to `path`; false on I/O error.
  [[nodiscard]] bool write_chrome_trace_file(const std::string& path) const;

  /// Writes the compact binary span journal (magic "PMP2JRNL", version 1):
  /// the lossless machine-readable twin of the Chrome export, ~29 bytes per
  /// span. Loaded by obs::analysis::load_journal / tools/pmp2_analyze.
  void write_journal(std::ostream& os) const;

  /// Convenience: writes the journal to `path`; false on I/O error.
  [[nodiscard]] bool write_journal_file(const std::string& path) const;

 private:
  std::vector<TraceTrack> tracks_;
  WallTimer timer_;
};

/// RAII span: samples begin at construction, emits at destruction. A null
/// tracer makes both ends no-ops.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, int track, SpanKind kind, int picture = -1,
            int slice = -1, int gop = -1)
      : tracer_(tracer),
        track_(track),
        picture_(picture),
        slice_(slice),
        gop_(gop),
        kind_(kind) {
    if (tracer_) begin_ns_ = tracer_->now_ns();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (tracer_) {
      tracer_->emit(track_, kind_, begin_ns_, tracer_->now_ns(), picture_,
                    slice_, gop_);
    }
  }

 private:
  Tracer* tracer_;
  std::int64_t begin_ns_ = 0;
  int track_;
  int picture_, slice_, gop_;
  SpanKind kind_;
};

}  // namespace pmp2::obs
