// The display process of the paper's Fig. 4: receives decoded pictures in
// completion order (possibly out of display order), reorders them by
// display index, and emits them in order. Dithering is excluded, as in the
// paper's measurements.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>

#include "mpeg2/frame.h"
#include "parallel/stats.h"

namespace pmp2::obs::live {
class LiveTelemetry;
}

namespace pmp2::parallel {

using FrameCallback = std::function<void(mpeg2::FramePtr)>;

class DisplaySink {
 public:
  /// `on_frame` may be empty; frames are then just checksummed + released.
  /// It runs on whichever pushing thread is emitting, without the lock.
  DisplaySink(int total_pictures, FrameCallback on_frame)
      : total_(total_pictures),
        total_known_(true),
        on_frame_(std::move(on_frame)) {}

  /// Streaming form: the picture count is unknown (the engine's scan
  /// tasks index the stream as it decodes), so only emitted() tells how
  /// far the display got; wait_done() is for the counted form.
  explicit DisplaySink(FrameCallback on_frame)
      : on_frame_(std::move(on_frame)) {}

  /// Thread-safe: inserts a completed picture (display_index must be set)
  /// and emits every picture that is now next in display order. The
  /// caller computes the frame's frame_digest() before taking the lock,
  /// so hashing runs in parallel on the decoding workers and the emitter
  /// only chains one stored value per picture. The frame must not be
  /// written after it is pushed. Emission happens on the calling thread
  /// while holding no lock on the reorder map's entries beyond removal.
  void push(mpeg2::FramePtr frame);

  /// Blocks until all pictures have been emitted.
  void wait_done();

  /// Deadline form: returns false if no picture was emitted for
  /// `timeout_ns` while pictures are still owed — the display-side
  /// watchdog of the bounded-recovery layer. timeout_ns <= 0 waits
  /// forever (and returns true).
  [[nodiscard]] bool wait_done_for(std::int64_t timeout_ns);

  /// Final digest over the emitted sequence (valid after wait_done()).
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }

  /// Maximum number of pictures that were buffered waiting for reordering.
  [[nodiscard]] std::size_t max_buffered() const { return max_buffered_; }

  /// Live telemetry surface: the display cell is bumped per emitted
  /// picture (writes serialized by this sink's mutex). Null = no cost.
  void set_live(obs::live::LiveTelemetry* live) { live_ = live; }

  /// Pictures emitted in display order so far (hang evidence).
  [[nodiscard]] int emitted();

 private:
  int total_ = 0;
  bool total_known_ = false;
  FrameCallback on_frame_;
  std::mutex mutex_;
  std::condition_variable done_cv_;
  struct Pending {
    mpeg2::FramePtr frame;
    std::uint64_t digest = 0;  // frame_digest(*frame), taken by the pusher
  };
  std::map<int, Pending> pending_;          // guarded by mutex_
  int next_ = 0;                            // guarded by mutex_
  bool emitting_ = false;                   // guarded by mutex_
  std::uint64_t checksum_ = 0;              // guarded by mutex_
  std::size_t max_buffered_ = 0;            // guarded by mutex_
  obs::live::LiveTelemetry* live_ = nullptr;
};

}  // namespace pmp2::parallel
