#include "parallel/display.h"

#include <chrono>

#include "obs/live/telemetry.h"

namespace pmp2::parallel {

void DisplaySink::push(mpeg2::FramePtr frame) {
  const std::uint64_t digest = frame_digest(*frame);
  const int index = frame->display_index;
  std::unique_lock lock(mutex_);
  pending_.emplace(index, Pending{std::move(frame), digest});
  max_buffered_ = std::max(max_buffered_, pending_.size());
  if (emitting_) return;  // the active emitter will drain what we added
  emitting_ = true;
  while (!pending_.empty() && pending_.begin()->first == next_) {
    mpeg2::FramePtr f = std::move(pending_.begin()->second.frame);
    checksum_ = chain_digest(checksum_, pending_.begin()->second.digest);
    pending_.erase(pending_.begin());
    ++next_;
    if (live_) {
      // mutex_ serializes every writer of the display cell, satisfying
      // the seqlock's single-logical-writer requirement.
      obs::live::TelemetryCell::Write w(live_->display());
      w.add_pictures().set_last_progress_ns(live_->now_ns());
    }
    // Emit without the lock (the callback may be slow). The emitting_ flag
    // guarantees a single emitter, so callbacks stay in display order.
    lock.unlock();
    if (on_frame_) on_frame_(std::move(f));
    f.reset();
    lock.lock();
  }
  emitting_ = false;
  if (total_known_ && next_ >= total_) done_cv_.notify_all();
}

void DisplaySink::wait_done() {
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [this] { return total_known_ && next_ >= total_; });
}

int DisplaySink::emitted() {
  const std::scoped_lock lock(mutex_);
  return next_;
}

bool DisplaySink::wait_done_for(std::int64_t timeout_ns) {
  if (timeout_ns <= 0) {
    wait_done();
    return true;
  }
  std::unique_lock lock(mutex_);
  // Progress-based deadline: the clock restarts whenever another picture
  // is emitted, so a slow-but-advancing run never trips it — only a
  // pipeline that stopped delivering entirely does.
  int last_next = next_;
  for (;;) {
    if (total_known_ && next_ >= total_) return true;
    if (done_cv_.wait_for(lock, std::chrono::nanoseconds(timeout_ns)) ==
        std::cv_status::timeout) {
      if (next_ == last_next) return false;
    }
    last_next = next_;
  }
}

}  // namespace pmp2::parallel
