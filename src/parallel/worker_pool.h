// Worker-thread ownership for the DecodeServer engine (src/serve), whose
// one pool outlives many sessions: WorkerPool owns the threads and
// nothing else. The work loop, and the scheduling policy in it, stays with
// the caller.
//
// Lifetime: join() (or the destructor) blocks until every worker body
// returned. The pool never injects a stop signal of its own — the body is
// responsible for terminating its loop.
#pragma once

#include <functional>
#include <thread>
#include <utility>
#include <vector>

namespace pmp2::parallel {

class WorkerPool {
 public:
  /// Body of one worker: called once per thread with the worker index
  /// [0, workers); the thread exits when it returns.
  using WorkerBody = std::function<void(int worker)>;

  WorkerPool() = default;

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Spawns the threads (idle pool only — join() any previous generation
  /// first).
  void start(int workers, WorkerBody body);

  /// Blocks until every worker body returned, then releases the threads.
  /// Idempotent; called by the destructor.
  void join();

  ~WorkerPool() { join(); }

 private:
  std::vector<std::jthread> threads_;
};

}  // namespace pmp2::parallel
