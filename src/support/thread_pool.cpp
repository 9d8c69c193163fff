#include "cinderella/support/thread_pool.hpp"

#include "cinderella/support/error.hpp"
#include "cinderella/support/fault_injector.hpp"

namespace cinderella::support {

int ThreadPool::hardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int threads) {
  const int n = threads > 0 ? threads : hardwareThreads();
  queues_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkDeque>());
  }
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back(
        [this, i] { workerLoop(static_cast<std::size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  workCv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  CIN_REQUIRE(task != nullptr);
  std::size_t target;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    CIN_REQUIRE(!stop_);
    target = nextQueue_++ % queues_.size();
  }
  {
    const std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  // The task is visible in its deque before the availability count rises,
  // so a worker that claims a slot is guaranteed to find work somewhere.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++available_;
    ++unfinished_;
  }
  workCv_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  idleCv_.wait(lock, [&] { return unfinished_ == 0; });
}

bool ThreadPool::popOrSteal(std::size_t self, std::function<void()>* task) {
  {
    WorkDeque& own = *queues_[self];
    const std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      *task = std::move(own.tasks.back());
      own.tasks.pop_back();
      return true;
    }
  }
  for (std::size_t i = 1; i < queues_.size(); ++i) {
    WorkDeque& victim = *queues_[(self + i) % queues_.size()];
    {
      const std::lock_guard<std::mutex> lock(victim.mutex);
      if (victim.tasks.empty()) continue;
      *task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
    }
    return true;
  }
  return false;
}

void ThreadPool::workerLoop(std::size_t self) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      workCv_.wait(lock, [&] { return stop_ || available_ > 0; });
      if (available_ == 0) return;  // stop requested, queues drained
      --available_;
    }
    std::function<void()> task;
    // A claimed slot guarantees a task exists, but a sibling that also
    // claimed one may empty the deque we scan first; retry until found.
    while (!popOrSteal(self, &task)) std::this_thread::yield();
    // Fault-injection seam: drop the claimed task on the floor (it still
    // counts as finished, so wait() returns).  Emulates a lost solve task;
    // callers must detect the hole themselves — see analyzer.cpp.
    FaultInjector* const injector = faultInjector();
    const bool dropped =
        injector != nullptr && injector->shouldFault(FaultSite::ThreadPoolTask);
    if (!dropped) task();
    task = nullptr;  // destroy the closure before reporting completion
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--unfinished_ == 0) idleCv_.notify_all();
    }
  }
}

}  // namespace cinderella::support
