#include "rt/pool.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "diag/error.h"
#include "diag/warnings.h"
#include "run/control.h"

namespace rlcx::rt {

namespace {

// Depth of pool-task execution / SerialRegion nesting on this thread.
thread_local int t_region_depth = 0;

struct RegionGuard {
  RegionGuard() noexcept { ++t_region_depth; }
  ~RegionGuard() { --t_region_depth; }
};

}  // namespace

bool in_parallel_region() noexcept { return t_region_depth > 0; }

SerialRegion::SerialRegion() noexcept { ++t_region_depth; }
SerialRegion::~SerialRegion() { --t_region_depth; }

struct Pool::Task {
  std::function<void()> fn;
  TaskGroup* group = nullptr;
  // The submitting thread's ambient run control, adopted for the task
  // body so checkpoints inside fanned-out work observe the driver that
  // spawned it (valid for the task's lifetime: the driver's scope must
  // outlive the parallel region — see run/control.h).
  const void* ambient = nullptr;
};

// All queues share one mutex: the pool schedules coarse tasks (a 2-trace
// field solve, a matrix row, one frequency point), so queue traffic is
// orders of magnitude rarer than the work it dispatches and a single lock
// is both contention-free in practice and trivially race-free.  The
// per-worker deques still give work-stealing semantics: owners consume
// from the front of their own queue, thieves take from the back of the
// fullest other queue.
struct Pool::Impl {
  std::mutex m;
  std::condition_variable cv;
  std::vector<std::deque<Task>> queues;  // one per worker
  std::vector<std::thread> workers;
  std::atomic<std::size_t> next_queue{0};
  bool stop = false;

  // Pops a task for `self` (own queue first, then steal); SIZE_MAX means
  // any queue (external helper).  Caller holds `m`.
  bool pop_locked(std::size_t self, Task& out) {
    if (self < queues.size() && !queues[self].empty()) {
      out = std::move(queues[self].front());
      queues[self].pop_front();
      return true;
    }
    std::size_t victim = queues.size();
    std::size_t best = 0;
    for (std::size_t q = 0; q < queues.size(); ++q) {
      if (q != self && queues[q].size() > best) {
        best = queues[q].size();
        victim = q;
      }
    }
    if (victim == queues.size()) return false;
    out = std::move(queues[victim].back());
    queues[victim].pop_back();
    return true;
  }
};

void Pool::run_task(Task& task) {
  RegionGuard in_region;
  run::detail::ScopedAmbientAdopt adopt(task.ambient);
  std::exception_ptr error;
  try {
    task.fn();
  } catch (...) {
    error = std::current_exception();
  }
  // Release the closure's captures before the group can observe completion:
  // once task_done returns, the waiter may already have moved on.
  task.fn = nullptr;
  if (task.group != nullptr) task.group->task_done(std::move(error));
}

void Pool::worker_main(Impl* impl, std::size_t index) {
  std::unique_lock<std::mutex> lock(impl->m);
  while (true) {
    Task task;
    if (impl->pop_locked(index, task)) {
      lock.unlock();
      run_task(task);
      lock.lock();
      continue;
    }
    if (impl->stop) return;
    impl->cv.wait(lock);
  }
}

Pool::Pool(int threads) : impl_(std::make_unique<Impl>()) {
  if (threads < 0)
    throw diag::UsageError(
        "rt", "Pool: thread count must be >= 0, got " +
                  std::to_string(threads) + " (0 = RLCX_THREADS/hardware)");
  if (threads == 0) threads = default_threads();
  impl_->queues.resize(static_cast<std::size_t>(threads));
  impl_->workers.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    impl_->workers.emplace_back(worker_main, impl_.get(),
                                static_cast<std::size_t>(i));
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (std::thread& w : impl_->workers) w.join();
}

int Pool::size() const noexcept {
  return static_cast<int>(impl_->workers.size());
}

void Pool::submit(TaskGroup* group, std::function<void()> fn) {
  const std::size_t q = impl_->next_queue.fetch_add(
                            1, std::memory_order_relaxed) %
                        impl_->queues.size();
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->queues[q].push_back(
        Task{std::move(fn), group, run::detail::ambient_snapshot()});
  }
  impl_->cv.notify_one();
}

bool Pool::try_run_one() {
  Task task;
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    if (!impl_->pop_locked(impl_->queues.size(), task)) return false;
  }
  run_task(task);
  return true;
}

int Pool::default_threads() {
  if (const char* env = std::getenv("RLCX_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 4096)
      return static_cast<int>(v);
    diag::emit_warning(diag::Category::kUsage, "rt",
                       "ignoring malformed RLCX_THREADS=\"" +
                           std::string(env) +
                           "\" (expected an integer in [1, 4096]); using "
                           "hardware concurrency");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace {

struct GlobalPool {
  std::mutex m;
  std::unique_ptr<Pool> pool;  // joined at static destruction
  int override_threads = 0;

  static GlobalPool& instance() {
    static GlobalPool g;
    return g;
  }
};

}  // namespace

Pool& Pool::global() {
  GlobalPool& g = GlobalPool::instance();
  std::lock_guard<std::mutex> lock(g.m);
  if (!g.pool) g.pool = std::make_unique<Pool>(g.override_threads);
  return *g.pool;
}

void Pool::set_global_threads(int threads) {
  if (threads < 0)
    throw diag::UsageError(
        "rt", "set_global_threads: thread count must be >= 0, got " +
                  std::to_string(threads));
  GlobalPool& g = GlobalPool::instance();
  std::lock_guard<std::mutex> lock(g.m);
  g.override_threads = threads;
  const int want = threads > 0 ? threads : default_threads();
  if (g.pool && g.pool->size() != want) g.pool.reset();
  if (!g.pool) g.pool = std::make_unique<Pool>(want);
}

struct TaskGroup::Impl {
  Pool& pool;
  std::atomic<std::size_t> pending{0};
  std::mutex m;
  std::condition_variable cv;
  std::exception_ptr first_error;  // guarded by m

  explicit Impl(Pool& p) : pool(p) {}
};

TaskGroup::TaskGroup(Pool& pool) : impl_(std::make_unique<Impl>(pool)) {}

TaskGroup::~TaskGroup() { wait_no_throw(); }

void TaskGroup::run(std::function<void()> fn) {
  if (in_parallel_region()) {
    // Called from inside a pool task: enqueueing could deadlock a
    // fully-busy pool waiting on itself, so nested groups run inline.
    fn();
    return;
  }
  impl_->pending.fetch_add(1, std::memory_order_acq_rel);
  impl_->pool.submit(this, std::move(fn));
}

void TaskGroup::task_done(std::exception_ptr error) {
  // Decrement and notify under the group mutex.  wait() takes the same
  // mutex after it sees pending == 0, so it cannot return — and the group
  // cannot be destroyed — until this call has released the lock and stopped
  // touching *impl_.  Decrementing before locking let the last worker race
  // the group's destructor to the mutex.
  std::lock_guard<std::mutex> lock(impl_->m);
  if (error && !impl_->first_error) impl_->first_error = std::move(error);
  if (impl_->pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
    impl_->cv.notify_all();
}

void TaskGroup::wait() {
  while (impl_->pending.load(std::memory_order_acquire) != 0) {
    // Help: execute queued tasks (ours or anyone's) instead of idling.
    if (impl_->pool.try_run_one()) continue;
    // Queues are empty; our remaining tasks are running on workers.
    std::unique_lock<std::mutex> lock(impl_->m);
    impl_->cv.wait(lock, [this] {
      return impl_->pending.load(std::memory_order_acquire) == 0;
    });
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    error = std::move(impl_->first_error);
    impl_->first_error = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void TaskGroup::wait_no_throw() noexcept {
  try {
    wait();
  } catch (...) {
    // Destructor path: the error was never observed; drop it.
  }
}

}  // namespace rlcx::rt
