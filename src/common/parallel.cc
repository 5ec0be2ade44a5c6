#include "common/parallel.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace adamel {
namespace {

// True while the current thread executes chunks of some ParallelFor call
// (worker or participating caller). Nested calls run inline.
thread_local bool tls_in_parallel_region = false;

// One in-flight ParallelFor. Chunk boundaries are a pure function of
// (begin, grain, num_chunks); workers claim chunk indices with a fetch-add.
struct Job {
  // The chunk geometry and body are immutable for the lifetime of a job —
  // workers read them freely without any lock.
  const int64_t begin;
  const int64_t end;
  const int64_t grain;
  const int64_t num_chunks;
  const std::function<void(int64_t, int64_t)>* const fn;
  std::atomic<int64_t> next_chunk{0};
  std::atomic<bool> failed{false};
  Mutex error_mutex{};
  std::exception_ptr error ADAMEL_GUARDED_BY(error_mutex){};
};

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int EnvThreads() {
  const char* env = std::getenv("ADAMEL_NUM_THREADS");
  if (env == nullptr || *env == '\0') {
    return 0;
  }
  const int value = std::atoi(env);
  return value >= 1 ? value : 0;
}

class ThreadPool {
 public:
  // Leaked singleton: worker threads must never be joined from static
  // destructors (they may hold the mutex while the program exits).
  static ThreadPool& Instance() {
    // adamel-lint: allow-next-line(raw-new) -- intentional leaky singleton
    static ThreadPool* pool = new ThreadPool();
    return *pool;
  }

  int num_threads() ADAMEL_EXCLUDES(config_mutex_) {
    MutexLock lock(config_mutex_);
    return ResolvedThreadsLocked();
  }

  void SetNumThreads(int n) ADAMEL_EXCLUDES(config_mutex_) {
    MutexLock lock(config_mutex_);
    override_threads_ = n >= 1 ? n : 0;
    // Tear down workers so the next ParallelFor respawns the right number.
    StopWorkersLocked();
  }

  void Run(int64_t begin, int64_t end, int64_t grain,
           const std::function<void(int64_t, int64_t)>& fn)
      ADAMEL_EXCLUDES(config_mutex_, job_mutex_) {
    const int64_t g = grain < 1 ? 1 : grain;
    const int64_t chunks = ParallelChunkCount(begin, end, g);
    if (chunks == 0) {
      return;
    }
    if (tls_in_parallel_region || chunks == 1) {
      RunSerial(begin, end, g, fn);
      return;
    }
    if (!config_mutex_.TryLock()) {
      // Another thread's ParallelFor owns the pool; degrade to serial rather
      // than blocking — the pool has no spare capacity anyway.
      RunSerial(begin, end, g, fn);
      return;
    }
    ReleasableMutexLock config_lock(config_mutex_, kAdoptLock);
    const int threads = ResolvedThreadsLocked();
    if (threads <= 1) {
      config_lock.Release();
      RunSerial(begin, end, g, fn);
      return;
    }
    EnsureWorkersLocked(threads - 1);

    Job job{begin, end, g, chunks, &fn};
    {
      MutexLock lock(job_mutex_);
      job_ = &job;
      ++generation_;
    }
    work_cv_.NotifyAll();

    // The caller participates as one more worker.
    ProcessChunks(&job);

    // Wait for every worker that joined the job to leave it before the Job
    // (a stack object) goes out of scope.
    {
      MutexLock lock(job_mutex_);
      done_cv_.Wait(job_mutex_, [this]() ADAMEL_REQUIRES(job_mutex_) {
        return active_workers_ == 0;
      });
      job_ = nullptr;
    }
    // Workers are gone (active_workers_ == 0), but read the error under its
    // mutex anyway so the GUARDED_BY contract holds unconditionally.
    std::exception_ptr error;
    {
      MutexLock lock(job.error_mutex);
      error = job.error;
    }
    if (error) {
      std::rethrow_exception(error);
    }
  }

 private:
  ThreadPool() = default;

  int ResolvedThreadsLocked() ADAMEL_REQUIRES(config_mutex_) {
    if (override_threads_ >= 1) {
      return override_threads_;
    }
    const int env = EnvThreads();
    return env >= 1 ? env : HardwareThreads();
  }

  static void RunSerial(int64_t begin, int64_t end, int64_t grain,
                        const std::function<void(int64_t, int64_t)>& fn) {
    // The serial fallback iterates the *same* chunks in ascending order so
    // chunk-slot reductions are bitwise identical to any parallel schedule.
    const bool was_in_region = tls_in_parallel_region;
    tls_in_parallel_region = true;
    for (int64_t lo = begin; lo < end; lo += grain) {
      const int64_t hi = lo + grain < end ? lo + grain : end;
      fn(lo, hi);
    }
    tls_in_parallel_region = was_in_region;
  }

  void ProcessChunks(Job* job) {
    const bool was_in_region = tls_in_parallel_region;
    tls_in_parallel_region = true;
    for (;;) {
      const int64_t c = job->next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= job->num_chunks) {
        break;
      }
      if (job->failed.load(std::memory_order_acquire)) {
        continue;  // drain remaining chunks without running them
      }
      const int64_t lo = job->begin + c * job->grain;
      const int64_t hi =
          lo + job->grain < job->end ? lo + job->grain : job->end;
      try {
        (*job->fn)(lo, hi);
      } catch (...) {
        MutexLock lock(job->error_mutex);
        if (!job->error) {
          job->error = std::current_exception();
        }
        job->failed.store(true, std::memory_order_release);
      }
    }
    tls_in_parallel_region = was_in_region;
  }

  void WorkerLoop() ADAMEL_EXCLUDES(job_mutex_) {
    uint64_t seen_generation = 0;
    for (;;) {
      Job* job = nullptr;
      {
        MutexLock lock(job_mutex_);
        work_cv_.Wait(job_mutex_,
                      [this, seen_generation]() ADAMEL_REQUIRES(job_mutex_) {
                        return shutdown_ || generation_ != seen_generation;
                      });
        if (shutdown_) {
          return;
        }
        seen_generation = generation_;
        job = job_;
        if (job != nullptr) {
          ++active_workers_;
        }
      }
      if (job == nullptr) {
        continue;  // woke after the caller already retired the job
      }
      ProcessChunks(job);
      {
        MutexLock lock(job_mutex_);
        --active_workers_;
      }
      done_cv_.NotifyAll();
    }
  }

  void EnsureWorkersLocked(int count) ADAMEL_REQUIRES(config_mutex_) {
    if (static_cast<int>(workers_.size()) == count) {
      return;
    }
    StopWorkersLocked();
    {
      MutexLock lock(job_mutex_);
      shutdown_ = false;
    }
    workers_.reserve(count);
    for (int i = 0; i < count; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void StopWorkersLocked() ADAMEL_REQUIRES(config_mutex_) {
    if (workers_.empty()) {
      return;
    }
    {
      MutexLock lock(job_mutex_);
      shutdown_ = true;
    }
    work_cv_.NotifyAll();
    for (std::thread& worker : workers_) {
      worker.join();
    }
    workers_.clear();
  }

  // Serializes pool configuration and job submission (one job at a time).
  // Rank 4 in the lock hierarchy (DESIGN.md §8.4): acquired before
  // job_mutex_ on every path that holds both.
  Mutex config_mutex_ ADAMEL_ACQUIRED_BEFORE(job_mutex_);
  int override_threads_ ADAMEL_GUARDED_BY(config_mutex_) = 0;
  std::vector<std::thread> workers_ ADAMEL_GUARDED_BY(config_mutex_);

  // Job hand-off state (rank 5, leaf).
  Mutex job_mutex_;
  CondVar work_cv_;
  CondVar done_cv_;
  Job* job_ ADAMEL_GUARDED_BY(job_mutex_) = nullptr;
  uint64_t generation_ ADAMEL_GUARDED_BY(job_mutex_) = 0;
  int active_workers_ ADAMEL_GUARDED_BY(job_mutex_) = 0;
  bool shutdown_ ADAMEL_GUARDED_BY(job_mutex_) = false;
};

}  // namespace

int NumThreads() { return ThreadPool::Instance().num_threads(); }

bool InParallelRegion() { return tls_in_parallel_region; }

void SetNumThreads(int n) { ThreadPool::Instance().SetNumThreads(n); }

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  ThreadPool::Instance().Run(begin, end, grain, fn);
}

}  // namespace adamel
