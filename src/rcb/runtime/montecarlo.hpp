// Parallel Monte-Carlo trial runner.
//
// Each trial gets an independent, deterministically derived RNG stream, so
// results are bit-identical regardless of thread count or scheduling.
// Trials run on the pool's workers only, so a pool of k threads keeps k
// threads busy.  run_trials may be called from inside a pool task: it
// blocks on a completion latch and a blocked worker helps execute pool
// work, so nested use cannot deadlock (see thread_pool.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "rcb/common/contracts.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/runtime/thread_pool.hpp"
#include "rcb/sim/engine_workspace.hpp"

namespace rcb {

/// Thrown by run_trials when a trial function throws: names the failing
/// trial index (the what() string carries it too) and keeps the original
/// exception for rethrow.  An exception escaping a pool task would
/// otherwise std::terminate the process without saying which trial died.
class TrialFailure : public std::runtime_error {
 public:
  TrialFailure(std::uint64_t trial, const std::string& what,
               std::exception_ptr nested)
      : std::runtime_error("trial " + std::to_string(trial) +
                           " failed: " + what),
        trial_(trial),
        nested_(std::move(nested)) {}

  std::uint64_t trial() const { return trial_; }
  /// The original exception; rethrow with std::rethrow_exception.
  const std::exception_ptr& nested() const { return nested_; }

 private:
  std::uint64_t trial_;
  std::exception_ptr nested_;
};

namespace detail {

inline std::string describe_exception(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace detail

/// Runs `trials` executions of fn(trial_index, rng) on `pool` and collects
/// the results in trial order.  Result must be default-constructible.
/// `chunk_hint` is forwarded to parallel_for_chunks (0 = auto).
///
/// Workers accumulate into a chunk-local buffer and copy out once per
/// chunk: adjacent Result slots of the shared vector share cache lines, so
/// writing them directly from different threads as trials complete would
/// false-share and serialize the (often tiny) per-trial result stores.
///
/// If a trial throws, the remaining trials are abandoned cooperatively
/// (each chunk checks a shared flag between trials), an RCB_REPRO record
/// naming (master_seed, trial) is emitted to stderr, and the first failure
/// is rethrown as TrialFailure once every in-flight chunk has drained.
template <typename Result, typename Fn>
std::vector<Result> run_trials(std::size_t trials, std::uint64_t master_seed,
                               Fn&& fn, ThreadPool& pool = ThreadPool::global(),
                               std::size_t chunk_hint = 0) {
  std::vector<Result> results(trials);
  std::atomic<bool> failed{false};
  std::mutex failure_mutex;
  std::exception_ptr first_failure;
  std::uint64_t failed_trial = 0;
  std::string failure_what;
  parallel_for_chunks(
      pool, 0, trials,
      [&](std::size_t lo, std::size_t hi) {
        std::vector<Result> local;
        local.reserve(hi - lo);
        for (std::size_t t = lo; t < hi; ++t) {
          if (failed.load(std::memory_order_relaxed)) break;
          try {
            Rng rng = Rng::stream(master_seed, t);
            // Trial boundary: rewind this thread's engine arena so the
            // trial's scratch state replays from the same addresses.
            engine_workspace_begin_trial();
            local.push_back(fn(t, rng));
          } catch (...) {
            std::lock_guard<std::mutex> lock(failure_mutex);
            if (first_failure == nullptr) {
              first_failure = std::current_exception();
              failed_trial = t;
              failure_what = detail::describe_exception(first_failure);
              ReproContext ctx;
              ctx.master_seed = master_seed;
              ctx.trial = t;
              std::fprintf(stderr, "RCB_REPRO %s\n",
                           format_repro_record("exception", failure_what,
                                               "runtime/montecarlo.hpp", 0,
                                               &ctx)
                               .c_str());
            }
            failed.store(true, std::memory_order_relaxed);
            break;
          }
        }
        std::move(local.begin(), local.end(),
                  results.begin() + static_cast<std::ptrdiff_t>(lo));
      },
      chunk_hint);
  if (failed.load()) {
    throw TrialFailure(failed_trial, failure_what, first_failure);
  }
  return results;
}

}  // namespace rcb
