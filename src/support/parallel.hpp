// Thin OpenMP helpers shared by the sparse substrate and the core kernels:
// a parallel for over an index range and a parallel exclusive prefix sum
// (used to compact masked-SpGEMM output rows and to build CSR row pointers).
#pragma once

#include <omp.h>

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "support/common.hpp"
#include "support/panic.hpp"

namespace tilq {

/// Applies `body(i)` for every i in [begin, end), in parallel with a static
/// schedule. Intended for regular per-row work; irregular work goes through
/// the tile drivers in core/plan.hpp instead. A throwing body is safe:
/// the first exception is captured (remaining iterations become no-ops) and
/// rethrown here after the join instead of terminating the process.
template <class I, class Body>
void parallel_for(I begin, I end, Body&& body) {
  ParallelGuard guard;
#pragma omp parallel for schedule(static)
  for (I i = begin; i < end; ++i) {
    if (guard.cancelled()) {
      continue;
    }
    guard.run([&] { body(i); });
  }
  guard.rethrow_if_failed();
}

/// parallel_for when `parallel` is set, otherwise a plain serial loop that
/// never opens an OpenMP region: for callers on the batch engine's pool
/// workers (a nested team would oversubscribe the machine) and for inputs
/// too small to pay for a team.
template <class I, class Body>
void parallel_for(I begin, I end, bool parallel, Body&& body) {
  if (parallel) {
    parallel_for(begin, end, std::forward<Body>(body));
    return;
  }
  for (I i = begin; i < end; ++i) {
    body(i);
  }
}

/// Exclusive prefix sum of `counts` into `offsets` (sized counts.size() + 1);
/// returns the total. Two-pass blocked algorithm: per-thread partial sums,
/// then a sequential scan over the (few) block totals, then a parallel
/// fix-up. Falls back to a serial scan for small inputs.
template <class I>
I exclusive_scan(std::span<const I> counts, std::span<I> offsets) {
  require(offsets.size() == counts.size() + 1,
          "exclusive_scan: offsets must have counts.size() + 1 elements");
  const std::size_t n = counts.size();
  constexpr std::size_t kSerialCutoff = 1 << 14;
  const int threads = omp_get_max_threads();
  if (n < kSerialCutoff || threads == 1) {
    I running{};
    for (std::size_t i = 0; i < n; ++i) {
      offsets[i] = running;
      running += counts[i];
    }
    offsets[n] = running;
    return running;
  }

  const std::size_t blocks = static_cast<std::size_t>(threads);
  const std::size_t block_size = ceil_div(n, blocks);
  std::vector<I> block_totals(blocks, I{});

#pragma omp parallel num_threads(threads)
  {
    const auto block = static_cast<std::size_t>(omp_get_thread_num());
    const std::size_t lo = block * block_size;
    const std::size_t hi = std::min(n, lo + block_size);
    I running{};
    for (std::size_t i = lo; i < hi; ++i) {
      offsets[i] = running;
      running += counts[i];
    }
    if (lo < hi) {
      block_totals[block] = running;
    }

#pragma omp barrier
#pragma omp single
    {
      I carry{};
      for (std::size_t b = 0; b < blocks; ++b) {
        const I total = block_totals[b];
        block_totals[b] = carry;
        carry += total;
      }
      offsets[n] = carry;
    }

    const I base = block_totals[block];
    for (std::size_t i = lo; i < hi; ++i) {
      offsets[i] += base;
    }
  }
  return offsets[n];
}

/// Convenience overload building the offsets vector.
template <class I>
std::vector<I> exclusive_scan(std::span<const I> counts) {
  std::vector<I> offsets(counts.size() + 1);
  exclusive_scan(counts, std::span<I>(offsets));
  return offsets;
}

/// Guaranteed-serial exclusive prefix sum: same contract as exclusive_scan
/// but never opens an OpenMP region. For callers that already run on a
/// worker of the batch engine's thread pool (core/engine.hpp), where a
/// nested OpenMP team would oversubscribe the machine.
template <class I>
I exclusive_scan_serial(std::span<const I> counts, std::span<I> offsets) {
  require(offsets.size() == counts.size() + 1,
          "exclusive_scan_serial: offsets must have counts.size() + 1 "
          "elements");
  I running{};
  for (std::size_t i = 0; i < counts.size(); ++i) {
    offsets[i] = running;
    running += counts[i];
  }
  offsets[counts.size()] = running;
  return running;
}

}  // namespace tilq
