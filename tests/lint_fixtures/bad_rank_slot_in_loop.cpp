// plum-lint fixture (lint-only, never compiled): rank slots of captured
// containers updated once per loop iteration inside a superstep. Each
// write is rank-safe, but neighbouring ranks' slots share a cache line, so
// the workers of a ParallelEngine false-share it on every iteration. The
// slot stores outside the loops and the writes into rank-owned rows must
// NOT be flagged.
// Expected: 4x rank-slot-in-loop.
#include <cstdint>
#include <vector>

#include "runtime/engine.hpp"

namespace plum::fixture {

struct Tally {
  std::int64_t n = 0;
};

void bad_rank_slot_in_loop(rt::Engine& eng,
                           const std::vector<std::vector<int>>& items) {
  const auto p = static_cast<std::size_t>(eng.nranks());
  std::vector<std::int64_t> evals(p, 0);
  std::vector<std::int64_t> bytes(p, 0);
  std::vector<Tally> tallies(p);
  std::vector<std::vector<double>> rows(p);
  eng.run([&](Rank rank, const rt::Inbox& inbox, rt::Outbox& outbox) {
    for (const auto& m : inbox.messages()) {
      ++evals[static_cast<std::size_t>(rank)];  // BAD
      bytes[static_cast<std::size_t>(rank)] +=  // BAD
          static_cast<std::int64_t>(m.bytes.size());
    }
    for (int x : items[static_cast<std::size_t>(rank)])
      tallies[static_cast<std::size_t>(rank)].n += x;  // BAD: unbraced body
    int k = 0;
    while (k < 3) {
      evals[static_cast<std::size_t>(rank)]++;  // BAD: postfix, while loop
      ++k;
    }
    // OK: one store per superstep, after the loops.
    evals[static_cast<std::size_t>(rank)] += k;
    // OK: rank r's own row is its own allocation.
    for (std::size_t v = 0; v < rows[static_cast<std::size_t>(rank)].size();
         ++v) {
      rows[static_cast<std::size_t>(rank)][v] += 1.0;
    }
    outbox.charge(k);
    return false;
  });
}

}  // namespace plum::fixture
