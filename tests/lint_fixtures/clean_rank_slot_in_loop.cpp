// plum-lint fixture (lint-only, never compiled): the clean counterpart of
// bad_rank_slot_in_loop.cpp. Each loop counts into a local and the rank
// slot is stored once after it; writes inside rank r's own row and plain
// stores stay allowed. Expected: 0 diagnostics.
#include <cstdint>
#include <vector>

#include "runtime/engine.hpp"

namespace plum::fixture {

void clean_rank_slot_in_loop(rt::Engine& eng,
                             const std::vector<std::vector<int>>& items) {
  const auto p = static_cast<std::size_t>(eng.nranks());
  std::vector<std::int64_t> evals(p, 0);
  std::vector<std::int64_t> bytes(p, 0);
  std::vector<std::vector<double>> rows(p);
  std::vector<int> last(p, 0);
  eng.run([&](Rank rank, const rt::Inbox& inbox, rt::Outbox& outbox) {
    std::int64_t seen = 0;
    std::int64_t nbytes = 0;
    for (const auto& m : inbox.messages()) {
      ++seen;
      nbytes += static_cast<std::int64_t>(m.bytes.size());
    }
    evals[static_cast<std::size_t>(rank)] += seen;
    bytes[static_cast<std::size_t>(rank)] += nbytes;
    auto& row = rows[static_cast<std::size_t>(rank)];
    for (int x : items[static_cast<std::size_t>(rank)]) {
      row.push_back(static_cast<double>(x));
      rows[static_cast<std::size_t>(rank)][0] += 1.0;
      last[static_cast<std::size_t>(rank)] = x;
    }
    outbox.charge(seen);
    return false;
  });
}

}  // namespace plum::fixture
