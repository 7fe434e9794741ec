#pragma once
// Collective operations expressed as one-superstep BSP programs.
//
// The paper's framework uses exactly these patterns: each processor
// computes one row of the similarity matrix, a single host gathers the
// rows, solves the assignment, and scatters the answer back (§4.3). The
// helpers run on an Engine so the traffic they generate lands in the same
// ledger as everything else.

#include <type_traits>
#include <vector>

#include "runtime/engine.hpp"

namespace plum::rt {

namespace detail {
inline constexpr int kCollectiveTag = -4242;
}

/// All-to-all exchange: input[r][to] is the vector rank r sends to rank
/// `to`; returns received[r][from].
template <typename T>
std::vector<std::vector<std::vector<T>>> all_to_all(
    Engine& eng, const std::vector<std::vector<std::vector<T>>>& input) {
  const Rank p = eng.nranks();
  PLUM_ASSERT(static_cast<Rank>(input.size()) == p);
  // plum-scale: dist(P) -- collective staging: one inbox per peer, O(P) headers by definition
  std::vector<std::vector<std::vector<T>>> received(
      static_cast<std::size_t>(p),
      std::vector<std::vector<T>>(static_cast<std::size_t>(p)));

  // Rank-safe: each rank writes only its own received[r] row, so the
  // program runs identically on the sequential and parallel engines.
  eng.run([&](Rank r, const Inbox& inbox, Outbox& out) {
    if (out.step() == 0) {
      const auto& mine = input[static_cast<std::size_t>(r)];
      PLUM_ASSERT(static_cast<Rank>(mine.size()) == p);
      for (Rank to = 0; to < p; ++to) {
        if (!mine[static_cast<std::size_t>(to)].empty()) {
          out.send_vec(to, detail::kCollectiveTag,
                       mine[static_cast<std::size_t>(to)]);
        }
      }
      return true;  // need one more step to receive
    }
    for (const auto& m : inbox.messages()) {
      received[static_cast<std::size_t>(r)][static_cast<std::size_t>(m.from)] =
          unpack<T>(m);
    }
    return false;
  });
  return received;
}

/// Gather per-rank vectors to `root`; result[from] valid only at the root.
template <typename T>
std::vector<std::vector<T>> gather(Engine& eng,
                                   const std::vector<std::vector<T>>& input,
                                   Rank root = 0) {
  const Rank p = eng.nranks();
  // plum-scale: dist(P) -- all-to-all staging matrix; all P ranks live in this process
  std::vector<std::vector<std::vector<T>>> a2a(
      static_cast<std::size_t>(p),
      std::vector<std::vector<T>>(static_cast<std::size_t>(p)));
  for (Rank r = 0; r < p; ++r) {
    a2a[static_cast<std::size_t>(r)][static_cast<std::size_t>(root)] =
        input[static_cast<std::size_t>(r)];
  }
  auto recv = all_to_all(eng, a2a);
  return recv[static_cast<std::size_t>(root)];
}

/// Scatter from `root`: input[to] goes to rank `to`; returns what each rank
/// received.
template <typename T>
std::vector<std::vector<T>> scatter(Engine& eng,
                                    const std::vector<std::vector<T>>& input,
                                    Rank root = 0) {
  const Rank p = eng.nranks();
  // plum-scale: dist(P) -- all-to-all staging matrix; all P ranks live in this process
  std::vector<std::vector<std::vector<T>>> a2a(
      static_cast<std::size_t>(p),
      std::vector<std::vector<T>>(static_cast<std::size_t>(p)));
  a2a[static_cast<std::size_t>(root)] = input;
  auto recv = all_to_all(eng, a2a);
  // plum-scale: dist(P) -- one output bucket per peer for the collective result
  std::vector<std::vector<T>> out(static_cast<std::size_t>(p));
  for (Rank r = 0; r < p; ++r) {
    out[static_cast<std::size_t>(r)] =
        std::move(recv[static_cast<std::size_t>(r)][static_cast<std::size_t>(root)]);
  }
  return out;
}

/// Allgather: every rank receives every rank's vector.
template <typename T>
std::vector<std::vector<T>> allgather(
    Engine& eng, const std::vector<std::vector<T>>& input) {
  const Rank p = eng.nranks();
  // plum-scale: dist(P) -- all-to-all staging matrix; all P ranks live in this process
  std::vector<std::vector<std::vector<T>>> a2a(
      static_cast<std::size_t>(p));
  for (Rank r = 0; r < p; ++r) {
    // plum-scale: dist(P) -- per-sender row of the all-to-all staging matrix
    a2a[static_cast<std::size_t>(r)].assign(
        static_cast<std::size_t>(p), input[static_cast<std::size_t>(r)]);
  }
  auto recv = all_to_all(eng, a2a);
  // Flatten: result[from] identical on every rank; return rank 0's view.
  return recv[0];
}

/// Allreduce with a binary op over one value per rank, where rank r's value
/// is `produce(r)`, evaluated by rank r inside the collective's first
/// superstep (so per-rank work such as a CFL scan runs on the rank's own
/// worker). Traffic is an allgather of one-element vectors; every rank
/// folds what it received in sender order, and rank 0's fold is returned
/// (all folds are identical).
template <typename T, typename Op, typename Produce>
  requires std::is_invocable_r_v<T, const Produce&, Rank>
T allreduce(Engine& eng, const Produce& produce, Op op, T init) {
  const Rank p = eng.nranks();
  // plum-scale: dist(P) -- one reduction result per simulated rank
  std::vector<T> acc(static_cast<std::size_t>(p), init);
  eng.run([&](Rank r, const Inbox& inbox, Outbox& out) {
    if (out.step() == 0) {
      const std::vector<T> mine{produce(r)};
      for (Rank to = 0; to < p; ++to) {
        out.send_vec(to, detail::kCollectiveTag, mine);
      }
      return true;  // need one more step to receive
    }
    T folded = init;
    for (const auto& m : inbox.messages()) {
      const auto v = unpack<T>(m);
      PLUM_ASSERT(v.size() == 1);
      folded = op(folded, v[0]);
    }
    acc[static_cast<std::size_t>(r)] = folded;
    return false;
  });
  return acc[0];
}

/// Allreduce with a binary op over one value per rank.
template <typename T, typename Op>
T allreduce(Engine& eng, const std::vector<T>& per_rank, Op op, T init) {
  PLUM_ASSERT(static_cast<Rank>(per_rank.size()) == eng.nranks());
  return allreduce(
      eng, [&](Rank r) { return per_rank[static_cast<std::size_t>(r)]; }, op,
      init);
}

}  // namespace plum::rt
