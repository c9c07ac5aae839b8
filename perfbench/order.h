// The order in which a run's sessions visit the workload's fixed suite.

#ifndef PERFBENCH_ORDER_H_
#define PERFBENCH_ORDER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace perfbench {

/// A seeded order over a fixed suite of subjects, pass after pass, in which
/// every window of a few dozen sessions is a fair sample of the suite. The
/// subjects are ranked by `costs` and cut into strata of `stratum`
/// neighbours; each round of a pass visits one subject of every stratum,
/// strata in shuffled order, and each stratum's subjects are shuffled per
/// pass. So the slow subjects spread evenly over a run and its time spans,
/// whatever the seed. With `stratum` 1 a pass is a plain shuffle.
/// Requires stratum >= 1.
inline std::vector<size_t> StratifiedOrder(uint64_t seed,
                                           const std::vector<uint64_t>& costs,
                                           size_t stratum, size_t passes) {
  aid::Rng rng(seed);
  auto shuffle = [&rng](std::vector<size_t>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.Uniform(i)]);
    }
  };
  std::vector<size_t> ranked(costs.size());
  for (size_t i = 0; i < ranked.size(); ++i) ranked[i] = i;
  std::stable_sort(ranked.begin(), ranked.end(), [&costs](size_t a, size_t b) {
    return costs[a] < costs[b];
  });
  std::vector<std::vector<size_t>> strata;
  for (size_t i = 0; i < ranked.size(); i += stratum) {
    strata.emplace_back(ranked.begin() + i,
                        ranked.begin() + std::min(i + stratum, ranked.size()));
  }
  std::vector<size_t> order;
  order.reserve(costs.size() * passes);
  std::vector<size_t> visit(strata.size());
  for (size_t pass = 0; pass < passes; ++pass) {
    for (std::vector<size_t>& members : strata) shuffle(members);
    for (size_t round = 0; round < stratum; ++round) {
      for (size_t k = 0; k < visit.size(); ++k) visit[k] = k;
      shuffle(visit);
      for (size_t k : visit) {
        if (round < strata[k].size()) order.push_back(strata[k][round]);
      }
    }
  }
  return order;
}

}  // namespace perfbench

#endif  // PERFBENCH_ORDER_H_
