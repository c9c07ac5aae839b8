// Set-up and steady-state cost of one out-of-process replica, shared by
// bench_proc (pipes) and bench_net (TCP).
//
// Whole-session wall clock mixes two costs that scale differently: the
// first action of a replica pays for its subject process (spawn or
// connect, plus the HELLO/SPEC/READY handshake), and every later trial
// pays only the wire. MeasureTransport drives a replica's intervention
// target directly and reports the two apart.

#ifndef AID_BENCH_BENCH_TRANSPORT_H_
#define AID_BENCH_BENCH_TRANSPORT_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "api/session_target.h"

namespace aid::bench {

struct TransportCost {
  /// Target construction plus the first one-trial action: spawn or
  /// connect, handshake, one trial.
  double setup_ms = 0;
  /// Mean wall clock per trial over `trials` back-to-back trials after it.
  double steady_us_per_trial = 0;
};

/// Trials per intervention that lift a session of `executions_at_one_trial`
/// executions (measured at one trial per intervention) to at least
/// `min_executions`: executions scale with the trial count.
inline int TrialsForExecutions(uint64_t executions_at_one_trial,
                               int min_executions) {
  const uint64_t per = executions_at_one_trial > 0 ? executions_at_one_trial : 1;
  return static_cast<int>((static_cast<uint64_t>(min_executions) + per - 1) /
                          per);
}

/// Measures one replica (parallelism 1) of `spec` on the substrate `config`
/// selects. Exits the bench on failure, like every other bench error.
inline TransportCost MeasureTransport(const SubjectSpec& spec,
                                      TargetConfig config, int trials) {
  using Clock = std::chrono::steady_clock;
  auto fail = [](const Status& status) {
    std::fprintf(stderr, "transport measurement failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  };
  config.parallelism = 1;
  const Clock::time_point start = Clock::now();
  auto target = MakeSessionTarget(spec, config);
  if (!target.ok()) fail(target.status());
  InterventionTarget* replica = (*target)->intervention_target();
  if (auto first = replica->RunIntervened({}, 1); !first.ok()) {
    fail(first.status());
  }
  const Clock::time_point ready = Clock::now();
  if (auto steady = replica->RunIntervened({}, trials); !steady.ok()) {
    fail(steady.status());
  }
  const Clock::time_point end = Clock::now();
  TransportCost cost;
  cost.setup_ms =
      std::chrono::duration<double, std::milli>(ready - start).count();
  cost.steady_us_per_trial =
      std::chrono::duration<double, std::micro>(end - ready).count() /
      trials;
  return cost;
}

}  // namespace aid::bench

#endif  // AID_BENCH_BENCH_TRANSPORT_H_
