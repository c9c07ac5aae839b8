// Process-isolation bench: per-trial IPC overhead of subprocess subjects
// vs. in-process dispatch, at 1/2/4/8 workers.
//
// The subject is a synthetic ground-truth model whose executions cost
// microseconds, so the numbers isolate what the proc/ machinery itself
// charges per trial: one RUN_TRIAL frame out and one TRIAL_RESULT frame
// back, across two pipes and a context switch. The paper's real subjects
// take seconds per execution (Section 7), which is exactly why per-trial
// overhead in the microsecond range makes isolation free in practice --
// and every configuration must still produce the bit-identical discovery
// report, which the bench asserts. A last table splits one subprocess
// replica's cost into set-up (spawn + handshake + first trial) and
// steady-state microseconds per trial.
//
// Usage: bench_proc [model_threads] [trials_per_intervention]
//   model_threads defaults to 14; trials_per_intervention defaults to the
//   smallest count giving every session at least 1000 executions.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "bench_json.h"
#include "bench_transport.h"
#include "proc/wire.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace {

using namespace aid;

/// Executions every session of the bench runs at the default trial count,
/// and the trials timed in the steady-state table.
constexpr int kMinExecutions = 1000;

struct RunStats {
  double wall_ms = 0;
  SessionReport report;
};

RunStats RunOnce(const GroundTruthModel* model, Isolation isolation,
                 int parallelism, int trials,
                 TelemetrySnapshot* snapshot_out = nullptr) {
  SessionBuilder builder;
  builder.WithModel(model).WithTrials(trials).WithParallelism(parallelism);
  if (isolation == Isolation::kSubprocess) {
    builder.WithProcessIsolation(/*trial_deadline_ms=*/10000);
  }
  // Telemetry never changes the report's bytes (asserted below via
  // SameDiscoveryOutcome against the uninstrumented baseline), so the
  // instrumented run doubles as the bench's exportable profile.
  if (snapshot_out != nullptr) builder.WithTelemetry();
  const auto start = std::chrono::steady_clock::now();
  auto session = builder.Build();
  if (!session.ok()) {
    std::fprintf(stderr, "session build failed: %s\n",
                 session.status().ToString().c_str());
    std::exit(1);
  }
  auto report = session->Run();
  if (!report.ok()) {
    std::fprintf(stderr, "session run failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  const auto end = std::chrono::steady_clock::now();
  if (snapshot_out != nullptr) *snapshot_out = session->TelemetrySnapshot();
  RunStats stats;
  stats.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          end - start)
          .count();
  stats.report = std::move(*report);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  if (!SubprocessIsolationSupported()) {
    std::printf("bench_proc: subprocess isolation unsupported here; "
                "nothing to measure\n");
    return 0;
  }
  const int model_threads = argc > 1 ? std::atoi(argv[1]) : 14;

  SyntheticAppOptions options;
  options.max_threads = model_threads;
  options.seed = 7;
  auto model = GenerateSyntheticApp(options);
  if (!model.ok()) {
    std::fprintf(stderr, "model generation failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }

  const int trials =
      argc > 2 ? std::atoi(argv[2])
               : bench::TrialsForExecutions(
                     RunOnce(model->get(), Isolation::kInProcess, 1, 1)
                         .report.discovery.executions,
                     kMinExecutions);
  std::printf("subject: synthetic model, %zu predicates, %d trials/round\n\n",
              (*model)->size(), trials);
  std::printf("%-14s %-8s %10s %12s %12s %8s\n", "isolation", "workers",
              "wall_ms", "executions", "us/trial", "rounds");

  // In-process baselines at matching worker counts (dispatch mode matches:
  // parallelism > 1 implies batched linear scan on both sides).
  bench::BenchJson profile("proc");
  TelemetrySnapshot snapshot;
  std::vector<int> workers = {1, 2, 4, 8};
  std::vector<RunStats> in_process;
  for (int w : workers) {
    RunStats stats = RunOnce(model->get(), Isolation::kInProcess, w, trials);
    std::printf("%-14s %-8d %10.2f %12llu %12.2f %8llu\n", "in_process", w,
                stats.wall_ms,
                (unsigned long long)stats.report.discovery.executions,
                1000.0 * stats.wall_ms /
                    std::max<uint64_t>(1, stats.report.discovery.executions),
                (unsigned long long)stats.report.discovery.rounds);
    profile.Metric("in_process_w" + std::to_string(w) + "_wall_ms",
                   stats.wall_ms);
    in_process.push_back(std::move(stats));
  }
  std::printf("\n");
  for (size_t i = 0; i < workers.size(); ++i) {
    const int w = workers[i];
    // The widest subprocess run is the instrumented one: its snapshot (trial
    // spans, latency histograms) ships in the profile document.
    RunStats stats =
        RunOnce(model->get(), Isolation::kSubprocess, w, trials,
                i + 1 == workers.size() ? &snapshot : nullptr);
    const double us_per_trial =
        1000.0 * stats.wall_ms /
        std::max<uint64_t>(1, stats.report.discovery.executions);
    const double base_us =
        1000.0 * in_process[i].wall_ms /
        std::max<uint64_t>(1, in_process[i].report.discovery.executions);
    std::printf("%-14s %-8d %10.2f %12llu %12.2f %8llu  (+%.2f us/trial IPC)\n",
                "subprocess", w, stats.wall_ms,
                (unsigned long long)stats.report.discovery.executions,
                us_per_trial,
                (unsigned long long)stats.report.discovery.rounds,
                us_per_trial - base_us);
    profile.Metric("subprocess_w" + std::to_string(w) + "_wall_ms",
                   stats.wall_ms);
    profile.Metric("subprocess_w" + std::to_string(w) + "_ipc_us_per_trial",
                   us_per_trial - base_us);
    if (!SameDiscoveryOutcome(stats.report.discovery, in_process[i].report.discovery)) {
      std::fprintf(stderr,
                   "BUG: subprocess report diverges from in-process at "
                   "%d workers\n",
                   w);
      return 1;
    }
  }
  std::printf("\nall subprocess reports bit-identical to in-process runs\n");

  // One replica driven directly: set-up apart from the steady state.
  SubjectSpec spec;
  spec.kind = SubjectKind::kModel;
  spec.model = model->get();
  TargetConfig in_process_config;
  TargetConfig subprocess_config;
  subprocess_config.isolation = Isolation::kSubprocess;
  subprocess_config.subprocess.trial_deadline_ms = 10000;
  const bench::TransportCost local =
      bench::MeasureTransport(spec, in_process_config, kMinExecutions);
  const bench::TransportCost piped =
      bench::MeasureTransport(spec, subprocess_config, kMinExecutions);
  std::printf("\none replica, %d trials after the first:\n", kMinExecutions);
  std::printf("%-14s %12s %16s\n", "isolation", "setup_ms", "steady_us/trial");
  std::printf("%-14s %12.3f %16.2f\n", "in_process", local.setup_ms,
              local.steady_us_per_trial);
  std::printf("%-14s %12.3f %16.2f\n", "subprocess", piped.setup_ms,
              piped.steady_us_per_trial);
  profile.Metric("subprocess_setup_ms", piped.setup_ms);
  profile.Metric("subprocess_steady_us_per_trial", piped.steady_us_per_trial);
  profile.Metric("in_process_steady_us_per_trial", local.steady_us_per_trial);
  profile.Attach(snapshot);
  profile.Write();
  return 0;
}
