// Process-isolated debugging of a crashy, flaky subject.
//
// A synthetic application with a known root cause manifests its failure
// only probabilistically (the paper's footnote 1 regime) -- and, on top of
// that, the subject process itself is deliberately broken: every Nth trial
// it crashes outright, and every Mth it hangs. In-process execution would
// take the debugger down with it; under `.WithProcessIsolation(deadline)`
// each replica is a sandboxed aid_subject_host child, crashes become
// recorded failing trials followed by an automatic respawn, hangs are
// SIGKILLed at the deadline, and the discovery report prints exactly how
// rough the ride was.
//
// Usage: ./build/examples/subprocess_session [crash_period] [hang_period]

#include <cstdio>
#include <cstdlib>

#include "api/session.h"
#include "proc/wire.h"
#include "synth/generator.h"
#include "synth/model.h"

using namespace aid;

int main(int argc, char** argv) {
  if (!SubprocessIsolationSupported()) {
    std::printf("this platform has no fork/exec; nothing to demonstrate\n");
    return 0;
  }
  const uint64_t crash_period =
      argc > 1 ? static_cast<uint64_t>(std::atoll(argv[1])) : 9;
  const uint64_t hang_period =
      argc > 2 ? static_cast<uint64_t>(std::atoll(argv[2])) : 12;

  SyntheticAppOptions options;
  options.max_threads = 12;
  options.seed = 7;
  auto model_or = GenerateSyntheticApp(options);
  if (!model_or.ok()) {
    std::fprintf(stderr, "%s\n", model_or.status().ToString().c_str());
    return 1;
  }
  const GroundTruthModel& model = **model_or;

  std::printf("subject: %zu predicates, root cause manifests 70%% of the "
              "time,\n         crashes every %llu-th trial, hangs every "
              "%llu-th trial\n\n",
              model.size(), static_cast<unsigned long long>(crash_period),
              static_cast<unsigned long long>(hang_period));

  SubjectSpec spec;
  spec.kind = SubjectKind::kFlakyModel;
  spec.model = &model;
  spec.manifest_probability = 0.7;
  spec.flaky_seed = 5;
  spec.crash_period = crash_period;
  spec.hang_period = hang_period;
  TargetConfig config;
  config.isolation = Isolation::kSubprocess;
  config.subprocess.trial_deadline_ms = 500;  // hang -> SIGKILL after 500ms

  auto session_or = SessionBuilder()
                        .WithTarget(spec, config)
                        .WithTrials(3)
                        .WithParallelism(2)
                        .Build();
  if (!session_or.ok()) {
    std::fprintf(stderr, "%s\n", session_or.status().ToString().c_str());
    return 1;
  }
  auto report_or = session_or->Run();
  if (!report_or.ok()) {
    std::fprintf(stderr, "%s\n", report_or.status().ToString().c_str());
    return 1;
  }
  const SessionReport& report = *report_or;

  std::printf("%s\n", session_or->Render(report).c_str());
  std::printf("subject survival report:\n");
  std::printf("  crashed trials:   %llu\n",
              (unsigned long long)report.discovery.crashed_trials);
  std::printf("  timed-out trials: %llu\n",
              (unsigned long long)report.discovery.timed_out_trials);
  std::printf("  child respawns:   %llu\n",
              (unsigned long long)report.discovery.respawns);
  std::printf("  executions:       %llu (%llu rounds)\n",
              (unsigned long long)report.discovery.executions,
              (unsigned long long)report.discovery.rounds);
  if (report.has_root_cause()) {
    std::printf("\nroot cause pinned despite the carnage: %s\n",
                report.root_cause.c_str());
  } else {
    std::printf("\nno root cause certified\n");
  }
  return 0;
}
