// SubprocessTarget: process-isolated subject execution.
//
// Each replica of the subject runs in a sandboxed child process -- the
// `aid_subject_host` binary launched via fork/exec -- and the engine's
// intervention requests travel over the versioned wire protocol of
// proc/wire.h. Isolation buys exactly what the paper's setting demands
// (intermittent failures on real concurrent applications, Sections 1-2):
// a subject that segfaults, aborts, or deadlocks cannot take the debugging
// engine down with it.
//
// Failure semantics:
//
//   * child crash (EOF / EPIPE mid-trial)  -> the trial is recorded as a
//     failing execution with TrialOutcome::kCrashed and a fresh child is
//     spawned; the trial carries no observations (complete() == false,
//     so Definition 2 pruning skips it);
//   * per-trial deadline expiring          -> the child is SIGKILLed, the
//     trial is recorded failing with TrialOutcome::kTimedOut, respawn;
//   * crash loops                          -> after max_respawns respawns
//     the target gives up with Aborted rather than burning CPU forever.
//
// Counters (respawns / crashed / timed-out trials) surface through
// InterventionTarget::health() and land in DiscoveryReport.
//
// SubprocessTarget is a ReplicableTarget: Clone() hands out another
// lazily-spawning child over the same serialized spec, so replicas pool
// naturally under exec::ParallelTarget and one session can drive 1..N
// isolated subject processes concurrently. All per-trial nondeterminism is
// positional (the global trial index rides in every RUN_TRIAL frame), so
// reports are bit-identical to the in-process run at any worker count.

#ifndef AID_PROC_SUBPROCESS_TARGET_H_
#define AID_PROC_SUBPROCESS_TARGET_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "exec/replicable.h"
#include "proc/subject_spec.h"
#include "proc/wire.h"

namespace aid {

class Telemetry;  // telemetry/telemetry.h; nullable everywhere below

/// Where a target backend executes its subject.
enum class Isolation : uint8_t {
  kInProcess = 0,   ///< today's default: subject shares the engine process
  kSubprocess = 1,  ///< sandboxed child per replica (src/proc/)
};

std::string_view IsolationName(Isolation isolation);

struct SubprocessOptions {
  /// Wall-clock budget per trial in milliseconds; expiring kills the child
  /// and records a timed-out trial. 0 = no deadline -- a genuinely hung
  /// subject then hangs the session, so set one for untrusted subjects.
  int trial_deadline_ms = 0;

  /// Path to the aid_subject_host binary. Empty = auto-discovery: the
  /// AID_SUBJECT_HOST environment variable, then siblings of the running
  /// executable (and its parent directory), then $PATH.
  std::string host_path;

  /// Budget for spawn + handshake + subject construction (VM subjects
  /// re-run their observation scan in the child).
  int spawn_timeout_ms = 60000;

  /// Give-up bound on child respawns across this target's lifetime; crossing
  /// it fails the run with Aborted (crash-loop guard).
  int max_respawns = 1000;

  /// When nonzero, every handshake cross-checks the child's catalog size
  /// against this value and fails with Internal on mismatch -- the guard
  /// that parent and child agree on the predicate id space. Session targets
  /// set it to the parent-side catalog size.
  uint32_t expected_catalog_size = 0;

  /// Telemetry sink shared with the session (null = off). Each trial opens
  /// an engine-side "trial" span, records wire latency into
  /// aid_trial_latency_us{transport="pipe"}, and propagates span context to
  /// the child so host-side spans nest under it (see docs/telemetry.md).
  /// Never changes a trial's bytes.
  std::shared_ptr<Telemetry> telemetry;
};

class SubprocessTarget : public ReplicableTarget {
 public:
  /// Validates and freezes `spec` (serializing it once; the spec's borrowed
  /// pointers are not needed afterwards). The child is spawned lazily on
  /// first use, so building a target -- and cloning it into a pool -- stays
  /// cheap and the ParallelTarget primary never launches a process at all.
  /// Returns Unimplemented on platforms without fork/exec.
  static Result<std::unique_ptr<SubprocessTarget>> Create(
      const SubjectSpec& spec, SubprocessOptions options = {});

  ~SubprocessTarget() override;

  SubprocessTarget(const SubprocessTarget&) = delete;
  SubprocessTarget& operator=(const SubprocessTarget&) = delete;

  Result<TargetRunResult> RunIntervened(
      const std::vector<PredicateId>& intervened, int trials) override;

  /// Another lazily-spawning child over the same frozen spec, positioned at
  /// this target's trial cursor (the ReplicableTarget contract).
  Result<std::unique_ptr<ReplicableTarget>> Clone() const override;

  void SeekTrial(uint64_t trial_index) override { trial_cursor_ = trial_index; }
  uint64_t trial_position() const override { return trial_cursor_; }

  uint64_t executions() const override { return executions_; }
  TargetHealth health() const override { return health_; }

  /// Catalog size the child reported at handshake; 0 before the first spawn.
  /// Session targets cross-check it against the parent-side catalog.
  uint32_t child_catalog_size() const { return child_catalog_size_; }

  const SubprocessOptions& options() const { return options_; }

 private:
  SubprocessTarget(std::shared_ptr<const std::string> spec_bytes,
                   SubprocessOptions options)
      : spec_bytes_(std::move(spec_bytes)), options_(std::move(options)) {}

  /// Spawns + handshakes the child if none is alive.
  Status EnsureChild();
  /// Tears the current child down (best-effort SHUTDOWN, then SIGKILL after
  /// a grace period) and reaps it.
  void StopChild(bool force_kill);
  /// StopChild + EnsureChild with the crash-loop guard applied.
  Status Respawn();
  /// Runs one trial at `trial_index`, classifying crashes and deadline kills
  /// into the returned log instead of propagating them as errors.
  Result<PredicateLog> RunOneTrial(const std::vector<PredicateId>& intervened,
                                   uint64_t trial_index);

  std::shared_ptr<const std::string> spec_bytes_;
  SubprocessOptions options_;

  int64_t child_pid_ = -1;  ///< -1: no child alive
  /// Frame transport to the live child (a PipeChannel over its
  /// stdin/stdout); null while no child is alive.
  std::unique_ptr<FrameChannel> channel_;
  uint32_t child_catalog_size_ = 0;

  uint64_t trial_cursor_ = 0;
  uint64_t executions_ = 0;
  TargetHealth health_;
};

}  // namespace aid

#endif  // AID_PROC_SUBPROCESS_TARGET_H_
