// SubjectHost: the child-side half of the process-isolation subsystem.
//
// The `aid_subject_host` binary (proc/subject_host_main.cc) is exec'd by
// proc::SubprocessTarget with the wire protocol on stdin/stdout. It embeds
// any existing in-process intervention backend -- ground-truth models, flaky
// models, VM case studies, arbitrary serialized VM programs -- behind the
// protocol: it announces itself (HELLO), receives a SubjectSpec, opens it
// (OpenSubject, which runs the backend's observation phase where one
// exists), acknowledges (READY), and then answers RUN_TRIAL
// requests by seeking to the requested global trial index, executing one
// trial, and answering with one TRIAL_RESULT frame: the verdict and every
// observed predicate.
//
// The host is deliberately a library function plus a thin main(): tests can
// drive RunSubjectHost over plain pipes without fork/exec, and the binary
// stays a five-line shell.

#ifndef AID_PROC_SUBJECT_HOST_H_
#define AID_PROC_SUBJECT_HOST_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "exec/replicable.h"
#include "proc/subject_spec.h"
#include "proc/wire.h"
#include "telemetry/metrics.h"

namespace aid {

/// Trial statistics a subject host records as it serves, designed to live
/// in MAP_SHARED|MAP_ANONYMOUS memory: the aid_runner daemon maps one block
/// before forking, every session child inherits the mapping and records its
/// trials into it, and any later child (a `--stats` connection) reads the
/// totals of the whole fleet node. Plain atomics, no pointers, fixed size
/// -- the layout is the contract between daemon and children within one
/// binary, never serialized across machines. The histogram mirrors the
/// default telemetry bucket ladder (kLatencyBucketBoundsUs) so runner-side
/// and engine-side latency histograms line up bucket for bucket.
struct SharedHostStats {
  std::atomic<uint64_t> trials{0};
  std::atomic<uint64_t> failed_trials{0};
  std::atomic<uint64_t> trial_micros{0};
  /// kLatencyBucketBoundCount bounded buckets + trailing +Inf bucket.
  std::atomic<uint64_t> latency_buckets[kLatencyBucketBoundCount + 1]{};

  /// Folds one served trial into the block (relaxed; totals only).
  void RecordTrial(uint64_t micros, bool failed);
};

/// Host-side knobs (the spec describes the SUBJECT; these describe the
/// machine hosting it).
struct SubjectHostOptions {
  /// Extra latency charged before answering each trial, microseconds.
  /// 0 = none. The heterogeneity knob behind slow-runner benches and
  /// tests (aid_runner --slow-us): it models a loaded or distant machine
  /// without touching the wire protocol or the subject's bytes -- trials
  /// stay positional, so reports stay bit-identical however slow a host
  /// answers.
  uint64_t trial_delay_us = 0;
  /// Shared stats block to record served trials into (see SharedHostStats);
  /// null = don't record. The aid_runner daemon passes its pre-fork mapping
  /// here.
  SharedHostStats* shared_stats = nullptr;
  /// Context for answering STATS requests: the hosting daemon's start time
  /// (microseconds on the system steady clock, which all processes of one
  /// machine share) and how many sessions it had started when this host
  /// was forked. Zero start = report zero uptime.
  uint64_t daemon_start_micros = 0;
  uint64_t daemon_sessions_started = 0;
};

/// Runs the host protocol loop over `channel` until SHUTDOWN or EOF.
/// Returns the process exit code. Fault injection (spec crash/hang periods)
/// happens in here -- before a poisoned trial is answered -- so the engine
/// observes a mid-trial death exactly as with a genuinely broken subject.
/// PING frames are answered with PONG at any protocol stage (v2 keepalive).
/// The transport does not matter: SubprocessTarget drives this loop over
/// pipes, the aid_runner daemon over accepted TCP sockets.
int RunSubjectHost(FrameChannel& channel, const SubjectHostOptions& host = {});

/// Convenience overload over a descriptor pair (the exec'd child's
/// stdin/stdout). Does not take ownership of the descriptors.
int RunSubjectHost(int in_fd, int out_fd, const SubjectHostOptions& host = {});

}  // namespace aid

#endif  // AID_PROC_SUBJECT_HOST_H_
