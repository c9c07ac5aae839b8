// perfbench_driver: runs whole AID debugging sessions through the public
// API in a closed loop, judges every report, and prints one JSON line per
// session plus run totals. perfbench/run.py builds it, starts the daemons
// of the service-fleet workload, and turns these lines into the
// benchmark's metrics (see perfbench/README.md).
//
// Usage: perfbench_driver --workload cases|flaky-pipe|service-fleet
//                         --seed N --seconds S --trace 0|1
//                         [--service HOST:PORT --runners HOST:PORT,...]
//
// --trace 0 times sessions the way users run them (Session::Run,
// ServiceClient). --trace 1 alternates every such session with a traced
// run of the same input that steps the DiscoveryState itself and wraps each
// layer call in a benchmark-side span (spans.h), so per-layer self time and
// the tracing overhead come from one run.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include <sched.h>
#include <utility>
#include <vector>

#include "api/session.h"
#include "casestudies/case_study.h"
#include "common/rng.h"
#include "core/discovery_state.h"
#include "gate.h"
#include "net/runner.h"
#include "net/socket.h"
#include "order.h"
#include "service/client.h"
#include "spans.h"
#include "synth/generator.h"

namespace {

using namespace aid;
using perfbench::LayerTotals;
using perfbench::NowNs;
using perfbench::SpanRecorder;
using perfbench::StratifiedOrder;
using perfbench::Verdict;

// Workload shapes. The flaky settings are the paper's Figure 8 apps made
// intermittent, with the fixed trial count of its footnote 1.
constexpr int kFlakyThreads = 14;
constexpr double kManifestProbability = 0.8;
constexpr int kFlakyTrials = 8;
constexpr int kParallelism = 2;
constexpr int kServiceClients = 4;
/// The flaky workloads' suite: apps of seeds 100..299, on which the AID
/// preset is known to name a wrong root cause for some seeds.
constexpr uint64_t kFirstAppSeed = 100;
constexpr size_t kAppSuite = 200;
/// Untimed sessions before the clock starts: page in code, fill allocator
/// caches and open the daemons' first connections.
constexpr size_t kCasesWarmup = 12;
constexpr size_t kFlakyWarmup = 4;
constexpr size_t kServiceWarmupPerClient = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string service;
  std::vector<std::string> runners;
};

/// One session's measurements and verdict, printed as a JSON line.
struct Record {
  size_t index = 0;
  std::string subject;
  const char* preset = "";
  bool warmup = false;
  bool traced = false;
  double start_s = 0;   ///< session start, seconds after the clock started
  double ms = 0;        ///< session start to report
  double setup_ms = 0;  ///< session start to first dispatchable action
  double teardown_ms = 0;  ///< report to session destroyed (not in ms)
  Verdict verdict = Verdict::kError;
  std::string error;
  bool root_ok = false;  ///< the report named the ground-truth root cause
  DiscoveryReport report;  ///< outcome fields only (history dropped)
  uint64_t edges_before = 0;
  uint64_t edges_pruned = 0;
};

/// Totals a traced session adds beyond its spans. setup_ns is the
/// session's own set-up time; Add leaves it out.
struct StepStats {
  int64_t setup_ns = 0;
  int64_t first_action_ns = 0;
  uint64_t actions = 0;
  uint64_t wire_trial_micros = 0;
  uint64_t action_executions = 0;

  void Add(const StepStats& other) {
    first_action_ns += other.first_action_ns;
    actions += other.actions;
    wire_trial_micros += other.wire_trial_micros;
    action_executions += other.action_executions;
  }
};

/// Everything one client thread measured.
struct ClientLog {
  std::vector<Record> records;
  std::map<std::string, LayerTotals> layers;
  StepStats steps;
  double untraced_ms = 0;  ///< sum over the untraced half of trace pairs
  double traced_ms = 0;    ///< sum over the traced half
  uint64_t traced_sessions = 0;

  /// Books the last two records, an untraced session and its traced twin.
  void AddTracePair() {
    untraced_ms += records[records.size() - 2].ms;
    traced_ms += records.back().ms;
    ++traced_sessions;
  }
};

template <typename F>
auto InSpan(SpanRecorder* recorder, const char* name, F&& body) {
  SpanRecorder::Scope scope(recorder, name);
  return body();
}

/// Marks when discovery can dispatch its first intervention: the engine
/// announces its first discovery phase right after the AC-DAG exists.
class SetupClock : public Observer {
 public:
  void OnPhaseChanged(SessionPhase phase) override {
    if (ready_ns_ == 0 && (phase == SessionPhase::kBranchPruning ||
                           phase == SessionPhase::kGiwp)) {
      ready_ns_ = NowNs();
    }
  }
  int64_t ready_ns() const { return ready_ns_; }

 private:
  int64_t ready_ns_ = 0;
};

/// Forwards every call to `inner` inside a span, so the subject's own time
/// shows as a child of the exec.action span that dispatched it.
class SpannedTarget final : public InterventionTarget {
 public:
  SpannedTarget(InterventionTarget* inner, SpanRecorder* recorder,
                const char* name)
      : inner_(inner), recorder_(recorder), name_(name) {}

  Result<TargetRunResult> RunIntervened(
      const std::vector<PredicateId>& intervened, int trials) override {
    SpanRecorder::Scope scope(recorder_, name_);
    return inner_->RunIntervened(intervened, trials);
  }
  Result<std::vector<TargetRunResult>> RunInterventionsBatch(
      const InterventionSpans& spans, int trials) override {
    SpanRecorder::Scope scope(recorder_, name_);
    return inner_->RunInterventionsBatch(spans, trials);
  }
  uint64_t executions() const override { return inner_->executions(); }
  TargetHealth health() const override { return inner_->health(); }
  DispatchStats dispatch_stats() const override {
    return inner_->dispatch_stats();
  }

 private:
  InterventionTarget* inner_;
  SpanRecorder* recorder_;
  const char* name_;
};

DiscoveryReport OutcomeOnly(DiscoveryReport report) {
  report.history.clear();
  report.confidence.clear();
  return report;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Moves the calling thread to the next CPU it may run on every
/// kRotateNs, and restores its CPU mask when destroyed. On a shared host
/// each vCPU runs at its own speed, which drifts between two levels for
/// minutes at a time as the work beside it comes and goes; a single thread
/// left on one vCPU inherits that drift, while one that visits every vCPU
/// in turn measures their average. Threads and processes a session starts
/// inherit the one-CPU mask, so the whole session shares one vCPU: that
/// vCPU stays busy while the session's processes hand trials back and
/// forth, instead of idling and waiting for the host to wake it.
class CpuRotator {
 public:
  CpuRotator() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotator() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotator(const CpuRotator&) = delete;
  CpuRotator& operator=(const CpuRotator&) = delete;

  /// Call between sessions.
  void Tick() {
    if (cpus_.size() < 2 || NowNs() < due_ns_) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
    due_ns_ = NowNs() + kRotateNs;
  }

 private:
  static constexpr int64_t kRotateNs = 50'000'000;
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
  int64_t due_ns_ = 0;
};

/// Session::Run, timed from Build to the report. The session lands in
/// `holder`, so the caller tears it down after the clock stops.
Result<SessionReport> RunSession(SessionBuilder builder, Record& record,
                                 std::optional<Session>& holder) {
  SetupClock clock;
  builder.WithObserver(&clock);
  const int64_t start = NowNs();
  Result<Session> built = builder.Build();
  if (!built.ok()) return built.status();
  Session* session = &holder.emplace(std::move(*built));
  Result<SessionReport> report = session->Run();
  const int64_t end = NowNs();
  record.ms = Ms(end - start);
  record.setup_ms = Ms((clock.ready_ns() != 0 ? clock.ready_ns() : end) -
                       start);
  return report;
}

/// The same pipeline as Session::Run, stepped layer by layer with a span
/// around each call. `trial_span` (may be null) wraps the intervention
/// target so subject time shows under exec.action. The session lands in
/// `holder`, so the caller tears it down outside its timing, as RunSession
/// does.
Result<SessionReport> StepSession(SessionBuilder builder,
                                  SpanRecorder* recorder,
                                  const char* trial_span, StepStats& stats,
                                  std::optional<Session>& holder) {
  const int64_t start = NowNs();
  Result<Session> built =
      InSpan(recorder, "api.build", [&] { return builder.Build(); });
  if (!built.ok()) return built.status();
  Session* session = &holder.emplace(std::move(*built));
  SessionTarget& target = session->target();

  std::optional<AcDag> owned_dag;
  const AcDag* dag = target.prebuilt_dag();
  {
    SpanRecorder::Scope scope(recorder, "causal.acdag");
    if (dag == nullptr) {
      AID_ASSIGN_OR_RETURN(AcDag built, target.BuildAcDag());
      owned_dag.emplace(std::move(built));
      dag = &*owned_dag;
    }
  }
  EngineOptions engine = session->options().engine;
  engine.observer = nullptr;
  if (engine.budget.enabled && engine.budget.advice.sd_scores.empty()) {
    engine.budget.advice.sd_scores = target.sd_suspiciousness();
  }
  AID_RETURN_IF_ERROR(ValidateDiscoveryOptions(engine));
  stats.setup_ns += NowNs() - start;

  std::optional<SpannedTarget> spanned;
  InterventionTarget* intervention = target.intervention_target();
  if (trial_span != nullptr) {
    spanned.emplace(intervention, recorder, trial_span);
    intervention = &*spanned;
  }
  DiscoveryState state(dag, engine, Rng(engine.seed));
  bool first_action = true;
  while (true) {
    Result<DiscoveryAction> action =
        InSpan(recorder, "core.plan", [&] { return state.NextAction(); });
    if (!action.ok()) return action.status();
    if (action->kind == DiscoveryAction::Kind::kDone) break;
    const int64_t action_start = NowNs();
    Result<ActionOutcome> outcome = InSpan(recorder, "exec.action", [&] {
      return ExecuteDiscoveryAction(state, *action, intervention);
    });
    if (first_action) stats.first_action_ns += NowNs() - action_start;
    first_action = false;
    if (!outcome.ok()) return outcome.status();
    ++stats.actions;
    stats.wire_trial_micros += outcome->trial_micros_delta;
    stats.action_executions += outcome->executions_delta;
    AID_RETURN_IF_ERROR(InSpan(recorder, "core.absorb", [&] {
      return state.Feed(*action, *outcome);
    }));
  }
  SessionReport report;
  AID_ASSIGN_OR_RETURN(report.discovery, InSpan(recorder, "core.finalize", [&] {
                         return state.Finalize();
                       }));
  report.discovery.analysis = target.analysis_summary();
  if (report.discovery.has_root_cause()) {
    report.root_cause = target.catalog()->Describe(
        report.discovery.root_cause(), target.method_names(),
        target.object_names());
  }
  return report;
}

// ------------------------------------------------------------- inputs --

/// Session j's subject and engine preset.
struct Input {
  size_t subject = 0;  ///< case-study index or app index
  EnginePreset preset = EnginePreset::kAid;
};

struct FlakyApp {
  uint64_t seed = 0;
  std::unique_ptr<GroundTruthModel> model;
};

/// Subjects of the flaky suite per stratum of StratifiedOrder.
constexpr size_t kFlakyStratum = 10;

/// The flaky suite: the Figure 8 apps of seeds kFirstAppSeed and up.
Result<std::vector<FlakyApp>> MakeFlakyApps() {
  std::vector<FlakyApp> apps(kAppSuite);
  for (size_t i = 0; i < kAppSuite; ++i) {
    apps[i].seed = kFirstAppSeed + i;
    SyntheticAppOptions options;
    options.max_threads = kFlakyThreads;
    options.seed = apps[i].seed;
    AID_ASSIGN_OR_RETURN(apps[i].model, GenerateSyntheticApp(options));
  }
  return apps;
}

/// Session j debugs app order[j / 2], with the AID preset when j is even
/// and Linear when odd.
Input FlakyInput(const std::vector<size_t>& order, size_t j) {
  return Input{order[(j / 2) % order.size()],
               j % 2 == 0 ? EnginePreset::kAid : EnginePreset::kLinear};
}

const char* PresetName(EnginePreset preset) {
  return preset == EnginePreset::kAid ? "aid" : "linear";
}

/// Engine options of a service-fleet session: AID runs with adaptive
/// budgeting, Linear without.
EngineOptions ServiceEngine(EnginePreset preset) {
  EngineOptions engine = preset == EnginePreset::kAid ? EngineOptions::Aid()
                                                      : EngineOptions::Linear();
  engine.trials_per_intervention = kFlakyTrials;
  engine.parallelism = kParallelism;
  engine.budget.enabled = preset == EnginePreset::kAid;
  return engine;
}

// ---------------------------------------------------------- workloads --

/// What a single-client workload varies per session.
struct SingleClientWorkload {
  size_t warmup = 0;
  /// The session as users configure it.
  std::function<SessionBuilder(const Input&)> session;
  /// Span name wrapped around subject executions of traced sessions, or
  /// null when they run out of process.
  const char* trial_span = nullptr;
  /// Rotate the client over the CPUs (CpuRotator); each session then runs
  /// on one CPU, its worker threads and processes included.
  bool rotate_cpus = false;
};

void Fill(Record& record, const Result<SessionReport>& report) {
  if (!report.ok()) {
    record.verdict = Verdict::kError;
    record.error = report.status().ToString();
    return;
  }
  record.report = OutcomeOnly(report->discovery);
  record.edges_before = report->discovery.analysis.edges_before;
  record.edges_pruned = report->discovery.analysis.edges_pruned;
}

/// A distinct input of the workload's suite, judged by its reference: the
/// answer every session of that input must reproduce.
struct InputVerdict {
  Input in;
  std::string subject;
  /// The reference produced a report naming the ground-truth root cause.
  bool root_ok = false;
};

/// The workload's fixed suite and how each of its inputs is judged.
struct Suite {
  std::vector<Input> inputs;
  std::function<Input(size_t j)> input_of;  ///< session j's input
  std::function<std::string(const Input&)> subject;
  /// The in-process serial session a report must equal.
  std::function<SessionBuilder(const Input&)> reference;
  std::function<bool(const Input&, const SessionReport&)> truth;
};

struct RunLog {
  std::vector<ClientLog> clients;
  std::vector<InputVerdict> inputs;
  /// The reference outcome of each input, in the order of `inputs`.
  std::vector<std::optional<DiscoveryReport>> references;
  double elapsed_s = 0;
  /// Reference replays (in-process, serial, stepped with subject spans).
  std::map<std::string, LayerTotals> replay_layers;
  uint64_t replay_executions = 0;
  /// service-fleet: runner-side totals and the executions the reports
  /// claim, over every session this run submitted.
  uint64_t runner_trials = 0;
  uint64_t runner_trial_micros = 0;
  uint64_t service_executions = 0;
  std::string runner_error;
};

/// Runs the reference of every input of the suite, before the timed loop.
/// Each input is judged whether or not a timed session visits it, so the
/// verdicts over the suite do not depend on how far a run gets.
void RunReferences(RunLog& log, const Suite& suite) {
  SpanRecorder replay;
  for (const Input& in : suite.inputs) {
    StepStats ignored;
    std::optional<Session> holder;
    Result<SessionReport> ref = StepSession(suite.reference(in), &replay,
                                            "subject.trial", ignored, holder);
    replay.Fold(log.replay_layers);
    InputVerdict verdict{in, suite.subject(in)};
    std::optional<DiscoveryReport> outcome;
    if (ref.ok()) {
      outcome = OutcomeOnly(ref->discovery);
      log.replay_executions += ref->discovery.executions;
      verdict.root_ok = suite.truth(in, *ref);
    } else {
      std::fprintf(stderr, "perfbench: reference of %s failed: %s\n",
                   verdict.subject.c_str(), ref.status().ToString().c_str());
    }
    log.inputs.push_back(std::move(verdict));
    log.references.push_back(std::move(outcome));
  }
}

/// Each subject's reference executions, summed over its inputs: the cost
/// StratifiedOrder ranks subjects by.
std::vector<uint64_t> ReferenceCosts(const RunLog& log, size_t subjects) {
  std::vector<uint64_t> costs(subjects, 0);
  for (size_t i = 0; i < log.inputs.size(); ++i) {
    if (log.references[i].has_value()) {
      costs[log.inputs[i].in.subject] += log.references[i]->executions;
    }
  }
  return costs;
}

/// Judges every record against the reference of its input.
void JudgeRecords(RunLog& log, const Suite& suite) {
  std::map<std::pair<size_t, int>, size_t> slot_of;
  for (size_t i = 0; i < log.inputs.size(); ++i) {
    const Input& in = log.inputs[i].in;
    slot_of[{in.subject, static_cast<int>(in.preset)}] = i;
  }
  for (ClientLog& client : log.clients) {
    for (Record& record : client.records) {
      if (!record.error.empty()) continue;
      const Input in = suite.input_of(record.index);
      auto it = slot_of.find({in.subject, static_cast<int>(in.preset)});
      if (it == slot_of.end() || !log.references[it->second].has_value()) {
        record.verdict = Verdict::kError;
        record.error = "no reference";
        continue;
      }
      record.verdict = perfbench::Judge(
          record.report, &*log.references[it->second], record.root_ok);
    }
  }
}

/// Runs the timed loop of a single-client workload; `log` already holds
/// the suite's references.
RunLog RunSingleClient(const SingleClientWorkload& w, const Suite& suite,
                       const Args& args, RunLog log) {
  log.clients.resize(1);
  ClientLog& client = log.clients[0];
  SpanRecorder recorder;
  int64_t clock_ns = NowNs();
  auto run_one = [&](size_t j, bool warmup, bool traced) {
    const Input in = suite.input_of(j);
    Record record;
    record.start_s = static_cast<double>(NowNs() - clock_ns) / 1e9;
    record.index = j;
    record.subject = suite.subject(in);
    record.preset = PresetName(in.preset);
    record.warmup = warmup;
    record.traced = traced;
    Result<SessionReport> report = Status::Internal("not run");
    std::optional<Session> holder;
    if (traced) {
      StepStats stats;
      const int64_t start = NowNs();
      {
        SpanRecorder::Scope root(&recorder, "session");
        report = StepSession(w.session(in), &recorder, w.trial_span, stats,
                             holder);
      }
      const int64_t end = NowNs();
      recorder.Fold(client.layers);
      record.ms = Ms(end - start);
      record.setup_ms = Ms(stats.setup_ns);
      client.steps.Add(stats);
    } else {
      report = RunSession(w.session(in), record, holder);
    }
    const int64_t teardown = NowNs();
    holder.reset();
    record.teardown_ms = Ms(NowNs() - teardown);
    Fill(record, report);
    record.root_ok = report.ok() && suite.truth(in, *report);
    client.records.push_back(std::move(record));
  };

  size_t j = 0;
  for (; j < w.warmup; ++j) run_one(j, /*warmup=*/true, /*traced=*/false);
  std::optional<CpuRotator> rotator;
  if (w.rotate_cpus) rotator.emplace();
  const int64_t start = NowNs();
  clock_ns = start;
  const int64_t deadline =
      start + static_cast<int64_t>(args.seconds * 1e9);
  while (NowNs() < deadline) {
    if (rotator.has_value()) rotator->Tick();
    run_one(j, false, false);
    if (args.trace) {
      run_one(j, false, true);
      client.AddTracePair();
    }
    ++j;
  }
  log.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  rotator.reset();

  JudgeRecords(log, suite);
  return log;
}

RunLog RunCases(const Args& args) {
  const std::vector<std::string>& keys = CaseStudyKeys();
  std::vector<std::string> expected;
  for (const std::string& key : keys) {
    Result<CaseStudy> study = MakeCaseStudyByKey(key);
    if (!study.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   study.status().ToString().c_str());
      std::exit(2);
    }
    expected.push_back(study->expected_root_substring);
  }
  std::vector<size_t> order;
  auto builder = [&keys](const Input& in) {
    SessionBuilder b;
    b.WithCaseStudy(keys[in.subject])
        .WithStaticAnalysis()
        .WithEngine(EnginePreset::kAid);
    return b;
  };
  Suite suite;
  for (size_t i = 0; i < keys.size(); ++i) {
    suite.inputs.push_back(Input{i, EnginePreset::kAid});
  }
  suite.input_of = [&order](size_t j) {
    return Input{order[j % order.size()], EnginePreset::kAid};
  };
  suite.subject = [&keys](const Input& in) { return keys[in.subject]; };
  suite.reference = builder;
  suite.truth = [&expected](const Input& in, const SessionReport& report) {
    return report.discovery.has_root_cause() &&
           report.root_cause.find(expected[in.subject]) != std::string::npos;
  };
  RunLog log;
  RunReferences(log, suite);
  order = StratifiedOrder(args.seed, ReferenceCosts(log, keys.size()),
                          /*stratum=*/1, /*passes=*/4096);
  SingleClientWorkload w;
  w.warmup = kCasesWarmup;
  w.session = builder;
  w.trial_span = "runtime.trial";
  w.rotate_cpus = true;
  return RunSingleClient(w, suite, args, std::move(log));
}

/// The flaky workloads' suite: every app under AID and under Linear, in
/// the session order FlakyInput gives; `reference` is left to the caller.
/// `order` is filled in once the references have run (FlakyOrder).
Suite FlakySuite(const std::vector<FlakyApp>& apps,
                 const std::vector<size_t>& order) {
  Suite suite;
  for (size_t i = 0; i < apps.size(); ++i) {
    suite.inputs.push_back(Input{i, EnginePreset::kAid});
    suite.inputs.push_back(Input{i, EnginePreset::kLinear});
  }
  suite.input_of = [&order](size_t j) { return FlakyInput(order, j); };
  suite.subject = [&apps](const Input& in) {
    return "app-" + std::to_string(apps[in.subject].seed);
  };
  suite.truth = [&apps](const Input& in, const SessionReport& report) {
    return report.discovery.root_cause() ==
           apps[in.subject].model->root_cause();
  };
  return suite;
}

/// Runs the suite's references into a new log, then fills in `order`.
RunLog FlakyOrder(const Suite& suite, const Args& args, size_t apps,
                  std::vector<size_t>& order) {
  RunLog log;
  RunReferences(log, suite);
  order = StratifiedOrder(args.seed, ReferenceCosts(log, apps), kFlakyStratum,
                          /*passes=*/64);
  return log;
}

RunLog RunFlakyPipe(const Args& args, const std::vector<FlakyApp>& apps) {
  std::vector<size_t> order;
  Suite suite = FlakySuite(apps, order);
  // parallelism > 1 implies batched linear-scan dispatch; the serial
  // reference asks for it explicitly.
  suite.reference = [&apps](const Input& in) {
    const FlakyApp& app = apps[in.subject];
    SessionBuilder b;
    b.WithFlakyModel(app.model.get(), kManifestProbability, app.seed)
        .WithEngine(in.preset)
        .WithTrials(kFlakyTrials)
        .WithBatchedDispatch(true);
    return b;
  };
  SingleClientWorkload w;
  w.warmup = kFlakyWarmup;
  w.session = [&apps](const Input& in) {
    const FlakyApp& app = apps[in.subject];
    SessionBuilder b;
    b.WithFlakyModel(app.model.get(), kManifestProbability, app.seed)
        .WithEngine(in.preset)
        .WithTrials(kFlakyTrials)
        .WithProcessIsolation()
        .WithParallelism(kParallelism);
    return b;
  };
  w.rotate_cpus = true;
  RunLog log = FlakyOrder(suite, args, apps.size(), order);
  return RunSingleClient(w, suite, args, std::move(log));
}

Result<std::pair<uint64_t, uint64_t>> RunnerTotals(
    const std::string& endpoint) {
  AID_ASSIGN_OR_RETURN(std::string json, FetchRunnerStats(endpoint));
  auto field = [&json](const char* key) -> Result<uint64_t> {
    const std::string needle = std::string("\"") + key + "\":";
    const size_t at = json.find(needle);
    if (at == std::string::npos) {
      return Status::Internal(std::string("runner stats lack ") + key);
    }
    return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
  };
  AID_ASSIGN_OR_RETURN(uint64_t trials, field("trials"));
  AID_ASSIGN_OR_RETURN(uint64_t micros, field("trial_micros_total"));
  return std::make_pair(trials, micros);
}

RunLog RunServiceFleet(const Args& args, const std::vector<FlakyApp>& apps) {
  // The service builds the same target with parallelism 2 over the fleet;
  // the reference runs it in process, serially, with batched dispatch.
  std::vector<size_t> order;
  Suite suite = FlakySuite(apps, order);
  suite.reference = [&apps](const Input& in) {
    const FlakyApp& app = apps[in.subject];
    EngineOptions engine = ServiceEngine(in.preset);
    engine.parallelism = 1;
    engine.batched_dispatch = true;
    SessionBuilder b;
    b.WithFlakyModel(app.model.get(), kManifestProbability, app.seed)
        .WithEngineOptions(engine);
    return b;
  };
  RunLog log = FlakyOrder(suite, args, apps.size(), order);
  Result<Endpoint> endpoint = ParseEndpoint(args.service);
  if (!endpoint.ok()) {
    std::fprintf(stderr, "perfbench: --service: %s\n",
                 endpoint.status().ToString().c_str());
    std::exit(2);
  }
  log.clients.resize(kServiceClients);
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> executions{0};

  std::atomic<int64_t> clock_ns{NowNs()};
  auto run_one = [&](ClientLog& client, SpanRecorder& recorder, size_t j,
                     bool warmup_session, bool traced) {
    const Input in = FlakyInput(order, j);
    const FlakyApp& app = apps[in.subject];
    Record record;
    record.index = j;
    record.subject = "app-" + std::to_string(app.seed);
    record.preset = PresetName(in.preset);
    record.warmup = warmup_session;
    record.traced = traced;
    ServiceSubmission submission;
    submission.label = "s" + std::to_string(j) + (traced ? "t" : "");
    submission.spec.kind = SubjectKind::kFlakyModel;
    submission.spec.model = app.model.get();
    submission.spec.manifest_probability = kManifestProbability;
    submission.spec.flaky_seed = app.seed;
    submission.engine = ServiceEngine(in.preset);

    SpanRecorder* spans = traced ? &recorder : nullptr;
    std::optional<SpanRecorder::Scope> root;
    if (spans != nullptr) root.emplace(spans, "session");
    auto in_span = [spans](const char* name, auto&& body) {
      if (spans == nullptr) return body();
      return InSpan(spans, name, body);
    };
    const int64_t start = NowNs();
    record.start_s = static_cast<double>(start - clock_ns.load()) / 1e9;
    Result<std::unique_ptr<ServiceClient>> connection =
        in_span("net.connect",
                [&] { return ServiceClient::Connect(*endpoint, 5000); });
    Result<AcceptedMsg> accepted = Status::Internal("not submitted");
    if (connection.ok()) {
      accepted = in_span("service.admit", [&] {
        return (*connection)->Submit(submission);
      });
    }
    const int64_t admitted = NowNs();
    Result<ServiceOutcome> outcome = Status::Internal("not admitted");
    if (accepted.ok()) {
      outcome = in_span("service.await",
                        [&] { return (*connection)->Await(120000); });
    }
    const int64_t end = NowNs();
    root.reset();
    if (spans != nullptr) spans->Fold(client.layers);
    record.ms = Ms(end - start);
    record.setup_ms = Ms(admitted - start);
    if (!connection.ok()) {
      record.error = connection.status().ToString();
    } else if (!accepted.ok()) {
      record.verdict = Verdict::kRejected;
      record.error = accepted.status().ToString();
    } else if (!outcome.ok() || outcome->checkpointed) {
      record.error = outcome.ok() ? "unexpected checkpoint"
                                  : outcome.status().ToString();
    } else {
      record.report = OutcomeOnly(outcome->report);
      record.root_ok = outcome->report.root_cause() == app.model->root_cause();
      executions.fetch_add(outcome->report.executions);
    }
    client.records.push_back(std::move(record));
  };

  // Warm-up runs on every client at once; the clock starts after all of it
  // has finished, and each client then loops until the shared deadline.
  std::vector<SpanRecorder> recorders(kServiceClients);
  auto on_every_client = [&](auto&& body) {
    std::vector<std::thread> threads;
    for (int c = 0; c < kServiceClients; ++c) {
      threads.emplace_back([&, c] { body(log.clients[c], recorders[c]); });
    }
    for (std::thread& thread : threads) thread.join();
  };
  on_every_client([&](ClientLog& client, SpanRecorder& recorder) {
    for (size_t i = 0; i < kServiceWarmupPerClient; ++i) {
      run_one(client, recorder, next.fetch_add(1), true, false);
    }
  });
  const int64_t start = NowNs();
  clock_ns = start;
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  on_every_client([&](ClientLog& client, SpanRecorder& recorder) {
    while (NowNs() < deadline) {
      const size_t j = next.fetch_add(1);
      run_one(client, recorder, j, false, false);
      if (args.trace) {
        run_one(client, recorder, j, false, true);
        client.AddTracePair();
      }
    }
  });
  log.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;

  log.service_executions = executions.load();
  for (const std::string& runner : args.runners) {
    Result<std::pair<uint64_t, uint64_t>> totals = RunnerTotals(runner);
    if (!totals.ok()) {
      log.runner_error = totals.status().ToString();
      continue;
    }
    log.runner_trials += totals->first;
    log.runner_trial_micros += totals->second;
  }

  JudgeRecords(log, suite);
  return log;
}

// ------------------------------------------------------------- output --

void PrintLayers(const char* key, const std::map<std::string, LayerTotals>& m,
                 bool& first) {
  std::printf("%s\"%s\":{", first ? "" : ",", key);
  first = false;
  bool first_layer = true;
  for (const auto& [name, totals] : m) {
    std::printf("%s\"%s\":{\"count\":%" PRIu64 ",\"total_ns\":%" PRId64
                ",\"self_ns\":%" PRId64 "}",
                first_layer ? "" : ",", name.c_str(), totals.count,
                totals.total_ns, totals.self_ns);
    first_layer = false;
  }
  std::printf("}");
}

void PrintRecord(const Record& r) {
  const DiscoveryReport& d = r.report;
  std::printf(
      "{\"type\":\"session\",\"index\":%zu,\"subject\":\"%s\","
      "\"preset\":\"%s\",\"warmup\":%d,\"traced\":%d,"
      "\"start_s\":%.6f,\"ms\":%.6f,"
      "\"setup_ms\":%.6f,\"teardown_ms\":%.6f,\"verdict\":\"%s\",\"executions\":%" PRIu64
      ",\"rounds\":%" PRIu64 ",\"speculative\":%" PRIu64
      ",\"steals\":%" PRIu64 ",\"straggler_wait_us\":%" PRIu64
      ",\"respawns\":%" PRIu64 ",\"crashed_trials\":%" PRIu64
      ",\"budget_allocated\":%" PRIu64 ",\"budget_saved\":%" PRId64
      ",\"budget_early_stops\":%" PRIu64 ",\"edges_before\":%" PRIu64
      ",\"edges_pruned\":%" PRIu64 "}\n",
      r.index, r.subject.c_str(), r.preset, r.warmup ? 1 : 0,
      r.traced ? 1 : 0, r.start_s, r.ms, r.setup_ms, r.teardown_ms, perfbench::VerdictName(r.verdict),
      d.executions, d.rounds, d.speculative_executions, d.steals,
      d.straggler_wait_micros, d.respawns, d.crashed_trials,
      d.budgeted_trials_allocated, d.budgeted_trials_saved,
      d.budget_early_stops, r.edges_before, r.edges_pruned);
  if (!r.error.empty()) {
    std::fprintf(stderr, "perfbench: session %zu (%s): %s\n", r.index,
                 r.subject.c_str(), r.error.c_str());
  }
}

void PrintInput(const InputVerdict& v) {
  std::printf("{\"type\":\"input\",\"subject\":\"%s\",\"preset\":\"%s\","
              "\"root_ok\":%d}\n",
              v.subject.c_str(), PresetName(v.in.preset), v.root_ok ? 1 : 0);
}

void PrintRun(const RunLog& log) {
  for (const InputVerdict& input : log.inputs) PrintInput(input);
  std::map<std::string, LayerTotals> layers;
  StepStats steps;
  double untraced_ms = 0;
  double traced_ms = 0;
  uint64_t traced_sessions = 0;
  for (const ClientLog& client : log.clients) {
    for (const Record& record : client.records) PrintRecord(record);
    for (const auto& [name, totals] : client.layers) {
      LayerTotals& into = layers[name];
      into.count += totals.count;
      into.total_ns += totals.total_ns;
      into.self_ns += totals.self_ns;
    }
    steps.Add(client.steps);
    untraced_ms += client.untraced_ms;
    traced_ms += client.traced_ms;
    traced_sessions += client.traced_sessions;
  }
  std::printf("{\"type\":\"run\",\"elapsed_s\":%.6f,"
              "\"traced_sessions\":%" PRIu64 ",\"untraced_pair_ms\":%.6f,"
              "\"traced_pair_ms\":%.6f,\"first_action_ns\":%" PRId64
              ",\"actions\":%" PRIu64 ",\"wire_trial_micros\":%" PRIu64
              ",\"action_executions\":%" PRIu64
              ",\"replay_executions\":%" PRIu64
              ",\"runner_trials\":%" PRIu64
              ",\"runner_trial_micros\":%" PRIu64
              ",\"service_executions\":%" PRIu64 ",\"runner_error\":\"%s\",",
              log.elapsed_s, traced_sessions, untraced_ms,
              traced_ms, steps.first_action_ns, steps.actions,
              steps.wire_trial_micros, steps.action_executions,
              log.replay_executions, log.runner_trials,
              log.runner_trial_micros, log.service_executions,
              log.runner_error.empty() ? "" : "unreachable");
  bool first = true;
  PrintLayers("layers", layers, first);
  PrintLayers("replay_layers", log.replay_layers, first);
  std::printf("}\n");
  if (!log.runner_error.empty()) {
    std::fprintf(stderr, "perfbench: runner stats: %s\n",
                 log.runner_error.c_str());
  }
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--service") {
      args.service = value;
    } else if (flag == "--runners") {
      std::string list = value;
      size_t from = 0;
      while (from < list.size()) {
        size_t comma = list.find(',', from);
        if (comma == std::string::npos) comma = list.size();
        if (comma > from) args.runners.push_back(list.substr(from, comma - from));
        from = comma + 1;
      }
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --seed N --seconds S "
                 "--trace 0|1 [--service H:P --runners H:P,...]\n");
    return 2;
  }
  RunLog log;
  if (args.workload == "cases") {
    log = RunCases(args);
  } else if (args.workload == "flaky-pipe" ||
             args.workload == "service-fleet") {
    Result<std::vector<FlakyApp>> apps = MakeFlakyApps();
    if (!apps.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   apps.status().ToString().c_str());
      return 2;
    }
    if (args.workload == "flaky-pipe") {
      log = RunFlakyPipe(args, *apps);
    } else {
      if (args.service.empty()) {
        std::fprintf(stderr, "perfbench: service-fleet needs --service\n");
        return 2;
      }
      log = RunServiceFleet(args, *apps);
    }
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  PrintRun(log);
  return 0;
}
