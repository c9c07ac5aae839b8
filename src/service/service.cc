#include "service/service.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <optional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#if AID_NET_SUPPORTED
#include <unistd.h>
#endif

#include "api/session_target.h"
#include "common/logging.h"
#include "core/discovery_state.h"
#include "exec/replicable.h"
#include "net/channel.h"
#include "proc/subject_spec.h"
#include "service/protocol.h"

namespace aid {

#if AID_NET_SUPPORTED

namespace {

/// Deadline on any one admission/reply frame. The conversation is one
/// round trip; the bound only caps a stalled peer.
constexpr int kFrameDeadlineMs = 30000;

}  // namespace

class DiscoveryService::Impl {
 public:
  explicit Impl(ServiceOptions options) : options_(std::move(options)) {
    if (options_.accept_poll_ms <= 0) options_.accept_poll_ms = 200;
    if (options_.workers <= 0) options_.workers = 1;
  }

  ~Impl() { Stop(); }

  Status Start() {
    AID_ASSIGN_OR_RETURN(
        listen_fd_,
        ListenOn(options_.host, options_.port, options_.backlog));
    AID_ASSIGN_OR_RETURN(port_, BoundPort(listen_fd_));
    if (options_.telemetry != nullptr) {
      MetricsRegistry& metrics = options_.telemetry->metrics();
      sessions_counter_ = metrics.GetCounter("aid_service_sessions_total");
      rejections_counter_ =
          metrics.GetCounter("aid_service_rejections_total");
      reports_counter_ = metrics.GetCounter("aid_service_reports_total");
      checkpoints_counter_ =
          metrics.GetCounter("aid_service_checkpoints_total");
      failures_counter_ = metrics.GetCounter("aid_service_failures_total");
    }
    accept_thread_ = std::thread([this]() { AcceptLoop(); });
    for (int i = 0; i < options_.workers; ++i) {
      workers_.emplace_back([this]() { WorkerLoop(); });
    }
    return Status::OK();
  }

  void Stop() {
    if (stopping_.exchange(true)) {
      if (accept_thread_.joinable()) accept_thread_.join();
      for (std::thread& worker : workers_) {
        if (worker.joinable()) worker.join();
      }
      return;
    }
    if (accept_thread_.joinable()) accept_thread_.join();
    cv_.notify_all();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    // Sessions still live never finished; tell their clients why.
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, session] : sessions_) {
      (void)session->channel->Write(
          ProcMsgType::kError,
          EncodeError(Status::Aborted("service shutting down")),
          /*deadline_ms=*/1000);
    }
    sessions_.clear();
    runnable_.clear();
  }

  const std::string& host() const { return options_.host; }
  int port() const { return port_; }

  int live_sessions() {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(sessions_.size());
  }

  uint64_t sessions_accepted() const { return sessions_accepted_.load(); }

 private:
  /// One live discovery: the client connection, the subject rebuilt from
  /// its spec (the spec owns the model/program the target borrows), and
  /// the resumable state machine being interleaved.
  struct Session {
    uint64_t id = 0;
    std::string label;
    std::unique_ptr<SocketChannel> channel;
    OwnedSubjectSpec spec;
    std::unique_ptr<SessionTarget> target;
    std::optional<AcDag> dag;
    std::unique_ptr<DiscoveryState> state;
    uint64_t checkpoint_after_rounds = 0;
    /// session_quota not already enforced by the session's own execution
    /// budget: the scheduler stops the session itself. Fresh budgeted
    /// sessions have the quota folded into their global budget instead and
    /// degrade gracefully; a resumed checkpoint keeps the budget it was
    /// written with, which may be unbounded or looser than this daemon's.
    bool quota_enforced_externally = false;

    /// Per-session labeled instruments (null without telemetry) and the
    /// values already folded into them, so every turn adds only deltas.
    Counter* rounds_counter = nullptr;
    Counter* executions_counter = nullptr;
    Counter* turns_counter = nullptr;
    uint64_t folded_rounds = 0;
    uint64_t folded_executions = 0;
  };

  void AcceptLoop() {
    while (!stopping_.load()) {
      Result<int> conn = AcceptConnection(listen_fd_, options_.accept_poll_ms);
      if (!conn.ok()) {
        if (conn.status().code() == StatusCode::kDeadlineExceeded) continue;
        return;  // listen socket broke (or Stop() is tearing down)
      }
      Admit(*conn);
    }
  }

  /// The whole admission conversation: HELLO out, SUBMIT in, session built,
  /// ACCEPTED (or structured ERROR) out. Runs on the accept thread, so
  /// admissions are serial and the cap check cannot race itself.
  void Admit(int conn_fd) {
    auto channel = std::make_unique<SocketChannel>(conn_fd);
    HelloMsg hello;
    hello.magic = kServiceMagic;
    hello.version = kServiceProtocolVersion;
    hello.pid = static_cast<uint64_t>(::getpid());
    if (!channel->Write(ProcMsgType::kHello, EncodeHello(hello),
                        kFrameDeadlineMs)
             .ok()) {
      return;
    }
    Result<ProcFrame> frame = channel->Read(kFrameDeadlineMs);
    if (!frame.ok()) return;
    if (frame->type != AsProcMsgType(ServiceMsgType::kSubmit)) {
      Reject(*channel,
             Status::InvalidArgument(
                 "service: expected SUBMIT, got " +
                 std::string(ServiceFrameName(frame->type))));
      return;
    }
    Result<SubmitMsg> submit = DecodeSubmit(frame->payload);
    if (!submit.ok()) {
      Reject(*channel, submit.status());
      return;
    }
    if (options_.max_sessions > 0 &&
        live_sessions() >= options_.max_sessions) {
      Reject(*channel,
             Status::FailedPrecondition(
                 "service at its session cap (--max-sessions " +
                 std::to_string(options_.max_sessions) +
                 "): retry once a session finishes or raise the cap"));
      return;
    }
    Result<std::unique_ptr<Session>> session = BuildSession(std::move(*submit));
    if (!session.ok()) {
      Reject(*channel, session.status());
      return;
    }
    (*session)->channel = std::move(channel);
    AcceptedMsg accepted;
    accepted.session_id = (*session)->id;
    accepted.resumed = (*session)->folded_rounds > 0;
    // Counted before ACCEPTED goes out, so a client holding ACCEPTED never
    // reads a count that misses its own session.
    sessions_accepted_.fetch_add(1);
    if (!(*session)
             ->channel
             ->Write(AsProcMsgType(ServiceMsgType::kAccepted),
                     EncodeAccepted(accepted), kFrameDeadlineMs)
             .ok()) {
      sessions_accepted_.fetch_sub(1);
      return;  // client hung up before the answer; drop the session
    }
    // The exported counter is monotonic and cannot take a count back, so
    // it counts only sessions whose ACCEPTED was delivered.
    if (sessions_counter_ != nullptr) sessions_counter_->Add();
    {
      std::lock_guard<std::mutex> lock(mu_);
      const uint64_t id = (*session)->id;
      sessions_.emplace(id, std::move(*session));
      runnable_.push_back(id);
    }
    cv_.notify_one();
  }

  void Reject(SocketChannel& channel, const Status& status) {
    if (rejections_counter_ != nullptr) rejections_counter_->Add();
    (void)channel.Write(ProcMsgType::kError, EncodeError(status),
                        kFrameDeadlineMs);
  }

  Result<std::unique_ptr<Session>> BuildSession(SubmitMsg msg) {
    auto session = std::make_unique<Session>();
    session->id = next_session_id_.fetch_add(1);
    session->label = msg.label.empty()
                         ? "session-" + std::to_string(session->id)
                         : std::move(msg.label);
    session->checkpoint_after_rounds = msg.checkpoint_after_rounds;
    AID_ASSIGN_OR_RETURN(session->spec, DecodeSubjectSpec(msg.spec));
    // Fault injection is a test knob of a session's own substrate. The
    // daemon's fleet is shared and its trials run without a deadline, so a
    // client's hang or crash period would wedge a worker or respawn-loop it.
    session->spec.spec.crash_period = 0;
    session->spec.spec.hang_period = 0;

    const bool resuming = !msg.state.empty();
    EngineOptions engine;
    if (!msg.engine.empty()) {
      WireReader reader(msg.engine);
      AID_ASSIGN_OR_RETURN(engine, DecodeEngineOptions(reader));
      AID_RETURN_IF_ERROR(reader.Finish());
    }
    if (!resuming) {
      // Fold the daemon's per-session quota into the adaptive budget; with
      // budgeting off the scheduler enforces it externally instead.
      if (options_.session_quota > 0 && engine.budget.enabled) {
        engine.budget.max_executions =
            engine.budget.max_executions == 0
                ? options_.session_quota
                : std::min(engine.budget.max_executions,
                           options_.session_quota);
      }
      AID_RETURN_IF_ERROR(ValidateDiscoveryOptions(engine));
    }

    // The target is shared with the daemon's runner fleet; the spec stays
    // alive inside the session, and the target borrows it.
    TargetConfig config;
    config.parallelism = std::max(engine.parallelism, 1);
    config.fleet = options_.fleet;
    AID_ASSIGN_OR_RETURN(session->target,
                         MakeSessionTarget(session->spec.spec, config));
    AID_ASSIGN_OR_RETURN(AcDag dag, session->target->BuildAcDag());
    session->dag.emplace(std::move(dag));

    if (resuming) {
      // The checkpoint carries the options the discovery started with
      // (SUBMIT's engine bytes only shaped the rebuilt target above).
      AID_ASSIGN_OR_RETURN(
          session->state,
          DiscoveryState::Deserialize(&*session->dag, msg.state,
                                      /*observer=*/nullptr,
                                      /*telemetry=*/nullptr));
      // Positional nondeterminism (flaky manifestation flips, injected
      // faults) is a pure function of the global trial index, so parking
      // the rebuilt target at the checkpoint's spend ledger replays the
      // uninterrupted run's coin flips exactly (exec/replicable.h).
      if (auto* replicable = dynamic_cast<ReplicableTarget*>(
              session->target->intervention_target())) {
        replicable->SeekTrial(session->state->executions());
      }
    } else {
      engine.observer = nullptr;
      engine.telemetry = nullptr;  // see the header: engine spans stay off
      session->state = std::make_unique<DiscoveryState>(
          &*session->dag, engine, Rng(engine.seed));
    }
    const BudgetOptions& budget = session->state->options().budget;
    session->quota_enforced_externally =
        options_.session_quota > 0 &&
        (!budget.enabled || budget.max_executions == 0 ||
         budget.max_executions > options_.session_quota);
    session->folded_rounds = session->state->next_round_index() - 1;
    session->folded_executions = session->state->executions();

    if (options_.telemetry != nullptr) {
      MetricsRegistry& metrics = options_.telemetry->metrics();
      const MetricLabels labels = {{"session", session->label}};
      session->rounds_counter =
          metrics.GetCounter("aid_service_rounds_total", labels);
      session->executions_counter =
          metrics.GetCounter("aid_service_executions_total", labels);
      session->turns_counter =
          metrics.GetCounter("aid_service_turns_total", labels);
      // A resumed session's pre-checkpoint work was counted where it ran;
      // only the rounds executed HERE are folded in (folded_* above).
    }
    return session;
  }

  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [this]() {
        return stopping_.load() || !runnable_.empty();
      });
      if (stopping_.load()) return;
      const uint64_t id = runnable_.front();
      runnable_.pop_front();
      Session* session = sessions_.at(id).get();
      // One worker owns the session for the whole turn (its id is out of
      // the queue), so target I/O runs without the lock.
      lock.unlock();
      const bool finished = RunOneTurn(*session);
      lock.lock();
      if (finished) {
        sessions_.erase(id);
      } else {
        runnable_.push_back(id);
        cv_.notify_one();
      }
    }
  }

  /// One scheduling turn: checkpoint / quota checks at the boundary, then
  /// at most ONE action (one round, or one batched scan) planned, executed
  /// and absorbed. Returns true when the session is finished or detached.
  bool RunOneTurn(Session& session) {
    if (session.turns_counter != nullptr) session.turns_counter->Add();
    const uint64_t rounds_so_far = session.state->next_round_index() - 1;

    if (session.checkpoint_after_rounds > 0 &&
        rounds_so_far >= session.checkpoint_after_rounds &&
        !session.state->done()) {
      Result<std::string> blob = session.state->Serialize();
      if (!blob.ok()) return Fail(session, blob.status());
      CheckpointMsg msg;
      msg.session_id = session.id;
      msg.rounds = rounds_so_far;
      msg.executions = session.state->executions();
      msg.state = std::move(*blob);
      if (checkpoints_counter_ != nullptr) checkpoints_counter_->Add();
      (void)session.channel->Write(AsProcMsgType(ServiceMsgType::kCheckpoint),
                                   EncodeCheckpoint(msg), kFrameDeadlineMs);
      return true;
    }

    if (session.quota_enforced_externally && !session.state->done() &&
        session.state->executions() >= options_.session_quota) {
      // Only a resumed checkpoint can be budgeted here: its budget was
      // fixed where it started, and lies beyond this daemon's quota.
      const std::string hint =
          session.state->options().budget.enabled
              ? "; the checkpoint's adaptive budget exceeds this daemon's "
                "quota"
              : "; resubmit with adaptive budgeting to degrade gracefully "
                "instead";
      return Fail(session, Status::FailedPrecondition(
                               "session '" + session.label +
                               "' exceeded its execution quota (" +
                               std::to_string(options_.session_quota) + ")" +
                               hint));
    }

    Result<DiscoveryAction> action = session.state->NextAction();
    if (!action.ok()) return Fail(session, action.status());
    if (action->kind == DiscoveryAction::Kind::kDone) {
      Result<DiscoveryReport> report = session.state->Finalize();
      if (!report.ok()) return Fail(session, report.status());
      FoldSessionCounters(session);
      ReportMsg msg;
      msg.session_id = session.id;
      msg.report = std::move(*report);
      if (reports_counter_ != nullptr) reports_counter_->Add();
      (void)session.channel->Write(AsProcMsgType(ServiceMsgType::kReport),
                                   EncodeReportMsg(msg), kFrameDeadlineMs);
      return true;
    }

    Result<ActionOutcome> outcome = ExecuteDiscoveryAction(
        *session.state, *action, session.target->intervention_target());
    if (!outcome.ok()) return Fail(session, outcome.status());
    const Status fed = session.state->Feed(*action, *outcome);
    if (!fed.ok()) return Fail(session, fed);
    FoldSessionCounters(session);
    return false;
  }

  bool Fail(Session& session, const Status& status) {
    if (failures_counter_ != nullptr) failures_counter_->Add();
    (void)session.channel->Write(ProcMsgType::kError, EncodeError(status),
                                 kFrameDeadlineMs);
    return true;
  }

  void FoldSessionCounters(Session& session) {
    if (session.rounds_counter == nullptr) return;
    const uint64_t rounds = session.state->next_round_index() - 1;
    const uint64_t executions = session.state->executions();
    session.rounds_counter->Add(rounds - session.folded_rounds);
    session.executions_counter->Add(executions - session.folded_executions);
    session.folded_rounds = rounds;
    session.folded_executions = executions;
  }

  ServiceOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> next_session_id_{1};
  std::atomic<uint64_t> sessions_accepted_{0};

  /// Daemon-wide instruments (null without telemetry).
  Counter* sessions_counter_ = nullptr;
  Counter* rejections_counter_ = nullptr;
  Counter* reports_counter_ = nullptr;
  Counter* checkpoints_counter_ = nullptr;
  Counter* failures_counter_ = nullptr;

  std::mutex mu_;
  std::condition_variable cv_;
  /// Live sessions by id; a session's id is in runnable_ exactly once
  /// (or held by the worker running its turn).
  std::unordered_map<uint64_t, std::unique_ptr<Session>> sessions_;
  std::deque<uint64_t> runnable_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

Result<std::unique_ptr<DiscoveryService>> DiscoveryService::Start(
    ServiceOptions options) {
  auto impl = std::make_unique<Impl>(std::move(options));
  AID_RETURN_IF_ERROR(impl->Start());
  return std::unique_ptr<DiscoveryService>(
      new DiscoveryService(std::move(impl)));
}

DiscoveryService::DiscoveryService(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
DiscoveryService::~DiscoveryService() = default;

const std::string& DiscoveryService::host() const { return impl_->host(); }
int DiscoveryService::port() const { return impl_->port(); }
Endpoint DiscoveryService::endpoint() const {
  return Endpoint{impl_->host(), impl_->port()};
}
int DiscoveryService::live_sessions() { return impl_->live_sessions(); }
uint64_t DiscoveryService::sessions_accepted() const {
  return impl_->sessions_accepted();
}
void DiscoveryService::Stop() { impl_->Stop(); }

#else  // !AID_NET_SUPPORTED

class DiscoveryService::Impl {};

Result<std::unique_ptr<DiscoveryService>> DiscoveryService::Start(
    ServiceOptions) {
  return Status::Unimplemented(
      "DiscoveryService: the multi-tenant daemon requires sockets, which "
      "this platform does not provide");
}

DiscoveryService::DiscoveryService(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
DiscoveryService::~DiscoveryService() = default;

namespace {
const std::string kNoHost;
}  // namespace

const std::string& DiscoveryService::host() const { return kNoHost; }
int DiscoveryService::port() const { return 0; }
Endpoint DiscoveryService::endpoint() const { return Endpoint{}; }
int DiscoveryService::live_sessions() { return 0; }
uint64_t DiscoveryService::sessions_accepted() const { return 0; }
void DiscoveryService::Stop() {}

#endif  // AID_NET_SUPPORTED

}  // namespace aid
