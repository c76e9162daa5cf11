#include "net/proc_runtime.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "net/local_channel.h"
#include "net/rpc.h"
#include "net/shm_ring.h"
#include "obs/trace.h"

namespace hetkg::net {

namespace {

/// Handshake / shutdown grace deadline (ms).
constexpr int kHandshakeMs = 30'000;
constexpr int kShutdownGraceMs = 5'000;

uint8_t TypeByte(MsgType t) { return static_cast<uint8_t>(t); }

/// What both launch modes check before starting a fleet: the engine's
/// config, and `options` against itself.
Status ValidateLaunch(const core::PsTrainingEngine& engine,
                      const ProcOptions& options) {
  HETKG_RETURN_IF_ERROR(
      core::ValidateConfig(engine.system(), engine.config()));
  if (options.watchdog_ms > 0 && options.heartbeat_ms <= 0) {
    return Status::InvalidArgument(
        "--proc_watchdog_ms needs --proc_heartbeat_ms > 0 (a "
        "silent-but-healthy worker would be escalated); pass "
        "--proc_watchdog_ms=0 to disable the watchdog");
  }
  if (!options.stops.empty() &&
      (options.watchdog_ms <= 0 || options.heartbeat_ms <= 0)) {
    return Status::InvalidArgument(
        "--proc_stop freezes a worker forever; only the watchdog can "
        "recover it (needs --proc_heartbeat_ms > 0 and "
        "--proc_watchdog_ms > 0)");
  }
  return Status::OK();
}

}  // namespace

Result<TransportKind> ParseTransportKind(std::string_view name) {
  if (name == "shm") return TransportKind::kShm;
  if (name == "tcp") return TransportKind::kTcp;
  return Status::InvalidArgument("unknown proc transport: " +
                                 std::string(name));
}

// ---------------------------------------------------------------------------
// RemotePsBackend (worker-process side of the seam).

void RemotePsBackend::Abort(const char* what) {
  HETKG_LOG(Warning) << "worker RPC channel failed (" << what
                     << "); exiting";
  std::_Exit(2);
}

void RemotePsBackend::SendOrAbort(const ByteWriter& msg) {
  if (!messenger_->Send(msg.buffer())) Abort("send");
}

void RemotePsBackend::RecvOrAbort(std::string* payload) {
  const Status status =
      messenger_->RecvOrDeadline(payload, rpc_deadline_ms_);
  if (!status.ok()) Abort(status.ToString().c_str());
}

ps::PullResult RemotePsBackend::PullBatch(uint32_t machine,
                                          std::span<const EmbKey> keys,
                                          std::span<std::span<float>> out) {
  (void)machine;  // The channel itself identifies the worker.
  ByteWriter msg = RpcMessage(MsgType::kPull);
  msg.U64Vec(keys);
  const bool profile = messenger_->MetricsEnabled();
  Stopwatch sw;
  SendOrAbort(msg);

  std::string payload;
  RecvOrAbort(&payload);
  if (profile) messenger_->ObserveRpcLatency(sw.ElapsedSeconds() * 1e6);
  MsgType type;
  ByteReader r{std::string_view()};
  if (!RpcOpen(payload, &type, &r) || type != MsgType::kPullReply) {
    Abort("expected kPullReply");
  }
  ps::PullResult result;
  const uint64_t n_failed = r.U64();
  std::vector<char> is_failed(keys.size(), 0);
  for (uint64_t i = 0; i < n_failed; ++i) {
    const uint32_t idx = r.U32();
    if (!r.ok() || idx >= keys.size()) Abort("bad kPullReply index");
    result.failed.push_back(idx);
    is_failed[idx] = 1;
  }
  // The reply carries every key's row back-to-back in key order; spans
  // of failed keys keep their previous contents (the stale-serve /
  // degraded-read contract of ParameterServer::PullBatch).
  for (size_t k = 0; k < keys.size(); ++k) {
    const size_t dim = server_->RowDim(keys[k]);
    if (is_failed[k]) {
      std::vector<float> discard(dim);
      if (!r.ReadRaw(discard.data(), dim * sizeof(float))) {
        Abort("short kPullReply");
      }
      continue;
    }
    if (out[k].size() != dim ||
        !r.ReadRaw(out[k].data(), dim * sizeof(float))) {
      Abort("short kPullReply");
    }
  }
  if (!r.ok() || r.remaining() != 0) Abort("trailing kPullReply bytes");
  return result;
}

ps::PushResult RemotePsBackend::PushGradBatch(
    uint32_t machine, std::span<const EmbKey> keys,
    std::span<const std::span<const float>> grads) {
  (void)machine;
  ByteWriter msg = RpcMessage(MsgType::kPush);
  msg.U64Vec(keys);
  for (const std::span<const float>& g : grads) {
    msg.Raw(g.data(), g.size() * sizeof(float));
  }
  // Fire-and-forget: the channel is FIFO and the coordinator applies
  // every queued message before answering the next blocking RPC, so
  // ordering (and hence the push-sequence numbering) is preserved. The
  // engine ignores the result in both runtimes.
  SendOrAbort(msg);
  return ps::PushResult{};
}

void RemotePsBackend::ReadRow(EmbKey key, std::span<float> out) {
  ByteWriter msg = RpcMessage(MsgType::kReadRow);
  msg.U64(key);
  const bool profile = messenger_->MetricsEnabled();
  Stopwatch sw;
  SendOrAbort(msg);
  std::string payload;
  RecvOrAbort(&payload);
  if (profile) messenger_->ObserveRpcLatency(sw.ElapsedSeconds() * 1e6);
  MsgType type;
  ByteReader r{std::string_view()};
  if (!RpcOpen(payload, &type, &r) || type != MsgType::kReadRowReply ||
      !r.ReadRaw(out.data(), out.size() * sizeof(float)) ||
      r.remaining() != 0) {
    Abort("bad kReadRowReply");
  }
}

void RemotePsBackend::RecordCompute(uint32_t machine, uint64_t flops) {
  (void)machine;
  ByteWriter msg = RpcMessage(MsgType::kCharge);
  msg.U64(flops);
  SendOrAbort(msg);
}

void RemotePsBackend::IncrementServerMetric(const std::string& name,
                                            uint64_t delta) {
  ByteWriter msg = RpcMessage(MsgType::kMetric);
  msg.Str(name);
  msg.U64(delta);
  SendOrAbort(msg);
}

void RemotePsBackend::AdviseHotKeys(std::span<const EmbKey> keys,
                                    bool admitted) {
  ByteWriter msg = RpcMessage(MsgType::kAdvise);
  msg.U8(admitted ? 1 : 0);
  msg.U64Vec(keys);
  SendOrAbort(msg);
}

// ---------------------------------------------------------------------------
// ProcWorker (worker-process command loop).

void ProcWorker::HandleStartObs(ByteReader* r) {
  const bool trace_on = r->U8() != 0;
  const uint64_t ring_capacity = r->U64();
  const uint8_t flight_kind = r->U8();
  const uint64_t flight_slots = r->U64();
  const std::string flight_path = r->Str();
  const std::string transport = r->Str();
  if (!r->ok() || r->remaining() != 0) return;
  obs_on_ = true;
  obs_trace_ = trace_on;
  // Transport profiling into the process-local, never-serialized
  // registry; shipped to the coordinator with every kObsData.
  messenger_->EnableMetrics(&net_metrics_, transport);
  if (!trace_on) return;
  if (!obs::Tracer::StartShipping(ring_capacity).ok()) {
    obs_trace_ = false;
    return;
  }
  last_dropped_ = 0;
  // Arm the crash flight recorder as the tracer's event mirror: the
  // fork-inherited shm region, or a spill file the coordinator can
  // open post-mortem.
  if (flight_kind == 1 && shared_flight_ != nullptr) {
    obs::Tracer::SetEventSink(shared_flight_);
  } else if (flight_kind == 2 && !flight_path.empty()) {
    Result<std::unique_ptr<obs::FlightRecorder>> created =
        obs::FlightRecorder::CreateFile(flight_path, flight_slots);
    if (created.ok()) {
      file_flight_ = std::move(created.value());
      obs::Tracer::SetEventSink(file_flight_.get());
    }
  }
}

bool ProcWorker::SendObsData(core::PsTrainingEngine::Worker* w) {
  ByteWriter msg = RpcMessage(MsgType::kObsData);
  ByteWriter trace;
  if (obs_trace_) {
    obs::Tracer::DrainShipment(&trace);
    const uint64_t dropped = obs::Tracer::DroppedEvents();
    if (dropped > last_dropped_) {
      net_metrics_.Increment(metric::kTraceDroppedEvents,
                             dropped - last_dropped_);
      last_dropped_ = dropped;
    }
  }
  msg.U64(trace.size());
  msg.Raw(trace.buffer().data(), trace.size());
  // Gauges that only this process can compute (the command loop zeroes
  // the per-epoch counters, so the ratio is over the cum_* mirror).
  const uint64_t hits = cum_hits_ + w->hits;
  const uint64_t misses = cum_misses_ + w->misses;
  uint64_t n_gauges = 0;
  ByteWriter gauges;
  if (hits + misses > 0) {
    gauges.Str(metric::kCacheHitRatio);
    gauges.F64(static_cast<double>(hits) /
               static_cast<double>(hits + misses));
    ++n_gauges;
  }
  msg.U64(n_gauges);
  msg.Raw(gauges.buffer().data(), gauges.size());
  // Fold this process's wire-fault/heartbeat counters (delta since the
  // last shipment) into the cumulative registry; nothing is folded —
  // and no net.fault.* key created — unless a counter moved.
  if (fault_stats_ != nullptr) {
    FoldFaultStats(*fault_stats_, &folded_faults_, &net_metrics_);
  }
  net_metrics_.SaveState(&msg);
  return messenger_->Send(msg.buffer());
}

int ProcWorker::Run() {
  // The worker process never runs Train(), checkpoints, or obs; the
  // coordinator owns all of those. It executes exactly the per-step
  // stage code, with every shared-state call routed over the channel.
  engine_->obs_active_ = false;
  engine_->SetStepDriver(nullptr);
  RemotePsBackend backend(messenger_, engine_->server_.get(),
                          rpc_deadline_ms_);
  engine_->SetPsBackend(&backend);
  core::PsTrainingEngine::Worker* w = &engine_->workers_[machine_];

  // Liveness beacons for the coordinator's watchdog: a dedicated
  // thread so a long compute phase (no RPC traffic) still proves the
  // process is alive. The Messenger serializes the shared send path.
  std::mutex hb_mu;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  std::thread hb_thread;
  if (heartbeat_ms_ > 0) {
    hb_thread = std::thread([this, &hb_mu, &hb_cv, &hb_stop] {
      std::unique_lock<std::mutex> lock(hb_mu);
      while (!hb_cv.wait_for(lock, std::chrono::milliseconds(heartbeat_ms_),
                             [&hb_stop] { return hb_stop; })) {
        lock.unlock();
        messenger_->SendHeartbeat();
        lock.lock();
      }
    });
  }
  const auto stop_heartbeats = [&] {
    if (!hb_thread.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(hb_mu);
      hb_stop = true;
    }
    hb_cv.notify_all();
    hb_thread.join();
  };

  int exit_code = 1;
  for (;;) {
    std::string payload;
    if (messenger_->Recv(&payload, -1) != RecvStatus::kOk) break;
    MsgType type;
    ByteReader r{std::string_view()};
    if (!RpcOpen(payload, &type, &r)) break;
    if (type == MsgType::kRunStep) {
      const uint64_t iter = r.U64();
      if (!r.ok()) break;
      for (const ProcKill& kill : kills_) {
        if (kill.machine == machine_ && kill.iter == iter) {
          // Real fault injection: die exactly like a crashed worker,
          // BEFORE any RPC of this step, so the coordinator's state
          // sits at the pre-step barrier when it notices.
          raise(SIGKILL);
        }
      }
      for (const ProcKill& stop : stops_) {
        if (stop.machine == machine_ && stop.iter == iter) {
          // Hung-worker injection: freeze alive at the same pre-step
          // barrier (heartbeat thread frozen too — SIGSTOP stops every
          // thread), so only the coordinator's liveness watchdog can
          // tell this from a healthy slow worker. Never resumed: the
          // watchdog's SIGKILL escalation is the only exit.
          raise(SIGSTOP);
        }
      }
      const auto [loss, pairs] = engine_->Step(w, iter);
      ByteWriter done = RpcMessage(MsgType::kStepDone);
      done.F64(loss);
      done.U64(pairs);
      if (!messenger_->Send(done.buffer())) break;
    } else if (type == MsgType::kEpochEnd) {
      engine_->FlushPendingGradients(w);
      ByteWriter done = RpcMessage(MsgType::kEpochDone);
      done.U64(w->hits);
      done.U64(w->misses);
      // The engine's epoch harvest zeroes the per-epoch counters; the
      // worker mirrors that so next epoch's ratio starts fresh. The
      // obs cache.hit_ratio gauge is run-cumulative, so fold the epoch
      // into the cum_* mirror first.
      cum_hits_ += w->hits;
      cum_misses_ += w->misses;
      w->hits = 0;
      w->misses = 0;
      if (!messenger_->Send(done.buffer())) break;
    } else if (type == MsgType::kSyncState) {
      ByteWriter blob;
      engine_->SaveWorkerState(*w, &blob);
      ByteWriter msg = RpcMessage(MsgType::kWorkerState);
      msg.Raw(blob.buffer().data(), blob.size());
      if (!messenger_->Send(msg.buffer())) break;
    } else if (type == MsgType::kLoadState) {
      const uint32_t m = r.U32();
      if (!r.ok() || m != machine_ ||
          !engine_->LoadWorkerState(w, &r) || r.remaining() != 0) {
        break;
      }
    } else if (type == MsgType::kStartObs) {
      HandleStartObs(&r);
    } else if (type == MsgType::kClockSync) {
      ByteWriter reply = RpcMessage(MsgType::kClockSyncReply);
      reply.U64(obs::Tracer::NowMicros());
      if (!messenger_->Send(reply.buffer())) break;
    } else if (type == MsgType::kShipObs) {
      if (!SendObsData(w)) break;
    } else if (type == MsgType::kShutdown) {
      // Final unsolicited shipment so the coordinator's kBye drain
      // gets everything traced since the last barrier.
      if (obs_on_) (void)SendObsData(w);
      messenger_->Send(RpcMessage(MsgType::kBye).buffer());
      exit_code = 0;
      break;
    } else {
      break;  // Protocol violation.
    }
  }
  stop_heartbeats();
  if (obs_trace_) {
    obs::Tracer::SetEventSink(nullptr);
    (void)obs::Tracer::Stop();  // Ship-only session: discards.
  }
  engine_->SetPsBackend(nullptr);
  return exit_code;
}

// ---------------------------------------------------------------------------
// ProcCoordinator.

Result<std::unique_ptr<ProcCoordinator>> ProcCoordinator::ForkWorkers(
    core::PsTrainingEngine* engine, const ProcOptions& options) {
  HETKG_RETURN_IF_ERROR(ValidateLaunch(*engine, options));
  std::unique_ptr<ProcCoordinator> coord(
      new ProcCoordinator(engine, options));
  coord->links_.resize(engine->workers_.size());
  if (options.transport == TransportKind::kTcp) {
    HETKG_ASSIGN_OR_RETURN(coord->listener_, TcpListener::Create(0));
  }
  HETKG_RETURN_IF_ERROR(coord->ForkFleet());
  engine->SetStepDriver(coord.get());
  return coord;
}

Result<std::unique_ptr<ProcCoordinator>> ProcCoordinator::ListenForWorkers(
    core::PsTrainingEngine* engine, uint16_t port,
    const ProcOptions& options) {
  HETKG_RETURN_IF_ERROR(ValidateLaunch(*engine, options));
  std::unique_ptr<ProcCoordinator> coord(
      new ProcCoordinator(engine, options));
  coord->standalone_ = true;
  coord->options_.transport = TransportKind::kTcp;  // For TransportName().
  coord->links_.resize(engine->workers_.size());
  HETKG_ASSIGN_OR_RETURN(std::unique_ptr<TcpListener> listener,
                         TcpListener::Create(port));
  HETKG_LOG(Info) << "coordinator listening on port " << listener->port()
                  << " for " << coord->links_.size() << " workers";
  for (size_t i = 0; i < coord->links_.size(); ++i) {
    HETKG_ASSIGN_OR_RETURN(std::unique_ptr<TcpChannel> channel,
                           listener->Accept(kHandshakeMs));
    // The machine id is only known after the hello, so the accept-order
    // index salts this link's fault plan instead.
    WorkerLink probe;
    probe.channel = std::move(channel);
    coord->WireLink(probe, /*link_salt=*/2000 + 2 * i);
    std::string payload;
    if (probe.messenger->Recv(&payload, kHandshakeMs) != RecvStatus::kOk) {
      return Status::IoError("worker hello timed out");
    }
    MsgType type;
    ByteReader r{std::string_view()};
    if (!RpcOpen(payload, &type, &r) || type != MsgType::kHello) {
      return Status::Corruption("expected kHello");
    }
    const uint32_t machine = r.U32();
    if (!r.ok() || machine >= coord->links_.size() ||
        coord->links_[machine].alive) {
      return Status::InvalidArgument("bad or duplicate worker id " +
                                     std::to_string(machine));
    }
    WorkerLink& link = coord->links_[machine];
    link.pid = -1;
    link.channel = std::move(probe.channel);
    link.faulty = std::move(probe.faulty);
    link.messenger = std::move(probe.messenger);
    link.alive = true;
    // Ship the authoritative initial worker state (a fresh engine's
    // state round-trips to itself; a restored one must override the
    // remote process's fresh construction).
    ByteWriter blob;
    engine->SaveWorkerState(engine->workers_[machine], &blob);
    ByteWriter msg = RpcMessage(MsgType::kLoadState);
    msg.Raw(blob.buffer().data(), blob.size());
    if (!link.messenger->Send(msg.buffer())) {
      return Status::IoError("initial state send failed");
    }
  }
  engine->SetStepDriver(coord.get());
  return coord;
}

void ProcCoordinator::WireLink(WorkerLink& link, uint64_t link_salt) {
  link.channel->set_stats(&channel_stats_);
  Channel* endpoint = link.channel.get();
  if (options_.fault.Armed()) {
    link.faulty =
        std::make_unique<FaultChannel>(endpoint, options_.fault, link_salt);
    link.faulty->set_fault_stats(&net_fault_stats_);
    endpoint = link.faulty.get();
  }
  link.messenger = std::make_unique<Messenger>(endpoint);
  link.messenger->set_fault_stats(&net_fault_stats_);
  if (options_.fault.enabled) {
    link.messenger->EnableReliable(ReliableFromWireFaults(options_.fault));
  }
}

ProcCoordinator::~ProcCoordinator() {
  const Status status = Shutdown();
  if (!status.ok()) {
    HETKG_LOG(Warning) << "proc shutdown: " << status.ToString();
  }
}

Status ProcCoordinator::ForkFleet() {
  // fork() duplicates only the calling thread: join the compute pool
  // first so no lock is held by a thread that won't exist in the
  // child. Parent and child each rebuild their own pool.
  engine_->TeardownPool();
  Status forked = Status::OK();
  for (uint32_t m = 0; m < links_.size() && forked.ok(); ++m) {
    forked = ForkWorker(m);
  }
  if (options_.transport == TransportKind::kTcp && forked.ok()) {
    // TCP children race to connect; map each accepted connection to
    // its machine by the kHello it opens with.
    for (size_t i = 0; i < links_.size() && forked.ok(); ++i) {
      Result<std::unique_ptr<TcpChannel>> accepted =
          listener_->Accept(kHandshakeMs);
      if (!accepted.ok()) {
        forked = accepted.status();
        break;
      }
      WorkerLink probe;
      probe.channel = std::move(accepted.value());
      WireLink(probe, /*link_salt=*/2000 + 2 * i);
      std::string payload;
      MsgType type;
      ByteReader r{std::string_view()};
      if (probe.messenger->Recv(&payload, kHandshakeMs) != RecvStatus::kOk ||
          !RpcOpen(payload, &type, &r) || type != MsgType::kHello) {
        forked = Status::Corruption("worker hello failed");
        break;
      }
      const uint32_t machine = r.U32();
      if (!r.ok() || machine >= links_.size() ||
          links_[machine].channel != nullptr) {
        forked = Status::Corruption("bad worker hello id");
        break;
      }
      links_[machine].channel = std::move(probe.channel);
      links_[machine].faulty = std::move(probe.faulty);
      links_[machine].messenger = std::move(probe.messenger);
      links_[machine].alive = true;
    }
  }
  engine_->RebuildPool();
  if (!forked.ok()) KillFleet();
  return forked;
}

Status ProcCoordinator::ForkWorker(uint32_t machine) {
  std::unique_ptr<Channel> parent_ep;
  std::unique_ptr<Channel> child_ep;
  if (options_.transport == TransportKind::kShm) {
    HETKG_ASSIGN_OR_RETURN(auto pair,
                           ShmRingChannel::CreatePair(
                               options_.shm_ring_bytes));
    parent_ep = std::move(pair.first);
    child_ep = std::move(pair.second);
  }
  // Crash flight recorder (shm transport): the region must exist
  // before fork() so both processes map the same pages — the child
  // writes into it, the parent harvests after a SIGKILL.
  std::unique_ptr<obs::FlightRecorder> flight;
  if (options_.transport == TransportKind::kShm &&
      engine_->config_.obs.TraceRequested()) {
    HETKG_ASSIGN_OR_RETURN(
        flight, obs::FlightRecorder::CreateAnonymous(options_.flight_slots));
  }
  const uint16_t connect_port =
      listener_ != nullptr ? listener_->port() : 0;

  const pid_t pid = fork();
  if (pid < 0) {
    return Status::Internal("fork() failed: " +
                            std::string(strerror(errno)));
  }
  if (pid == 0) {
    // Worker process. Runs the command loop against the inherited
    // engine and never returns to the caller's stack; _Exit skips
    // atexit/destructors so the parent's duplicated buffers and files
    // are left strictly alone.
    engine_->RebuildPool();
    std::unique_ptr<Channel> channel = std::move(child_ep);
    if (options_.transport == TransportKind::kTcp) {
      Result<std::unique_ptr<TcpChannel>> connected =
          TcpConnect("127.0.0.1", connect_port, options_.retry);
      if (!connected.ok()) std::_Exit(3);
      channel = std::move(connected.value());
    }
    // The worker direction of the link gets its own fault decorator
    // and counter sink (odd link salts; the coordinator direction uses
    // even ones), so faults fire independently on both directions.
    NetFaultStats fault_stats;
    Channel* endpoint = channel.get();
    std::unique_ptr<FaultChannel> faulty;
    if (options_.fault.Armed()) {
      faulty = std::make_unique<FaultChannel>(endpoint, options_.fault,
                                              /*link_salt=*/2 * machine + 1);
      faulty->set_fault_stats(&fault_stats);
      endpoint = faulty.get();
    }
    Messenger messenger(endpoint);
    messenger.set_fault_stats(&fault_stats);
    if (options_.fault.enabled) {
      messenger.EnableReliable(ReliableFromWireFaults(options_.fault));
    }
    if (options_.transport == TransportKind::kTcp) {
      ByteWriter hello = RpcMessage(MsgType::kHello);
      hello.U32(machine);
      if (!messenger.Send(hello.buffer())) std::_Exit(3);
    }
    ProcWorker worker(engine_, machine, &messenger, options_, flight.get(),
                      &fault_stats);
    std::_Exit(worker.Run());
  }

  WorkerLink& link = links_[machine];
  link.pid = pid;
  link.flight = std::move(flight);
  if (options_.transport == TransportKind::kShm) {
    link.channel = std::move(parent_ep);
    WireLink(link, /*link_salt=*/2 * machine);
    link.alive = true;
  }
  // TCP: channel attached by the accept loop in ForkFleet.
  return Status::OK();
}

void ProcCoordinator::KillFleet() {
  // Deliberate fleet teardown (restart path): the kills are the
  // coordinator's own doing, so no abnormal exit is recorded.
  for (WorkerLink& link : links_) {
    if (link.pid > 0) {
      kill(link.pid, SIGKILL);
      waitpid(link.pid, nullptr, 0);
      link.pid = -1;
    }
    if (link.channel != nullptr) link.channel->Close();
    link.messenger.reset();
    link.faulty.reset();
    link.channel.reset();
    link.alive = false;
  }
}

void ProcCoordinator::RecordExit(uint32_t machine, int wait_status,
                                 const char* context) {
  // Only abnormal terminations are worth surfacing in the end-of-run
  // summary; an orderly exit(0) is the expected shutdown handshake.
  WorkerExit exit;
  exit.machine = machine;
  exit.context = context;
  if (WIFSIGNALED(wait_status)) {
    exit.signaled = true;
    exit.code = WTERMSIG(wait_status);
  } else if (WIFEXITED(wait_status) && WEXITSTATUS(wait_status) != 0) {
    exit.signaled = false;
    exit.code = WEXITSTATUS(wait_status);
  } else {
    return;
  }
  worker_exits_.push_back(std::move(exit));
}

void ProcCoordinator::MarkWorkerFailed(uint32_t machine, uint64_t at_iter,
                                       const char* context) {
  worker_failed_ = true;
  WorkerLink& link = links_[machine];
  link.alive = false;
  if (link.pid > 0) {
    // SIGKILL works on SIGSTOPped processes too — this is the
    // watchdog's escalation path for hung (not just dead) workers.
    kill(link.pid, SIGKILL);
    int wait_status = 0;
    if (waitpid(link.pid, &wait_status, 0) == link.pid) {
      RecordExit(machine, wait_status, context);
    }
    link.pid = -1;
  }
  if (link.channel != nullptr) link.channel->Close();
  // Post-mortem: the dead worker's flight-recorder ring (shm region or
  // tcp spill file) still holds its last trace events.
  if (obs_on_) HarvestFlight(machine);
  // Kill-once / stop-once semantics: any scheduled fault at or before
  // the failure point has had its effect; pruning it keeps the
  // relaunched fleet (which rewinds to an earlier iteration) from
  // dying forever.
  std::erase_if(options_.kills, [at_iter](const ProcKill& k) {
    return k.iter <= at_iter;
  });
  std::erase_if(options_.stops, [at_iter](const ProcKill& k) {
    return k.iter <= at_iter;
  });
}

Status ProcCoordinator::ApplyBackendRpc(uint32_t machine, uint8_t type,
                                        ByteReader* r, bool* handled) {
  *handled = true;
  ps::ParameterServer* server = engine_->server_.get();
  switch (static_cast<MsgType>(type)) {
    case MsgType::kPull: {
      const std::vector<uint64_t> keys = r->U64Vec();
      if (!r->ok() || r->remaining() != 0) {
        return Status::Corruption("bad kPull");
      }
      size_t total_floats = 0;
      for (const uint64_t key : keys) total_floats += server->RowDim(key);
      std::vector<float> values(total_floats, 0.0f);
      std::vector<std::span<float>> spans;
      spans.reserve(keys.size());
      size_t offset = 0;
      for (const uint64_t key : keys) {
        const size_t dim = server->RowDim(key);
        spans.emplace_back(values.data() + offset, dim);
        offset += dim;
      }
      const ps::PullResult pull = server->PullBatch(machine, keys, spans);
      ByteWriter reply = RpcMessage(MsgType::kPullReply);
      reply.U64(pull.failed.size());
      for (const uint32_t idx : pull.failed) reply.U32(idx);
      reply.Raw(values.data(), values.size() * sizeof(float));
      if (!links_[machine].messenger->Send(reply.buffer())) {
        return Status::Internal("kPullReply send failed");
      }
      return Status::OK();
    }
    case MsgType::kPush: {
      const std::vector<uint64_t> keys = r->U64Vec();
      if (!r->ok()) return Status::Corruption("bad kPush");
      size_t total_floats = 0;
      for (const uint64_t key : keys) total_floats += server->RowDim(key);
      std::vector<float> grads(total_floats);
      if (!r->ReadRaw(grads.data(), total_floats * sizeof(float)) ||
          r->remaining() != 0) {
        return Status::Corruption("bad kPush payload");
      }
      std::vector<std::span<const float>> spans;
      spans.reserve(keys.size());
      size_t offset = 0;
      for (const uint64_t key : keys) {
        const size_t dim = server->RowDim(key);
        spans.emplace_back(grads.data() + offset, dim);
        offset += dim;
      }
      server->PushGradBatch(machine, keys, spans);
      return Status::OK();
    }
    case MsgType::kReadRow: {
      const uint64_t key = r->U64();
      if (!r->ok() || r->remaining() != 0) {
        return Status::Corruption("bad kReadRow");
      }
      const std::span<const float> value = server->Value(key);
      ByteWriter reply = RpcMessage(MsgType::kReadRowReply);
      reply.Raw(value.data(), value.size() * sizeof(float));
      if (!links_[machine].messenger->Send(reply.buffer())) {
        return Status::Internal("kReadRowReply send failed");
      }
      return Status::OK();
    }
    case MsgType::kCharge: {
      const uint64_t flops = r->U64();
      if (!r->ok() || r->remaining() != 0) {
        return Status::Corruption("bad kCharge");
      }
      engine_->cluster_.RecordCompute(machine, flops);
      return Status::OK();
    }
    case MsgType::kMetric: {
      const std::string name = r->Str();
      const uint64_t delta = r->U64();
      if (!r->ok() || r->remaining() != 0) {
        return Status::Corruption("bad kMetric");
      }
      server->metrics().Increment(name, delta);
      return Status::OK();
    }
    case MsgType::kAdvise: {
      const bool admitted = r->U8() != 0;
      const std::vector<uint64_t> keys = r->U64Vec();
      if (!r->ok() || r->remaining() != 0) {
        return Status::Corruption("bad kAdvise");
      }
      server->AdviseHotKeys(keys, admitted);
      return Status::OK();
    }
    default:
      *handled = false;
      return Status::OK();
  }
}

Status ProcCoordinator::ServiceUntil(uint32_t machine, uint8_t until,
                                     std::string* payload,
                                     ByteReader* reader, uint64_t at_iter) {
  WorkerLink& link = links_[machine];
  // Fresh turn: the link may have sat idle while other workers took
  // theirs, so the liveness clock starts now, not at the last frame.
  link.messenger->TouchActivity();
  // The watchdog only makes sense when the worker actually beats: with
  // heartbeats off, a long compute phase is indistinguishable from a
  // hang and silence must not escalate.
  const bool watchdog_armed =
      options_.watchdog_ms > 0 && options_.heartbeat_ms > 0;
  int elapsed_ms = 0;
  for (;;) {
    if (!link.alive) {
      return Status::Internal("worker " + std::to_string(machine) +
                              " is not running");
    }
    const RecvStatus status =
        link.messenger->Recv(payload, options_.poll_ms);
    if (status == RecvStatus::kTimeout) {
      if (link.pid > 0) {
        int wait_status = 0;
        if (waitpid(link.pid, &wait_status, WNOHANG) == link.pid) {
          RecordExit(machine, wait_status, "died mid-turn");
          link.pid = -1;
          MarkWorkerFailed(machine, at_iter, "died mid-turn");
          return Status::Internal("worker " + std::to_string(machine) +
                                  " process died");
        }
      }
      if (watchdog_armed &&
          link.messenger->MillisSinceActivity() >= options_.watchdog_ms) {
        // The process exists (WNOHANG above) but nothing — not even a
        // heartbeat — arrived for a full watchdog window: hung (e.g.
        // SIGSTOPped). Escalate to SIGKILL and let the Train() rewind
        // path recover, exactly like a crashed worker.
        ++watchdog_escalations_;
        net_metrics_.Increment(metric::kWatchdogEscalations);
        obs::Tracer::Instant("watchdog.escalate", "proc", "machine",
                             static_cast<double>(machine), "silent_ms",
                             static_cast<double>(
                                 link.messenger->MillisSinceActivity()));
        MarkWorkerFailed(machine, at_iter, "watchdog escalation");
        return Status::DeadlineExceeded(
            "worker " + std::to_string(machine) +
            " hung (no heartbeat for " +
            std::to_string(options_.watchdog_ms) + " ms)");
      }
      elapsed_ms += options_.poll_ms;
      if (elapsed_ms >= options_.worker_deadline_ms) {
        MarkWorkerFailed(machine, at_iter, "turn deadline exceeded");
        return Status::DeadlineExceeded("worker " + std::to_string(machine) +
                                        " deadline exceeded");
      }
      continue;
    }
    if (status == RecvStatus::kClosed) {
      MarkWorkerFailed(machine, at_iter, "channel closed");
      return Status::Internal("worker " + std::to_string(machine) +
                              " channel closed");
    }
    if (status == RecvStatus::kCorrupt) {
      // Only possible without the retransmit layer (faults off): a
      // frame failed its CRC and nothing can resend it.
      MarkWorkerFailed(machine, at_iter, "corrupt frame");
      return Status::Corruption("worker " + std::to_string(machine) +
                                " sent a corrupt frame");
    }
    MsgType type;
    ByteReader r{std::string_view()};
    if (!RpcOpen(*payload, &type, &r)) {
      MarkWorkerFailed(machine, at_iter);
      return Status::Corruption("empty rpc frame");
    }
    if (TypeByte(type) == until) {
      *reader = r;
      return Status::OK();
    }
    bool handled = false;
    const Status applied = ApplyBackendRpc(machine, TypeByte(type), &r,
                                           &handled);
    if (!applied.ok() || !handled) {
      MarkWorkerFailed(machine, at_iter);
      return applied.ok() ? Status::Corruption("unexpected rpc type " +
                                               std::to_string(TypeByte(type)))
                          : applied;
    }
  }
}

Result<std::pair<double, uint64_t>> ProcCoordinator::DriveStep(
    uint32_t machine, size_t iter) {
  WorkerLink& link = links_[machine];
  if (!link.alive) {
    return Status::Internal("worker " + std::to_string(machine) +
                            " is not running");
  }
  ByteWriter cmd = RpcMessage(MsgType::kRunStep);
  cmd.U64(iter);
  Stopwatch sw;
  if (!link.messenger->Send(cmd.buffer())) {
    MarkWorkerFailed(machine, iter);
    return Status::Internal("kRunStep send failed");
  }
  std::string payload;
  ByteReader r{std::string_view()};
  HETKG_RETURN_IF_ERROR(ServiceUntil(machine, TypeByte(MsgType::kStepDone),
                                     &payload, &r, iter));
  ++rpc_round_trips_;
  link.messenger->ObserveRpcLatency(sw.ElapsedSeconds() * 1e6);
  const double loss = r.F64();
  const uint64_t pairs = r.U64();
  if (!r.ok() || r.remaining() != 0) {
    MarkWorkerFailed(machine, iter);
    return Status::Corruption("bad kStepDone");
  }
  return std::make_pair(loss, pairs);
}

Status ProcCoordinator::DriveEpochEnd(uint32_t machine) {
  WorkerLink& link = links_[machine];
  if (!link.alive) {
    return Status::Internal("worker " + std::to_string(machine) +
                            " is not running");
  }
  const uint64_t at_iter = engine_->global_iteration_;
  Stopwatch sw;
  if (!link.messenger->Send(RpcMessage(MsgType::kEpochEnd).buffer())) {
    MarkWorkerFailed(machine, at_iter);
    return Status::Internal("kEpochEnd send failed");
  }
  std::string payload;
  ByteReader r{std::string_view()};
  HETKG_RETURN_IF_ERROR(ServiceUntil(machine, TypeByte(MsgType::kEpochDone),
                                     &payload, &r, at_iter));
  ++rpc_round_trips_;
  link.messenger->ObserveRpcLatency(sw.ElapsedSeconds() * 1e6);
  const uint64_t hits = r.U64();
  const uint64_t misses = r.U64();
  if (!r.ok() || r.remaining() != 0) {
    MarkWorkerFailed(machine, at_iter);
    return Status::Corruption("bad kEpochDone");
  }
  // Land the worker's epoch counters in the engine's mirror; the
  // harvest loop right after DriveEpochEnd reads and zeroes them
  // exactly as it does the sim runtime's in-process counters.
  engine_->workers_[machine].hits = hits;
  engine_->workers_[machine].misses = misses;
  // Segment barrier: drain the worker's trace ring + cumulative
  // metrics while the protocol is between turns anyway.
  if (obs_on_) return ShipObs(machine);
  return Status::OK();
}

Status ProcCoordinator::SyncWorkerState(uint32_t machine) {
  WorkerLink& link = links_[machine];
  if (!link.alive) {
    return Status::Internal("worker " + std::to_string(machine) +
                            " is not running");
  }
  const uint64_t at_iter = engine_->global_iteration_;
  Stopwatch sw;
  if (!link.messenger->Send(RpcMessage(MsgType::kSyncState).buffer())) {
    MarkWorkerFailed(machine, at_iter);
    return Status::Internal("kSyncState send failed");
  }
  std::string payload;
  ByteReader r{std::string_view()};
  HETKG_RETURN_IF_ERROR(
      ServiceUntil(machine, TypeByte(MsgType::kWorkerState), &payload, &r,
                   at_iter));
  ++rpc_round_trips_;
  link.messenger->ObserveRpcLatency(sw.ElapsedSeconds() * 1e6);
  const uint32_t m = r.U32();
  if (!r.ok() || m != machine ||
      !engine_->LoadWorkerState(&engine_->workers_[machine], &r) ||
      r.remaining() != 0) {
    MarkWorkerFailed(machine, at_iter);
    return Status::Corruption("bad worker state blob");
  }
  return Status::OK();
}

Status ProcCoordinator::RestartWorkers() {
  if (standalone_) {
    return Status::Unimplemented(
        "cannot relaunch externally started (--connect) workers");
  }
  KillFleet();
  HETKG_RETURN_IF_ERROR(ForkFleet());
  worker_failed_ = false;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Cross-process observability (DESIGN.md §14).

const char* ProcCoordinator::TransportName() const {
  return options_.transport == TransportKind::kShm ? "shm" : "tcp";
}

ProcCoordinator::TransportTotals ProcCoordinator::Totals() const {
  TransportTotals t;
  t.rpc_round_trips = rpc_round_trips_;
  t.frames_sent = channel_stats_.frames_sent.load(std::memory_order_relaxed);
  t.bytes_sent = channel_stats_.bytes_sent.load(std::memory_order_relaxed);
  t.frames_received =
      channel_stats_.frames_received.load(std::memory_order_relaxed);
  t.bytes_received =
      channel_stats_.bytes_received.load(std::memory_order_relaxed);
  t.send_stalls = channel_stats_.send_stalls.load(std::memory_order_relaxed);
  const auto load = [](const std::atomic<uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  // Coordinator-side injections only; each worker process reports its
  // own direction through the shipped obs registry.
  t.faults_injected = load(net_fault_stats_.injected_drops) +
                      load(net_fault_stats_.injected_duplicates) +
                      load(net_fault_stats_.injected_delays) +
                      load(net_fault_stats_.injected_corruptions) +
                      load(net_fault_stats_.injected_resets);
  t.crc_errors = load(net_fault_stats_.crc_errors);
  t.retransmits = load(net_fault_stats_.retransmits);
  t.heartbeats_received = load(net_fault_stats_.heartbeats_received);
  t.watchdog_escalations = watchdog_escalations_;
  return t;
}

void ProcCoordinator::SweepOrphanFlightSpills(const std::string& trace_out) {
  // A crashed previous run can leave <trace_out>.flight.w<m> spill
  // files behind (the coordinator died before its orderly-shutdown
  // cleanup). Sweep them once, before this run creates its own —
  // mirroring the stale-*.tmp checkpoint sweep.
  if (flight_swept_) return;
  flight_swept_ = true;
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path out(trace_out);
  fs::path dir = out.parent_path();
  if (dir.empty()) dir = ".";
  const std::string prefix = out.filename().string() + ".flight.w";
  uint64_t removed = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    if (fs::remove(entry.path(), ec)) ++removed;
  }
  if (removed > 0) {
    HETKG_LOG(Info) << "swept " << removed
                    << " orphaned flight spill file(s) matching " << prefix
                    << "*";
    net_metrics_.Increment(metric::kObsFlightOrphansRemoved, removed);
  }
}

Status ProcCoordinator::SetupObs() {
  const obs::ObsConfig& obs_config = engine_->config_.obs;
  if (!obs_config.Enabled()) return Status::OK();
  obs_on_ = true;
  trace_on_ = obs_config.TraceRequested();
  if (trace_on_ && !standalone_) SweepOrphanFlightSpills(obs_config.trace_out);
  worker_regs_.assign(links_.size(), MetricRegistry());
  worker_gauges_.assign(links_.size(), {});
  for (uint32_t m = 0; m < links_.size(); ++m) {
    WorkerLink& link = links_[m];
    if (!link.alive) continue;
    link.messenger->EnableMetrics(&net_metrics_, TransportName());
    uint8_t flight_kind = 0;
    std::string flight_path;
    if (trace_on_) {
      if (link.flight != nullptr) {
        flight_kind = 1;  // Fork-inherited shm region.
      } else if (options_.transport == TransportKind::kTcp && !standalone_) {
        // Forked tcp worker: same filesystem, spill file next to the
        // trace output. (Standalone --connect workers may be on
        // another machine — no flight recorder there.)
        flight_kind = 2;
        flight_path = obs_config.trace_out + ".flight.w" + std::to_string(m);
        link.flight_path = flight_path;
      }
    }
    ByteWriter cmd = RpcMessage(MsgType::kStartObs);
    cmd.U8(trace_on_ ? 1 : 0);
    cmd.U64(options_.trace_ring_capacity);
    cmd.U8(flight_kind);
    cmd.U64(options_.flight_slots);
    cmd.Str(flight_path);
    cmd.Str(TransportName());
    if (!link.messenger->Send(cmd.buffer())) {
      MarkWorkerFailed(m, engine_->global_iteration_);
      return Status::Internal("kStartObs send failed");
    }
    if (trace_on_) HETKG_RETURN_IF_ERROR(ClockSync(m));
  }
  // Post-crash retry: the fresh trace session overwrites the file that
  // carried previously harvested flight tracks — re-inject them.
  for (const FlightCapture& capture : flights_) InjectFlight(capture);
  return Status::OK();
}

Status ProcCoordinator::ClockSync(uint32_t machine) {
  WorkerLink& link = links_[machine];
  const uint64_t at_iter = engine_->global_iteration_;
  int64_t best_offset = 0;
  uint64_t best_rtt = UINT64_MAX;
  // Min-RTT filter: the round with the least in-flight delay gives the
  // tightest bound on the midpoint estimate.
  for (int round = 0; round < 5; ++round) {
    const uint64_t t0 = obs::Tracer::NowMicros();
    if (!link.messenger->Send(RpcMessage(MsgType::kClockSync).buffer())) {
      MarkWorkerFailed(machine, at_iter);
      return Status::Internal("kClockSync send failed");
    }
    std::string payload;
    ByteReader r{std::string_view()};
    HETKG_RETURN_IF_ERROR(ServiceUntil(
        machine, TypeByte(MsgType::kClockSyncReply), &payload, &r, at_iter));
    const uint64_t worker_now = r.U64();
    if (!r.ok() || r.remaining() != 0) {
      MarkWorkerFailed(machine, at_iter);
      return Status::Corruption("bad kClockSyncReply");
    }
    const uint64_t t1 = obs::Tracer::NowMicros();
    const uint64_t rtt = t1 - t0;
    if (rtt < best_rtt) {
      best_rtt = rtt;
      best_offset = static_cast<int64_t>(worker_now) -
                    static_cast<int64_t>((t0 + t1) / 2);
    }
  }
  link.clock_offset_us = best_offset;
  return Status::OK();
}

Status ProcCoordinator::ShipObs(uint32_t machine) {
  WorkerLink& link = links_[machine];
  if (!link.alive) return Status::OK();
  const uint64_t at_iter = engine_->global_iteration_;
  Stopwatch sw;
  if (!link.messenger->Send(RpcMessage(MsgType::kShipObs).buffer())) {
    MarkWorkerFailed(machine, at_iter);
    return Status::Internal("kShipObs send failed");
  }
  std::string payload;
  ByteReader r{std::string_view()};
  HETKG_RETURN_IF_ERROR(ServiceUntil(machine, TypeByte(MsgType::kObsData),
                                     &payload, &r, at_iter));
  ++rpc_round_trips_;
  link.messenger->ObserveRpcLatency(sw.ElapsedSeconds() * 1e6);
  if (!IngestObsData(machine, &r)) {
    MarkWorkerFailed(machine, at_iter);
    return Status::Corruption("bad kObsData");
  }
  return Status::OK();
}

bool ProcCoordinator::IngestObsData(uint32_t machine, ByteReader* r) {
  if (machine >= worker_regs_.size()) return false;
  const uint64_t trace_len = r->U64();
  if (!r->ok() || trace_len > r->remaining()) return false;
  std::string trace_blob(trace_len, '\0');
  if (trace_len != 0 && !r->ReadRaw(trace_blob.data(), trace_len)) {
    return false;
  }
  if (trace_on_ && trace_len != 0 && obs::Tracer::Enabled()) {
    net_metrics_.Increment(metric::kNetShipBytes, trace_len);
    ByteReader tr(trace_blob.data(), trace_blob.size());
    if (!obs::Tracer::AddRemoteEvents(
            2 + machine, "worker " + std::to_string(machine),
            links_[machine].clock_offset_us, &tr)) {
      return false;
    }
  }
  const uint64_t n_gauges = r->U64();
  if (!r->ok()) return false;
  std::vector<std::pair<std::string, double>> gauges;
  gauges.reserve(n_gauges);
  for (uint64_t i = 0; i < n_gauges; ++i) {
    std::string name = r->Str();
    const double value = r->F64();
    if (!r->ok()) return false;
    gauges.emplace_back(std::move(name), value);
  }
  MetricRegistry reg;
  if (!reg.LoadState(r) || r->remaining() != 0) return false;
  // The shipment is cumulative: REPLACE the worker's slice wholesale,
  // so re-ships (epoch barriers, final drain) never double-count.
  worker_regs_[machine] = std::move(reg);
  worker_gauges_[machine] = std::move(gauges);
  return true;
}

Status ProcCoordinator::FlushObs() {
  if (!obs_on_) return Status::OK();
  for (uint32_t m = 0; m < links_.size(); ++m) {
    if (!links_[m].alive) continue;
    HETKG_RETURN_IF_ERROR(ShipObs(m));
  }
  return Status::OK();
}

const MetricRegistry* ProcCoordinator::ObsMetrics() const {
  if (!obs_on_) return nullptr;
  obs_report_ = net_metrics_;
  // The report is rebuilt wholesale each call, so the coordinator's
  // wire-fault counters fold in absolute (no watermark); zero counters
  // never create net.fault.* keys.
  FoldFaultStats(net_fault_stats_, /*last=*/nullptr, &obs_report_);
  for (size_t m = 0; m < worker_regs_.size(); ++m) {
    obs_report_.Merge(worker_regs_[m]);
    const std::string suffix = ".w" + std::to_string(m);
    for (const auto& [name, value] : worker_regs_[m].Snapshot()) {
      obs_report_.SetGauge(name + suffix, static_cast<double>(value));
    }
    for (const auto& [name, value] : worker_gauges_[m]) {
      obs_report_.SetGauge(name + suffix, value);
    }
  }
  return &obs_report_;
}

void ProcCoordinator::HarvestFlight(uint32_t machine) {
  if (!trace_on_) return;
  WorkerLink& link = links_[machine];
  ByteWriter blob;
  if (link.flight != nullptr) {
    link.flight->SerializeHarvest(&blob);
  } else if (!link.flight_path.empty()) {
    Result<std::unique_ptr<obs::FlightRecorder>> opened =
        obs::FlightRecorder::OpenFile(link.flight_path);
    if (!opened.ok()) return;
    opened.value()->SerializeHarvest(&blob);
  } else {
    return;
  }
  ByteReader probe(blob.buffer().data(), blob.size());
  if (probe.U64() == 0) return;  // Nothing recorded.
  FlightCapture capture;
  capture.machine = machine;
  capture.offset_us = link.clock_offset_us;
  capture.blob.assign(blob.buffer().data(), blob.size());
  InjectFlight(capture);
  // Keep the capture: a post-crash retry starts a fresh trace session
  // over the same file, and SetupObs re-injects it there.
  flights_.push_back(std::move(capture));
}

void ProcCoordinator::InjectFlight(const FlightCapture& capture) {
  if (!obs::Tracer::Enabled()) return;
  ByteReader r(capture.blob.data(), capture.blob.size());
  (void)obs::Tracer::AddRemoteEvents(
      1002 + capture.machine,
      "flight.w" + std::to_string(capture.machine), capture.offset_us, &r);
}

Status ProcCoordinator::Shutdown() {
  if (shut_down_) return Status::OK();
  shut_down_ = true;
  Status result = Status::OK();
  for (size_t m = 0; m < links_.size(); ++m) {
    WorkerLink& link = links_[m];
    if (!link.alive) continue;
    bool orderly = false;
    if (link.messenger->Send(RpcMessage(MsgType::kShutdown).buffer())) {
      int waited = 0;
      while (waited < kShutdownGraceMs) {
        std::string payload;
        const RecvStatus status =
            link.messenger->Recv(&payload, options_.poll_ms);
        if (status == RecvStatus::kClosed) break;
        if (status == RecvStatus::kTimeout || status == RecvStatus::kCorrupt) {
          // A corrupt straggler frame at teardown is not worth failing
          // the run over; just keep draining until kBye or the grace
          // deadline.
          waited += options_.poll_ms;
          continue;
        }
        MsgType type;
        ByteReader r{std::string_view()};
        if (!RpcOpen(payload, &type, &r)) continue;
        if (type == MsgType::kBye) {
          orderly = true;
          break;
        }
        if (type == MsgType::kObsData && obs_on_ &&
            m < worker_regs_.size()) {
          // The worker's final unsolicited shipment (sent just before
          // its kBye).
          (void)IngestObsData(static_cast<uint32_t>(m), &r);
          continue;
        }
        // Tolerate (and drop) any straggler message before the kBye.
      }
    }
    if (link.pid > 0) {
      if (!orderly) {
        kill(link.pid, SIGKILL);
        result = Status::Internal("worker " + std::to_string(m) +
                                  " needed SIGKILL at shutdown");
      }
      int wait_status = 0;
      if (waitpid(link.pid, &wait_status, 0) == link.pid) {
        // Surfaces both escalated teardowns and workers that died
        // abnormally on their own way out (nonzero exit, stray signal).
        RecordExit(static_cast<uint32_t>(m), wait_status,
                   orderly ? "abnormal exit at shutdown"
                           : "shutdown escalation");
      }
      link.pid = -1;
    }
    if (link.channel != nullptr) link.channel->Close();
    link.alive = false;
    // Orderly end of run: this run's own flight spill file has served
    // its purpose (the worker exited cleanly, nothing to harvest).
    if (orderly && !link.flight_path.empty()) {
      std::error_code ec;
      std::filesystem::remove(link.flight_path, ec);
    }
  }
  engine_->SetStepDriver(nullptr);
  return result;
}

// ---------------------------------------------------------------------------
// Standalone TCP worker.

Status RunStandaloneWorker(core::PsTrainingEngine* engine, uint32_t machine,
                           const std::string& host, uint16_t port,
                           const ProcOptions& options) {
  HETKG_ASSIGN_OR_RETURN(std::unique_ptr<TcpChannel> channel,
                         TcpConnect(host, port, options.retry));
  NetFaultStats fault_stats;
  Channel* endpoint = channel.get();
  std::unique_ptr<FaultChannel> faulty;
  if (options.fault.Armed()) {
    faulty = std::make_unique<FaultChannel>(endpoint, options.fault,
                                            /*link_salt=*/3000 + machine);
    faulty->set_fault_stats(&fault_stats);
    endpoint = faulty.get();
  }
  Messenger messenger(endpoint);
  messenger.set_fault_stats(&fault_stats);
  if (options.fault.enabled) {
    messenger.EnableReliable(ReliableFromWireFaults(options.fault));
  }
  ByteWriter hello = RpcMessage(MsgType::kHello);
  hello.U32(machine);
  if (!messenger.Send(hello.buffer())) {
    return Status::IoError("hello send failed");
  }
  ProcWorker worker(engine, machine, &messenger, options,
                    /*flight=*/nullptr, &fault_stats);
  const int code = worker.Run();
  if (code != 0) {
    return Status::Internal("worker loop exited with code " +
                            std::to_string(code));
  }
  return Status::OK();
}

}  // namespace hetkg::net
