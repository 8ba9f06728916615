#include "src/transport/bus.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/stats/trace.h"
#include "src/transport/wire_format.h"

namespace poseidon {
namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

MessageBus::MessageBus(int num_nodes)
    : limiters_(static_cast<size_t>(num_nodes)),
      tx_bytes_(static_cast<size_t>(num_nodes)),
      tx_messages_(static_cast<size_t>(num_nodes)),
      tx_entries_(static_cast<size_t>(num_nodes)) {
  CHECK_GT(num_nodes, 0);
  for (size_t n = 0; n < tx_bytes_.size(); ++n) {
    tx_bytes_[n].store(0);
    tx_messages_[n].store(0);
    tx_entries_[n].store(0);
  }
}

MessageBus::~MessageBus() {
  if (injector_ != nullptr) {
    {
      std::lock_guard<std::mutex> lock(pump_mutex_);
      pump_stop_ = true;
    }
    pump_cv_.notify_all();
    if (pump_thread_.joinable()) {
      pump_thread_.join();
    }
  }
  if (batching_.load(std::memory_order_acquire)) {
    for (auto& egress : egress_) {
      {
        std::lock_guard<std::mutex> lock(egress->mutex);
        egress->stop = true;
      }
      egress->cv.notify_all();
    }
    for (auto& egress : egress_) {
      if (egress->flusher.joinable()) {
        egress->flusher.join();
      }
    }
  }
}

std::shared_ptr<MessageBus::Mailbox> MessageBus::Register(const Address& address) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = mailboxes_.try_emplace(address, nullptr);
  if (inserted) {
    it->second = std::make_shared<Mailbox>();
  }
  return it->second;
}

void MessageBus::Bind(const Address& address, std::shared_ptr<Mailbox> mailbox) {
  CHECK_NOTNULL(mailbox.get());
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = mailboxes_.try_emplace(address, mailbox);
  CHECK(inserted || it->second == mailbox)
      << "node " << address.node << " port " << address.port << " is bound to another mailbox";
}

Status MessageBus::Route(const Message& message, std::shared_ptr<Mailbox>* mailbox,
                         std::shared_ptr<RateLimiter>* limiter) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = mailboxes_.find(message.to);
  if (it == mailboxes_.end()) {
    return NotFoundError("no mailbox at node " + std::to_string(message.to.node) +
                         " port " + std::to_string(message.to.port));
  }
  *mailbox = it->second;
  // shared_ptr copy: a concurrent SetEgressLimit cannot invalidate the
  // limiter while a sender (or flusher) waits on it, and the wait itself
  // runs with no bus lock held.
  *limiter = limiters_[static_cast<size_t>(message.from.node)];
  return Status::Ok();
}

Status MessageBus::SendDirect(Message message, std::shared_ptr<Mailbox> mailbox,
                              std::shared_ptr<RateLimiter> limiter) {
  const int src = message.from.node;
  const bool remote = message.from.node != message.to.node;
  if (remote) {
    const int64_t bytes = message.WireBytes();
    if (limiter != nullptr) {
      limiter->Acquire(bytes);  // local traffic bypasses the NIC
    }
    tx_bytes_[static_cast<size_t>(src)].fetch_add(bytes, std::memory_order_relaxed);
    tx_messages_[static_cast<size_t>(src)].fetch_add(1, std::memory_order_relaxed);
    tx_entries_[static_cast<size_t>(src)].fetch_add(1, std::memory_order_relaxed);
    RecordLinkTx(src, message.to.node, bytes);
  }
  if (remote && injector_ != nullptr && message.type != MessageType::kShutdown) {
    InjectOrCommit(std::move(mailbox), std::move(message), /*attempt=*/0);
    return Status::Ok();  // the link layer retransmits; delivery is eventual
  }
  if (remote) {
    RecordLinkDelivery(message);
  }
  if (!mailbox->Push(std::move(message))) {
    return UnavailableError("mailbox closed");
  }
  return Status::Ok();
}

Status MessageBus::SendViaTransport(Message message,
                                    std::shared_ptr<RateLimiter> limiter) {
  const int src = message.from.node;
  const int64_t bytes = message.WireBytes();
  if (limiter != nullptr) {
    limiter->Acquire(bytes);
  }
  tx_bytes_[static_cast<size_t>(src)].fetch_add(bytes, std::memory_order_relaxed);
  tx_messages_[static_cast<size_t>(src)].fetch_add(1, std::memory_order_relaxed);
  tx_entries_[static_cast<size_t>(src)].fetch_add(1, std::memory_order_relaxed);
  RecordLinkTx(src, message.to.node, bytes);
  const int dst = message.to.node;
  return transport_->SendFrame(src, dst, EncodeMessageFrame(message));
}

Status MessageBus::Send(Message message) {
  const int src = message.from.node;
  CHECK_GE(src, 0);
  CHECK_LT(src, num_nodes());

  const bool wire_remote = IsWireRemote(message.to.node);
  std::shared_ptr<Mailbox> mailbox;
  std::shared_ptr<RateLimiter> limiter;
  if (wire_remote) {
    // The destination's mailboxes live in another process: no local routing,
    // the frame goes to the transport instead.
    CHECK(transport_->IsLocal(src))
        << "node " << src << " is not hosted by this process";
    // Always sequence remote data traffic over a wire: real sockets (and
    // the lossy shim especially) can duplicate and reorder records, and the
    // receiving bus's reorder buffer needs the stream order fixed at send
    // time. send_ns is NOT stamped — it would be meaningless on the
    // receiver's clock; DeliverWire restamps at ingress.
    if (message.type != MessageType::kShutdown) {
      message.seq = sequencer_->NextSeq(message.from, message.to);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    limiter = limiters_[static_cast<size_t>(src)];
  } else {
    const Status routed = Route(message, &mailbox, &limiter);
    if (!routed.ok()) {
      return routed;
    }

    // Sequence every remote data message at send time: the stream order
    // fixed here is the order the receiver's reorder buffer will restore,
    // whatever the fault fabric does to the individual transmissions in
    // between.
    if (injector_ != nullptr && message.to.node != src &&
        message.type != MessageType::kShutdown) {
      message.seq = sequencer_->NextSeq(message.from, message.to);
    }

    // Stamp remote messages at bus accept so RecordLinkDelivery() can report
    // end-to-end delivery latency including batching queue time and injected
    // fault delays.
    if (message.to.node != src && link_stats_enabled()) {
      message.send_ns = SteadyNowNs();
    }
  }

  if (!batching_.load(std::memory_order_acquire)) {
    if (wire_remote) {
      return SendViaTransport(std::move(message), std::move(limiter));
    }
    return SendDirect(std::move(message), std::move(mailbox), std::move(limiter));
  }
  if (!wire_remote && message.to.node == src) {
    // Local traffic never batches (it never leaves the process).
    return SendDirect(std::move(message), std::move(mailbox), std::move(limiter));
  }

  NodeEgress& egress = *egress_[static_cast<size_t>(src)];
  const bool force_flush = message.type == MessageType::kShutdown;
  // Wake the flusher only when it has something new to react to: a batch
  // cut into the ready queue, or a fresh open batch whose aging timer it
  // must arm. Joining an existing open batch needs no wakeup.
  bool wake_flusher = false;
  {
    std::lock_guard<std::mutex> lock(egress.mutex);
    const int dst = message.to.node;
    Batch* batch = nullptr;
    for (Batch& open : egress.open) {
      if (open.dst_node == dst) {
        batch = &open;
        break;
      }
    }
    if (batch != nullptr && batch->iter != message.iter) {
      // Iteration boundary: cut the old batch first so per-destination FIFO
      // order is preserved.
      egress.ready.push_back(std::move(*batch));
      egress.open.erase(egress.open.begin() + (batch - egress.open.data()));
      batch = nullptr;
      wake_flusher = true;
    }
    if (batch == nullptr) {
      Batch fresh;
      fresh.dst_node = dst;
      fresh.iter = message.iter;
      fresh.opened = std::chrono::steady_clock::now();
      egress.open.push_back(std::move(fresh));
      batch = &egress.open.back();
      wake_flusher = true;
    }
    batch->payload_bytes += kBatchEntryHeaderBytes + message.PayloadBytes();
    batch->entries.emplace_back(std::move(mailbox), std::move(message));
    if (force_flush ||
        static_cast<int>(batch->entries.size()) >= batch_options_.max_batch_messages ||
        batch->payload_bytes >= batch_options_.max_batch_bytes) {
      egress.ready.push_back(std::move(*batch));
      egress.open.erase(egress.open.begin() + (batch - egress.open.data()));
      wake_flusher = true;
    }
  }
  if (wake_flusher) {
    egress.cv.notify_all();
  }
  return Status::Ok();
}

void MessageBus::EnableBatching(const EgressBatchOptions& options) {
  CHECK(!batching_.load(std::memory_order_acquire)) << "batching already enabled";
  CHECK_GT(options.max_batch_messages, 0);
  CHECK_GT(options.max_batch_bytes, 0);
  CHECK_GT(options.flush_interval_us, 0);
  batch_options_ = options;
  egress_.resize(static_cast<size_t>(num_nodes()));
  for (int n = 0; n < num_nodes(); ++n) {
    egress_[static_cast<size_t>(n)] = std::make_unique<NodeEgress>();
  }
  batching_.store(true, std::memory_order_release);
  for (int n = 0; n < num_nodes(); ++n) {
    egress_[static_cast<size_t>(n)]->flusher = std::thread([this, n] { FlusherLoop(n); });
  }
}

void MessageBus::DeliverBatch(int src, Batch batch) {
  TraceSpan span("bus.deliver_batch", "transport",
                 static_cast<int64_t>(batch.entries.size()));
  const int64_t bytes = kWireFrameBytes + batch.payload_bytes;
  std::shared_ptr<RateLimiter> limiter;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    limiter = limiters_[static_cast<size_t>(src)];
  }
  if (limiter != nullptr) {
    limiter->Acquire(bytes);
  }
  tx_bytes_[static_cast<size_t>(src)].fetch_add(bytes, std::memory_order_relaxed);
  tx_messages_[static_cast<size_t>(src)].fetch_add(1, std::memory_order_relaxed);
  tx_entries_[static_cast<size_t>(src)].fetch_add(
      static_cast<int64_t>(batch.entries.size()), std::memory_order_relaxed);
  RecordLinkTx(src, batch.dst_node, bytes);
  if (IsWireRemote(batch.dst_node)) {
    // The whole batch crosses the process boundary as one frame — the exact
    // framing the accounting above just charged.
    std::vector<Message> entries;
    entries.reserve(batch.entries.size());
    for (auto& [mailbox, message] : batch.entries) {
      entries.push_back(std::move(message));
    }
    std::vector<uint8_t> frame = EncodeBatchFrame(entries);
    CHECK_EQ(static_cast<int64_t>(frame.size()), bytes);
    const Status status =
        transport_->SendFrame(src, batch.dst_node, std::move(frame));
    if (!status.ok()) {
      // Mirrors the closed-mailbox case below: the senders are long gone,
      // so a dead peer connection can only be reported loudly.
      LOG(Warning) << "egress batch from node " << src << " to node "
                   << batch.dst_node << " lost: " << status.ToString();
    }
    return;
  }
  for (auto& [mailbox, message] : batch.entries) {
    const MessageType type = message.type;
    if (injector_ != nullptr && type != MessageType::kShutdown) {
      // Chaos weather applies per logical message even inside a batched
      // frame (accounting already happened above, once per frame).
      InjectOrCommit(std::move(mailbox), std::move(message), /*attempt=*/0);
      continue;
    }
    RecordLinkDelivery(message);
    if (!mailbox->Push(std::move(message)) && type != MessageType::kShutdown) {
      // The unbatched path surfaces this as UnavailableError to the
      // sender; here the sender is long gone, so make the drop loud —
      // outside teardown it means a receiver will wait forever.
      LOG(Warning) << "egress batch from node " << src
                   << " dropped a message for a closed mailbox";
    }
  }
}

// ---------------------------------------------------------- transport seam --

void MessageBus::AttachTransport(std::shared_ptr<Transport> transport) {
  CHECK(transport != nullptr);
  CHECK(transport_ == nullptr) << "transport already attached";
  CHECK(injector_ == nullptr)
      << "in-process fault injection and a wire transport are mutually "
         "exclusive (use the transport's lossy shim for cross-process chaos)";
  wire_counters_ = std::make_unique<FaultCounters>();
  EnableSequencing(wire_counters_.get());
  transport_ = std::move(transport);
}

Status MessageBus::DeliverWire(const uint8_t* data, int64_t size) {
  CHECK(transport_ != nullptr) << "DeliverWire requires AttachTransport";
  std::vector<Message> messages;
  Status status = DecodeWireFrame(data, size, &messages);
  if (!status.ok()) {
    return status;
  }
  if (messages.empty()) {
    return Status::Ok();
  }
  // Every message of a frame shares (from node, to node) — the batch
  // invariant — so one bounds check and one link-accounting add cover all.
  const int src = messages.front().from.node;
  const int dst = messages.front().to.node;
  if (src < 0 || src >= num_nodes() || dst < 0 || dst >= num_nodes()) {
    return InvalidArgumentError("wire frame addressed outside this cluster: " +
                                std::to_string(src) + " -> " +
                                std::to_string(dst));
  }
  // Ingress-side link accounting: the sending bus records links whose source
  // it hosts, this bus records links arriving from remote sources — one bus
  // never counts a (src, dst) pair from both sides.
  RecordLinkTx(src, dst, size);
  const int64_t now_ns = link_stats_enabled() ? SteadyNowNs() : 0;
  for (Message& m : messages) {
    // Receiver-side restamp: delivery latency is measured ingress-to-push on
    // this process's steady clock. Two processes' steady clocks have
    // unrelated epochs, so the sender's stamp must never be compared here.
    m.send_ns = now_ns;
    // A peer that opens a gap wider than the holdback is refused, not
    // trusted: the rest of its frame is dropped with the offender. An
    // endpoint that died (or was never registered here) loses its messages
    // exactly as on a dead socket.
    status = Release(std::move(m), /*fallback=*/nullptr);
    if (!status.ok()) {
      return status;
    }
  }
  return Status::Ok();
}

FaultCountersSnapshot MessageBus::WireCounters() const {
  if (wire_counters_ == nullptr) {
    return FaultCountersSnapshot{};
  }
  return wire_counters_->Snapshot();
}

// ------------------------------------------------------------ fault fabric --

void MessageBus::EnableFaultInjection(const FaultPlan& plan) {
  CHECK(injector_ == nullptr) << "fault injection already enabled";
  CHECK(transport_ == nullptr)
      << "in-process fault injection and a wire transport are mutually "
         "exclusive (use the transport's lossy shim for cross-process chaos)";
  injector_ = std::make_unique<FaultInjector>(plan);
  EnableSequencing(&injector_->counters());
  pump_thread_ = std::thread([this] { PumpLoop(); });
}

void MessageBus::InjectOrCommit(std::shared_ptr<Mailbox> mailbox, Message message,
                                int attempt) {
  FaultCounters& counters = injector_->counters();
  if (injector_->IsPartitioned(message.from.node, message.to.node)) {
    counters.AddPartitionHold();
    TimedDelivery held;
    held.mailbox = std::move(mailbox);
    held.message = std::move(message);
    held.attempt = attempt;
    {
      std::lock_guard<std::mutex> lock(pump_mutex_);
      partition_held_.push_back(std::move(held));
    }
    pump_cv_.notify_all();  // arms the periodic partition recheck
    return;
  }
  const FaultDecision decision = injector_->Decide(message, attempt);
  const auto now = std::chrono::steady_clock::now();
  if (decision.drop) {
    // Lost on the wire; the modeled reliable link layer retransmits the
    // same sequence number after the RTO, rolling fresh dice.
    counters.AddDrop();
    TimedDelivery retx;
    retx.due = now + std::chrono::microseconds(injector_->plan().retransmit_timeout_us);
    retx.mailbox = std::move(mailbox);
    retx.message = std::move(message);
    retx.attempt = attempt + 1;
    retx.commit_only = false;
    SchedulePumped(std::move(retx));
    return;
  }
  if (decision.duplicate) {
    counters.AddDuplicate();
    TimedDelivery copy;
    copy.due = now + std::chrono::microseconds(injector_->plan().duplicate_lag_us);
    copy.mailbox = mailbox;
    copy.message = message;  // same seq: the receiver will deduplicate
    copy.attempt = attempt;
    copy.commit_only = true;
    SchedulePumped(std::move(copy));
  }
  if (decision.delay_us > 0) {
    counters.AddDelay();
    TimedDelivery delayed;
    delayed.due = now + std::chrono::microseconds(decision.delay_us);
    delayed.mailbox = std::move(mailbox);
    delayed.message = std::move(message);
    delayed.attempt = attempt;
    delayed.commit_only = true;
    SchedulePumped(std::move(delayed));
    return;
  }
  Commit(mailbox, std::move(message));
}

void MessageBus::Commit(const std::shared_ptr<Mailbox>& mailbox, Message message) {
  // The in-process fabric retransmits every drop, so a gap wider than the
  // holdback is a bug in the fabric itself.
  const Status admitted = Release(std::move(message), mailbox);
  CHECK(admitted.ok()) << admitted.ToString();
}

// ---------------------------------------------------------------- sequencing --

void MessageBus::EnableSequencing(FaultCounters* counters) {
  sequencer_ = std::make_unique<StreamSequencer>();
  reorder_ = std::make_unique<ReorderBuffer>(counters);
  sequencing_counters_ = counters;
}

Status MessageBus::Release(Message message, const std::shared_ptr<Mailbox>& fallback) {
  std::vector<Message> released;
  const Status admitted = reorder_->Admit(std::move(message), &released);
  if (!admitted.ok() || released.empty()) {
    return admitted;
  }
  // Deliver to the destination's *current* mailbox, looked up at release
  // time: between send (or parking in the reorder buffer) and now the
  // endpoint may have died and been re-registered (crash recovery), and the
  // mailbox captured at send time could belong to the dead incarnation.
  // Every message of a released run shares one stream, hence one address.
  std::shared_ptr<Mailbox> target;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = mailboxes_.find(released.front().to);
    if (it != mailboxes_.end()) {
      target = it->second;
    }
  }
  if (target == nullptr) {
    target = fallback;  // unregistered: the endpoint is gone
  }
  for (Message& ready : released) {
    const MessageType type = ready.type;
    if (target == nullptr) {
      if (type != MessageType::kShutdown) {
        sequencing_counters_->AddDroppedReply();
      }
      continue;
    }
    RecordLinkDelivery(ready);
    if (!target->Push(std::move(ready)) && type != MessageType::kShutdown) {
      // The endpoint died between send and delivery (crash window): the
      // message is lost, as it would be on a real dead socket. Recovery
      // re-pushes; the shard reconciles.
      sequencing_counters_->AddDroppedReply();
    }
  }
  return Status::Ok();
}

void MessageBus::SchedulePumped(TimedDelivery delivery) {
  {
    std::lock_guard<std::mutex> lock(pump_mutex_);
    delivery.order = pump_order_++;
    pump_queue_.push(std::move(delivery));
  }
  pump_cv_.notify_all();
}

void MessageBus::PumpLoop() {
  constexpr auto kPartitionRecheck = std::chrono::microseconds(200);
  std::unique_lock<std::mutex> lock(pump_mutex_);
  while (true) {
    if (pump_stop_) {
      break;
    }
    if (pump_queue_.empty()) {
      pump_idle_cv_.notify_all();  // FlushFaults waiters (held traffic excluded)
    }
    if (pump_queue_.empty() && partition_held_.empty()) {
      pump_cv_.wait(lock, [&] {
        return pump_stop_ || !pump_queue_.empty() || !partition_held_.empty();
      });
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    // Replay parked traffic whose partition healed (in park order; the
    // reorder buffer fixes any residual interleaving).
    std::vector<TimedDelivery> replay;
    for (size_t i = 0; i < partition_held_.size();) {
      TimedDelivery& held = partition_held_[i];
      if (!injector_->IsPartitioned(held.message.from.node, held.message.to.node)) {
        replay.push_back(std::move(held));
        partition_held_.erase(partition_held_.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
    if (!pump_queue_.empty() && pump_queue_.top().due <= now) {
      TimedDelivery due = pump_queue_.top();
      pump_queue_.pop();
      replay.push_back(std::move(due));
    }
    if (replay.empty()) {
      // Nothing due: sleep until the next deadline (or the partition
      // recheck tick while anything is parked).
      auto wake = now + std::chrono::hours(24);
      if (!pump_queue_.empty()) {
        wake = std::min(wake, pump_queue_.top().due);
      }
      if (!partition_held_.empty()) {
        wake = std::min(wake, now + kPartitionRecheck);
      }
      pump_cv_.wait_until(lock, wake, [&] {
        // Also wake early when a fresher item undercuts the deadline.
        return pump_stop_ || (!pump_queue_.empty() && pump_queue_.top().due < wake);
      });
      continue;
    }
    ++pump_busy_;
    lock.unlock();
    for (TimedDelivery& item : replay) {
      if (item.commit_only) {
        Commit(item.mailbox, std::move(item.message));
      } else {
        if (item.attempt > 0) {
          injector_->counters().AddRetransmit();
        }
        InjectOrCommit(std::move(item.mailbox), std::move(item.message), item.attempt);
      }
    }
    lock.lock();
    --pump_busy_;
  }
}

void MessageBus::FlushFaults() {
  if (injector_ == nullptr) {
    return;
  }
  std::unique_lock<std::mutex> lock(pump_mutex_);
  pump_cv_.notify_all();
  pump_idle_cv_.wait(lock, [&] {
    if (pump_stop_) {
      return true;
    }
    if (!pump_queue_.empty() || pump_busy_ > 0) {
      return false;
    }
    // Held traffic only blocks the flush while its partition has healed but
    // the pump has not replayed it yet; traffic behind a live partition is
    // excluded by contract.
    for (const TimedDelivery& held : partition_held_) {
      if (!injector_->IsPartitioned(held.message.from.node, held.message.to.node)) {
        return false;
      }
    }
    return true;
  });
}

void MessageBus::Partition(int a, int b) {
  CHECK(injector_ != nullptr) << "Partition requires EnableFaultInjection";
  injector_->Partition(a, b);
}

void MessageBus::HealPartitions() {
  CHECK(injector_ != nullptr) << "HealPartitions requires EnableFaultInjection";
  injector_->HealAll();
  pump_cv_.notify_all();
}

bool MessageBus::AwaitPartitionHolds(int64_t n, int timeout_ms) {
  if (injector_ == nullptr) {
    return false;
  }
  std::unique_lock<std::mutex> lock(pump_mutex_);
  // InjectOrCommit bumps the counter before notifying the pump, so the
  // predicate observes every hold.
  return pump_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return injector_->Counters().partition_holds >= n;
  });
}

void MessageBus::CloseEndpoints(int node, int min_port, int max_port) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = mailboxes_.begin(); it != mailboxes_.end();) {
    if (it->first.node == node && it->first.port >= min_port &&
        it->first.port < max_port) {
      it->second->Close();
      it = mailboxes_.erase(it);
    } else {
      ++it;
    }
  }
}

void MessageBus::FlusherLoop(int node) {
  NodeEgress& egress = *egress_[static_cast<size_t>(node)];
  const auto interval = std::chrono::microseconds(batch_options_.flush_interval_us);
  std::unique_lock<std::mutex> lock(egress.mutex);
  while (true) {
    if (egress.stop && egress.ready.empty() && egress.open.empty()) {
      break;
    }
    if (egress.ready.empty()) {
      if (egress.open.empty()) {
        if (egress.flush_requested && egress.delivering == 0) {
          egress.flush_requested = false;
          egress.idle_cv.notify_all();
        }
        egress.cv.wait(lock, [&] {
          return egress.stop || egress.flush_requested || !egress.ready.empty() ||
                 !egress.open.empty();
        });
        continue;
      }
      // Let young open batches age up to the flush interval before cutting
      // them (unless a flush/stop wants everything out now).
      if (!egress.stop && !egress.flush_requested) {
        auto earliest = egress.open.front().opened;
        for (const Batch& open : egress.open) {
          earliest = std::min(earliest, open.opened);
        }
        egress.cv.wait_until(lock, earliest + interval, [&] {
          return egress.stop || egress.flush_requested || !egress.ready.empty();
        });
      }
      const auto now = std::chrono::steady_clock::now();
      for (size_t i = 0; i < egress.open.size();) {
        if (egress.stop || egress.flush_requested || now - egress.open[i].opened >= interval) {
          egress.ready.push_back(std::move(egress.open[i]));
          egress.open.erase(egress.open.begin() + static_cast<long>(i));
        } else {
          ++i;
        }
      }
    }
    while (!egress.ready.empty()) {
      Batch batch = std::move(egress.ready.front());
      egress.ready.pop_front();
      ++egress.delivering;
      lock.unlock();
      DeliverBatch(node, std::move(batch));
      lock.lock();
      --egress.delivering;
    }
    if (egress.flush_requested && egress.open.empty() && egress.ready.empty() &&
        egress.delivering == 0) {
      egress.flush_requested = false;
      egress.idle_cv.notify_all();
    }
  }
}

void MessageBus::FlushEgress() {
  if (!batching_.load(std::memory_order_acquire)) {
    if (transport_ != nullptr) {
      transport_->Flush();
    }
    return;
  }
  for (auto& egress_ptr : egress_) {
    NodeEgress& egress = *egress_ptr;
    std::unique_lock<std::mutex> lock(egress.mutex);
    if (egress.open.empty() && egress.ready.empty() && egress.delivering == 0) {
      continue;
    }
    egress.flush_requested = true;
    egress.cv.notify_all();
    egress.idle_cv.wait(lock, [&] {
      return !egress.flush_requested ||
             (egress.open.empty() && egress.ready.empty() && egress.delivering == 0);
    });
  }
  if (transport_ != nullptr) {
    // Batches are cut and encoded; now drain the transport's own egress
    // queues so the bytes actually leave the process.
    transport_->Flush();
  }
}

void MessageBus::SetEgressLimit(int node, double bytes_per_sec) {
  std::lock_guard<std::mutex> lock(mutex_);
  CHECK_GE(node, 0);
  CHECK_LT(node, num_nodes());
  if (bytes_per_sec <= 0.0) {
    limiters_[static_cast<size_t>(node)].reset();
  } else {
    limiters_[static_cast<size_t>(node)] = std::make_shared<RateLimiter>(bytes_per_sec);
  }
}

std::shared_ptr<RateLimiter> MessageBus::egress_limiter(int node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  CHECK_GE(node, 0);
  CHECK_LT(node, num_nodes());
  return limiters_[static_cast<size_t>(node)];
}

void MessageBus::EnableLinkStats() {
  if (link_stats_enabled()) {
    return;
  }
  const size_t n = static_cast<size_t>(num_nodes());
  link_cells_.resize(n * n);
  for (auto& cell : link_cells_) {
    cell = std::make_unique<LinkCell>();
  }
  link_stats_since_ = std::chrono::steady_clock::now();
  link_stats_enabled_.store(true, std::memory_order_release);
}

void MessageBus::RecordLinkTx(int src, int dst, int64_t bytes) {
  if (!link_stats_enabled()) {
    return;
  }
  LinkCell& cell = *link_cells_[static_cast<size_t>(src) *
                                    static_cast<size_t>(num_nodes()) +
                                static_cast<size_t>(dst)];
  cell.bytes.fetch_add(bytes, std::memory_order_relaxed);
  cell.messages.fetch_add(1, std::memory_order_relaxed);
}

void MessageBus::RecordLinkDelivery(const Message& message) {
  if (!link_stats_enabled() || message.send_ns <= 0 ||
      message.from.node == message.to.node) {
    return;
  }
  const int64_t latency = SteadyNowNs() - message.send_ns;
  LinkCell& cell = *link_cells_[static_cast<size_t>(message.from.node) *
                                    static_cast<size_t>(num_nodes()) +
                                static_cast<size_t>(message.to.node)];
  cell.latency_ns.Record(latency > 0 ? latency : 0);
}

ObservedLinkStats MessageBus::SnapshotLinkStats() const {
  ObservedLinkStats snap;
  if (!link_stats_enabled()) {
    return snap;
  }
  snap.window_s = std::chrono::duration_cast<std::chrono::duration<double>>(
                      std::chrono::steady_clock::now() - link_stats_since_)
                      .count();
  const int n = num_nodes();
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      const LinkCell& cell =
          *link_cells_[static_cast<size_t>(src) * static_cast<size_t>(n) +
                       static_cast<size_t>(dst)];
      const int64_t bytes = cell.bytes.load(std::memory_order_relaxed);
      const int64_t messages = cell.messages.load(std::memory_order_relaxed);
      if (bytes == 0 && messages == 0) {
        continue;
      }
      LinkStat link;
      link.src = src;
      link.dst = dst;
      link.bytes = bytes;
      link.messages = messages;
      link.delivery_latency_ns = cell.latency_ns.TakeSnapshot();
      snap.links.push_back(std::move(link));
    }
  }
  return snap;
}

std::vector<int64_t> MessageBus::TxBytes() const {
  std::vector<int64_t> out(tx_bytes_.size());
  for (size_t i = 0; i < tx_bytes_.size(); ++i) {
    out[i] = tx_bytes_[i].load(std::memory_order_relaxed);
  }
  return out;
}

int64_t MessageBus::TxBytes(int node) const {
  CHECK_GE(node, 0);
  CHECK_LT(node, num_nodes());
  return tx_bytes_[static_cast<size_t>(node)].load(std::memory_order_relaxed);
}

std::vector<int64_t> MessageBus::TxMessages() const {
  std::vector<int64_t> out(tx_messages_.size());
  for (size_t i = 0; i < tx_messages_.size(); ++i) {
    out[i] = tx_messages_[i].load(std::memory_order_relaxed);
  }
  return out;
}

int64_t MessageBus::TxMessages(int node) const {
  CHECK_GE(node, 0);
  CHECK_LT(node, num_nodes());
  return tx_messages_[static_cast<size_t>(node)].load(std::memory_order_relaxed);
}

std::vector<int64_t> MessageBus::TxEntries() const {
  std::vector<int64_t> out(tx_entries_.size());
  for (size_t i = 0; i < tx_entries_.size(); ++i) {
    out[i] = tx_entries_[i].load(std::memory_order_relaxed);
  }
  return out;
}

int64_t MessageBus::TxEntries(int node) const {
  CHECK_GE(node, 0);
  CHECK_LT(node, num_nodes());
  return tx_entries_[static_cast<size_t>(node)].load(std::memory_order_relaxed);
}

void MessageBus::ResetTraffic() {
  for (size_t n = 0; n < tx_bytes_.size(); ++n) {
    tx_bytes_[n].store(0, std::memory_order_relaxed);
    tx_messages_[n].store(0, std::memory_order_relaxed);
    tx_entries_[n].store(0, std::memory_order_relaxed);
  }
}

void MessageBus::CloseAll() {
  FlushEgress();
  FlushFaults();
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [address, mailbox] : mailboxes_) {
    mailbox->Close();
  }
}

}  // namespace poseidon
