#include "src/transport/bus.h"

#include <algorithm>
#include <optional>
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

// Frames a carrier admits together go to the transport in one write of at
// most this many bytes (a larger frame is written alone), so a deep queue of
// bulk frames is not encoded all at once.
constexpr int64_t kMaxWriteBytes = 1 << 20;

// A frame whose sender has moved on (everything the carrier or the fault
// pump writes) can only report its loss loudly: outside teardown it means a
// receiver will wait forever.
void WarnIfLost(const Status& status, int src, int dst) {
  if (!status.ok()) {
    LOG(Warning) << "transmission from node " << src << " to node " << dst
                 << " lost: " << status.ToString();
  }
}

}  // namespace

MessageBus::MessageBus(int num_nodes)
    : limiters_(static_cast<size_t>(num_nodes)),
      tx_bytes_(static_cast<size_t>(num_nodes)),
      tx_messages_(static_cast<size_t>(num_nodes)),
      tx_entries_(static_cast<size_t>(num_nodes)) {
  CHECK_GT(num_nodes, 0);
  egress_.resize(static_cast<size_t>(num_nodes));
  for (size_t n = 0; n < tx_bytes_.size(); ++n) {
    tx_bytes_[n].store(0);
    tx_messages_[n].store(0);
    tx_entries_[n].store(0);
    egress_[n] = std::make_unique<NodeEgress>();
  }
}

MessageBus::~MessageBus() {
  // Carriers first: what they still hold may go to the pump, which drops it.
  for (auto& egress : egress_) {
    {
      std::lock_guard<std::mutex> lock(egress->mutex);
      egress->stop = true;
    }
    egress->cv.notify_all();
  }
  for (auto& egress : egress_) {
    if (egress->carrier.joinable()) {
      egress->carrier.join();
    }
  }
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

Status MessageBus::Route(const Address& to, std::shared_ptr<Mailbox>* mailbox) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = mailboxes_.find(to);
  if (it == mailboxes_.end()) {
    return NotFoundError("no mailbox at node " + std::to_string(to.node) + " port " +
                         std::to_string(to.port));
  }
  *mailbox = it->second;
  return Status::Ok();
}

void MessageBus::Charge(int src, int dst, int64_t bytes, int64_t entries) {
  tx_bytes_[static_cast<size_t>(src)].fetch_add(bytes, std::memory_order_relaxed);
  tx_messages_[static_cast<size_t>(src)].fetch_add(1, std::memory_order_relaxed);
  tx_entries_[static_cast<size_t>(src)].fetch_add(entries, std::memory_order_relaxed);
  RecordLinkTx(src, dst, bytes);
}

Status MessageBus::Send(Message message) {
  const int src = message.from.node;
  CHECK_GE(src, 0);
  CHECK_LT(src, num_nodes());

  const int dst = message.to.node;
  const bool wire_remote = IsWireRemote(dst);
  std::shared_ptr<Mailbox> mailbox;
  if (wire_remote) {
    // The destination's mailboxes live in another process: no local routing,
    // the frame goes to the transport instead.
    CHECK(transport_->IsLocal(src))
        << "node " << src << " is not hosted by this process";
  } else {
    const Status routed = Route(message.to, &mailbox);
    if (!routed.ok()) {
      return routed;
    }
  }
  if (dst == src) {
    // Local traffic never touches the NIC: no charge, no sequence number, no
    // weather, no batch.
    if (!mailbox->Push(std::move(message))) {
      return UnavailableError("mailbox closed");
    }
    return Status::Ok();
  }

  // Every remote data message is stamped whenever the bus has a sequencer
  // (fault fabric or transport): the stream order fixed here is the order
  // the receiver's reorder buffer restores, whatever the fabric or the wire
  // does to the individual transmissions in between.
  if (sequencer_ != nullptr && message.type != MessageType::kShutdown) {
    message.seq = sequencer_->NextSeq(message.from, message.to);
  }
  // Stamp at bus accept so RecordLinkDelivery() can report end-to-end
  // delivery latency including batching queue time and injected fault
  // delays. Not on the wire: a stamp would be meaningless on the receiver's
  // clock, and DeliverWire restamps at ingress.
  if (!wire_remote && link_stats_enabled()) {
    message.send_ns = SteadyNowNs();
  }

  // Queue on the source node's egress. Without batching every message is
  // cut alone into the FIFO; with it, the cut rule below coalesces by
  // (destination node, iteration).
  const bool batching = batching_.load(std::memory_order_acquire);
  NodeEgress& egress = *egress_[static_cast<size_t>(src)];
  const bool force_cut = !batching || message.type == MessageType::kShutdown;
  const int64_t entry_bytes =
      (batching ? kBatchEntryHeaderBytes : 0) + message.PayloadBytes();
  // Wake the carrier only when it has something new to react to: a batch
  // cut into the ready queue, or a fresh open batch whose aging timer it
  // must arm. Joining an existing open batch needs no wakeup.
  bool wake_carrier = false;
  {
    std::lock_guard<std::mutex> lock(egress.mutex);
    if (!egress.carrier.joinable()) {
      egress.carrier = std::thread([this, src] { CarrierLoop(src); });
    }
    ++egress.depth;
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
    }
    if (batch == nullptr) {
      Batch fresh;
      fresh.dst_node = dst;
      fresh.iter = message.iter;
      fresh.opened = std::chrono::steady_clock::now();
      egress.open.push_back(std::move(fresh));
      batch = &egress.open.back();
      wake_carrier = true;
    }
    batch->payload_bytes += entry_bytes;
    batch->entries.emplace_back(std::move(mailbox), std::move(message));
    if (force_cut ||
        static_cast<int>(batch->entries.size()) >= batch_options_.max_batch_messages ||
        batch->payload_bytes >= batch_options_.max_batch_bytes) {
      egress.ready.push_back(std::move(*batch));
      egress.open.erase(egress.open.begin() + (batch - egress.open.data()));
      wake_carrier = true;
    }
  }
  if (wake_carrier) {
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
  batching_.store(true, std::memory_order_release);
}

void MessageBus::CarrierLoop(int node) {
  NodeEgress& egress = *egress_[static_cast<size_t>(node)];
  const auto interval = std::chrono::microseconds(batch_options_.flush_interval_us);
  std::unique_lock<std::mutex> lock(egress.mutex);
  while (true) {
    if (egress.ready.empty()) {
      if (egress.open.empty()) {
        if (egress.stop) {
          break;
        }
        if (egress.flush_requested) {
          egress.flush_requested = false;
          egress.idle_cv.notify_all();
        }
        egress.cv.wait(lock, [&] {
          return egress.stop || !egress.ready.empty() || !egress.open.empty();
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
      if (egress.ready.empty()) {
        continue;
      }
    }
    // Take everything cut so far as one run, with the limit that applies to
    // it (bus lock under the egress lock; nothing nests them the other way).
    std::deque<Batch> run;
    run.swap(egress.ready);
    for (const Batch& batch : run) {
      egress.depth -= static_cast<int64_t>(batch.entries.size());
    }
    std::shared_ptr<RateLimiter> limiter;
    {
      std::lock_guard<std::mutex> bus_lock(mutex_);
      limiter = limiters_[static_cast<size_t>(node)];
    }
    egress.carrying = true;
    egress.idle_cv.notify_all();
    lock.unlock();
    CarryRun(node, std::move(run), limiter.get());
    lock.lock();
    egress.carrying = false;
    egress.idle_cv.notify_all();
  }
}

void MessageBus::CarryRun(int node, std::deque<Batch> run, RateLimiter* limiter) {
  NodeEgress& egress = *egress_[static_cast<size_t>(node)];
  const bool batching = batching_.load(std::memory_order_acquire);
  // Frames for one destination that may leave now, written together.
  int group_dst = -1;
  int64_t group_bytes = 0;
  std::vector<std::vector<uint8_t>> group;
  auto write_group = [&] {
    if (!group.empty()) {
      WarnIfLost(transport_->SendFrames(node, group_dst, std::move(group)), node, group_dst);
      group.clear();
      group_bytes = 0;
    }
  };
  for (Batch& batch : run) {
    const int dst = batch.dst_node;
    const int64_t bytes = kWireFrameBytes + batch.payload_bytes;
    if (limiter != nullptr) {
      const auto due = limiter->Reserve(bytes);
      if (due > std::chrono::steady_clock::now()) {
        // What may already leave goes first; a stopping bus stops waiting.
        write_group();
        std::unique_lock<std::mutex> lock(egress.mutex);
        egress.cv.wait_until(lock, due, [&] { return egress.stop; });
      }
    }
    std::optional<TraceSpan> span;
    if (batching) {
      span.emplace("bus.deliver_batch", "transport", static_cast<int64_t>(batch.entries.size()));
    }
    Charge(node, dst, bytes, static_cast<int64_t>(batch.entries.size()));
    if (!IsWireRemote(dst)) {
      for (auto& [mailbox, message] : batch.entries) {
        // In process, weather applies per logical message even inside a
        // batch (the charge above happened once, for the frame).
        const bool exempt = message.type == MessageType::kShutdown;
        Transmission transmission;
        transmission.mailbox = std::move(mailbox);
        transmission.message = std::move(message);
        Carry(std::move(transmission), exempt);
      }
      continue;
    }
    // Out of process the batch crosses as one frame (a message frame when
    // batching is off) — the exact framing the charge above accounted — and
    // weather acts on that frame.
    // A kShutdown always closes its batch (Send cuts on it), so checking
    // the last entry exempts every frame that carries one.
    const bool exempt = batch.entries.back().second.type == MessageType::kShutdown;
    Transmission transmission;
    if (batching) {
      std::vector<Message> entries;
      entries.reserve(batch.entries.size());
      for (auto& [mailbox, message] : batch.entries) {
        entries.push_back(std::move(message));
      }
      transmission.frame = EncodeBatchFrame(entries);
      transmission.message = std::move(entries.front());
    } else {
      transmission.frame = EncodeMessageFrame(batch.entries.front().second);
      transmission.message = std::move(batch.entries.front().second);
    }
    CHECK_EQ(static_cast<int64_t>(transmission.frame.size()), bytes);
    // The first entry without its chunks: the routing header that keys the
    // fault dice and the partition check.
    transmission.message.chunks.clear();
    if (injector_ != nullptr && !exempt) {
      write_group();  // submission order: the fabric may commit right away
      InjectOrCommit(std::move(transmission));
      continue;
    }
    if (dst != group_dst || group_bytes + bytes > kMaxWriteBytes) {
      write_group();
      group_dst = dst;
    }
    group_bytes += bytes;
    group.push_back(std::move(transmission.frame));
  }
  write_group();
}

// ---------------------------------------------------------- transport seam --

void MessageBus::AttachTransport(std::shared_ptr<Transport> transport) {
  CHECK(transport != nullptr);
  CHECK(transport_ == nullptr) << "transport already attached";
  EnableSequencing();
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

// ------------------------------------------------------------ fault fabric --

void MessageBus::EnableFaultInjection(const FaultPlan& plan) {
  CHECK(injector_ == nullptr) << "fault injection already enabled";
  injector_ = std::make_unique<FaultInjector>(plan);
  EnableSequencing();
  pump_thread_ = std::thread([this] { PumpLoop(); });
}

void MessageBus::Carry(Transmission transmission, bool exempt) {
  if (injector_ != nullptr && !exempt) {
    InjectOrCommit(std::move(transmission));  // delivery is eventual
    return;
  }
  const int src = transmission.message.from.node;
  const int dst = transmission.message.to.node;
  WarnIfLost(Commit(std::move(transmission)), src, dst);
}

void MessageBus::InjectOrCommit(Transmission transmission) {
  const Message& header = transmission.message;
  if (injector_->IsPartitioned(header.from.node, header.to.node)) {
    fault_counters_.AddPartitionHold();
    {
      std::lock_guard<std::mutex> lock(pump_mutex_);
      partition_held_.push_back(std::move(transmission));
    }
    pump_cv_.notify_all();  // arms the periodic partition recheck
    return;
  }
  // Every sequenced entry has a unique (stream, seq), so keying the dice on
  // the message (in process) or the frame's first entry (on the wire) keeps
  // them deterministic.
  const FaultDecision decision = injector_->Decide(header, transmission.attempt);
  const auto now = std::chrono::steady_clock::now();
  if (decision.drop) {
    // Lost on the wire; the modeled reliable link layer retransmits the
    // same bytes after the RTO, rolling fresh dice.
    fault_counters_.AddDrop();
    transmission.due = now + std::chrono::microseconds(injector_->plan().retransmit_timeout_us);
    transmission.attempt += 1;
    transmission.commit_only = false;
    SchedulePumped(std::move(transmission));
    return;
  }
  if (decision.duplicate) {
    fault_counters_.AddDuplicate();
    Transmission copy = transmission;  // same seq: the receiver will deduplicate
    copy.due = now + std::chrono::microseconds(injector_->plan().duplicate_lag_us);
    copy.commit_only = true;
    SchedulePumped(std::move(copy));
  }
  if (decision.delay_us > 0) {
    // Held back while later transmissions go straight through: genuine
    // reordering, in process and on the wire alike.
    fault_counters_.AddDelay();
    transmission.due = now + std::chrono::microseconds(decision.delay_us);
    transmission.commit_only = true;
    SchedulePumped(std::move(transmission));
    return;
  }
  const int src = header.from.node;
  const int dst = header.to.node;
  WarnIfLost(Commit(std::move(transmission)), src, dst);
}

Status MessageBus::Commit(Transmission transmission) {
  Message& message = transmission.message;
  if (!transmission.frame.empty()) {
    std::vector<std::vector<uint8_t>> frames;
    frames.push_back(std::move(transmission.frame));
    return transport_->SendFrames(message.from.node, message.to.node, std::move(frames));
  }
  if (message.seq >= 0) {
    const Status admitted = Release(std::move(message), transmission.mailbox);
    CHECK(admitted.ok()) << admitted.ToString();
    return Status::Ok();
  }
  RecordLinkDelivery(message);
  const MessageType type = message.type;
  if (!transmission.mailbox->Push(std::move(message)) && type != MessageType::kShutdown) {
    // The endpoint closed after Send routed to it: lost, as Release counts it.
    fault_counters_.AddDroppedReply();
  }
  return Status::Ok();
}

// ---------------------------------------------------------------- sequencing --

void MessageBus::EnableSequencing() {
  if (sequencer_ != nullptr) {
    return;  // the fault fabric and the transport share one pair
  }
  sequencer_ = std::make_unique<StreamSequencer>();
  reorder_ = std::make_unique<ReorderBuffer>(&fault_counters_);
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
        fault_counters_.AddDroppedReply();
      }
      continue;
    }
    RecordLinkDelivery(ready);
    if (!target->Push(std::move(ready)) && type != MessageType::kShutdown) {
      // The endpoint died between send and delivery (crash window): the
      // message is lost, as it would be on a real dead socket. Recovery
      // re-pushes; the shard reconciles.
      fault_counters_.AddDroppedReply();
    }
  }
  return Status::Ok();
}

void MessageBus::SchedulePumped(Transmission transmission) {
  {
    std::lock_guard<std::mutex> lock(pump_mutex_);
    transmission.order = pump_order_++;
    pump_queue_.push(std::move(transmission));
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
    std::vector<Transmission> replay;
    for (size_t i = 0; i < partition_held_.size();) {
      Transmission& held = partition_held_[i];
      if (!injector_->IsPartitioned(held.message.from.node, held.message.to.node)) {
        replay.push_back(std::move(held));
        partition_held_.erase(partition_held_.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
    if (!pump_queue_.empty() && pump_queue_.top().due <= now) {
      Transmission due = pump_queue_.top();
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
    for (Transmission& item : replay) {
      if (item.commit_only) {
        const int src = item.message.from.node;
        const int dst = item.message.to.node;
        WarnIfLost(Commit(std::move(item)), src, dst);
      } else {
        if (item.attempt > 0) {
          fault_counters_.AddRetransmit();
        }
        InjectOrCommit(std::move(item));
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
    for (const Transmission& held : partition_held_) {
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
    return fault_counters_.Snapshot().partition_holds >= n;
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

void MessageBus::FlushEgress() {
  // Carrier order: the carriers hand their frames to the fault pump or write
  // them to the transport, and the pump writes held frames, so nothing
  // flushed here is still in flight behind this process's own egress.
  for (auto& egress_ptr : egress_) {
    NodeEgress& egress = *egress_ptr;
    std::unique_lock<std::mutex> lock(egress.mutex);
    if (egress.depth == 0 && !egress.carrying) {
      continue;
    }
    egress.flush_requested = true;
    egress.cv.notify_all();
    egress.idle_cv.wait(lock, [&] {
      return !egress.flush_requested || (egress.depth == 0 && !egress.carrying);
    });
  }
  FlushFaults();
}

bool MessageBus::AwaitEgressDepth(int node, int64_t depth, int timeout_ms) {
  CHECK_GE(node, 0);
  CHECK_LT(node, num_nodes());
  NodeEgress& egress = *egress_[static_cast<size_t>(node)];
  std::unique_lock<std::mutex> lock(egress.mutex);
  return egress.idle_cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                                 [&] { return egress.depth <= depth; });
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

double MessageBus::egress_limit(int node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  CHECK_GE(node, 0);
  CHECK_LT(node, num_nodes());
  const auto& limiter = limiters_[static_cast<size_t>(node)];
  return limiter == nullptr ? 0.0 : limiter->bytes_per_sec();
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
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [address, mailbox] : mailboxes_) {
    mailbox->Close();
  }
}

}  // namespace poseidon
