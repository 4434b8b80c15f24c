#include "wire/daemon.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>

#include "common/ensure.h"
#include "common/obs.h"

namespace rekey::wire {

namespace {

using Clock = std::chrono::steady_clock;

// Whole milliseconds left until `deadline`, rounded up: a wait that is
// not over never becomes a zero-timeout poll.
int ms_until(Clock::time_point deadline) {
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now())
          .count();
  return left < 0 ? 0 : static_cast<int>(left);
}

// A session's tree holds the fleet's uids [0, clients) and the silent
// pool in churn_members, each once. A snapshot whose tree holds other
// members would have the first replayed batch leave, or serve, a member
// the tree does not hold.
bool members_match(const tree::KeyTree& tree, const ServerSnapshot& s) {
  std::vector<tree::MemberId> churn = s.churn_members;
  std::sort(churn.begin(), churn.end());
  if (std::adjacent_find(churn.begin(), churn.end()) != churn.end())
    return false;
  if (!churn.empty() && churn.front() < s.clients) return false;
  if (tree.num_users() != std::size_t{s.clients} + churn.size()) return false;
  for (tree::MemberId m = 0; m < s.clients; ++m)
    if (!tree.has_member(m)) return false;
  return std::all_of(churn.begin(), churn.end(),
                     [&tree](tree::MemberId m) { return tree.has_member(m); });
}

}  // namespace

KeyServerDaemon::KeyServerDaemon(WireTransport& wire,
                                 const DaemonConfig& config)
    : wire_(wire),
      config_(config),
      engine_(config.degree, config.key_seed, config.shards,
              config.worker_threads),
      rho_(config.protocol, config.key_seed ^ 0x5EED) {
  REKEY_ENSURE_MSG(config.clients > 0, "daemon needs at least one client");
  REKEY_ENSURE_MSG(config.churn_pool >= config.churn_leaves,
                   "churn pool smaller than per-batch leaves");
  REKEY_ENSURE_MSG(config.max_multicast_rounds >= 1,
                   "the wire lockstep needs at least one multicast round");
  REKEY_ENSURE_MSG(
      config.max_multicast_rounds <= config.protocol.max_rounds_cap,
      "max_multicast_rounds exceeds the protocol's max_rounds_cap");
  REKEY_ENSURE_MSG(config.protocol.packet_size <= wire.max_payload(),
                   "protocol packet size exceeds the wire MTU budget");
  REKEY_ENSURE_MSG(config.wire_version <= kMaxWireVersion,
                   "unknown wire protocol version");
  // The round counter travels as a u16 in RoundMark/Report frames; the
  // multicast loop ensures round <= max_rounds_cap, so the cap itself must
  // fit (the unicast wave loop has its own explicit guard).
  REKEY_ENSURE_MSG(config.protocol.max_rounds_cap <= 0xFFFF,
                   "max_rounds_cap exceeds the u16 round counter");
  REKEY_ENSURE_MSG(!config.standby || config.peer.has_value(),
                   "a standby needs the primary's endpoint");
  // Fail closed on the protocol fields the lockstep ignores (daemon.h).
  const transport::ProtocolConfig plain;
  const transport::ProtocolConfig& p = config.protocol;
  REKEY_ENSURE_MSG(p.max_multicast_rounds == plain.max_multicast_rounds &&
                       p.unicast_max_waves == plain.unicast_max_waves &&
                       p.early_unicast_by_size == plain.early_unicast_by_size &&
                       p.deadline_rounds == plain.deadline_rounds &&
                       p.adapt_num_nack == plain.adapt_num_nack,
                   "the daemon ignores these protocol fields; its round and "
                   "wave caps are DaemonConfig's");
  config.fault.validate();
}

void KeyServerDaemon::send_control(Endpoint to, const Bytes& frame) {
  if (dead_) return;  // gone dark: a blacked-out replica emits nothing
  wire_.send(to, kChanControl, frame);
  ++stats_.control_frames;
}

bool KeyServerDaemon::all_live(bool EndpointState::*flag) const {
  for (const auto& [ep, es] : endpoints_)
    if (!es.dead && !(es.*flag)) return false;
  return true;
}

bool KeyServerDaemon::await_step(const std::function<bool()>& done,
                                 const std::function<void(bool)>& send) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(config_.round_wait_ms);
  for (bool resend = false;; resend = true) {
    if (done() || stopped() || Clock::now() >= deadline) return done();
    send(resend);
    const auto retry = std::min(
        deadline, Clock::now() + std::chrono::milliseconds(config_.retry_ms));
    while (!done() && !stopped()) {
      const int wait_ms = ms_until(retry);
      if (wait_ms == 0) break;
      pump(wait_ms);
    }
  }
}

void KeyServerDaemon::drop_laggards(bool EndpointState::*flag, int strikes) {
  if (stopped()) return;  // the wait was cut short, not missed
  for (auto& [ep, es] : endpoints_) {
    if (es.dead || es.*flag) continue;
    if (++es.missed_deadlines >= strikes) {
      es.dead = true;
      ++stats_.endpoints_dropped;
    }
  }
}

void KeyServerDaemon::send_to_laggards(bool EndpointState::*flag,
                                       const Bytes& frame, bool resend) {
  for (const auto& [ep, es] : endpoints_) {
    if (es.dead || es.*flag) continue;
    send_control(ep, frame);
    if (resend) ++stats_.control_retransmits;
  }
}

bool KeyServerDaemon::step_clock() {
  fault_clock_ms_ += kRoundQuantumMs;
  if (!dead_ && config_.fault.blackout_at(fault_clock_ms_)) {
    dead_ = true;
    stats_.died = true;
    stats_.died_at_ms = fault_clock_ms_;
    std::fprintf(stderr,
                 "rekeyd: blackout at protocol clock %.0f ms - going dark\n",
                 fault_clock_ms_);
  }
  return dead_;
}

void KeyServerDaemon::maybe_heartbeat() {
  if (!config_.peer || config_.standby || peer_dead_ || dead_) return;
  const auto now = Clock::now();
  if (last_heartbeat_ != Clock::time_point{} &&
      now - last_heartbeat_ < std::chrono::milliseconds(config_.retry_ms))
    return;
  last_heartbeat_ = now;
  send_control(*config_.peer, serialize(HeartbeatFrame{epoch_, next_batch_}));
}

std::size_t KeyServerDaemon::pump(int timeout_ms) {
  maybe_heartbeat();
  std::vector<Datagram> in;
  wire_.receive(in, timeout_ms);
  std::size_t processed = 0;
  for (const Datagram& d : in) {
    if (d.channel != kChanControl) continue;  // clients send control only
    const bool from_peer = config_.peer.has_value() && d.from == *config_.peer;
    if (from_peer) last_peer_heard_ = Clock::now();
    const auto op = peek_op(d.payload);
    if (!op) continue;
    ++processed;
    switch (*op) {
      case ControlOp::Sub: {
        const auto f = parse_sub(d.payload);
        if (!f || f->count == 0 || f->first_uid >= config_.clients ||
            f->first_uid + f->count > config_.clients)
          break;
        if (f->max_version < session_version_) {
          // The session needs frames this client cannot parse: no ack, so
          // the client times out instead of mis-parsing wide slot ids.
          if (endpoints_.find(d.from) == endpoints_.end()) {
            ++stats_.endpoints_incompatible;
            std::fprintf(stderr,
                         "rekeyd: refusing subscription for uids [%u, %u): "
                         "client speaks wire v%u but the session needs v%u\n",
                         f->first_uid, f->first_uid + f->count,
                         static_cast<unsigned>(f->max_version),
                         static_cast<unsigned>(session_version_));
          }
          break;
        }
        EndpointState& es = endpoints_[d.from];
        es.ep = d.from;
        es.first_uid = f->first_uid;
        es.count = f->count;
        es.max_version = f->max_version;
        SubAckFrame ack;
        ack.group_size = config_.clients + config_.churn_pool;
        ack.expected_clients = config_.clients;
        ack.degree = static_cast<std::uint8_t>(config_.degree);
        ack.block_size =
            static_cast<std::uint8_t>(config_.protocol.block_size);
        ack.packet_size =
            static_cast<std::uint16_t>(config_.protocol.packet_size);
        ack.batches = config_.batches;
        ack.version = session_version_;
        send_control(d.from, serialize(ack));
        break;
      }
      case ControlOp::SlotMapAck: {
        const auto f = parse_slot_map_ack(d.payload);
        const auto it = endpoints_.find(d.from);
        if (f && it != endpoints_.end() && f->first_uid == it->second.first_uid)
          it->second.slot_map_acked = true;
        break;
      }
      case ControlOp::Report:
      case ControlOp::ReportV2: {
        const auto f = parse_report(d.payload);
        const auto it = endpoints_.find(d.from);
        if (!f || it == endpoints_.end()) break;
        if (f->batch_seq != cur_batch_ || f->round != cur_round_ ||
            f->phase != cur_phase_)
          break;  // stale retransmit from an earlier lockstep step
        handle_report(it->second, *f, cur_server_);
        break;
      }
      case ControlOp::DoneAck: {
        const auto f = parse_done_ack(d.payload);
        const auto it = endpoints_.find(d.from);
        if (!f || it == endpoints_.end() || f->batch_seq != cur_batch_) break;
        if (!it->second.done_acked) {
          it->second.done_acked = true;
          stats_.recovered += f->recovered;
          stats_.via_usr += f->via_usr;
          stats_.gave_up += f->gave_up;
        }
        break;
      }
      case ControlOp::FinAck: {
        const auto it = endpoints_.find(d.from);
        if (it != endpoints_.end()) it->second.fin_acked = true;
        if (from_peer) peer_fin_acked_ = true;
        break;
      }
      case ControlOp::SnapChunk: {
        if (!from_peer || !config_.standby) break;
        const auto f = parse_snap_chunk(d.payload);
        if (!f) break;
        if (pending_snap_ && f->snap_seq == pending_snap_->next_batch) {
          // The primary is retransmitting a snapshot we already restored:
          // our ack was lost.
          send_control(d.from, serialize(SnapAckFrame{f->snap_seq}));
          break;
        }
        const auto blob = snap_reasm_.add(*f);
        if (!blob) break;
        auto snap = restore_server(*blob);
        // A probe restore checks the rho state against this daemon's
        // protocol config, so promote() can restore it. The tree blob is
        // left for promote(): restoring it here would cost a full tree
        // pass per batch.
        transport::RhoController rho_probe = rho_;
        if (!snap || snap->next_batch != f->snap_seq ||
            snap->degree != config_.degree ||
            snap->clients != config_.clients ||
            snap->churn_pool != config_.churn_pool ||
            snap->batches != config_.batches ||
            !rho_probe.restore(snap->rho)) {
          // No ack: a primary paired with a mismatched (or corrupted-at-
          // source) standby gives up on it instead of failing over to it.
          std::fprintf(stderr,
                       "rekeyd: rejecting snapshot %u (corrupt or config "
                       "mismatch)\n",
                       f->snap_seq);
          break;
        }
        pending_snap_ = std::move(*snap);
        ++stats_.snapshots_restored;
        send_control(d.from, serialize(SnapAckFrame{f->snap_seq}));
        break;
      }
      case ControlOp::SnapAck: {
        if (!from_peer) break;
        const auto f = parse_snap_ack(d.payload);
        if (f)
          snap_acked_ = std::max<std::int64_t>(snap_acked_, f->snap_seq);
        break;
      }
      case ControlOp::Heartbeat:
        break;  // from_peer already refreshed last_peer_heard_
      case ControlOp::Resub: {
        const auto f = parse_resub(d.payload);
        const auto it = endpoints_.find(d.from);
        if (!f || it == endpoints_.end()) break;
        EndpointState& es = it->second;
        if (es.dead || es.resubbed) break;
        if (f->epoch != epoch_ || epoch_ == 0 ||
            f->first_uid != es.first_uid || f->count != es.count ||
            f->done_seq != next_batch_)
          break;  // stale, mis-addressed, or out-of-sync re-subscription
        // Spot-check the Theorem-4.2 id evolution: at a batch boundary a
        // client's id equals its slot in the (restored, pre-churn) tree.
        if (f->first_id !=
            static_cast<std::uint64_t>(engine_.tree().slot_of(f->first_uid))) {
          std::fprintf(stderr,
                       "rekeyd: resub id mismatch for uid %u (client id "
                       "evolution diverged)\n",
                       f->first_uid);
          break;
        }
        es.resubbed = true;
        ++stats_.resubs;
        break;
      }
      case ControlOp::Fin: {
        if (!from_peer) break;
        // Ack every copy: the primary resends its Fin until one lands.
        peer_fin_ = true;
        send_control(d.from, serialize(FinAckFrame{}));
        break;
      }
      default:
        break;  // server-to-client ops echoed back: ignore
    }
  }
  return processed;
}

void KeyServerDaemon::handle_report(EndpointState& es, const ReportFrame& f,
                                    transport::ServerTransport* server) {
  if (es.dead || es.report_done) return;
  // Every report part carries at least one user (a clean report is one
  // empty part), so a claimed part count beyond the endpoint's user count
  // is garbage — and must not size parts_seen.
  if (f.nparts == 0 || f.nparts > es.count + 1) return;
  if (es.parts_expected == 0) {
    es.parts_expected = f.nparts;
    es.parts_seen.assign(f.nparts, false);
    es.parts_have = 0;
    es.unrecovered_uids.clear();
  }
  if (f.nparts != es.parts_expected || f.part >= es.parts_expected) return;
  if (es.parts_seen[f.part]) return;  // duplicate part
  es.parts_seen[f.part] = true;
  ++es.parts_have;
  es.reported_unrecovered = f.unrecovered;
  ++stats_.reports;
  for (const ReportUser& u : f.users) {
    if (u.uid < es.first_uid || u.uid >= es.first_uid + es.count) continue;
    es.unrecovered_uids.push_back(u.uid);
    if (server != nullptr && !u.entries.empty()) {
      server->accept_nack(u.uid, u.entries);
      ++stats_.nack_users;
    }
  }
  if (es.parts_have == es.parts_expected) {
    es.report_done = true;
    es.missed_deadlines = 0;
  }
}

void KeyServerDaemon::wait_for_subscriptions() {
  std::vector<bool> covered(config_.clients, false);
  std::size_t have = 0;
  while (!stopped() && have < config_.clients) {
    pump(config_.retry_ms);
    have = 0;
    std::fill(covered.begin(), covered.end(), false);
    for (const auto& [ep, es] : endpoints_)
      for (std::uint32_t u = es.first_uid; u < es.first_uid + es.count; ++u)
        covered[u] = true;
    for (const bool c : covered) have += c ? 1 : 0;
  }
  stats_.endpoints = static_cast<std::uint32_t>(endpoints_.size());
}

void KeyServerDaemon::send_slot_maps() {
  // Serialize each endpoint's slot map once; retransmit until acked.
  // Version selection guarantees a narrow session's slots fit u16 (with
  // split headroom), so no narrow frame fails to serialize.
  std::map<Endpoint, std::vector<Bytes>> frames;
  for (auto& [ep, es] : endpoints_) {
    std::vector<std::uint32_t> slots;
    slots.reserve(es.count);
    for (std::uint32_t u = es.first_uid; u < es.first_uid + es.count; ++u)
      slots.push_back(static_cast<std::uint32_t>(engine_.tree().slot_of(u)));
    for (const SlotMapFrame& f :
         chunk_slot_map(es.first_uid, slots, wire_.max_payload(), wide()))
      if (auto b = serialize(f)) frames[ep].push_back(std::move(*b));
  }
  const auto acked = [this] {
    return all_live(&EndpointState::slot_map_acked);
  };
  const auto send = [&](bool resend) {
    for (const auto& [ep, es] : endpoints_) {
      if (es.dead || es.slot_map_acked) continue;
      for (const Bytes& f : frames[ep]) send_control(ep, f);
      if (resend) ++stats_.control_retransmits;
    }
  };
  // An endpoint that never acks its slot map cannot decode a batch: drop
  // it, as resub_barrier does, so one silent subscriber cannot stall the
  // session. Its clients land in gave_up_dead every batch.
  if (!await_step(acked, send))
    drop_laggards(&EndpointState::slot_map_acked, 1);
}

void KeyServerDaemon::collect_reports(std::uint32_t batch_seq,
                                      std::uint8_t msg_id, std::uint16_t round,
                                      std::uint8_t phase,
                                      transport::ServerTransport& server) {
  cur_batch_ = batch_seq;
  cur_round_ = round;
  cur_phase_ = phase;
  cur_server_ = &server;
  for (auto& [ep, es] : endpoints_) {
    es.parts_expected = 0;
    es.parts_have = 0;
    es.report_done = false;
  }
  const Bytes mark = serialize(RoundMarkFrame{batch_seq, msg_id, round, phase});
  // Proceed with partial feedback at the deadline; an endpoint that keeps
  // missing deadlines is dead weight and gets dropped from the lockstep.
  if (!await_step([this] { return all_live(&EndpointState::report_done); },
                  [&](bool resend) {
                    send_to_laggards(&EndpointState::report_done, mark, resend);
                  }))
    drop_laggards(&EndpointState::report_done, config_.endpoint_dead_after);
  cur_server_ = nullptr;
}

void KeyServerDaemon::collect_done_acks(std::uint32_t batch_seq,
                                        bool last_batch) {
  cur_batch_ = batch_seq;
  for (auto& [ep, es] : endpoints_) es.done_acked = false;
  const Bytes done = serialize(
      BatchDoneFrame{batch_seq, static_cast<std::uint8_t>(last_batch)});
  // DoneAck collection is a lockstep step like any round: an endpoint
  // that blows its deadline takes a missed-deadline strike (and is
  // dropped once it accumulates endpoint_dead_after of them, so the
  // daemon stops bursting data at a corpse for the remaining batches).
  if (!await_step([this] { return all_live(&EndpointState::done_acked); },
                  [&](bool resend) {
                    send_to_laggards(&EndpointState::done_acked, done, resend);
                  }))
    drop_laggards(&EndpointState::done_acked, config_.endpoint_dead_after);
  // The batch is closed at the deadline: any endpoint that did not ack —
  // already-dead or merely silent — finalized nothing, and its counts
  // travel only in DoneAcks. Ledger its clients in gave_up_dead so
  // recovered + gave_up + gave_up_dead accounts for every client-batch
  // the daemon ran to completion.
  for (const auto& [ep, es] : endpoints_)
    if (!es.done_acked) stats_.gave_up_dead += es.count;
}

bool KeyServerDaemon::run_batch(std::uint32_t batch_seq) {
  const std::uint8_t msg_id = static_cast<std::uint8_t>(batch_seq % 64);

  // Churn: rotate the silent pool — the oldest pool members leave, fresh
  // member ids join. Fleet members are never touched.
  std::vector<tree::MemberId> joins;
  for (std::uint32_t j = 0; j < config_.churn_joins; ++j)
    joins.push_back(next_member_++);
  const std::size_t leave_n =
      std::min<std::size_t>(config_.churn_leaves, churn_members_.size());
  std::vector<tree::MemberId> leaves(churn_members_.begin(),
                                     churn_members_.begin() +
                                         static_cast<std::ptrdiff_t>(leave_n));
  churn_members_.erase(churn_members_.begin(),
                       churn_members_.begin() +
                           static_cast<std::ptrdiff_t>(leave_n));
  churn_members_.insert(churn_members_.end(), joins.begin(), joins.end());

  core::BatchEngine::Batch batch = engine_.run(
      joins, leaves, msg_id, config_.protocol.packet_size, wide());
  transport::ServerTransport server(config_.protocol, batch.payload,
                                    std::move(batch.assignment),
                                    rho_.proactive_parities(), msg_id);
  stats_.enc_packets += server.enc_packets();
  stats_.slots += server.num_slots();

  const Bytes start = serialize(BatchStartFrame{batch_seq, msg_id, epoch_});
  for (const auto& [ep, es] : endpoints_)
    if (!es.dead) send_control(ep, start);

  // Parity wires of the round in flight. A deque keeps element addresses
  // stable while frames_ holds pointers into it (the zero-copy batch that
  // sendmmsg walks).
  std::deque<Bytes> parity_store;
  std::vector<const Bytes*> frames;

  bool to_unicast = false;
  int round = 0;
  for (;;) {
    ++round;
    REKEY_ENSURE_MSG(round <= config_.protocol.max_rounds_cap,
                     "wire lockstep did not converge within the round cap");
    if (step_clock()) return false;  // death point: before the round burst
    parity_store.clear();
    frames.clear();
    server.for_each_round_wire(
        round, [&](const Bytes& w) { frames.push_back(&w); },
        [&](Bytes&& w) {
          parity_store.push_back(std::move(w));
          frames.push_back(&parity_store.back());
        });
    if (round == 1) {
      stats_.proactive_parities += parity_store.size();
    } else {
      stats_.reactive_parities += parity_store.size();
    }
    std::size_t frame_bytes = 0;
    for (const Bytes* f : frames) frame_bytes += f->size();
    for (const auto& [ep, es] : endpoints_) {
      if (es.dead) continue;
      const std::size_t sent = wire_.send_frames(ep, kChanData, frames);
      stats_.data_frames += sent;
      stats_.data_bytes +=
          sent == frames.size()
              ? frame_bytes
              : sent * (frames.empty() ? 0 : frames[0]->size());
    }
    ++stats_.rounds;

    collect_reports(batch_seq, msg_id, static_cast<std::uint16_t>(round), 0,
                    server);
    if (stopped()) return false;
    auto feedback = server.take_feedback();
    if (round == 1 && config_.protocol.adaptive_rho)
      rho_.on_round1_feedback(std::move(feedback));

    std::uint64_t unrecovered = 0;
    for (const auto& [ep, es] : endpoints_)
      if (!es.dead) unrecovered += es.reported_unrecovered;
    if (obs::trace_enabled())
      obs::Trace::emit("wire_round",
                       {{"batch", static_cast<std::int64_t>(batch_seq)},
                        {"round", round},
                        {"frames", static_cast<std::int64_t>(frames.size())},
                        {"unrecovered",
                         static_cast<std::int64_t>(unrecovered)}});
    if (unrecovered == 0) break;
    if (round >= config_.max_multicast_rounds) {
      to_unicast = true;
      break;
    }
  }

  if (to_unicast) {
    // Unicast phase: fragment-and-duplicate USR delivery to the uids the
    // endpoints reported unrecovered, wave by wave until silence.
    std::map<std::uint32_t, std::vector<Bytes>> frag_cache;
    for (int wave = 1; !stopped(); ++wave) {
      // Each straggler, with the live endpoint that reported it.
      std::map<std::uint32_t, Endpoint> stragglers;
      for (const auto& [ep, es] : endpoints_)
        if (!es.dead)
          for (const std::uint32_t uid : es.unrecovered_uids)
            stragglers.emplace(uid, ep);
      if (stragglers.empty()) break;
      if (config_.unicast_max_waves > 0 && wave > config_.unicast_max_waves)
        break;  // abandoned stragglers surface in the DoneAck gave_up count
      // The wave counter travels as the u16 round field of RoundMark; an
      // unbounded (unicast_max_waves == 0) run must stop before it wraps.
      if (wave > 0xFFFF) break;
      if (step_clock()) return false;  // death point: before the wave
      const int dups = config_.protocol.usr_initial_duplicates + wave - 1;
      for (const auto& [uid, owner] : stragglers) {
        auto it = frag_cache.find(uid);
        if (it == frag_cache.end()) {
          const tree::NodeId slot = engine_.tree().slot_of(uid);
          const Bytes usr_wire =
              server.usr_for(static_cast<std::uint32_t>(slot))
                  .serialize(wide());
          // A fragmenter overflow (empty result) leaves the uid without
          // USR frames; it surfaces in gave_up instead of aborting.
          std::vector<Bytes> frames_for_uid;
          for (const UsrFragFrame& f : fragment_usr(
                   batch_seq, uid, usr_wire, wire_.max_payload(), wide()))
            if (auto b = serialize(f)) frames_for_uid.push_back(std::move(*b));
          it = frag_cache.emplace(uid, std::move(frames_for_uid)).first;
        }
        for (int d = 0; d < dups; ++d)
          for (const Bytes& f : it->second) {
            send_control(owner, f);
            ++stats_.usr_frags;
          }
      }
      ++stats_.unicast_waves;
      collect_reports(batch_seq, msg_id, static_cast<std::uint16_t>(wave), 1,
                      server);
      if (stopped()) return false;
      server.take_feedback();  // unicast-phase reports carry no entries
    }
  }

  // Death point: before BatchDone. A daemon that survives this step
  // finishes the batch — so at any failover no client has finalized the
  // interrupted batch, and the standby's from-the-top replay re-syncs
  // everyone (the invariant the Resub done_seq check enforces).
  if (step_clock()) return false;
  collect_done_acks(batch_seq, batch_seq + 1 == config_.batches);
  ++stats_.batches_run;
  return !stopped();
}

DaemonStats KeyServerDaemon::run() {
  if (config_.standby) return run_standby();

  // Populate before subscriptions: version selection inspects the initial
  // slot ids, and the SubAck already carries the negotiated version.
  engine_.populate(config_.clients + config_.churn_pool, 0);
  next_member_ = config_.clients + config_.churn_pool;
  churn_members_.clear();
  for (std::uint32_t m = 0; m < config_.churn_pool; ++m)
    churn_members_.push_back(config_.clients + m);

  // Wire version selection. The group's slot ids deepen by at most one
  // tree level per join, so requiring one level of headroom over the
  // initial maximum keeps a narrow session narrow for its whole life.
  tree::NodeId max_slot = 0;
  for (std::uint32_t u = 0; u < config_.clients + config_.churn_pool; ++u)
    max_slot = std::max(max_slot, engine_.tree().slot_of(u));
  const bool needs_wide =
      max_slot * config_.degree + config_.degree > 0xFFFF;
  if (config_.wire_version == 0) {
    session_version_ = needs_wide ? kWireV2 : kWireV1;
  } else {
    REKEY_ENSURE_MSG(!(config_.wire_version == kWireV1 && needs_wide),
                     "group slot ids exceed the forced v1 u16 wire format");
    session_version_ = static_cast<std::uint8_t>(config_.wire_version);
  }
  config_.protocol.wide_slots = wide();
  stats_.wire_version = session_version_;

  wait_for_subscriptions();
  if (stopped()) return stats_;

  send_slot_maps();
  return serve(0);
}

DaemonStats KeyServerDaemon::serve(std::uint32_t first_batch) {
  std::uint32_t b = first_batch;
  for (; b < config_.batches && !stopped(); ++b) {
    next_batch_ = b;
    // Ship before the boundary death point: wherever in batch b the
    // blackout lands, the standby already holds snapshot b, and no
    // client can have finalized batch b yet (its BatchStart hasn't been
    // sent) — the done_seq invariant the Resub barrier checks. A promoted
    // standby has written its old primary off and ships nothing.
    if (config_.peer.has_value() && !peer_dead_) ship_snapshot(b);
    // Death point: batch boundary (a standby can have its own blackout
    // schedule).
    if (step_clock() || !run_batch(b)) break;
  }
  stats_.rho_final = rho_.rho();
  stats_.epoch = epoch_;
  stats_.completed = b == config_.batches;
  if (!dead_) fin_handshake();
  return stats_;
}

void KeyServerDaemon::fin_handshake() {
  for (auto& [ep, es] : endpoints_) es.fin_acked = false;
  const Bytes fin = serialize(FinFrame{});
  // A healthy standby is retired like an endpoint: Fin until it acks. An
  // unacked Fin lost behind the snapshot chunks still queued at the
  // standby would leave it to promote itself once the primary goes quiet.
  const bool retire_peer =
      config_.peer.has_value() && !config_.standby && !peer_dead_;
  peer_fin_acked_ = false;
  await_step(
      [&] {
        return all_live(&EndpointState::fin_acked) &&
               (!retire_peer || peer_fin_acked_);
      },
      [&](bool) {
        send_to_laggards(&EndpointState::fin_acked, fin, false);
        if (retire_peer && !peer_fin_acked_) send_control(*config_.peer, fin);
      });
}

void KeyServerDaemon::ship_snapshot(std::uint32_t next_batch) {
  ServerSnapshot s;
  s.epoch = epoch_;
  s.next_batch = next_batch;
  s.session_version = session_version_;
  s.degree = config_.degree;
  s.clients = config_.clients;
  s.churn_pool = config_.churn_pool;
  s.batches = config_.batches;
  s.next_member = next_member_;
  s.churn_members = churn_members_;
  for (const auto& [ep, es] : endpoints_)
    s.endpoints.push_back(SnapshotEndpoint{ep.id, es.first_uid, es.count,
                                           es.max_version, es.dead});
  s.rho = rho_.state();
  // The sharded (v2) tree format carries the keygen counter. The tree
  // blob is written in place inside the server blob, which reuses the
  // previous batch's buffer, and each SnapChunk frame is cut from the
  // blob as it is sent.
  snapshot_server_into(s, engine_.tree(), engine_.plan(), snap_blob_);
  const std::vector<SnapChunkFrame> chunks =
      chunk_snapshot(next_batch, snap_blob_, wire_.max_payload());

  const auto acked = [&] {
    return snap_acked_ >= static_cast<std::int64_t>(next_batch);
  };
  const auto send = [&](bool) {
    for (const SnapChunkFrame& c : chunks)
      if (const auto frame = serialize(c)) send_control(*config_.peer, *frame);
    stats_.snapshot_chunks += chunks.size();
  };
  if (await_step(acked, send)) {
    ++stats_.snapshots_sent;
  } else if (!stopped()) {
    // A standby that cannot ack is written off: later batches run
    // unreplicated rather than stalling the whole group every batch.
    peer_dead_ = true;
    std::fprintf(stderr,
                 "rekeyd: standby did not ack snapshot %u - replication "
                 "disabled\n",
                 next_batch);
  }
}

DaemonStats KeyServerDaemon::run_standby() {
  last_peer_heard_ = Clock::now();
  for (;;) {
    if (stopped()) return stats_;
    pump(config_.retry_ms);
    if (peer_fin_) {
      // Linger to re-ack duplicate Fins (our FinAck may be lost), as a
      // ClientFleet does.
      const auto until =
          Clock::now() + std::chrono::milliseconds(3 * config_.retry_ms);
      for (int ms; !stopped() && (ms = ms_until(until)) > 0;) pump(ms);
      stats_.completed = true;  // clean completion: never needed
      return stats_;
    }
    const auto silent_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - last_peer_heard_)
            .count();
    if (pending_snap_ && silent_ms > config_.elect_timeout_ms) break;
    if (!pending_snap_ &&
        silent_ms > std::max(config_.round_wait_ms, config_.elect_timeout_ms))
      return stats_;  // primary died before ever replicating: nothing to serve
  }
  if (!promote()) return stats_;  // nothing usable to serve: stand down
  resub_barrier();
  if (stopped()) return stats_;
  return serve(next_batch_);
}

bool KeyServerDaemon::promote() {
  const ServerSnapshot& s = *pending_snap_;
  // The seal only proves the primary sent these bytes; the embedded tree
  // and its members are first checked here, before any state changes.
  if (!engine_.restore(s.tree_blob, [&s](const tree::KeyTree& tree) {
        return members_match(tree, s);
      })) {
    std::fprintf(stderr,
                 "rekeyd: snapshot %u holds no usable key tree - standing "
                 "down\n",
                 s.next_batch);
    return false;
  }
  // The SnapChunk handler probed the rho state before acking it.
  REKEY_ENSURE_MSG(rho_.restore(s.rho),
                   "acked server snapshot failed rho restore");
  epoch_ = s.epoch + 1;
  next_batch_ = s.next_batch;
  session_version_ = s.session_version;
  config_.protocol.wide_slots = wide();
  next_member_ = s.next_member;
  churn_members_ = s.churn_members;
  endpoints_.clear();
  for (const SnapshotEndpoint& e : s.endpoints) {
    EndpointState es;
    es.ep = Endpoint{e.ep_id};
    es.first_uid = e.first_uid;
    es.count = e.count;
    es.max_version = e.max_version;
    es.slot_map_acked = true;
    es.dead = e.dead;
    endpoints_.emplace(es.ep, es);
  }
  stats_.endpoints = static_cast<std::uint32_t>(endpoints_.size());
  stats_.wire_version = session_version_;
  stats_.promoted = true;
  peer_dead_ = true;  // the old primary is fenced out; never replicate back
  std::fprintf(stderr,
               "rekeyd: standby promoted at epoch %u, replaying batch %u\n",
               epoch_, next_batch_);
  return true;
}

void KeyServerDaemon::resub_barrier() {
  for (auto& [ep, es] : endpoints_) es.resubbed = false;
  const std::uint8_t msg_id = static_cast<std::uint8_t>(next_batch_ % 64);
  const Bytes start = serialize(BatchStartFrame{next_batch_, msg_id, epoch_});
  // A client that cannot re-sync is dead weight, exactly like one that
  // stops reporting: drop it so the replay can proceed.
  if (!await_step([this] { return all_live(&EndpointState::resubbed); },
                  [&](bool) {
                    send_to_laggards(&EndpointState::resubbed, start, false);
                  }))
    drop_laggards(&EndpointState::resubbed, 1);
}

}  // namespace rekey::wire
