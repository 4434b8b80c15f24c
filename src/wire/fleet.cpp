#include "wire/fleet.h"

#include <algorithm>

#include "common/ensure.h"

namespace rekey::wire {

namespace {

// Members a frame's delivery walks between two clock reads.
constexpr std::size_t kStampStep = 64;

// Shaper stream tags (the `tag` input of ShapingConfig::drop).
constexpr std::uint64_t kTagData = 1;  // downstream data frames
constexpr std::uint64_t kTagUp = 2;    // upstream NACK suppression
constexpr std::uint64_t kTagUsr = 3;   // downstream USR fragments

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

ClientFleet::ClientFleet(WireTransport& wire, Endpoint server,
                         const FleetConfig& config)
    : wire_(wire), server_(server), config_(config) {
  REKEY_ENSURE_MSG(config.count > 0, "empty fleet");
}

void ClientFleet::send_control(const Bytes& frame) {
  wire_.send(server_, kChanControl, frame);
  ++stats_.control_frames;
}

void ClientFleet::subscribe() {
  ids_.assign(config_.count, 0);
  have_slot_.assign(config_.count, false);
  slots_have_ = 0;

  SubFrame sub_frame{config_.first_uid, config_.count};
  sub_frame.max_version = config_.max_version;
  const Bytes sub = serialize(sub_frame);
  const Bytes slot_ack = serialize(SlotMapAckFrame{config_.first_uid});
  bool sub_acked = false;
  auto last_heard = Clock::now();
  std::vector<Datagram> in;
  while (!stopped()) {
    if (!sub_acked) send_control(sub);
    in.clear();
    if (wire_.receive(in, config_.retry_ms) > 0) last_heard = Clock::now();
    for (const Datagram& d : in) {
      if (d.channel != kChanControl || d.from != server_) continue;
      const auto op = peek_op(d.payload);
      if (op == ControlOp::SubAck) {
        const auto f = parse_sub_ack(d.payload);
        if (!f || f->version > config_.max_version) continue;
        k_ = f->block_size;
        degree_ = f->degree;
        batches_expected_ = f->batches;
        version_ = f->version;
        stats_.wire_version = version_;
        sub_acked = true;
      } else if (const auto f = parse_slot_map(d.payload)) {
        // Either width; ids_ is wide enough for both.
        for (std::size_t i = 0; i < f->slots.size(); ++i) {
          const std::uint64_t uid = f->base_uid + i;
          if (uid < config_.first_uid ||
              uid >= config_.first_uid + config_.count)
            continue;
          const std::size_t u = uid - config_.first_uid;
          if (!have_slot_[u]) {
            have_slot_[u] = true;
            ids_[u] = f->slots[i];
            ++slots_have_;
          }
        }
        if (slots_have_ == config_.count) send_control(slot_ack);
      }
    }
    if (sub_acked && slots_have_ == config_.count) return;
    if (ms_since(last_heard) > config_.idle_timeout_ms) return;  // abort
  }
}

void ClientFleet::open_batch(std::uint32_t seq, std::uint8_t msg_id) {
  Batch& b = batch_;
  b.open = true;
  b.seq = seq;
  b.msg_id = msg_id;
  b.pool.clear();
  if (b.users.empty()) {
    b.users.reserve(config_.count);
    for (std::size_t u = 0; u < config_.count; ++u)
      b.users.emplace_back(ids_[u], k_, degree_, &b.pool, wide());
    b.last_nacks.resize(config_.count);
  } else {
    for (std::size_t u = 0; u < config_.count; ++u) {
      b.users[u].reset(ids_[u]);
      b.last_nacks[u].clear();
    }
  }
  b.unsettled.resize(config_.count);
  for (std::uint32_t u = 0; u < config_.count; ++u) b.unsettled[u] = u;
  b.settling.clear();
  b.by_block.clear();
  b.by_id.clear();
  b.via_usr.assign(config_.count, false);
  b.recover_ms.assign(config_.count, -1.0);
  b.usr_frag_arrivals.assign(config_.count, 0);
  // USR reassembly keys partial packets by uid alone: a fragment left
  // over from the last batch must not complete this batch's packet.
  b.reasm.clear();
  b.frame_counter = 0;
  b.last_round = 0;
  b.cached_round = 0;
  b.cached_phase = 0;
  b.cached_report.clear();
  b.t0 = Clock::now();
}

void ClientFleet::note_recovered(std::span<const std::uint32_t> members,
                                 bool usr) {
  Batch& b = batch_;
  const double ms = ms_since(b.t0);
  for (const std::uint32_t u : members) {
    b.recover_ms[u] = ms;
    b.via_usr[u] = usr;
  }
}

void ClientFleet::list_unrecovered() {
  Batch& b = batch_;
  const auto recovered = [&b](std::uint32_t u) {
    return b.users[u].recovered();
  };
  const auto settled_recovered = [&recovered](const Settled& s) {
    return recovered(s.member);
  };
  std::erase_if(b.unsettled, recovered);
  std::erase_if(b.by_block, settled_recovered);
  std::erase_if(b.by_id, settled_recovered);
  b.listed.clear();
  for (const Settled& s : b.by_block) b.listed.push_back(s.member);
  std::ranges::sort(b.listed);
  const auto settled = static_cast<std::ptrdiff_t>(b.listed.size());
  b.listed.insert(b.listed.end(), b.unsettled.begin(), b.unsettled.end());
  std::inplace_merge(b.listed.begin(), b.listed.begin() + settled,
                     b.listed.end());
}

// deliver_data and deliver_settled run once per data frame, so each
// starts on a cache line of its own: where the linker happens to place
// them cannot move the member path's timing.
//
// The pool parses the frame once; each member then reads its facts. A
// frame that is neither ENC nor PARITY reaches no member, since none
// could use it. Every unsettled member gets the frame (the first frame
// of a batch reaches them all, so this loop stays tight), then the
// settled members it can change (deliver_settled). Members are walked in
// steps of at most kStampStep, and a step that recovered any member reads
// the clock once after it and stamps all of them: a stamp is never
// earlier than the recovery it records, and at most one step later. One
// frame can recover nearly every member, so a stamp per frame would
// misdate them by up to a whole pass. A member's shaping draw depends on
// (uid, frame) alone, so a member that a frame skips draws nothing for
// it and every other draw stays the same.
[[gnu::aligned(64)]] void ClientFleet::deliver_data(const Bytes& frame) {
  if (frame.empty()) return;
  const std::uint8_t msg_id = frame[0] & 0x3F;
  if (!batch_.open) {
    // BatchStart can lose the race against the data burst (or be lost
    // outright): the data-plane msg id, pinned to batch_seq % 64 by the
    // daemon, lets the fleet open the batch lazily.
    if (msg_id != static_cast<std::uint8_t>(next_seq_ % 64)) return;
    if (batches_expected_ > 0 && next_seq_ >= batches_expected_) return;
    if (dies_at(next_seq_)) {
      die_now_ = true;
      return;
    }
    open_batch(next_seq_, msg_id);
  }
  Batch& b = batch_;
  if (msg_id != b.msg_id) return;  // stale batch traffic

  const std::size_t idx = b.pool.size();
  b.pool.push_back(frame);
  ++stats_.data_frames;
  const std::uint64_t n =
      (static_cast<std::uint64_t>(b.seq) << 40) | b.frame_counter++;
  const int round_now = b.last_round + 1;
  const transport::PacketFacts& facts = b.pool.facts(idx, wide());
  if (!facts.enc && !facts.parity) return;
  // One pass delivers and compacts: members recovered here or through
  // USR since the last pass leave `unsettled`, and so do members that
  // settle here; the rest keep their order.
  std::uint32_t stamped[kStampStep] = {};
  std::size_t kept = 0;
  const std::size_t n_unsettled = b.unsettled.size();
  for (std::size_t begin = 0; begin < n_unsettled; begin += kStampStep) {
    const std::size_t end = std::min(n_unsettled, begin + kStampStep);
    std::size_t recovered = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t u = b.unsettled[i];
      transport::UserTransport& user = b.users[u];
      if (user.recovered()) continue;  // through USR since the last pass
      if (config_.shaping.drop(config_.first_uid + u, kTagData, n,
                               config_.shaping.down_loss)) {
        ++stats_.shaped_off;
      } else {
        user.on_packet(idx, round_now);
        if (user.recovered()) {
          stamped[recovered++] = u;
          continue;
        }
        if (user.interest().settled) {
          b.settling.push_back(u);
          continue;
        }
      }
      b.unsettled[kept++] = u;
    }
    if (recovered > 0) note_recovered({stamped, recovered}, false);
  }
  b.unsettled.resize(kept);
  deliver_settled(facts, idx, n, round_now);
}

// The settled members a frame can change are those of its block and,
// for an ENC frame, those whose id its [frmID, toID] holds: a member
// still recovers from an ENC packet of another block that carries its
// id, a forged one included. The indices are sorted vectors, so a forged
// block id or range costs a binary search, never an allocation sized by
// the id. Members that settled on this frame enter the indices only
// afterwards, so no member sees a frame twice.
[[gnu::aligned(64)]] void ClientFleet::deliver_settled(
    const transport::PacketFacts& f, std::size_t idx, std::uint64_t n,
    int round) {
  Batch& b = batch_;
  const std::uint32_t block = f.enc ? f.enc->block_id : f.parity->block_id;
  b.targets.clear();
  for (const Settled& s :
       std::ranges::equal_range(b.by_block, block, {}, &Settled::key))
    b.targets.push_back(s.member);
  if (f.enc) {
    const std::uint32_t to = f.enc->to_id;
    for (auto it = std::ranges::lower_bound(b.by_id, f.enc->frm_id, {},
                                            &Settled::key);
         it != b.by_id.end() && it->key <= to; ++it)
      if (it->block != block) b.targets.push_back(it->member);
  }

  std::uint32_t stamped[kStampStep] = {};
  const std::size_t n_targets = b.targets.size();
  for (std::size_t begin = 0; begin < n_targets; begin += kStampStep) {
    const std::size_t end = std::min(n_targets, begin + kStampStep);
    std::size_t recovered = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t u = b.targets[i];
      transport::UserTransport& user = b.users[u];
      if (user.recovered()) continue;  // leaves the indices at a mark
      if (config_.shaping.drop(config_.first_uid + u, kTagData, n,
                               config_.shaping.down_loss)) {
        ++stats_.shaped_off;
        continue;
      }
      user.on_packet(idx, round);
      if (user.recovered()) stamped[recovered++] = u;
    }
    if (recovered > 0) note_recovered({stamped, recovered}, false);
  }

  const auto added = static_cast<std::ptrdiff_t>(b.settling.size());
  if (added == 0) return;
  for (const std::uint32_t u : b.settling) {
    const auto interest = b.users[u].interest();
    b.by_block.push_back({interest.block, u, interest.block});
    b.by_id.push_back({interest.id, u, interest.block});
  }
  b.settling.clear();
  for (std::vector<Settled>* index : {&b.by_block, &b.by_id}) {
    const auto mid = index->end() - added;
    std::sort(mid, index->end());
    std::inplace_merge(index->begin(), mid, index->end());
  }
}

void ClientFleet::build_and_send_report(std::uint16_t round,
                                        std::uint8_t phase) {
  list_unrecovered();
  Batch& b = batch_;
  std::vector<ReportUser> users_out;
  const auto unrecovered = static_cast<std::uint32_t>(b.listed.size());
  for (const std::uint32_t u : b.listed) {  // ascending uid order
    const std::uint32_t uid = config_.first_uid + u;
    if (phase == 0) {
      // Upstream shaping loses the NACK entries, not the user: the user
      // stays listed with no entries, so the server requests no parities
      // for it but still serves it in the unicast phase (the listing is
      // the lockstep stand-in for the protocol's unicast wake-up path).
      if (config_.shaping.drop(
              uid, kTagUp,
              (static_cast<std::uint64_t>(b.seq) << 16) | round,
              config_.shaping.up_loss)) {
        ++stats_.nacks_suppressed;
        users_out.push_back(ReportUser{uid, {}});
        continue;
      }
      users_out.push_back(ReportUser{uid, b.last_nacks[u]});
    } else {
      users_out.push_back(ReportUser{uid, {}});
    }
  }
  b.cached_report.clear();
  for (const ReportFrame& part :
       chunk_report(b.seq, round, phase, unrecovered, users_out,
                    wire_.max_payload(), wide()))
    if (auto w = serialize(part)) b.cached_report.push_back(std::move(*w));
  for (const Bytes& part : b.cached_report) {
    send_control(part);
    ++stats_.reports_sent;
  }
  b.cached_round = round;
  b.cached_phase = phase;
}

void ClientFleet::on_round_mark(const RoundMarkFrame& f) {
  if (config_.die_at_wave >= 0 && f.phase == 1 &&
      f.round >= config_.die_at_wave) {
    // Mid-wave endpoint death: go silent without a report. The server
    // must land our clients in its gave-up accounting, not wait forever.
    die_now_ = true;
    return;
  }
  if (!batch_.open || batch_.seq != f.batch_seq) {
    if (f.batch_seq == next_seq_ &&
        (batches_expected_ == 0 || next_seq_ < batches_expected_)) {
      if (dies_at(f.batch_seq)) {
        die_now_ = true;
        return;
      }
      open_batch(f.batch_seq, f.msg_id);
    } else {
      return;  // a finalized or unknown batch
    }
  }
  Batch& b = batch_;
  if (!b.cached_report.empty() && f.round == b.cached_round &&
      f.phase == b.cached_phase) {
    // Duplicate mark: our report (or part of it) was lost — resend.
    for (const Bytes& part : b.cached_report) {
      send_control(part);
      ++stats_.reports_sent;
    }
    return;
  }
  if (f.phase == 0) {
    if (f.round <= b.last_round) return;  // older than what we reported
    const int round = f.round;
    list_unrecovered();
    for (const std::uint32_t u : b.listed) {  // ascending uid order
      transport::UserTransport& user = b.users[u];
      auto entries = user.end_of_round(round);
      if (user.recovered()) {
        note_recovered({&u, 1}, false);  // decoded at round end
      } else {
        b.last_nacks[u] = std::move(entries);
      }
    }
    b.last_round = round;
  }
  build_and_send_report(f.round, f.phase);
}

void ClientFleet::on_usr_frag(const UsrFragFrame& f) {
  if (!batch_.open || batch_.seq != f.batch_seq) return;
  if (f.uid < config_.first_uid || f.uid >= config_.first_uid + config_.count)
    return;
  Batch& b = batch_;
  const std::uint32_t u = f.uid - config_.first_uid;
  transport::UserTransport& user = b.users[u];
  if (user.recovered()) return;
  const std::uint64_t n = (static_cast<std::uint64_t>(b.seq) << 24) |
                          b.usr_frag_arrivals[u]++;
  if (config_.shaping.drop(f.uid, kTagUsr, n, config_.shaping.down_loss)) {
    ++stats_.shaped_off;
    return;
  }
  const auto full = b.reasm.add(f);
  if (!full) return;
  const auto usr = packet::UsrPacket::parse(*full, wide());
  if (!usr) return;  // damaged reassembly — wait for the next wave
  user.on_usr(*usr);
  if (user.recovered()) note_recovered({&u, 1}, true);
}

bool ClientFleet::maybe_failover(const Datagram& d) {
  if (config_.failover.empty() || d.channel != kChanControl) return false;
  if (peek_op(d.payload) != ControlOp::BatchStart) return false;
  const auto f = parse_batch_start(d.payload);
  if (!f || f->epoch <= epoch_) return false;  // fencing: not newer than ours
  bool known = false;
  for (const Endpoint& ep : config_.failover) known = known || ep == d.from;
  if (!known) return false;
  // A higher-epoch BatchStart from the failover set: a standby has been
  // elected. Drop any half-received batch — the new primary replays it
  // from its opening BatchStart — and re-subscribe with evolved state.
  server_ = d.from;
  epoch_ = f->epoch;
  stats_.epoch = epoch_;
  ++stats_.failovers;
  batch_.open = false;
  need_resub_ = true;
  send_resub();
  return true;
}

void ClientFleet::send_resub() {
  ResubFrame f;
  f.first_uid = config_.first_uid;
  f.count = config_.count;
  f.epoch = epoch_;
  f.done_seq = done_seq_;
  f.first_id = ids_.empty() ? 0 : ids_[0];
  send_control(serialize(f));
  ++stats_.resubs_sent;
}

void ClientFleet::on_batch_done(const BatchDoneFrame& f) {
  if (batch_.open && batch_.seq == f.batch_seq) {
    Batch& b = batch_;
    DoneAckFrame ack;
    ack.batch_seq = b.seq;
    for (std::size_t u = 0; u < config_.count; ++u) {
      // Carry the evolved id into the next batch — recovered or not, the
      // id advanced iff a usable maxKID was seen (Theorem 4.2).
      ids_[u] = b.users[u].current_id();
      if (b.users[u].recovered()) {
        ++ack.recovered;
        if (b.via_usr[u]) ++ack.via_usr;
        stats_.recovery_ms.push_back(b.recover_ms[u]);
      } else {
        ++ack.gave_up;
      }
    }
    stats_.recovered += ack.recovered;
    stats_.via_usr += ack.via_usr;
    stats_.unrecovered += ack.gave_up;
    ++stats_.batches;
    cached_done_ack_ = serialize(ack);
    send_control(cached_done_ack_);
    next_seq_ = f.batch_seq + 1;
    done_seq_ = next_seq_;
    b.open = false;
  } else if (f.batch_seq + 1 == done_seq_ && !cached_done_ack_.empty()) {
    send_control(cached_done_ack_);  // our ack was lost
  }
}

FleetStats ClientFleet::run() {
  stats_.clients = config_.count;
  subscribe();
  if (stopped() || slots_have_ != config_.count) return stats_;
  // One sample per recovered client-batch at most: reserved here, the
  // samples never reallocate between a BatchDone and its DoneAck.
  stats_.recovery_ms.reserve(std::size_t{batches_expected_} * config_.count);

  auto last_heard = Clock::now();
  std::vector<Datagram> in;
  bool fin = false;
  while (!stopped() && !fin) {
    in.clear();
    if (wire_.receive(in, config_.retry_ms) > 0) {
      last_heard = Clock::now();
    } else if (ms_since(last_heard) > config_.idle_timeout_ms) {
      return stats_;  // server went silent: abort without `finished`
    }
    for (const Datagram& d : in) {
      if (d.from != server_) {
        maybe_failover(d);
        continue;
      }
      if (d.channel == kChanData) {
        need_resub_ = false;  // the adopted server reached its data burst
        deliver_data(d.payload);
        if (die_now_) return stats_;
        continue;
      }
      if (d.channel != kChanControl) continue;
      const auto op = peek_op(d.payload);
      if (!op) continue;
      switch (*op) {
        case ControlOp::SlotMap:
        case ControlOp::SlotMapV2:
          // The server is still retransmitting: our ack was lost.
          send_control(serialize(SlotMapAckFrame{config_.first_uid}));
          break;
        case ControlOp::BatchStart: {
          const auto f = parse_batch_start(d.payload);
          if (!f || f->epoch < epoch_) break;  // stale pre-failover primary
          if (f->epoch > epoch_) {
            // The current server re-announcing at a higher epoch (it won
            // an election we didn't witness): adopt and re-subscribe.
            epoch_ = f->epoch;
            stats_.epoch = epoch_;
            need_resub_ = true;
          }
          if (need_resub_) send_resub();
          if (!batch_.open && f->batch_seq == next_seq_) {
            if (dies_at(f->batch_seq)) {
              die_now_ = true;
              break;
            }
            open_batch(f->batch_seq, f->msg_id);
          }
          break;
        }
        case ControlOp::RoundMark: {
          const auto f = parse_round_mark(d.payload);
          need_resub_ = false;  // the lockstep is past the resub barrier
          if (f) on_round_mark(*f);
          break;
        }
        case ControlOp::UsrFrag:
        case ControlOp::UsrFragV2: {
          const auto f = parse_usr_frag(d.payload);
          if (f) on_usr_frag(*f);
          break;
        }
        case ControlOp::BatchDone: {
          const auto f = parse_batch_done(d.payload);
          if (f) on_batch_done(*f);
          break;
        }
        case ControlOp::Fin:
          send_control(serialize(FinAckFrame{}));
          fin = true;
          break;
        default:
          break;
      }
      if (die_now_) return stats_;  // a die_at_* hook fired: go silent
    }
  }
  if (fin) {
    stats_.finished = true;
    // Linger briefly to answer duplicate Fins (our FinAck may be lost).
    const auto until =
        Clock::now() + std::chrono::milliseconds(3 * config_.retry_ms);
    while (Clock::now() < until) {
      in.clear();
      wire_.receive(in, config_.retry_ms);
      for (const Datagram& d : in)
        if (d.channel == kChanControl && d.from == server_ &&
            peek_op(d.payload) == ControlOp::Fin)
          send_control(serialize(FinAckFrame{}));
    }
  }
  return stats_;
}

FleetStats fold_fleets(std::span<const FleetStats> fleets) {
  FleetStats sum;
  sum.finished = !fleets.empty();
  for (const FleetStats& s : fleets) {
    sum.clients += s.clients;
    sum.batches = std::max(sum.batches, s.batches);
    sum.recovered += s.recovered;
    sum.via_usr += s.via_usr;
    sum.unrecovered += s.unrecovered;
    sum.data_frames += s.data_frames;
    sum.shaped_off += s.shaped_off;
    sum.nacks_suppressed += s.nacks_suppressed;
    sum.reports_sent += s.reports_sent;
    sum.control_frames += s.control_frames;
    sum.wire_version = std::max(sum.wire_version, s.wire_version);
    sum.finished = sum.finished && s.finished;
    sum.epoch = std::max(sum.epoch, s.epoch);
    sum.failovers += s.failovers;
    sum.resubs_sent += s.resubs_sent;
    sum.recovery_ms.insert(sum.recovery_ms.end(), s.recovery_ms.begin(),
                           s.recovery_ms.end());
  }
  return sum;
}

}  // namespace rekey::wire
