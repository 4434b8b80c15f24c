#include "transport/server.h"

#include <algorithm>
#include <cmath>

#include "common/ensure.h"
#include "common/obs.h"

namespace rekey::transport {

RhoController::RhoController(const ProtocolConfig& config, std::uint64_t seed)
    : config_(config),
      proactive_parities_(static_cast<int>(std::ceil(
          (config.initial_rho - 1.0) * static_cast<double>(config.block_size) -
          1e-9))),
      num_nack_(config.num_nack_target),
      rng_(seed) {
  config.validate();
  if (proactive_parities_ < 0) proactive_parities_ = 0;
  // A huge initial_rho must not exceed the code space: without this clamp
  // the round-1 parity sequence numbers would pass 255 and truncate on the
  // wire (the AdjustRho path below has always been capped; the constructor
  // path was not).
  proactive_parities_ = std::min(proactive_parities_, parity_cap());
}

int RhoController::parity_cap() const {
  return std::max(1, 256 - 2 * static_cast<int>(config_.block_size));
}

double RhoController::rho() const {
  return 1.0 + static_cast<double>(proactive_parities_) /
                   static_cast<double>(config_.block_size);
}

void RhoController::on_round1_feedback(std::vector<std::uint8_t> A,
                                       bool degraded) {
  const int n = static_cast<int>(A.size());
  const double rho_before = rho();
  if (degraded && n < num_nack_) {
    // Blackout round with fewer NACKs than targeted: the silence is the
    // outage's, not the code's — skip the back-off entirely.
    obs::MetricsRegistry::global().counter("transport.rho_clamped").add();
    if (obs::trace_enabled())
      obs::Trace::emit("rho_clamp", {{"nacks", n},
                                     {"num_nack_target", num_nack_},
                                     {"rho", rho_before}});
    return;
  }
  if (n > num_nack_) {
    // More NACKs than targeted: raise rho so that the (numNACK+1)-th
    // neediest user of this round would have been satisfied proactively.
    std::sort(A.begin(), A.end(), std::greater<std::uint8_t>());
    int step = A[static_cast<std::size_t>(num_nack_)];
    if (degraded && step > 1) {
      // Escalation clamp: a blackout distorts both how many NACKs arrive
      // and what they ask for; creep up one parity at most per message.
      step = 1;
      obs::MetricsRegistry::global().counter("transport.rho_clamped").add();
      if (obs::trace_enabled())
        obs::Trace::emit("rho_clamp", {{"nacks", n},
                                       {"num_nack_target", num_nack_},
                                       {"rho", rho_before}});
    }
    proactive_parities_ += step;
    // Keep at least k reactive parity indices in the code's index space.
    proactive_parities_ = std::min(proactive_parities_, parity_cap());
  } else if (n < num_nack_ && num_nack_ > 0) {
    // Fewer than targeted: rho may be too high; back off one parity with
    // probability (numNACK - 2*|A|) / numNACK.
    const double prob =
        std::max(0.0, static_cast<double>(num_nack_ - 2 * n) /
                          static_cast<double>(num_nack_));
    if (rng_.next_bool(prob))
      proactive_parities_ = std::max(0, proactive_parities_ - 1);
  }
  if (obs::trace_enabled())
    obs::Trace::emit("adjust_rho", {{"nacks", n},
                                    {"num_nack_target", num_nack_},
                                    {"rho_before", rho_before},
                                    {"rho_after", rho()}});
}

void RhoController::on_deadline_report(std::size_t misses) {
  if (misses == 0) {
    num_nack_ = std::min(num_nack_ + 1, config_.max_nack);
  } else {
    num_nack_ = std::max(num_nack_ - static_cast<int>(misses), 0);
  }
}

RhoController::State RhoController::state() const {
  return State{proactive_parities_, num_nack_, rng_.state()};
}

bool RhoController::restore(const State& s) {
  if (s.proactive_parities < 0 || s.proactive_parities > parity_cap())
    return false;
  if (s.num_nack < 0) return false;
  if (!rng_.set_state(s.rng)) return false;
  proactive_parities_ = s.proactive_parities;
  num_nack_ = s.num_nack;
  return true;
}

ServerTransport::ServerTransport(const ProtocolConfig& config,
                                 const tree::RekeyPayload& payload,
                                 packet::Assignment assignment,
                                 int proactive_parities, std::uint8_t msg_id)
    : config_(config),
      payload_(payload),
      msg_id_(msg_id),
      num_enc_packets_(assignment.packets.size()),
      partition_(assignment.packets.empty() ? 1 : assignment.packets.size(),
                 config.block_size),
      coder_(static_cast<int>(config.block_size)),
      proactive_parities_(proactive_parities) {
  REKEY_ENSURE_MSG(!assignment.packets.empty(),
                   "rekey message with no ENC packets");
  REKEY_ENSURE(proactive_parities >= 0);
  // Round 1 sends parity indices [0, proactive_parities) per block; more
  // than the code offers cannot be represented on the wire.
  REKEY_ENSURE_MSG(proactive_parities <= coder_.max_parity(),
                   "proactive parities exceed the RSE code space");

  // Assign block ids / sequence numbers and serialize every slot.
  slot_wires_.resize(partition_.num_slots());
  block_regions_.resize(partition_.num_blocks());
  for (std::size_t b = 0; b < partition_.num_blocks(); ++b) {
    block_regions_[b].resize(config.block_size);
    for (std::size_t s = 0; s < config.block_size; ++s) {
      const fec::BlockSlot slot = partition_.slot(b, s);
      packet::EncPacket pkt = assignment.packets[slot.packet];
      pkt.block_id = static_cast<std::uint16_t>(b);
      pkt.seq = static_cast<std::uint8_t>(s);
      pkt.duplicate = slot.duplicate;
      Bytes wire = pkt.serialize(config.packet_size, config.wide_slots);
      block_regions_[b][s].assign(wire.begin() + packet::kFecOffset,
                                  wire.end());
      slot_wires_[b * config.block_size + s] = std::move(wire);
    }
  }
  next_parity_.assign(partition_.num_blocks(), 0);
  amax_.assign(partition_.num_blocks(), 0);
}

Bytes ServerTransport::make_parity(std::size_t block, int parity_index) const {
  // parity_seq travels as a uint8_t; an index outside the code space would
  // truncate silently and make users decode with a wrong parity index.
  REKEY_ENSURE_MSG(parity_index >= 0 && parity_index < coder_.max_parity(),
                   "parity sequence number outside the RSE code space");
  packet::ParityPacket p;
  p.msg_id = msg_id_;
  p.block_id = static_cast<std::uint16_t>(block);
  p.parity_seq = static_cast<std::uint8_t>(parity_index);
  // Encode straight into the packet's FEC field: one vectorized region
  // pass per data slot over the whole covered-byte buffer.
  p.fec.resize(block_regions_[block][0].size());
  coder_.encode_one_into(block_regions_[block], parity_index, p.fec);
  return p.serialize();
}

void ServerTransport::for_each_round_wire(
    int round, const std::function<void(const Bytes&)>& stable,
    const std::function<void(Bytes&&)>& fresh) {
  const std::size_t nb = partition_.num_blocks();
  const std::size_t k = config_.block_size;

  if (round == 1) {
    // ENC slots, interleaved across blocks (or block-sequential).
    const auto order = config_.interleave ? partition_.interleaved_order()
                                          : partition_.sequential_order();
    for (const fec::BlockSlot& s : order)
      stable(slot_wires_[s.block * k + s.seq]);
    // Proactive parities, interleaved the same way.
    std::size_t parities = 0;
    for (int p = 0; p < proactive_parities_; ++p)
      for (std::size_t b = 0; b < nb; ++b, ++parities)
        fresh(make_parity(b, next_parity_[b]++));
    if (obs::trace_enabled())
      obs::Trace::emit("server_round",
                       {{"msg", static_cast<int>(msg_id_)},
                        {"round", round},
                        {"enc_slots", static_cast<std::int64_t>(order.size())},
                        {"parities", static_cast<std::int64_t>(parities)},
                        {"amax_total", 0}});
    return;
  }

  // Reactive round: amax[b] fresh parities per block.
  const std::size_t amax_total = pending_parities();
  std::size_t parities = 0;
  int max_amax = 0;
  for (std::size_t b = 0; b < nb; ++b)
    max_amax = std::max(max_amax, static_cast<int>(amax_[b]));
  for (int p = 0; p < max_amax; ++p) {
    for (std::size_t b = 0; b < nb; ++b) {
      if (static_cast<int>(amax_[b]) <= p) continue;
      // Fresh parity indices; wrap around if a pathological run exhausts
      // the code (re-sent parities are still useful to whoever lost them).
      if (next_parity_[b] >= coder_.max_parity()) next_parity_[b] = 0;
      fresh(make_parity(b, next_parity_[b]++));
      ++parities;
    }
  }
  std::fill(amax_.begin(), amax_.end(), 0);
  if (obs::trace_enabled())
    obs::Trace::emit("server_round",
                     {{"msg", static_cast<int>(msg_id_)},
                      {"round", round},
                      {"enc_slots", 0},
                      {"parities", static_cast<std::int64_t>(parities)},
                      {"amax_total", static_cast<std::int64_t>(amax_total)}});
}

std::vector<Bytes> ServerTransport::round_packets(int round) {
  std::vector<Bytes> out;
  if (round == 1)
    out.reserve(partition_.num_slots() +
                partition_.num_blocks() *
                    static_cast<std::size_t>(proactive_parities_));
  for_each_round_wire(
      round, [&out](const Bytes& w) { out.push_back(w); },
      [&out](Bytes&& w) { out.push_back(std::move(w)); });
  return out;
}

void ServerTransport::accept_nack(
    std::size_t user, const std::vector<packet::NackEntry>& entries) {
  REKEY_ENSURE(!entries.empty());
  std::uint8_t worst = 0;
  for (const packet::NackEntry& e : entries) {
    // A user whose block estimate is a range may request parities for
    // block ids beyond the message's real block count (the Appendix-D
    // upper bound assumes one user per packet); those are ignored.
    if (e.block_id < partition_.num_blocks())
      amax_[e.block_id] = std::max(amax_[e.block_id], e.parities_needed);
    worst = std::max(worst, e.parities_needed);
  }
  // Idempotent per round: duplicated NACKs (network duplication, storm
  // amplification) fold into the amax maxima above but contribute one
  // AdjustRho feedback entry per user — a storm must not read as "many
  // users are short of parities" and ratchet rho.
  if (feedback_users_.insert(user).second) feedback_.push_back(worst);
  nackers_.insert(user);
}

std::vector<std::uint8_t> ServerTransport::take_feedback() {
  std::vector<std::uint8_t> out;
  out.swap(feedback_);
  feedback_users_.clear();
  return out;
}

std::size_t ServerTransport::pending_parities() const {
  std::size_t total = 0;
  for (const std::uint8_t a : amax_) total += a;
  return total;
}

Bytes ServerTransport::fresh_parity(std::size_t block) {
  REKEY_ENSURE(block < partition_.num_blocks());
  if (next_parity_[block] >= coder_.max_parity()) next_parity_[block] = 0;
  return make_parity(block, next_parity_[block]++);
}

std::size_t ServerTransport::usr_wire_bytes(std::uint32_t new_id) const {
  const auto needs = payload_.user_needs.needs_of(new_id);
  const std::size_t header = config_.wide_slots ? packet::kUsrHeaderSizeWide
                                                : packet::kUsrHeaderSize;
  return header + packet::kEntrySize * needs.size() +
         packet::kUdpIpOverheadBytes;
}

packet::UsrPacket ServerTransport::usr_for(std::uint32_t new_id) const {
  packet::UsrPacket usr;
  usr.msg_id = msg_id_;
  usr.new_user_id = new_id;
  usr.max_kid = static_cast<std::uint32_t>(payload_.max_kid);
  const auto needs = payload_.user_needs.needs_of(new_id);
  REKEY_ENSURE_MSG(!needs.empty(),
                   "USR requested for a user with no pending keys");
  usr.entries.reserve(needs.size());
  for (const std::uint32_t idx : needs)
    usr.entries.push_back(
        packet::to_wire_entry(payload_.encryptions[idx]));
  return usr;
}

}  // namespace rekey::transport
