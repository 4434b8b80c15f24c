#include "transport/pool.h"

#include <utility>

namespace rekey::transport {

namespace {

PacketFacts find_facts(const Bytes& p, bool wide) {
  PacketFacts f;
  f.enc = packet::parse_enc_header(p, wide);
  f.parity = packet::parse_parity_header(p);
  f.entries_ok = packet::enc_entries(p, wide).has_value();
  return f;
}

}  // namespace

void PacketPool::push_back(Bytes packet) {
  facts_.push_back({find_facts(packet, false), find_facts(packet, true)});
  packets_.push_back(std::move(packet));
}

void PacketPool::clear() {
  packets_.clear();
  facts_.clear();
}

}  // namespace rekey::transport
