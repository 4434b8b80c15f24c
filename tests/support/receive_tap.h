// A fleet's view of the ciphertexts it was sent: a wire wrapper that
// records the data frames and BatchStarts a fleet receives, and the ENC
// entries among them grouped by batch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "common/ensure.h"
#include "crypto/keys.h"
#include "packet/wire.h"
#include "wire/control.h"
#include "wire/wire.h"

namespace rekey::test {

// Passes everything through and records the data frames and BatchStarts
// it receives, in arrival order.
class ReceiveTap : public wire::WireTransport {
 public:
  explicit ReceiveTap(wire::WireTransport& inner) : inner_(inner) {}
  bool send(wire::Endpoint to, std::uint8_t channel,
            std::span<const std::uint8_t> payload) override {
    return inner_.send(to, channel, payload);
  }
  std::size_t send_frames(wire::Endpoint to, std::uint8_t channel,
                          std::span<const Bytes* const> frames) override {
    return inner_.send_frames(to, channel, frames);
  }
  std::size_t receive(std::vector<wire::Datagram>& out,
                      int timeout_ms) override {
    const std::size_t n = inner_.receive(out, timeout_ms);
    for (std::size_t i = out.size() - n; i < out.size(); ++i)
      if (out[i].channel == wire::kChanData ||
          wire::peek_op(out[i].payload) == wire::ControlOp::BatchStart)
        received.push_back(out[i]);
    return n;
  }
  std::size_t max_payload() const override { return inner_.max_payload(); }

  std::vector<wire::Datagram> received;

 private:
  wire::WireTransport& inner_;
};

using Ciphertext = decltype(crypto::EncryptedKey::ciphertext);

// Batch number -> enc id -> ciphertext, over the ENC frames in `received`
// that `from` sent. Each frame belongs to the BatchStart `from` sent last
// before it, whose wire id it must carry (EnsureError otherwise).
inline std::map<std::uint32_t, std::map<std::uint32_t, Ciphertext>>
enc_ciphertexts(const std::vector<wire::Datagram>& received,
                wire::Endpoint from) {
  std::map<std::uint32_t, std::map<std::uint32_t, Ciphertext>> by_batch;
  std::optional<wire::BatchStartFrame> start;
  for (const wire::Datagram& d : received) {
    if (d.from != from) continue;
    if (d.channel == wire::kChanControl) {
      start = wire::parse_batch_start(d.payload);
      REKEY_ENSURE_MSG(start.has_value(), "unparseable BatchStart");
      continue;
    }
    const auto header = packet::parse_enc_header(d.payload);
    const auto region = packet::enc_entries(d.payload);
    if (!header || !region) continue;  // a PARITY frame
    REKEY_ENSURE_MSG(start && header->msg_id == start->msg_id,
                     "ENC frame outside its batch");
    for (const packet::EncEntry& e : region->to_vector())
      by_batch[start->batch_seq][e.enc_id] = e.enc.ciphertext;
  }
  return by_batch;
}

}  // namespace rekey::test
