#include "wire/server_snapshot.h"

#include <algorithm>

#include "common/byte_cursor.h"
#include "common/ensure.h"
#include "crypto/sha256.h"
#include "keytree/snapshot.h"

namespace rekey::wire {

namespace {

constexpr std::uint32_t kServerMagic = 0x524B5353;  // "RKSS"
// v3: the full-server format (v1/v2 are the tree-only formats of
// keytree/snapshot.cpp; the version counter is shared so a blob's
// (magic, version) pair is unambiguous across the family).
constexpr std::uint8_t kServerVersion = 3;

// magic, version, epoch, next_batch, session_version, degree, clients,
// churn_pool, batches, next_member.
constexpr std::size_t kFixedSize = 4 + 1 + 4 + 4 + 1 + 1 + 4 + 4 + 4 + 4;
// ep_id, first_uid, count, max_version, dead.
constexpr std::size_t kEndpointSize = 8 + 4 + 4 + 1 + 1;
// proactive_parities, num_nack, then the RNG state: one u64 per word.
constexpr std::size_t kRhoSize =
    4 + 4 + sizeof(transport::RhoController::State::rng);

// The one encoder behind every snapshot_server entry point: sizes
// `blob`, writes every field, lets `put_tree` fill the embedded tree
// blob's `tree_len` bytes in place, and seals. A buffer whose capacity
// already fits is reused as it is; a smaller one is dropped before the
// new allocation, so its stale bytes are never copied.
template <typename PutTree>
void encode_server(const ServerSnapshot& snap, std::size_t tree_len,
                   PutTree&& put_tree, Bytes& blob) {
  const std::size_t size = kFixedSize + 4 + 4 * snap.churn_members.size() +
                           4 + kEndpointSize * snap.endpoints.size() +
                           kRhoSize + 8 + tree_len +
                           crypto::Sha256::kDigestSize;
  if (blob.capacity() < size) Bytes().swap(blob);
  blob.resize(size);
  ByteCursor w(blob.data());
  w.put_u32(kServerMagic);
  w.put_u8(kServerVersion);
  w.put_u32(snap.epoch);
  w.put_u32(snap.next_batch);
  w.put_u8(snap.session_version);
  w.put_u8(static_cast<std::uint8_t>(snap.degree));
  w.put_u32(snap.clients);
  w.put_u32(snap.churn_pool);
  w.put_u32(snap.batches);
  w.put_u32(snap.next_member);
  w.put_u32(static_cast<std::uint32_t>(snap.churn_members.size()));
  for (const tree::MemberId m : snap.churn_members) w.put_u32(m);
  w.put_u32(static_cast<std::uint32_t>(snap.endpoints.size()));
  for (const SnapshotEndpoint& e : snap.endpoints) {
    w.put_u64(e.ep_id);
    w.put_u32(e.first_uid);
    w.put_u32(e.count);
    w.put_u8(e.max_version);
    w.put_u8(e.dead ? 1 : 0);
  }
  w.put_u32(static_cast<std::uint32_t>(snap.rho.proactive_parities));
  w.put_u32(static_cast<std::uint32_t>(snap.rho.num_nack));
  for (const std::uint64_t s : snap.rho.rng) w.put_u64(s);
  w.put_u64(tree_len);
  REKEY_ENSURE_MSG(w.pos() + tree_len + crypto::Sha256::kDigestSize ==
                       blob.data() + blob.size(),
                   "v3 snapshot fields do not match their computed size");
  put_tree(std::span<std::uint8_t>(w.pos(), tree_len));
  tree::snapshot_seal(blob);
}

}  // namespace

Bytes snapshot_server(const ServerSnapshot& snap) {
  Bytes blob;
  encode_server(
      snap, snap.tree_blob.size(),
      [&](std::span<std::uint8_t> out) {
        std::copy(snap.tree_blob.begin(), snap.tree_blob.end(), out.begin());
      },
      blob);
  return blob;
}

// The primary's per-batch snapshot starts here, on a cache line of its
// own like the tree writer and the digest it calls.
[[gnu::aligned(64)]] void snapshot_server_into(const ServerSnapshot& snap,
                                               const tree::KeyTree& tree,
                                               const tree::ShardPlan& plan,
                                               Bytes& blob) {
  REKEY_ENSURE_MSG(snap.tree_blob.empty(),
                   "the tree blob is written from the tree, not copied in");
  encode_server(
      snap, tree::sharded_tree_size(tree, plan),
      [&](std::span<std::uint8_t> out) {
        tree::write_sharded_tree(tree, plan, out);
      },
      blob);
}

std::optional<ServerSnapshot> restore_server(const Bytes& blob) {
  const auto body = tree::snapshot_open(blob);
  if (!body) return std::nullopt;
  try {
    ByteReader r(*body);
    if (r.get_u32() != kServerMagic) return std::nullopt;
    if (r.get_u8() != kServerVersion) return std::nullopt;
    ServerSnapshot s;
    s.epoch = r.get_u32();
    s.next_batch = r.get_u32();
    s.session_version = r.get_u8();
    s.degree = r.get_u8();
    s.clients = r.get_u32();
    s.churn_pool = r.get_u32();
    s.batches = r.get_u32();
    s.next_member = r.get_u32();
    if (s.session_version < kWireV1 || s.session_version > kMaxWireVersion)
      return std::nullopt;
    if (s.degree < 2 || s.clients == 0) return std::nullopt;
    if (s.next_batch > s.batches) return std::nullopt;
    // A session's members are the fleet, the initial pool, and every
    // join since; next_member below that floor is structurally corrupt.
    if (s.next_member < s.clients + s.churn_pool) return std::nullopt;

    const std::uint32_t churn_n = r.get_u32();
    if (churn_n > s.churn_pool) return std::nullopt;
    s.churn_members.reserve(churn_n);
    for (std::uint32_t i = 0; i < churn_n; ++i) {
      const tree::MemberId m = r.get_u32();
      if (m < s.clients || m >= s.next_member) return std::nullopt;
      s.churn_members.push_back(m);
    }

    const std::uint32_t ep_n = r.get_u32();
    if (ep_n > s.clients) return std::nullopt;  // >=1 uid per endpoint
    s.endpoints.reserve(ep_n);
    for (std::uint32_t i = 0; i < ep_n; ++i) {
      SnapshotEndpoint e;
      e.ep_id = r.get_u64();
      e.first_uid = r.get_u32();
      e.count = r.get_u32();
      e.max_version = r.get_u8();
      e.dead = r.get_u8() != 0;
      if (e.count == 0 || e.first_uid >= s.clients ||
          e.count > s.clients - e.first_uid)
        return std::nullopt;
      if (e.max_version < kWireV1 || e.max_version > kMaxWireVersion)
        return std::nullopt;
      for (const SnapshotEndpoint& prev : s.endpoints)
        if (prev.ep_id == e.ep_id) return std::nullopt;
      s.endpoints.push_back(e);
    }

    s.rho.proactive_parities = static_cast<int>(r.get_u32());
    s.rho.num_nack = static_cast<int>(r.get_u32());
    if (s.rho.proactive_parities < 0 || s.rho.num_nack < 0)
      return std::nullopt;
    for (std::uint64_t& st : s.rho.rng) st = r.get_u64();

    const std::uint64_t tree_len = r.get_u64();
    if (tree_len != r.remaining()) return std::nullopt;
    s.tree_blob = r.get_bytes(static_cast<std::size_t>(tree_len));
    if (r.remaining() != 0) return std::nullopt;
    return s;
  } catch (const EnsureError&) {
    // Truncated fields: a corrupt snapshot.
    return std::nullopt;
  }
}

}  // namespace rekey::wire
