// Full-server snapshot (format v3) — everything a warm standby needs to
// take over a live rekey session at a batch boundary.
//
// The sharded tree snapshot (keytree/snapshot.h, v2) already captures the
// key material and the key generator's stream counter; a replica also
// needs the protocol-session state around it: the fencing epoch, the next
// batch to run, the negotiated wire version, the churn rotation (silent
// member pool + next member id), the per-endpoint subscription table, and
// the RhoController (proactive-parity control law + its RNG stream).
// With all of that restored, the standby's replay of the next batch is a
// pure function of the same inputs the primary would have seen — payloads
// and packets come out bit-identical (the determinism contract the
// replica tests enforce).
//
// Snapshots are taken at batch boundaries only: mid-batch transport state
// (rounds in flight, straggler sets) is deliberately absent, because the
// failover protocol re-runs the interrupted batch from its opening
// BatchStart rather than resuming it halfway. The blob embeds the sealed
// v2 tree snapshot length-prefixed and is itself sealed with the shared
// SHA-256 trailer, so truncation or corruption at any byte yields a clean
// nullopt, never a half-restored server.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "keytree/keytree.h"
#include "keytree/shard.h"
#include "transport/server.h"
#include "wire/control.h"

namespace rekey::wire {

// One row of the subscription table. Dead endpoints are carried too: the
// standby must keep treating them as dead (their uids stay in gave-up
// accounting) instead of waiting on them forever.
struct SnapshotEndpoint {
  std::uint64_t ep_id = 0;
  std::uint32_t first_uid = 0;
  std::uint32_t count = 0;
  std::uint8_t max_version = kWireV1;
  bool dead = false;
};

struct ServerSnapshot {
  std::uint32_t epoch = 0;       // fencing epoch the snapshot was taken in
  std::uint32_t next_batch = 0;  // first batch the restored server runs
  std::uint8_t session_version = kWireV1;

  // Session shape, cross-checked against the restoring daemon's config —
  // a snapshot from a differently-configured session must not restore.
  std::uint32_t degree = 4;
  std::uint32_t clients = 0;
  std::uint32_t churn_pool = 0;
  std::uint32_t batches = 0;

  // Churn rotation state.
  tree::MemberId next_member = 0;
  std::vector<tree::MemberId> churn_members;  // silent, in join order

  std::vector<SnapshotEndpoint> endpoints;

  transport::RhoController::State rho;

  // Sealed sharded (v2) tree snapshot: structure, key material, member
  // bindings, keygen counter. Restored separately, by the daemon's batch
  // engine (ownership-validated), because only the daemon knows the key
  // seed.
  Bytes tree_blob;
};

// Serialize + seal. The inverse of restore_server.
Bytes snapshot_server(const ServerSnapshot& snap);

// The same bytes as setting snap.tree_blob to
// tree::snapshot_sharded_tree(tree, plan) and calling the overload above,
// but the v2 blob is written in place inside the v3 blob instead of
// being built apart and copied in: one allocation for the whole
// snapshot. `snap.tree_blob` must be empty.
Bytes snapshot_server(const ServerSnapshot& snap, const tree::KeyTree& tree,
                      const tree::ShardPlan& plan);
// The same bytes written into `blob`, resized to fit. Its capacity is
// kept, so a caller that reuses one buffer across batches writes into
// pages it already holds instead of faulting in a fresh blob each time.
void snapshot_server_into(const ServerSnapshot& snap,
                          const tree::KeyTree& tree,
                          const tree::ShardPlan& plan, Bytes& blob);

// Verify the trailer, parse, and structurally validate (endpoint ranges
// inside [0, clients), member ids below next_member, bounded counts).
// nullopt on truncation, corruption, or any structural nonsense; the
// embedded tree blob's own trailer and shard ownership are checked later,
// when the batch engine restores it.
std::optional<ServerSnapshot> restore_server(const Bytes& blob);

}  // namespace rekey::wire
