// Quickstart: the smallest useful tour of the public API.
//
// Creates a secure group, exercises joins and leaves across rekey
// intervals with ideal (in-process) delivery, and shows the security
// guarantees: every current member tracks the group key; departed members
// are locked out; new members cannot read the past.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/service.h"

using namespace rekey;

int main() {
  // A group key service with a degree-4 key tree.
  core::ServiceConfig config;
  config.degree = 4;
  core::GroupKeyService service(config);

  // Bootstrap a 16-member group. Each member gets its individual key and
  // path keys over the (assumed authenticated) registration channel.
  auto members = service.bootstrap_members(16);
  std::printf("group of %zu members, key tree height %u\n",
              service.group_size(), service.tree().height());
  std::printf("everyone holds the group key: %s\n",
              *service.member(members[0]).group_key() == service.group_key()
                  ? "yes"
                  : "NO");

  // Interval 1: one member leaves, two join. The batch is processed by
  // the marking algorithm; one rekey message re-keys the whole group.
  const auto departing = members[3];
  service.request_leave(departing);
  const auto alice = service.register_member();
  const auto bob = service.register_member();
  service.request_join(alice);
  service.request_join(bob);

  const auto report = service.rekey_interval();
  std::printf(
      "\ninterval %u: J=%zu L=%zu -> %zu encryptions in %zu ENC packets "
      "(duplication %.1f%%)\n",
      report.msg_id, report.joins, report.leaves, report.encryptions,
      report.enc_packets, 100.0 * report.duplication_overhead);

  std::printf("alice has the new group key: %s\n",
              service.member(alice).group_key().has_value() &&
                      *service.member(alice).group_key() ==
                          service.group_key()
                  ? "yes"
                  : "NO");
  std::printf("departed member still known to the service: %s\n",
              service.has_member(departing) ? "YES (bug!)" : "no");

  // Interval 2: churn again; all surviving members keep tracking the key.
  service.request_leave(members[0]);
  service.rekey_interval();
  std::printf("\nafter interval 2, group size %zu; bob's key fresh: %s\n",
              service.group_size(),
              *service.member(bob).group_key() == service.group_key()
                  ? "yes"
                  : "NO");

  // Crash recovery: persist the service, restore it under the same
  // config (the key seed included), and run one more interval on the
  // restored copy. It holds the same group key and member views, and its
  // key generator resumes where the snapshot left it.
  const Bytes blob = service.snapshot();
  auto restored = core::GroupKeyService::restore(blob, config);
  if (!restored) {
    std::printf("restore failed\n");
    return 1;
  }
  std::printf("\nrestored from a %zu-byte snapshot; same group key: %s\n",
              blob.size(),
              restored->group_key() == service.group_key() ? "yes" : "NO");
  restored->request_leave(members[1]);
  restored->rekey_interval();
  std::printf("after interval 3 on the restored service, bob's key fresh: "
              "%s\n",
              *restored->member(bob).group_key() == restored->group_key()
                  ? "yes"
                  : "NO");

  std::printf("\nquickstart OK\n");
  return 0;
}
