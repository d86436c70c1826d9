// Configuration structures for the GQ gateway and its subfarm packet
// routers. Mirrors the paper's split (§6.1): an invariant, reusable
// forwarding mechanism configured by a small per-subfarm description
// (external address range, VLAN ID range, containment server location,
// trace naming). Values no caller varies, such as the safety-filter
// thresholds and the shim retry schedule, are constants beside the
// code that reads them (router.cc, gateway.cc).
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "shim/shim.h"
#include "trace/archive.h"
#include "util/addr.h"
#include "util/time.h"

namespace gq::gw {

/// How the gateway treats unsolicited outside->inside flows (§5.3):
/// dropped (emulating a home NAT) or forwarded with destination rewrite
/// (Internet-reachable servers, needed e.g. for Storm proxy bots).
enum class InboundMode { kDrop, kForward };

/// Every gateway datapath toggle in one place: the per-subfarm verdict
/// cache and the compiled policy table. Set once on GatewayConfig (or
/// core::FarmOptions); each SubfarmRouter reads them when it is
/// constructed.
struct DatapathOptions {
  /// Gateway-side verdict cache (repeat flows resolved locally).
  bool verdict_cache = true;

  /// Compiled in-gateway policy table (first-contact flows resolved
  /// locally from the containment server's pushed match-action rules).
  bool policy_table = true;
};

/// Per-subfarm configuration (the "40-line configuration module").
struct SubfarmConfig {
  std::string name;

  /// VLAN ID range (inclusive) of the inmates this router handles.
  std::uint16_t vlan_first = 0;
  std::uint16_t vlan_last = 0;

  /// RFC 1918 space internal addresses are assigned from.
  util::Ipv4Net internal_net;

  /// Globally routable range inmates are NATed to.
  util::Ipv4Net external_net;

  /// The subfarm's containment server (management network).
  util::Endpoint containment_server;

  /// Optional additional containment servers forming a cluster (§7.2's
  /// scaling remedy: "a cluster of containment servers, managed by the
  /// subfarm's packet router", selected so that "the same containment
  /// server always handles the same inmate"). Flows are distributed
  /// over {containment_server} ∪ extra_containment_servers by VLAN.
  std::vector<util::Endpoint> extra_containment_servers;

  /// Recursive DNS resolver handed to inmates via DHCP.
  util::Ipv4Addr dns_service;

  /// Destinations reachable without containment (infrastructure services
  /// in the inmates' restricted broadcast domain, §5.3).
  std::set<util::Ipv4Addr> infra_services;

  InboundMode inbound_mode = InboundMode::kDrop;

  // --- Fail-closed verdict resolution ---------------------------------
  // Containment must hold when the containment server is slow, sheds
  // load, or is unreachable (lossy/flapping management link). Each new
  // flow carries a verdict deadline; request shims are retransmitted
  // with bounded exponential backoff (router.cc's kShimRetry*); a flow
  // still undecided at the deadline is locally enforced with
  // fail_closed_verdict.

  /// How long a flow may sit in kAwaitVerdict before the router
  /// enforces the fail-closed verdict itself.
  util::Duration verdict_deadline = util::seconds(30);

  /// Verdict enforced when the deadline expires. Only kDrop (default)
  /// and kReflect are meaningful; anything else is treated as kDrop.
  /// kReflect additionally requires fail_closed_reflect_target.
  shim::Verdict fail_closed_verdict = shim::Verdict::kDrop;

  /// Sink endpoint for a kReflect fail-closed verdict (a management-side
  /// catch-all service). An unset address degrades kReflect to kDrop.
  util::Endpoint fail_closed_reflect_target;

  [[nodiscard]] bool owns_vlan(std::uint16_t vlan) const {
    return vlan >= vlan_first && vlan <= vlan_last;
  }
};

/// Gateway-wide configuration.
struct GatewayConfig {
  /// Gateway addresses on its three legs.
  util::Ipv4Addr upstream_addr;   ///< On the external network.
  util::Ipv4Addr mgmt_addr;       ///< On the management network.
  util::Ipv4Net mgmt_net;

  /// Offset added to the gateway's locally-administered interface MAC
  /// ids (0xE0001..0xE0003). Zero for a standalone farm; a sharded
  /// deployment gives each shard a disjoint namespace (shard << 20) so
  /// MAC learning on L2-bridged external switches never sees the same
  /// address from two shards.
  std::uint32_t mac_namespace = 0;

  /// Rotation budget shared by every trace tap the gateway owns (the
  /// upstream/mgmt/inmate-ingress taps and one tap per subfarm router).
  trace::ArchiveConfig trace_archive;

  /// Datapath toggles applied to the gateway and to every subfarm
  /// router created under it.
  DatapathOptions datapath;
};

}  // namespace gq::gw
