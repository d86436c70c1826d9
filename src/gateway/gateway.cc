#include "gateway/gateway.h"

#include "gateway/router.h"
#include "packet/frame_view.h"
#include "services/dhcp.h"
#include "shim/table_sync.h"
#include "util/log.h"

namespace gq::gw {

namespace {

constexpr const char* kLog = "gw";

// Nonce ports for containment-server proxy legs are allocated from this
// range on the management interface.
constexpr std::uint16_t kNoncePortFirst = 40000;
constexpr std::uint16_t kNoncePortLast = 49999;

constexpr std::uint16_t kDhcpServerPort = 67;

}  // namespace

Gateway::Gateway(sim::EventLoop& loop, GatewayConfig config,
                 obs::Telemetry* telemetry)
    : loop_(loop),
      config_(config),
      owned_telemetry_(telemetry ? nullptr
                                 : std::make_unique<obs::Telemetry>()),
      telemetry_(telemetry ? telemetry : owned_telemetry_.get()),
      upstream_port_(loop, "gw.upstream"),
      inmate_port_(loop, "gw.inmate"),
      mgmt_port_(loop, "gw.mgmt"),
      inmate_leg_mac_(util::MacAddr::local(0xE0002 + config.mac_namespace)),
      upstream_arp_(loop, util::MacAddr::local(0xE0001 + config.mac_namespace),
                    config.upstream_addr,
                    [this](std::vector<std::uint8_t> frame) {
                      transmit_upstream(std::move(frame));
                    }),
      mgmt_arp_(loop, util::MacAddr::local(0xE0003 + config.mac_namespace),
                config.mgmt_addr,
                [this](std::vector<std::uint8_t> frame) {
                  mgmt_port_.transmit(sim::Frame{std::move(frame)});
                }),
      upstream_trace_("upstream", config.trace_archive, telemetry_),
      mgmt_trace_("mgmt", config.trace_archive, telemetry_),
      inmate_rx_trace_("inmate_rx", config.trace_archive, telemetry_),
      next_nonce_(kNoncePortFirst) {
  // The management/control network has its own external connectivity
  // (the paper dedicates one of its five /24s to control infrastructure,
  // §6.7): the gateway proxy-ARPs the range upstream and routes it.
  upstream_arp_.add_proxy_range(config_.mgmt_net);
  upstream_port_.set_rx(
      [this](sim::Frame frame) { on_upstream_frame(std::move(frame)); });
  inmate_port_.set_rx(
      [this](sim::Frame frame) { on_inmate_frame(std::move(frame)); });
  mgmt_port_.set_rx(
      [this](sim::Frame frame) { on_mgmt_frame(std::move(frame)); });
}

Gateway::~Gateway() = default;

SubfarmRouter& Gateway::add_subfarm(const SubfarmConfig& config) {
  subfarms_.push_back(std::make_unique<SubfarmRouter>(*this, config));
  auto& subfarm = *subfarms_.back();
  // The gateway answers upstream ARP for the whole NATed global range.
  upstream_arp_.add_proxy_range(config.external_net);
  return subfarm;
}

SubfarmRouter* Gateway::subfarm_for_vlan(std::uint16_t vlan) {
  for (auto& subfarm : subfarms_)
    if (subfarm->config().owns_vlan(vlan)) return subfarm.get();
  return nullptr;
}

SubfarmRouter* Gateway::subfarm_for_internal(util::Ipv4Addr addr) {
  for (auto& subfarm : subfarms_)
    if (subfarm->config().internal_net.contains(addr)) return subfarm.get();
  return nullptr;
}

SubfarmRouter* Gateway::subfarm_for_global(util::Ipv4Addr addr) {
  for (auto& subfarm : subfarms_)
    if (subfarm->config().external_net.contains(addr)) return subfarm.get();
  return nullptr;
}

std::uint16_t Gateway::allocate_nonce(SubfarmRouter* owner) {
  constexpr std::uint32_t kPoolSize = kNoncePortLast - kNoncePortFirst + 1;
  for (std::uint32_t guard = 0; guard < kPoolSize; ++guard) {
    const std::uint16_t candidate = next_nonce_;
    next_nonce_ = (next_nonce_ >= kNoncePortLast) ? kNoncePortFirst
                                                  : next_nonce_ + 1;
    if (!nonce_owners_.count(candidate)) {
      nonce_owners_[candidate] = owner;
      return candidate;
    }
  }
  GQ_ERROR(kLog, "nonce port pool exhausted");
  return 0;
}

void Gateway::release_nonce(std::uint16_t port) { nonce_owners_.erase(port); }

// --- Egress ---------------------------------------------------------------

void Gateway::emit_raw(std::vector<std::uint8_t> bytes) {
  const auto dst = pkt::ipv4_dst_of(bytes);
  if (!dst) return;
  if (auto* subfarm = subfarm_for_internal(*dst)) {
    const InmateBinding* binding = subfarm->inmates().by_internal(*dst);
    if (!binding) {
      GQ_DEBUG(kLog, "no inmate binding for %s, dropping", dst->str().c_str());
      return;
    }
    pkt::set_eth_addrs(bytes, inmate_leg_mac_, binding->mac);
    // Record the inmate-side trace untagged (internal perspective, §5.6).
    subfarm->trace().record(loop_.now(), bytes, binding->vlan);
    pkt::insert_vlan_tag(bytes, binding->vlan);
    inmate_port_.transmit(sim::Frame{std::move(bytes)});
    return;
  }
  emit_via(config_.mgmt_net.contains(*dst) ? mgmt_arp_ : upstream_arp_, *dst,
           std::move(bytes));
}

void Gateway::emit_via(ArpProxy& arp, util::Ipv4Addr next_hop,
                       std::vector<std::uint8_t> bytes) {
  if (const auto mac = arp.cached(next_hop)) {
    transmit_via(arp, *mac, std::move(bytes));
    return;
  }
  // Cold cache: queue behind the ARP exchange (shared_ptr: ArpProxy's
  // callback type requires a copyable closure).
  auto queued = std::make_shared<std::vector<std::uint8_t>>(std::move(bytes));
  arp.resolve(next_hop, [this, &arp, queued](util::MacAddr mac) {
    transmit_via(arp, mac, std::move(*queued));
  });
}

void Gateway::transmit_via(ArpProxy& arp, util::MacAddr dst_mac,
                           std::vector<std::uint8_t> bytes) {
  pkt::set_eth_addrs(bytes, arp.mac(), dst_mac);
  if (&arp == &upstream_arp_) {
    transmit_upstream(std::move(bytes));
    return;
  }
  mgmt_trace_.record(loop_.now(), bytes);
  mgmt_port_.transmit(sim::Frame{std::move(bytes)});
}

void Gateway::transmit_upstream(std::vector<std::uint8_t> bytes) {
  upstream_trace_.record(loop_.now(), bytes);
  if (upstream_tap_) upstream_tap_(loop_.now(), bytes);
  upstream_port_.transmit(sim::Frame{std::move(bytes)});
}

// --- Ingress ----------------------------------------------------------------

void Gateway::on_upstream_frame(sim::Frame raw) {
  upstream_trace_.record(loop_.now(), raw.bytes);
  auto in = pkt::parse_ingress(raw.bytes, pkt::ViewVerify::kIpHeader);
  if (!in) return;
  if (in->arp) {
    upstream_arp_.handle(*in->arp);
    return;
  }
  if (!in->ipv4) return;
  // A source inside the farm cannot arrive from outside: a spoofed one
  // would make the gateway's egress route an inbound-forward reply back
  // onto the inmate or management leg.
  const util::Ipv4Addr src = *pkt::ipv4_src_of(raw.bytes);
  if (config_.mgmt_net.contains(src) || subfarm_for_internal(src)) return;
  const util::Ipv4Addr dst = *pkt::ipv4_dst_of(raw.bytes);
  if (auto* subfarm = subfarm_for_global(dst)) {
    subfarm->from_server(in->view, raw.bytes, /*upstream=*/true);
    return;
  }
  // Return traffic for control-infrastructure hosts (banner grabbing,
  // blacklist lookups) routes straight onto the management network.
  if (config_.mgmt_net.contains(dst)) emit_raw(std::move(raw.bytes));
}

void Gateway::on_inmate_frame(sim::Frame raw) {
  const auto vid = pkt::vlan_vid_of(raw.bytes);
  if (!vid) return;  // Untagged frames: not ours.
  const std::uint16_t vlan = *vid;
  auto* subfarm = subfarm_for_vlan(vlan);
  if (!subfarm) return;
  // Archive the raw tagged frame exactly as received — this tap is the
  // deterministic-replay source, so it must capture everything that can
  // affect gateway state (DHCP/ARP boot chatter included).
  inmate_rx_trace_.record(loop_.now(), raw.bytes);
  if (!vlan_taps_.empty()) {
    auto it = vlan_taps_.find(vlan);
    if (it != vlan_taps_.end()) it->second->record(loop_.now(), raw.bytes);
  }
  // Untag in place (capacity retained, so an eventual same-buffer re-tag
  // on egress cannot reallocate).
  pkt::strip_vlan_tag(raw.bytes);
  auto in = pkt::parse_ingress(raw.bytes, pkt::ViewVerify::kIpHeader);
  if (!in) return;
  // The subfarm trace records the bytes the classifier sees (untagged,
  // internal perspective, §5.6).
  subfarm->trace().record(loop_.now(), raw.bytes, vlan);

  if (in->arp) {
    const auto& arp = *in->arp;
    // Local proxy ARP: the gateway answers for its own internal address
    // and for any other internal address (inmates are L2-isolated per
    // VLAN, so even inmate-to-inmate traffic — e.g. honeyfarm redirects —
    // must route through the gateway's containment path).
    const bool proxied =
        arp.target_ip == subfarm->inmates().gateway_internal() ||
        (subfarm->config().internal_net.contains(arp.target_ip) &&
         arp.target_ip != arp.sender_ip);
    if (arp.op == pkt::ArpMessage::Op::kRequest && proxied) {
      inmate_port_.transmit(sim::Frame{pkt::build_arp(
          {.dst = arp.sender_mac, .src = inmate_leg_mac_, .vlan = vlan},
          {pkt::ArpMessage::Op::kReply, inmate_leg_mac_, arp.target_ip,
           arp.sender_mac, arp.sender_ip})});
    }
    return;
  }
  if (!in->ipv4) return;
  auto& view = in->view;

  // In-path DHCP responder: the paper's gateway assigns internal
  // addresses triggered by boot-time chatter (§5.3).
  if (view && view->is_udp() && view->dst_port() == kDhcpServerPort &&
      pkt::FrameView::parse(raw.bytes, pkt::ViewVerify::kFull)) {
    auto request = svc::DhcpMessage::parse(view->payload());
    if (!request) return;
    if (auto reply = subfarm->inmates().handle_dhcp(vlan, *request)) {
      if (const InmateBinding* binding = subfarm->inmates().by_vlan(vlan)) {
        obs::FarmEvent event;
        event.kind = obs::FarmEvent::Kind::kDhcpBind;
        event.time = loop_.now();
        event.subfarm = subfarm->config().name;
        event.vlan = vlan;
        event.inmate_internal = binding->internal_addr;
        event.inmate_global = binding->global_addr;
        telemetry_->publish(event);
      }
      // Built once, recorded untagged, then tagged in place.
      auto out = pkt::build_udp(
          {.dst = util::MacAddr::broadcast(), .src = inmate_leg_mac_},
          {.src = subfarm->inmates().gateway_internal(),
           .dst = util::Ipv4Addr(255, 255, 255, 255)},
          {kDhcpServerPort, 68}, reply->encode());
      subfarm->trace().record(loop_.now(), out, vlan);
      pkt::insert_vlan_tag(out, vlan);
      inmate_port_.transmit(sim::Frame{std::move(out)});
    }
    return;
  }
  subfarm->from_inmate(vlan, view, raw.bytes);
}

void Gateway::on_mgmt_frame(sim::Frame raw) {
  mgmt_trace_.record(loop_.now(), raw.bytes);
  auto in = pkt::parse_ingress(raw.bytes, pkt::ViewVerify::kIpHeader);
  if (!in) return;
  if (in->arp) {
    mgmt_arp_.handle(*in->arp);
    return;
  }
  if (!in->ipv4) return;
  auto& view = in->view;
  const util::Ipv4Addr dst = *pkt::ipv4_dst_of(raw.bytes);

  // Policy-table syncs (shim wire v4) and containment-server nonce legs
  // terminate on the gateway's own management address; nothing else
  // addressed to it goes anywhere.
  if (dst == config_.mgmt_addr) {
    if (!view || !pkt::FrameView::parse(raw.bytes, pkt::ViewVerify::kFull))
      return;
    if (view->is_udp() && view->dst_port() == shim::kTableSyncPort) {
      // The pushing containment server's source address selects which
      // subfarm routers install the table: any router that lists it as
      // its (or a cluster member's) CS.
      const util::Ipv4Addr cs_addr = view->ip_src();
      const auto sync = shim::TableSync::parse(view->payload());
      if (!sync) {
        GQ_WARN(kLog, "malformed policy-table sync from %s dropped",
                cs_addr.str().c_str());
        return;
      }
      for (auto& subfarm : subfarms_) {
        const auto& cfg = subfarm->config();
        bool owned = cfg.containment_server.addr == cs_addr;
        for (const auto& extra : cfg.extra_containment_servers)
          owned = owned || extra.addr == cs_addr;
        if (owned) subfarm->install_policy_table(*sync);
      }
    } else if (view->is_tcp()) {
      if (auto it = nonce_owners_.find(view->dst_port());
          it != nonce_owners_.end())
        it->second->on_nonce_frame(view->dst_port(), *view, raw.bytes);
    }
    return;
  }
  if (auto* subfarm = subfarm_for_internal(dst)) {
    subfarm->from_server(view, raw.bytes, /*upstream=*/false);
    return;
  }
  // Outbound traffic from trusted control-infrastructure hosts (e.g. the
  // banner-grabbing SMTP sink dialing the real target) goes upstream.
  if (!config_.mgmt_net.contains(dst)) emit_raw(std::move(raw.bytes));
}

}  // namespace gq::gw
