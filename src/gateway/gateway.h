// The GQ gateway (paper Figure 1): the single choke point between the
// outside network, the inmate network, and the management network. It
// hosts one SubfarmRouter per subfarm (disjoint VLAN ID ranges, Figure
// 3), answers/performs ARP on each leg, serves DHCP to inmates in-path,
// proxy-ARPs the NATed global ranges upstream, maintains the global
// upstream packet trace (§5.6), and brokers nonce-port connections from
// containment servers back out through the NAT.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "gateway/arp_proxy.h"
#include "gateway/config.h"
#include "netsim/event_loop.h"
#include "netsim/port.h"
#include "obs/telemetry.h"
#include "packet/frame.h"
#include "packet/pcap.h"
#include "trace/tap.h"

namespace gq::gw {

class SubfarmRouter;

class Gateway {
 public:
  /// `telemetry` joins the gateway (and its subfarm routers) to a
  /// farm-wide metrics registry + event bus; when null the gateway owns
  /// a private Telemetry, so instrumentation never needs a null check.
  Gateway(sim::EventLoop& loop, GatewayConfig config,
          obs::Telemetry* telemetry = nullptr);
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// The three legs. inmate_port() expects/emits 802.1Q-tagged frames
  /// (wire it to a trunk port of the inmate switch).
  sim::Port& upstream_port() { return upstream_port_; }
  sim::Port& inmate_port() { return inmate_port_; }
  sim::Port& mgmt_port() { return mgmt_port_; }

  /// Create a subfarm router handling `config`'s VLAN range.
  SubfarmRouter& add_subfarm(const SubfarmConfig& config);

  [[nodiscard]] const std::vector<std::unique_ptr<SubfarmRouter>>& subfarms()
      const {
    return subfarms_;
  }

  /// The metrics registry + event bus every subfarm router publishes to.
  [[nodiscard]] obs::Telemetry& telemetry() { return *telemetry_; }

  /// Observer invoked for every frame the gateway puts on its upstream
  /// (external) leg, just before transmission. This is the containment-
  /// escape oracle's vantage point: everything that could reach the real
  /// Internet passes exactly here. Null (default) disables.
  using UpstreamTap =
      std::function<void(util::TimePoint, const std::vector<std::uint8_t>&)>;
  void set_upstream_tap(UpstreamTap tap) { upstream_tap_ = std::move(tap); }

  [[nodiscard]] sim::EventLoop& loop() { return loop_; }
  [[nodiscard]] const GatewayConfig& config() const { return config_; }
  /// Rotating trace of the upstream leg: both directions, recorded at
  /// the transmit_upstream choke point and at upstream-port ingress.
  [[nodiscard]] trace::TraceTap& upstream_trace() { return upstream_trace_; }
  /// Trace of the management leg (containment-server traffic) — where
  /// the Figure 5 shim exchange is visible.
  [[nodiscard]] trace::TraceTap& mgmt_trace() { return mgmt_trace_; }
  /// Raw 802.1Q-tagged inmate-port ingress, exactly as received — the
  /// deterministic-replay source (trace/replay.h): injecting these
  /// frames at their recorded times into an identically seeded farm
  /// reproduces the run.
  [[nodiscard]] trace::TraceTap& inmate_rx_trace() { return inmate_rx_trace_; }

  /// Inject one raw (tagged) frame as if it arrived on the inmate port.
  /// The replay driver's entry point.
  void inject_inmate_frame(std::vector<std::uint8_t> bytes) {
    on_inmate_frame(sim::Frame{std::move(bytes)});
  }

  /// Mirror one VLAN's raw tagged inmate-port ingress into `tap`
  /// (recorded alongside inmate_rx_trace_, same bytes and timestamps).
  /// The detonation orchestrator points this at a per-job TraceTap for
  /// the job's lifetime, giving each job a replayable archive that by
  /// construction contains only its own inmate's traffic. The tap must
  /// outlive the binding; clear before destroying it.
  void set_vlan_tap(std::uint16_t vlan, trace::TraceTap* tap) {
    vlan_taps_[vlan] = tap;
  }
  void clear_vlan_tap(std::uint16_t vlan) { vlan_taps_.erase(vlan); }

  // --- Services used by SubfarmRouter ---------------------------------

  /// The gateway's one egress, for forwarded and synthesised frames
  /// alike. `bytes` is an untagged IPv4 frame whose IP/L4 fields are
  /// final. Routes on the IP destination: an inmate's VLAN (dropped when
  /// no inmate holds the address), the management network, or upstream.
  /// Stamps the leg's Ethernet addresses, records the leg's trace, and
  /// 802.1Q-tags inmate-leg frames; on a cold ARP cache the frame queues
  /// behind ArpProxy::resolve.
  void emit_raw(std::vector<std::uint8_t> bytes);

  /// Allocate / release a nonce port for a REWRITE proxy leg.
  std::uint16_t allocate_nonce(SubfarmRouter* owner);
  void release_nonce(std::uint16_t port);

  [[nodiscard]] util::MacAddr inmate_leg_mac() const {
    return inmate_leg_mac_;
  }

 private:
  void on_upstream_frame(sim::Frame frame);
  void on_inmate_frame(sim::Frame frame);
  void on_mgmt_frame(sim::Frame frame);
  /// Egress on an ARP-resolved leg (`arp` is mgmt_arp_ or
  /// upstream_arp_): transmit now on a cache hit, else queue.
  void emit_via(ArpProxy& arp, util::Ipv4Addr next_hop,
                std::vector<std::uint8_t> bytes);
  void transmit_via(ArpProxy& arp, util::MacAddr dst_mac,
                    std::vector<std::uint8_t> bytes);
  /// Single choke point for upstream egress: trace, tap, transmit.
  void transmit_upstream(std::vector<std::uint8_t> bytes);
  SubfarmRouter* subfarm_for_vlan(std::uint16_t vlan);
  SubfarmRouter* subfarm_for_internal(util::Ipv4Addr addr);
  SubfarmRouter* subfarm_for_global(util::Ipv4Addr addr);

  sim::EventLoop& loop_;
  GatewayConfig config_;
  // Telemetry first: subfarm routers resolve metric handles against it
  // at construction.
  std::unique_ptr<obs::Telemetry> owned_telemetry_;
  obs::Telemetry* telemetry_ = nullptr;
  sim::Port upstream_port_;
  sim::Port inmate_port_;
  sim::Port mgmt_port_;
  util::MacAddr inmate_leg_mac_;
  ArpProxy upstream_arp_;
  ArpProxy mgmt_arp_;
  trace::TraceTap upstream_trace_;
  trace::TraceTap mgmt_trace_;
  trace::TraceTap inmate_rx_trace_;
  std::vector<std::unique_ptr<SubfarmRouter>> subfarms_;
  std::map<std::uint16_t, trace::TraceTap*> vlan_taps_;
  std::map<std::uint16_t, SubfarmRouter*> nonce_owners_;
  std::uint16_t next_nonce_;
  UpstreamTap upstream_tap_;
};

}  // namespace gq::gw
