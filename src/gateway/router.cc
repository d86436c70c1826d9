#include "gateway/router.h"

#include <algorithm>

#include "gateway/gateway.h"
#include "util/log.h"

namespace gq::gw {

namespace {

constexpr const char* kLog = "gw.router";

// Safety filter thresholds (§5.1): new connections per inmate per
// window, and to any single destination per window.
constexpr std::size_t kMaxConnsPerInmate = 2000;
constexpr std::size_t kMaxConnsPerDest = 500;
constexpr util::Duration kSafetyWindow = util::minutes(1);

// Request-shim retransmission: the backoff starts at kShimRetryInitial
// and doubles up to kShimRetryMax; past kShimRetryLimit retransmits the
// flow fails closed at once. With the default 30 s verdict deadline the
// retransmits land 1, 3, 7, 15 and 23 s after the first shim, and the
// deadline fires before the sixth.
constexpr util::Duration kShimRetryInitial = util::seconds(1);
constexpr util::Duration kShimRetryMax = util::seconds(8);
constexpr int kShimRetryLimit = 6;

// Verdict cache: LRU bound on entries, and the TTL applied when a
// cacheable response carries cache_ttl_ms == 0.
constexpr std::size_t kVerdictCacheCapacity = 4096;
constexpr util::Duration kVerdictCacheDefaultTtl = util::seconds(60);

// Sequence comparison helpers (mod-2^32).
bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
bool seq_le(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}

// LIMIT rate from the response shim's typed parameter block, with the
// conservative 8 KB/s default when the containment server sent none.
double limit_rate_of(const shim::ResponseShim& shim) {
  if (shim.limit_bytes_per_sec && *shim.limit_bytes_per_sec > 0)
    return static_cast<double>(*shim.limit_bytes_per_sec);
  return 8192.0;
}

// Established flows are forwarded as they are by forward_to_server /
// forward_to_inmate; a UDP REWRITE flow re-wraps every datagram in a
// shim instead.
bool forwarded_as_is(const Flow& flow) {
  return flow.phase == FlowPhase::kEstablished &&
         (flow.proto == pkt::FlowProto::kTcp || !flow.server_is_cs);
}

// Outside an established flow a frame is keyed only when its L4
// checksum holds; one whose checksum fails is keyless IP there, like
// ICMP, and meets only the stateless rules.
bool l4_intact(std::span<std::uint8_t> bytes) {
  return pkt::FrameView::parse(bytes, pkt::ViewVerify::kFull).has_value();
}

// The last instant at which gc_sweep still keeps `flow`: any sweep after
// it closes the flow. A flow goes when idle past kFlowTimeout, 2 s after
// FINs in both directions, or 30 s after a DROP verdict. last_activity
// only moves forward, so only a FIN flag or the DROP transition can move
// this earlier.
util::TimePoint close_due(const Flow& flow) {
  util::Duration linger = kFlowTimeout;
  if (flow.fin_inmate && flow.fin_server)
    linger = std::min(linger, util::seconds(2));
  if (flow.phase == FlowPhase::kDenied)
    linger = std::min(linger, util::seconds(30));
  return flow.last_activity + linger;
}

}  // namespace

const char* flow_phase_name(FlowPhase p) {
  switch (p) {
    case FlowPhase::kAwaitVerdict: return "AWAIT_VERDICT";
    case FlowPhase::kSplicing: return "SPLICING";
    case FlowPhase::kEstablished: return "ESTABLISHED";
    case FlowPhase::kDenied: return "DENIED";
    case FlowPhase::kClosed: return "CLOSED";
  }
  return "?";
}

SubfarmRouter::SubfarmRouter(Gateway& gateway, SubfarmConfig config)
    : gateway_(gateway),
      config_(std::move(config)),
      inmates_(config_.internal_net, config_.external_net,
               config_.internal_net.host(
                   static_cast<std::uint32_t>(config_.internal_net.size() - 2)),
               config_.dns_service),
      safety_(kMaxConnsPerInmate, kMaxConnsPerDest, kSafetyWindow),
      trace_(config_.name, gateway.config().trace_archive,
             &gateway.telemetry()),
      rng_(0x5afef00d ^ config_.vlan_first),
      verdict_cache_(kVerdictCacheCapacity) {
  // Resolve this subfarm's metric handles once; the per-frame path then
  // updates them through plain pointers.
  auto& metrics = gateway_.telemetry().metrics();
  const std::string prefix = "gw." + config_.name + ".";
  flows_created_ctr_ = &metrics.counter(prefix + "flows_created");
  frames_from_inmates_ctr_ = &metrics.counter(prefix + "frames_from_inmates");
  safety_admits_ctr_ = &metrics.counter(prefix + "safety.admits");
  safety_rejects_ctr_ = &metrics.counter(prefix + "safety.rejects");
  active_flows_gauge_ = &metrics.gauge(prefix + "active_flows");
  decision_latency_hist_ =
      &metrics.histogram(prefix + "decision_latency_us");
  shim_rtt_hist_ = &metrics.histogram(prefix + "shim_rtt_us");
  shim_retries_ctr_ = &metrics.counter(prefix + "shim_retries");
  verdict_timeouts_ctr_ = &metrics.counter(prefix + "verdict_timeouts");
  fail_closed_ctr_ = &metrics.counter(prefix + "fail_closed");
  pending_verdicts_gauge_ = &metrics.gauge(prefix + "pending_verdicts");
  cache_hit_ctr_ = &metrics.counter(prefix + "cache_hit");
  cache_miss_ctr_ = &metrics.counter(prefix + "cache_miss");
  cache_insert_ctr_ = &metrics.counter(prefix + "cache_insert");
  cache_evict_ctr_ = &metrics.counter(prefix + "cache_evict");
  cache_expire_ctr_ = &metrics.counter(prefix + "cache_expire");
  cache_flush_ctr_ = &metrics.counter(prefix + "cache_flush");
  cache_bypass_ctr_ = &metrics.counter(prefix + "cache_bypass");
  auto by_source = [&](shim::VerdictSource source) -> obs::Histogram*& {
    return decision_latency_by_source_[static_cast<std::size_t>(source)];
  };
  by_source(shim::VerdictSource::kCached) =
      &metrics.histogram(prefix + "decision_latency_cached_us");
  by_source(shim::VerdictSource::kShim) =
      &metrics.histogram(prefix + "decision_latency_uncached_us");
  table_hit_ctr_ = &metrics.counter(prefix + "table_hit");
  table_fallback_ctr_ = &metrics.counter(prefix + "table_fallback");
  table_sync_ctr_ = &metrics.counter(prefix + "table_sync");
  table_stale_ctr_ = &metrics.counter(prefix + "table_stale");
  by_source(shim::VerdictSource::kTable) =
      &metrics.histogram(prefix + "decision_latency_table_us");
  // Per-verdict counters are resolved here, once, rather than by
  // rebuilding "gw.<subfarm>.verdicts.<name>" for every verdict applied.
  for (std::uint32_t v = 1; v <= verdict_ctrs_.size(); ++v) {
    verdict_ctrs_[v - 1] = &metrics.counter(
        prefix + "verdicts." +
        shim::verdict_name(static_cast<shim::Verdict>(v)));
  }
  // Periodic flow garbage collection.
  gateway_.loop().schedule_in(util::seconds(5), [this] { gc_sweep(); });
}

obs::Counter& SubfarmRouter::verdict_counter(shim::Verdict verdict) {
  return *verdict_ctrs_[static_cast<std::uint32_t>(verdict) - 1];
}

SubfarmRouter::~SubfarmRouter() = default;

void SubfarmRouter::set_fail_closed(shim::Verdict verdict,
                                    util::Duration deadline,
                                    util::Endpoint reflect_target) {
  config_.fail_closed_verdict = verdict;
  if (deadline.usec > 0) config_.verdict_deadline = deadline;
  config_.fail_closed_reflect_target = reflect_target;
}

void SubfarmRouter::on_policy_epoch(std::uint64_t epoch) {
  if (epoch <= cache_epoch_) return;
  cache_epoch_ = epoch;
  const std::size_t dropped = verdict_cache_.flush();
  if (dropped > 0) cache_flush_ctr_->inc(dropped);
  GQ_INFO(kLog, "[%s] policy epoch %llu: verdict cache flushed (%zu)",
          config_.name.c_str(),
          static_cast<unsigned long long>(epoch), dropped);
}

void SubfarmRouter::flush_cache_vlan(std::uint16_t vlan) {
  const std::size_t dropped = verdict_cache_.flush_vlan(vlan);
  if (dropped > 0) {
    cache_flush_ctr_->inc(dropped);
    GQ_INFO(kLog, "[%s] vlan %u revert/terminate: %zu cached verdicts dropped",
            config_.name.c_str(), vlan, dropped);
  }
}

bool SubfarmRouter::install_policy_table(const shim::TableSync& sync) {
  // The router's epoch high-water mark covers both local datapaths: a
  // sync older than anything we have seen (a shim response, a previous
  // sync, a reload notification) describes a superseded policy set.
  if (sync.epoch < cache_epoch_ || !policy_table_.install(sync)) {
    table_stale_ctr_->inc();
    GQ_WARN(kLog, "[%s] stale policy table rejected (epoch %llu < %llu)",
            config_.name.c_str(),
            static_cast<unsigned long long>(sync.epoch),
            static_cast<unsigned long long>(
                std::max(cache_epoch_, policy_table_.epoch())));
    return false;
  }
  // A newer epoch flushes the verdict cache atomically with the table
  // swap — one invalidation point for both local datapaths.
  on_policy_epoch(sync.epoch);
  table_sync_ctr_->inc();
  GQ_INFO(kLog, "[%s] policy table installed: epoch %llu, %zu rules",
          config_.name.c_str(),
          static_cast<unsigned long long>(sync.epoch),
          policy_table_.size());
  return true;
}

bool SubfarmRouter::is_internal(util::Ipv4Addr addr) const {
  return config_.internal_net.contains(addr);
}

bool SubfarmRouter::is_infra(util::Ipv4Addr addr) const {
  // Only addresses explicitly placed in the inmates' restricted
  // broadcast domain bypass containment; the DHCP-advertised resolver
  // address is *not* automatically exempt (an experiment may well want
  // DNS contained, e.g. for DGA studies).
  return config_.infra_services.count(addr) > 0;
}

void SubfarmRouter::report(const Flow& flow, obs::FarmEvent::Kind kind) {
  obs::FarmEvent event;
  event.kind = kind;
  event.time = gateway_.loop().now();
  event.subfarm = config_.name;
  event.vlan = flow.vlan;
  event.proto = flow.proto;
  event.orig_dst = flow.orig_dst;
  event.verdict = flow.verdict;
  event.policy_name = flow.policy_name;
  event.annotation = flow.annotation;
  event.limit_bytes_per_sec = flow.limit_bytes_per_sec;
  event.bytes_to_server = flow.bytes_to_server;
  event.bytes_to_inmate = flow.bytes_to_inmate;
  event.verdict_source = flow.verdict_source;
  gateway_.telemetry().publish(event);
}

void SubfarmRouter::emit_tcp(util::Endpoint src, util::Endpoint dst,
                             std::uint8_t flags, std::uint32_t seq,
                             std::uint32_t ack,
                             std::span<const std::uint8_t> payload) {
  gateway_.emit_raw(pkt::build_tcp(
      {}, {.src = src.addr, .dst = dst.addr, .ttl = 63},
      {.src_port = src.port,
       .dst_port = dst.port,
       .seq = seq,
       .ack = ack,
       .flags = flags},
      payload));
}

void SubfarmRouter::emit_udp(util::Endpoint src, util::Endpoint dst,
                             std::span<const std::uint8_t> payload) {
  gateway_.emit_raw(pkt::build_udp(
      {}, {.src = src.addr, .dst = dst.addr, .ttl = 63},
      {src.port, dst.port}, payload));
}

util::Endpoint SubfarmRouter::nat_source_for(const Flow& flow,
                                             util::Endpoint server) const {
  // Internal destinations (sinks on the management network, redirects to
  // other inmates) see the inmate's internal address — useful for
  // per-inmate attribution in sink logs. External targets see the NATed
  // global address.
  if (is_internal(server.addr) ||
      gateway_.config().mgmt_net.contains(server.addr)) {
    return flow.inmate_ep;
  }
  return {flow.inmate_global, flow.inmate_ep.port};
}

util::Endpoint SubfarmRouter::cs_for_vlan(std::uint16_t vlan) const {
  if (config_.extra_containment_servers.empty())
    return config_.containment_server;
  // Deterministic per-inmate selection over the cluster.
  const std::size_t cluster_size =
      1 + config_.extra_containment_servers.size();
  const std::size_t index =
      static_cast<std::size_t>(vlan - config_.vlan_first) % cluster_size;
  if (index == 0) return config_.containment_server;
  return config_.extra_containment_servers[index - 1];
}

// --- Ingress ------------------------------------------------------------------
//
// One pipeline for every frame: parse (the gateway views the untagged
// wire bytes once) → classify (one classifier per leg, each table looked
// up once) → rewrite (in place through the view's setters) → emit (the
// gateway's one raw egress). Frames of an established flow are forwarded
// as they are by forward_to_server / forward_to_inmate, the only places
// such a frame is rewritten; every other class — flow setup, shim
// surgery, nonce relays, inbound NAT, the infrastructure bypass — reads
// and rewrites the same view.

void SubfarmRouter::from_inmate(std::uint16_t vlan,
                                std::optional<pkt::FrameView>& view,
                                std::vector<std::uint8_t>& bytes) {
  frames_from_inmates_ctr_->inc();
  // Infrastructure services bypass containment (restricted broadcast
  // domain, §5.3).
  if (is_infra(pkt::ipv4_dst_of(bytes).value_or(util::Ipv4Addr()))) {
    gateway_.emit_raw(std::move(bytes));
    return;
  }
  if (!view) return;  // ICMP and friends: default-deny.
  // This inmate may be the server side of a redirected flow (worm
  // honeyfarm reflection) or the target of a nonce relay — check before
  // anything else. A frame that turns out keyless there is dropped.
  if (from_flow_server(view, bytes) || !view) return;
  const pkt::FlowKey key = view->flow_key();

  // Return path of an inbound (outside-initiated) flow: NAT out.
  if (auto it = inbound_flows_.find(key); it != inbound_flows_.end()) {
    if (!l4_intact(bytes)) return;
    it->second = gateway_.loop().now();
    if (const InmateBinding* binding = inmates_.by_vlan(vlan)) {
      view->set_ip_src(binding->global_addr);
      gateway_.emit_raw(std::move(bytes));
    }
    return;
  }

  if (auto it = flows_.find(key); it != flows_.end()) {
    if (forwarded_as_is(*it->second)) {
      forward_to_server(*it->second, *view, bytes);
      return;
    }
    if (!l4_intact(bytes)) return;
    const FlowPtr flow = it->second;
    if (flow->proto == pkt::FlowProto::kTcp)
      relay_inmate_to_server(*flow, *view, bytes);
    else
      udp_from_inmate(*flow, view->payload());
    return;
  }

  // A new flow opens with a TCP SYN or any UDP datagram; anything else
  // (a stray RST/FIN for an expired flow) is dropped.
  if ((view->is_udp() || (view->tcp_syn() && !view->tcp_has_ack())) &&
      l4_intact(bytes)) {
    handle_new_inmate_flow(vlan, *view, bytes);
  }
}

void SubfarmRouter::from_server(std::optional<pkt::FrameView>& view,
                                std::vector<std::uint8_t>& bytes,
                                bool upstream) {
  if (view && from_flow_server(view, bytes)) return;
  if (!upstream) {
    // Infrastructure replies (DNS resolver, etc.) pass straight back.
    if (is_infra(pkt::ipv4_src_of(bytes).value_or(util::Ipv4Addr())))
      gateway_.emit_raw(std::move(bytes));
    return;
  }
  // Unsolicited inbound traffic is dropped (home-NAT emulation) unless
  // the subfarm forwards it (§5.3: Internet-reachable servers).
  if (config_.inbound_mode != InboundMode::kForward) return;
  const InmateBinding* binding =
      inmates_.by_global(pkt::ipv4_dst_of(bytes).value_or(util::Ipv4Addr()));
  if (!binding) return;
  if (view && l4_intact(bytes)) {
    // Rewrite the destination to the internal address and remember the
    // flow so the inmate's replies NAT back out.
    view->set_ip_dst(binding->internal_addr);
    inbound_flows_[view->flow_key().reversed()] = gateway_.loop().now();
  } else {
    pkt::set_ipv4_dst(bytes, binding->internal_addr);
  }
  gateway_.emit_raw(std::move(bytes));
}

bool SubfarmRouter::from_flow_server(std::optional<pkt::FrameView>& view,
                                     std::vector<std::uint8_t>& bytes) {
  const pkt::FlowKey key = view->flow_key();
  // Nonce relay return path (target -> CS proxy leg).
  if (auto it = nonce_by_target_key_.find(key);
      it != nonce_by_target_key_.end()) {
    if (!l4_intact(bytes)) {
      view.reset();
      return false;
    }
    if (auto relay_it = nonce_relays_.find(it->second);
        relay_it != nonce_relays_.end()) {
      auto& relay = relay_it->second;
      relay.last_activity = gateway_.loop().now();
      view->set_ip_src(gateway_.config().mgmt_addr);
      view->set_src_port(relay.nonce);
      view->set_ip_dst(relay.cs_ep.addr);
      view->set_dst_port(relay.cs_ep.port);
      gateway_.emit_raw(std::move(bytes));
    }
    return true;
  }

  const auto it = server_index_.find(key);
  if (it == server_index_.end()) return false;
  if (forwarded_as_is(*it->second)) {
    forward_to_inmate(*it->second, *view, bytes);
    return true;
  }
  if (!l4_intact(bytes)) {
    view.reset();
    return false;
  }
  const FlowPtr flow = it->second;
  if (flow->proto == pkt::FlowProto::kUdp) {
    udp_from_server(*flow, view->payload());
  } else if (flow->server_is_cs) {
    cs_to_inmate(*flow, *view, bytes);
  } else {
    target_to_inmate(*flow, *view);
  }
  return true;
}

void SubfarmRouter::forward_to_server(Flow& flow, pkt::FrameView& view,
                                      std::vector<std::uint8_t>& bytes) {
  flow.last_activity = gateway_.loop().now();
  const std::uint32_t payload_len = view.payload_len();
  const util::Endpoint nat_src = nat_source_for(flow, flow.server_ep);
  const bool tcp = view.is_tcp();
  if (tcp) {
    const bool fin = view.tcp_fin();
    if (payload_len > 0 || fin) {
      const std::uint32_t end = view.tcp_seq() + payload_len + (fin ? 1 : 0);
      if (seq_lt(flow.inmate_snd_nxt, end)) flow.inmate_snd_nxt = end;
    }
    if (view.tcp_rst()) {
      emit_tcp(nat_src, flow.server_ep, pkt::kTcpRst | pkt::kTcpAck,
               view.tcp_seq() + flow.d_out, 0, {});
      close_flow(flow);
      return;
    }
    // LIMIT throttles payload; the inmate's TCP retransmits.
    if (flow.limiter && payload_len > 0 &&
        !flow.limiter->try_consume(flow.last_activity,
                                   static_cast<double>(payload_len))) {
      return;
    }
    if (fin) {
      flow.fin_inmate = true;
      note_close_due(flow);
    }
  } else if (flow.limiter &&
             !flow.limiter->try_consume(flow.last_activity,
                                        static_cast<double>(payload_len))) {
    return;
  }
  flow.bytes_to_server += payload_len;
  view.set_ip_src(nat_src.addr);
  view.set_src_port(nat_src.port);
  view.set_ip_dst(flow.server_ep.addr);
  view.set_dst_port(flow.server_ep.port);
  if (tcp) {
    view.set_tcp_seq(view.tcp_seq() + flow.d_out);
    if (view.tcp_has_ack()) view.set_tcp_ack(view.tcp_ack() - flow.d_in);
  }
  gateway_.emit_raw(std::move(bytes));
}

void SubfarmRouter::forward_to_inmate(Flow& flow, pkt::FrameView& view,
                                      std::vector<std::uint8_t>& bytes) {
  flow.last_activity = gateway_.loop().now();
  const std::uint32_t payload_len = view.payload_len();
  const bool tcp = view.is_tcp();
  if (tcp) {
    if (view.tcp_rst()) {
      send_rst_to_inmate(flow);
      close_flow(flow);
      return;
    }
    if (view.tcp_syn()) {
      // A target's retransmitted SYN-ACK is re-acked. A REWRITE leg's is
      // relayed with only its addresses rewritten: the CS's ISN precedes
      // the response shim.
      if (!flow.server_is_cs) {
        ack_target_syn(flow);
        return;
      }
    } else {
      if (flow.server_is_cs) {
        if (view.tcp_has_ack()) note_request_shim_ack(flow, view.tcp_ack());
      } else if (view.tcp_has_ack() &&
                 seq_lt(flow.replay_acked, view.tcp_ack())) {
        // Advance the splice replay window (d_out is zero for spliced
        // flows, so target acks live in inmate sequence space).
        flow.replay_acked = view.tcp_ack();
        for (auto it = flow.replay_buf.begin();
             it != flow.replay_buf.end();) {
          const std::uint32_t end =
              it->first + static_cast<std::uint32_t>(it->second.size());
          if (!seq_le(end, flow.replay_acked)) break;
          it = flow.replay_buf.erase(it);
        }
      }
      // LIMIT throttles both directions (Figure 2b); the target's TCP
      // retransmits.
      if (flow.limiter && payload_len > 0 &&
          !flow.limiter->try_consume(flow.last_activity,
                                     static_cast<double>(payload_len))) {
        return;
      }
      if (payload_len > 0) {
        flow.bytes_to_inmate += payload_len;
        const std::uint32_t end = view.tcp_seq() + payload_len;
        if (seq_lt(flow.server_rcv_next, end)) flow.server_rcv_next = end;
      }
      if (view.tcp_fin()) {
        flow.fin_server = true;
        note_close_due(flow);
      }
    }
  } else {
    flow.bytes_to_inmate += payload_len;
  }
  view.set_ip_src(flow.orig_dst.addr);
  view.set_src_port(flow.orig_dst.port);
  view.set_ip_dst(flow.inmate_ep.addr);
  view.set_dst_port(flow.inmate_ep.port);
  if (tcp && !view.tcp_syn()) {
    view.set_tcp_seq(view.tcp_seq() + flow.d_in);
    if (view.tcp_has_ack()) view.set_tcp_ack(view.tcp_ack() - flow.d_out);
  }
  gateway_.emit_raw(std::move(bytes));
}

void SubfarmRouter::handle_new_inmate_flow(std::uint16_t vlan,
                                           pkt::FrameView& view,
                                           std::vector<std::uint8_t>& bytes) {
  const InmateBinding* binding = inmates_.by_vlan(vlan);
  if (!binding) {
    GQ_DEBUG(kLog, "[%s] flow from unbound vlan %u dropped",
             config_.name.c_str(), vlan);
    return;
  }
  const auto now = gateway_.loop().now();
  const pkt::FlowKey key = view.flow_key();

  if (!safety_.admit(now, vlan, key.dst.addr)) {
    safety_rejects_ctr_->inc();
    Flow rejected;
    rejected.vlan = vlan;
    rejected.proto = key.proto;
    rejected.orig_dst = key.dst;
    rejected.policy_name = "SafetyFilter";
    report(rejected, obs::FarmEvent::Kind::kSafetyReject);
    return;
  }
  safety_admits_ctr_->inc();

  // Local verdict sources, after the safety filter (its caps apply to
  // locally resolved flows too): the compiled policy table first — it
  // covers first contacts the cache has never seen, and a concrete rule
  // is authoritative for the whole epoch — then the verdict cache. A
  // hit resolves the flow right here: no redirect, no shim round trip,
  // no containment-server occupancy.
  std::optional<shim::ResponseShim> local = probe_policy_table(vlan, key);
  const auto source =
      local ? shim::VerdictSource::kTable : shim::VerdictSource::kCached;
  if (!local) local = probe_verdict_cache(vlan, key);

  auto flow = std::make_shared<Flow>();
  flow->proto = key.proto;
  flow->vlan = vlan;
  flow->inmate_ep = key.src;
  flow->orig_dst = key.dst;
  flow->inmate_global = binding->global_addr;
  flow->cs_ep = cs_for_vlan(vlan);
  flow->server_ep = flow->cs_ep;
  flow->server_is_cs = true;
  flow->created = now;
  flow->last_activity = now;
  flows_[key] = flow;
  note_close_due(*flow);
  flows_created_ctr_->inc();
  active_flows_gauge_->set(static_cast<std::int64_t>(flows_.size()));

  if (local) {
    serve_local_verdict(*flow, source, std::move(*local), view, bytes);
    return;
  }

  // All new flows funnel into the CS's single listening endpoint, so two
  // concurrent flows from the same inmate source port (to different
  // destinations) would collide there — remap the source port until the
  // CS-leg key is unique.
  flow->cs_src = flow->inmate_ep;
  while (server_index_.count(
      {key.proto, flow->server_ep, flow->cs_src})) {
    flow->cs_src.port =
        (flow->cs_src.port >= 65535) ? 1024 : flow->cs_src.port + 1;
  }
  // Frames from the CS for this flow arrive as src=CS, dst=cs_src.
  server_index_[{key.proto, flow->server_ep, flow->cs_src}] = flow;

  // Containment must not hinge on the CS answering: every flow joins the
  // pending-verdict queue with a deadline after which the router
  // enforces the fail-closed verdict locally.
  pending_verdicts_gauge_->add(1);
  arm_verdict_deadline(flow);

  if (flow->proto == pkt::FlowProto::kTcp) {
    flow->inmate_isn = view.tcp_seq();
    flow->inmate_snd_nxt = view.tcp_seq() + 1;
    flow->nonce_port = gateway_.allocate_nonce(this);
    // Redirect the SYN to the containment server (Figure 5, step 1).
    view.set_src_port(flow->cs_src.port);
    view.set_ip_dst(flow->server_ep.addr);
    view.set_dst_port(flow->server_ep.port);
    gateway_.emit_raw(std::move(bytes));
  } else {
    udp_from_inmate(*flow, view.payload());
  }
}

std::optional<shim::ResponseShim> SubfarmRouter::probe_policy_table(
    std::uint16_t vlan, const pkt::FlowKey& key) {
  if (!gateway_.config().datapath.policy_table || policy_table_.empty())
    return std::nullopt;
  // A table whose epoch lags the router's high-water mark was compiled
  // from a superseded policy set: never consult it. (A *newer* table
  // cannot exist — installs advance cache_epoch_ in lockstep.)
  if (policy_table_.epoch() != cache_epoch_) return std::nullopt;
  const std::uint8_t proto_code = key.proto == pkt::FlowProto::kTcp
                                      ? shim::TableRule::kProtoTcp
                                      : shim::TableRule::kProtoUdp;
  const shim::TableRule* rule = policy_table_.lookup(vlan, proto_code, key.dst);
  if (!rule) return std::nullopt;
  auto synthesized = shim::table_rule_verdict(*rule, key.src, key.dst);
  if (!synthesized) {
    // The policy pinned this match arm to the containment server
    // (REWRITE, side effects, state) — shim path, counted separately
    // from plain misses.
    table_fallback_ctr_->inc();
    return std::nullopt;
  }
  table_hit_ctr_->inc();
  return synthesized;
}

std::optional<shim::ResponseShim> SubfarmRouter::probe_verdict_cache(
    std::uint16_t vlan, const pkt::FlowKey& key) {
  if (!gateway_.config().datapath.verdict_cache) return std::nullopt;
  std::uint64_t expired = 0;
  const CachedVerdict* entry = verdict_cache_.lookup(
      key.proto, vlan, key.src, key.dst, gateway_.loop().now(), &expired);
  if (expired > 0) cache_expire_ctr_->inc(expired);
  if (!entry) {
    cache_miss_ctr_->inc();
    return std::nullopt;
  }
  cache_hit_ctr_->inc();
  shim::ResponseShim synthesized;
  synthesized.orig = key.src;
  synthesized.resp = entry->resp;
  synthesized.verdict = entry->verdict;
  synthesized.policy_name = entry->policy_name;
  synthesized.annotation = entry->annotation;
  synthesized.limit_bytes_per_sec = entry->limit_bytes_per_sec;
  return synthesized;
}

void SubfarmRouter::serve_local_verdict(Flow& flow, shim::VerdictSource source,
                                        shim::ResponseShim synthesized,
                                        pkt::FrameView& view,
                                        std::vector<std::uint8_t>& bytes) {
  flow.verdict_source = source;
  flow.cs_src = flow.inmate_ep;  // No CS leg: never remapped, never indexed.
  // Symmetric with the shim path: the flow joins the pending-verdict
  // gauge so verdict_resolved()'s decrement balances, but no deadline
  // is armed — the verdict is already in hand.
  pending_verdicts_gauge_->add(1);
  synthesized.policy_epoch = cache_epoch_;

  const bool tcp = flow.proto == pkt::FlowProto::kTcp;
  if (tcp) {
    flow.inmate_isn = view.tcp_seq();
    flow.inmate_snd_nxt = view.tcp_seq() + 1;
    // The router plays the server's side of the handshake with a
    // synthetic ISN; the splice machinery then treats it exactly like a
    // CS ISN (the inmate believes the server's ISN is this one, and
    // d_in = cs_isn - server_isn maps the real target underneath it).
    flow.cs_isn = static_cast<std::uint32_t>(rng_.next());
    flow.cs_isn_known = true;
    flow.cs_in_expected = flow.cs_isn + 1;
    if (synthesized.verdict != shim::Verdict::kDrop) {
      emit_tcp(flow.orig_dst, flow.inmate_ep, pkt::kTcpSyn | pkt::kTcpAck,
               flow.cs_isn, flow.inmate_isn + 1, {});
    }
  }
  apply_verdict(flow, synthesized);
  // Deliver the datagram that opened a UDP flow through the now-decided
  // flow state (forwarded, limited, redirected — or silently dropped).
  if (tcp) return;
  if (forwarded_as_is(flow))
    forward_to_server(flow, view, bytes);
  else
    udp_from_inmate(flow, view.payload());
}

// --- TCP: inmate -> server side ---------------------------------------------

void SubfarmRouter::relay_inmate_to_server(Flow& flow, pkt::FrameView& view,
                                           std::vector<std::uint8_t>& bytes) {
  flow.last_activity = gateway_.loop().now();
  const auto payload = view.payload();
  const std::uint32_t payload_len = view.payload_len();
  const std::uint32_t seq = view.tcp_seq();
  const std::uint32_t ack = view.tcp_ack();
  const bool fin = view.tcp_fin();
  if (payload_len > 0 || fin)
    flow.inmate_snd_nxt =
        std::max(flow.inmate_snd_nxt, seq + payload_len + (fin ? 1 : 0),
                 [](std::uint32_t a, std::uint32_t b) { return seq_lt(a, b); });

  switch (flow.phase) {
    case FlowPhase::kDenied:
    case FlowPhase::kClosed:
    case FlowPhase::kEstablished:  // Forwarded by forward_to_server.
      return;

    case FlowPhase::kAwaitVerdict: {
      if (view.tcp_rst()) {
        // Inmate aborted before the verdict: tear down the CS leg.
        emit_tcp(flow.cs_src, flow.server_ep, pkt::kTcpRst | pkt::kTcpAck,
                 seq + flow.d_out, 0, {});
        close_flow(flow);
        return;
      }
      if (view.tcp_syn()) {  // Retransmitted SYN.
        view.set_ip_dst(flow.server_ep.addr);
        view.set_dst_port(flow.server_ep.port);
        gateway_.emit_raw(std::move(bytes));
        return;
      }
      // First non-SYN packet completes the handshake: inject the request
      // shim (Figure 5, step 2) before relaying anything else.
      if (!flow.req_shim_sent && view.tcp_has_ack() && flow.cs_isn_known) {
        inject_request_shim(flow);
      }
      if (payload_len > 0) {
        flow.replay_buf[seq].assign(payload.begin(), payload.end());
        flow.bytes_to_server += payload_len;
        emit_tcp(flow.cs_src, flow.server_ep,
                 pkt::kTcpAck | pkt::kTcpPsh, seq + flow.d_out,
                 ack - flow.d_in, payload);
      } else if (view.tcp_has_ack() && flow.req_shim_sent && !fin) {
        emit_tcp(flow.cs_src, flow.server_ep, pkt::kTcpAck,
                 seq + flow.d_out, ack - flow.d_in, {});
      }
      if (fin) {
        flow.inmate_fin_seen = true;
        flow.inmate_fin_seq = seq + payload_len;
        emit_tcp(flow.cs_src, flow.server_ep, pkt::kTcpFin | pkt::kTcpAck,
                 flow.inmate_fin_seq + flow.d_out, ack - flow.d_in, {});
      }
      return;
    }

    case FlowPhase::kSplicing: {
      if (view.tcp_rst()) {
        close_flow(flow);
        return;
      }
      // Buffer for replay once the target leg is up. Counted here, like
      // the kAwaitVerdict buffer: the replay drain re-emits without
      // accounting.
      if (payload_len > 0) {
        flow.replay_buf[seq].assign(payload.begin(), payload.end());
        flow.bytes_to_server += payload_len;
      }
      if (fin) {
        flow.inmate_fin_seen = true;
        flow.inmate_fin_seq = seq + payload_len;
      }
      return;
    }
  }
}

void SubfarmRouter::send_request_shim(const Flow& flow) {
  shim::RequestShim shim;
  shim.orig = flow.inmate_ep;
  shim.resp = flow.orig_dst;
  shim.vlan = flow.vlan;
  shim.nonce_port = flow.nonce_port;
  // The shim occupies inmate sequence space [isn+1, isn+1+24) on the CS
  // leg; all subsequent inmate bytes are bumped by 24 (Figure 5).
  emit_tcp(flow.cs_src, flow.server_ep, pkt::kTcpAck | pkt::kTcpPsh,
           flow.inmate_isn + 1, flow.cs_isn + 1, shim.encode());
}

void SubfarmRouter::inject_request_shim(Flow& flow) {
  send_request_shim(flow);
  flow.req_shim_sent = true;
  flow.req_shim_sent_at = gateway_.loop().now();
  flow.req_shim_backoff = kShimRetryInitial;
  flow.d_out = shim::kRequestShimSize;

  // Gateway-side reliability for the injected segment: bounded
  // exponential backoff toward the CS.
  auto weak = std::weak_ptr<Flow>();
  if (auto it = flows_.find(
          {flow.proto, flow.inmate_ep, flow.orig_dst});
      it != flows_.end())
    weak = it->second;
  gateway_.loop().schedule_in(flow.req_shim_backoff, [this, weak] {
    if (auto flow = weak.lock()) retransmit_request_shim(flow);
  });
}

void SubfarmRouter::retransmit_request_shim(FlowPtr flow) {
  if (flow->req_shim_acked || flow->phase != FlowPhase::kAwaitVerdict)
    return;
  if (++flow->req_shim_retries > kShimRetryLimit) {
    // Retries exhausted with the CS still silent: enforce the
    // fail-closed verdict now rather than waiting out the deadline.
    GQ_WARN(kLog, "[%s] request shim never acked for %s, failing closed",
            config_.name.c_str(), flow->orig_dst.str().c_str());
    fail_close_flow(*flow);
    return;
  }
  shim_retries_ctr_->inc();
  send_request_shim(*flow);
  flow->req_shim_backoff =
      std::min(flow->req_shim_backoff + flow->req_shim_backoff,
               kShimRetryMax);
  std::weak_ptr<Flow> weak = flow;
  gateway_.loop().schedule_in(flow->req_shim_backoff, [this, weak] {
    if (auto f = weak.lock()) retransmit_request_shim(f);
  });
}

// --- Fail-closed resolution -------------------------------------------------

void SubfarmRouter::arm_verdict_deadline(const FlowPtr& flow) {
  std::weak_ptr<Flow> weak = flow;
  flow->verdict_deadline_event =
      gateway_.loop().schedule_in(config_.verdict_deadline, [this, weak] {
        if (auto f = weak.lock()) {
          if (f->phase != FlowPhase::kAwaitVerdict) return;
          verdict_timeouts_ctr_->inc();
          fail_close_flow(*f);
        }
      });
}

void SubfarmRouter::verdict_resolved(Flow& flow) {
  if (flow.verdict_deadline_event != 0) {
    gateway_.loop().cancel(flow.verdict_deadline_event);
    flow.verdict_deadline_event = 0;
  }
  pending_verdicts_gauge_->sub(1);
}

void SubfarmRouter::fail_close_flow(Flow& flow) {
  fail_closed_ctr_->inc();
  flow.fail_closed = true;
  // Synthesize a response shim and run it through the normal verdict
  // machinery so enforcement, accounting, and reporting are identical
  // to a CS-issued verdict.
  shim::ResponseShim synthesized;
  synthesized.orig = flow.inmate_ep;
  synthesized.resp = flow.orig_dst;
  synthesized.verdict = shim::Verdict::kDrop;
  synthesized.policy_name = "FailClosed";
  synthesized.annotation = "containment server unreachable";
  if (config_.fail_closed_verdict == shim::Verdict::kReflect &&
      !config_.fail_closed_reflect_target.addr.is_unspecified()) {
    synthesized.verdict = shim::Verdict::kReflect;
    synthesized.resp = config_.fail_closed_reflect_target;
  }
  apply_verdict(flow, synthesized);
}

// --- TCP: server side -> inmate ---------------------------------------------

void SubfarmRouter::cs_to_inmate(Flow& flow, pkt::FrameView& view,
                                 std::vector<std::uint8_t>& bytes) {
  flow.last_activity = gateway_.loop().now();

  if (view.tcp_rst()) {
    if (flow.phase == FlowPhase::kAwaitVerdict) {
      send_rst_to_inmate(flow);
      close_flow(flow);
    }
    return;
  }

  if (view.tcp_syn()) {  // SYN-ACK from the containment server.
    if (!flow.cs_isn_known) {
      flow.cs_isn = view.tcp_seq();
      flow.cs_isn_known = true;
      flow.cs_in_expected = view.tcp_seq() + 1;
    }
    // Relay to the inmate as if it came from the intended target.
    view.set_ip_src(flow.orig_dst.addr);
    view.set_src_port(flow.orig_dst.port);
    view.set_ip_dst(flow.inmate_ep.addr);
    view.set_dst_port(flow.inmate_ep.port);
    gateway_.emit_raw(std::move(bytes));
    return;
  }

  if (view.tcp_has_ack()) note_request_shim_ack(flow, view.tcp_ack());
  // Past the verdict the CS leg is either a REWRITE relay (forwarded by
  // forward_to_inmate) or dead to us.
  if (flow.phase != FlowPhase::kAwaitVerdict) return;

  if (const auto payload = view.payload(); !payload.empty()) {
    // Reassemble the CS stream prefix to extract the response shim.
    flow.cs_in_ooo[view.tcp_seq()].assign(payload.begin(), payload.end());
    for (auto ooo = flow.cs_in_ooo.begin(); ooo != flow.cs_in_ooo.end();) {
      if (seq_lt(flow.cs_in_expected, ooo->first)) break;
      const std::uint32_t overlap = flow.cs_in_expected - ooo->first;
      if (overlap < ooo->second.size()) {
        flow.cs_in_buf.insert(flow.cs_in_buf.end(),
                              ooo->second.begin() + overlap,
                              ooo->second.end());
        flow.cs_in_expected +=
            static_cast<std::uint32_t>(ooo->second.size()) - overlap;
      }
      ooo = flow.cs_in_ooo.erase(ooo);
    }
    process_cs_stream(flow);
    // Ack the CS bytes we consumed on the inmate's behalf (the inmate
    // never sees the shim, so it can never ack it).
    if (flow.phase == FlowPhase::kAwaitVerdict ||
        (flow.phase == FlowPhase::kEstablished && flow.server_is_cs)) {
      emit_tcp(flow.cs_src, flow.server_ep, pkt::kTcpAck,
               flow.inmate_snd_nxt + flow.d_out, flow.cs_in_expected, {});
    }
  } else if (view.tcp_has_ack()) {
    // Pure ACK: keep the inmate's retransmission timers happy.
    emit_tcp({flow.orig_dst.addr, flow.orig_dst.port}, flow.inmate_ep,
             pkt::kTcpAck, view.tcp_seq() + flow.d_in,
             view.tcp_ack() - flow.d_out, {});
  }
}

void SubfarmRouter::note_request_shim_ack(Flow& flow, std::uint32_t ack) {
  if (flow.req_shim_sent && !flow.req_shim_acked &&
      seq_le(flow.inmate_isn + 1 + shim::kRequestShimSize, ack)) {
    flow.req_shim_acked = true;
    shim_rtt_hist_->observe(static_cast<double>(
        (gateway_.loop().now() - flow.req_shim_sent_at).usec));
  }
}

void SubfarmRouter::process_cs_stream(Flow& flow) {
  if (flow.phase != FlowPhase::kAwaitVerdict) return;
  std::size_t consumed = 0;
  auto shim = shim::ResponseShim::parse(flow.cs_in_buf, &consumed);
  if (!shim) return;  // Incomplete; wait for more bytes.
  flow.cs_in_buf.erase(flow.cs_in_buf.begin(),
                       flow.cs_in_buf.begin() +
                           static_cast<std::ptrdiff_t>(consumed));
  // The response shim occupied CS sequence space the inmate never sees.
  flow.d_in = static_cast<std::uint32_t>(
      0 - static_cast<std::uint32_t>(consumed));
  apply_verdict(flow, *shim);

  // Any proxy payload the CS sent right behind the shim (REWRITE).
  if (!flow.cs_in_buf.empty() && flow.phase == FlowPhase::kEstablished &&
      flow.server_is_cs) {
    const std::uint32_t cs_seq =
        flow.cs_in_expected -
        static_cast<std::uint32_t>(flow.cs_in_buf.size());
    flow.bytes_to_inmate += flow.cs_in_buf.size();
    emit_tcp({flow.orig_dst.addr, flow.orig_dst.port}, flow.inmate_ep,
             pkt::kTcpAck | pkt::kTcpPsh, cs_seq + flow.d_in,
             flow.inmate_snd_nxt, flow.cs_in_buf);
    flow.cs_in_buf.clear();
  }
}

void SubfarmRouter::apply_verdict(Flow& flow, const shim::ResponseShim& shim,
                                  std::span<const std::uint8_t> remainder) {
  verdict_resolved(flow);
  flow.verdict = shim.verdict;
  flow.policy_name = shim.policy_name;
  flow.annotation = shim.annotation;
  flow.limit_bytes_per_sec = shim.limit_bytes_per_sec;
  const double latency_us = static_cast<double>(
      (gateway_.loop().now() - flow.created).usec);
  decision_latency_hist_->observe(latency_us);
  decision_latency_by_source_[static_cast<std::size_t>(flow.verdict_source)]
      ->observe(latency_us);
  verdict_counter(shim.verdict).inc();
  maybe_cache_verdict(flow, shim);
  // Link the verdict into the trace archive's flow index: the flow's
  // packets were captured pre-NAT, so the canonical index key is the
  // inmate's original (inmate_ep -> orig_dst) direction.
  trace_.annotate({flow.proto, flow.inmate_ep, flow.orig_dst}, flow.vlan,
                  shim.verdict, shim.policy_name, flow.verdict_source);
  GQ_INFO(kLog, "[%s] vlan %u %s -> %s: %s (%s)", config_.name.c_str(),
          flow.vlan, flow.inmate_ep.str().c_str(),
          flow.orig_dst.str().c_str(), shim::verdict_name(shim.verdict),
          shim.policy_name.c_str());

  const bool tcp = flow.proto == pkt::FlowProto::kTcp;
  switch (shim.verdict) {
    case shim::Verdict::kRewrite:
      flow.phase = FlowPhase::kEstablished;
      // Only a UDP response shim hands its proxy payload over here; the
      // TCP stream's is relayed by process_cs_stream.
      if (!remainder.empty()) {
        flow.bytes_to_inmate += remainder.size();
        emit_udp(flow.orig_dst, flow.inmate_ep, remainder);
      }
      break;
    case shim::Verdict::kDrop:
      flow.phase = FlowPhase::kDenied;
      note_close_due(flow);
      if (tcp && !flow.served_locally()) send_rst_to_cs(flow);
      if (tcp) send_rst_to_inmate(flow);
      break;
    case shim::Verdict::kForward:
    case shim::Verdict::kLimit:
    case shim::Verdict::kRedirect:
    case shim::Verdict::kReflect:
      flow.server_ep = (shim.verdict == shim::Verdict::kForward ||
                        shim.verdict == shim::Verdict::kLimit)
                           ? flow.orig_dst
                           : shim.resp;
      if (shim.verdict == shim::Verdict::kLimit) {
        const double rate = limit_rate_of(shim);
        // Burst must cover at least a couple of MSS-sized segments or the
        // bucket can never admit a full segment at all.
        flow.limiter.emplace(rate, std::max(rate * 2, 4096.0));
      }
      if (tcp)
        start_splice(flow);
      else
        start_udp_relay(flow);
      break;
  }
  report(flow, obs::FarmEvent::Kind::kFlowVerdict);
}

void SubfarmRouter::maybe_cache_verdict(const Flow& flow,
                                        const shim::ResponseShim& shim) {
  // Only genuine CS responses drive the cache; verdicts synthesized
  // locally — fail-closed, cache replays, and policy-table hits — never
  // do (a table hit inserting a cache entry would double-count the
  // local datapaths and let a rule outlive its table via the TTL).
  if (flow.fail_closed || flow.served_locally()) return;
  // Every CS response carries the policy epoch: a bump means the policy
  // set was reconfigured, so everything cached under the old set is
  // invalid — flush before considering this response for insertion.
  on_policy_epoch(shim.policy_epoch);
  if (!gateway_.config().datapath.verdict_cache || !shim.cacheable) return;
  if (shim.verdict == shim::Verdict::kRewrite) {
    // Defence in depth: the CS already refuses to mark REWRITE
    // cacheable. A cached REWRITE would sever the CS's in-path proxy
    // role, so it is never inserted regardless of the shim's flags.
    cache_bypass_ctr_->inc();
    return;
  }
  if (shim.policy_epoch < cache_epoch_) {
    cache_bypass_ctr_->inc();  // Decided under an older policy set.
    return;
  }
  CachedVerdict entry;
  entry.verdict = shim.verdict;
  entry.resp = shim.resp;
  entry.policy_name = shim.policy_name;
  entry.annotation = shim.annotation;
  entry.limit_bytes_per_sec = shim.limit_bytes_per_sec;
  const util::Duration ttl =
      shim.cache_ttl_ms > 0
          ? util::milliseconds(shim.cache_ttl_ms)
          : kVerdictCacheDefaultTtl;
  entry.expires = gateway_.loop().now() + ttl;
  const std::size_t evicted =
      verdict_cache_.insert(flow.proto, flow.vlan, flow.inmate_ep,
                            flow.orig_dst, shim.cache_scope,
                            std::move(entry));
  cache_insert_ctr_->inc();
  if (evicted > 0) cache_evict_ctr_->inc(evicted);
}

void SubfarmRouter::start_splice(Flow& flow) {
  flow.phase = FlowPhase::kSplicing;
  // Locally resolved flows (cache or table) have no CS leg to tear
  // down — and their cs_src was never remapped, so the CS-leg key could
  // name another flow's live entry.
  if (!flow.served_locally()) {
    send_rst_to_cs(flow);
    // Re-home the server-side index from the CS to the actual target.
    server_index_.erase(
        {flow.proto, flow.cs_ep, flow.cs_src});
  }
  const util::Endpoint nat_src = nat_source_for(flow, flow.server_ep);
  server_index_[{flow.proto, flow.server_ep, nat_src}] =
      flows_.at({flow.proto, flow.inmate_ep, flow.orig_dst});
  flow.server_is_cs = false;
  // Dial the target reusing the inmate's ISN so the outbound direction
  // needs no delta at all (buffered payload replays verbatim).
  emit_tcp(nat_src, flow.server_ep, pkt::kTcpSyn, flow.inmate_isn, 0, {});
}

void SubfarmRouter::start_udp_relay(Flow& flow) {
  flow.server_is_cs = false;
  flow.phase = FlowPhase::kEstablished;
  // Same CS-leg caveat as start_splice(): a locally resolved flow was
  // never indexed under its cs_src.
  if (!flow.served_locally())
    server_index_.erase({flow.proto, flow.cs_ep, flow.cs_src});
  const util::Endpoint nat_src = nat_source_for(flow, flow.server_ep);
  server_index_[{flow.proto, flow.server_ep, nat_src}] =
      flows_.at({flow.proto, flow.inmate_ep, flow.orig_dst});
  // Flush everything the inmate sent before the verdict.
  for (auto& payload : flow.udp_buffer)
    emit_udp(nat_src, flow.server_ep, payload);
  flow.udp_buffer.clear();
}

void SubfarmRouter::target_to_inmate(Flow& flow, const pkt::FrameView& view) {
  // The target leg while splicing; once established, forward_to_inmate.
  flow.last_activity = gateway_.loop().now();

  if (view.tcp_rst()) {
    send_rst_to_inmate(flow);
    close_flow(flow);
    return;
  }
  if (!view.tcp_syn()) return;
  if (view.tcp_has_ack()) {
    flow.server_isn = view.tcp_seq();
    flow.server_rcv_next = view.tcp_seq() + 1;
    // The inmate believes the server's ISN is the CS's ISN.
    flow.d_in = flow.cs_isn - flow.server_isn;
    flow.d_out = 0;
    flow.phase = FlowPhase::kEstablished;
    flow.replay_acked = flow.inmate_isn + 1;
    ack_target_syn(flow);
    report(flow, obs::FarmEvent::Kind::kFlowOpen);
    replay_to_target(
        flows_.at({flow.proto, flow.inmate_ep, flow.orig_dst}));
    return;
  }
  ack_target_syn(flow);
}

void SubfarmRouter::ack_target_syn(Flow& flow) {
  emit_tcp(nat_source_for(flow, flow.server_ep), flow.server_ep,
           pkt::kTcpAck, flow.inmate_isn + 1, flow.server_isn + 1, {});
}

void SubfarmRouter::replay_to_target(FlowPtr flow) {
  if (flow->phase != FlowPhase::kEstablished || flow->server_is_cs) return;
  const util::Endpoint nat_src = nat_source_for(*flow, flow->server_ep);
  const auto now = gateway_.loop().now();
  bool outstanding = false;
  bool throttled = false;
  // A LIMIT verdict throttles the replayed prefix too: stop emitting
  // once the bucket is dry and retry on the timer.
  auto admit = [&](std::size_t len) {
    if (!flow->limiter) return true;
    if (flow->limiter->try_consume(now, static_cast<double>(len)))
      return true;
    throttled = true;
    return false;
  };
  // Handle a first entry that starts before replay_acked but extends past.
  if (auto it = flow->replay_buf.begin();
      it != flow->replay_buf.end() && seq_lt(it->first, flow->replay_acked) &&
      admit(it->second.size())) {
    emit_tcp(nat_src, flow->server_ep, pkt::kTcpAck | pkt::kTcpPsh,
             it->first, flow->server_rcv_next, it->second);
    outstanding = true;
  }
  for (auto it = flow->replay_buf.lower_bound(flow->replay_acked);
       it != flow->replay_buf.end() && !throttled; ++it) {
    // Entries fully below replay_acked were erased; partial overlap can
    // only happen at the first entry (handled above).
    if (!admit(it->second.size())) break;
    emit_tcp(nat_src, flow->server_ep, pkt::kTcpAck | pkt::kTcpPsh,
             it->first, flow->server_rcv_next, it->second);
    outstanding = true;
  }
  outstanding = outstanding || throttled;
  if (!outstanding && flow->inmate_fin_seen && !flow->replay_fin_sent) {
    emit_tcp(nat_src, flow->server_ep, pkt::kTcpFin | pkt::kTcpAck,
             flow->inmate_fin_seq, flow->server_rcv_next, {});
    flow->replay_fin_sent = true;
    flow->fin_inmate = true;
    note_close_due(*flow);
  }
  if (outstanding) {
    std::weak_ptr<Flow> weak = flow;
    gateway_.loop().schedule_in(util::milliseconds(500), [this, weak] {
      if (auto f = weak.lock()) replay_to_target(f);
    });
  }
}

void SubfarmRouter::send_rst_to_cs(Flow& flow) {
  emit_tcp(flow.cs_src, flow.cs_ep,
           pkt::kTcpRst | pkt::kTcpAck, flow.inmate_snd_nxt + flow.d_out,
           flow.cs_in_expected, {});
}

void SubfarmRouter::send_rst_to_inmate(Flow& flow) {
  const std::uint32_t seq =
      flow.cs_isn_known ? flow.cs_in_expected + flow.d_in : 0;
  emit_tcp(flow.orig_dst, flow.inmate_ep, pkt::kTcpRst | pkt::kTcpAck, seq,
           flow.inmate_snd_nxt, {});
}

// --- UDP ---------------------------------------------------------------------

void SubfarmRouter::udp_from_inmate(Flow& flow,
                                    std::span<const std::uint8_t> payload) {
  // Before the verdict, and for a UDP REWRITE flow after it; every other
  // established UDP flow rides forward_to_server.
  flow.last_activity = gateway_.loop().now();
  if (flow.phase == FlowPhase::kDenied || flow.phase == FlowPhase::kClosed)
    return;
  if (flow.phase != FlowPhase::kEstablished) {
    flow.udp_buffer.emplace_back(payload.begin(), payload.end());
    if (!flow.req_shim_sent) {
      flow.req_shim_sent = true;
      flow.req_shim_sent_at = flow.last_activity;
    }
  }
  // Shim-prefixed copy to the containment server (§6.2: UDP shims pad
  // the datagram).
  shim::RequestShim shim;
  shim.orig = flow.inmate_ep;
  shim.resp = flow.orig_dst;
  shim.vlan = flow.vlan;
  auto shimmed = shim.encode();
  shimmed.insert(shimmed.end(), payload.begin(), payload.end());
  emit_udp(flow.cs_src, flow.cs_ep, shimmed);
  flow.bytes_to_server += payload.size();
}

void SubfarmRouter::udp_from_server(Flow& flow,
                                    std::span<const std::uint8_t> payload) {
  // Datagram from the CS: response shim (+ optional rewritten payload).
  // Targets' datagrams ride forward_to_inmate.
  flow.last_activity = gateway_.loop().now();
  std::size_t consumed = 0;
  auto shim = shim::ResponseShim::parse(payload, &consumed);
  if (!shim) return;  // Malformed; default-deny.
  if (flow.req_shim_sent && !flow.req_shim_acked) {
    // The CS answered the shim-prefixed datagram: its round trip.
    flow.req_shim_acked = true;
    shim_rtt_hist_->observe(static_cast<double>(
        (flow.last_activity - flow.req_shim_sent_at).usec));
  }
  const auto remainder = payload.subspan(consumed);
  if (flow.phase == FlowPhase::kAwaitVerdict) {
    apply_verdict(flow, *shim, remainder);
  } else if (flow.phase == FlowPhase::kEstablished && !remainder.empty()) {
    flow.bytes_to_inmate += remainder.size();
    emit_udp(flow.orig_dst, flow.inmate_ep, remainder);
  }
}

// --- Nonce relays -------------------------------------------------------------

void SubfarmRouter::on_nonce_frame(std::uint16_t nonce, pkt::FrameView& view,
                                   std::vector<std::uint8_t>& bytes) {
  auto relay_it = nonce_relays_.find(nonce);
  if (relay_it == nonce_relays_.end()) {
    // First packet on this nonce: it must be a SYN from the CS, and the
    // nonce must belong to a REWRITE flow awaiting its outbound leg.
    if (!view.tcp_syn()) return;
    FlowPtr owner;
    for (auto& [key, flow] : flows_) {
      if (flow->nonce_port == nonce &&
          flow->phase == FlowPhase::kEstablished && flow->server_is_cs) {
        owner = flow;
        break;
      }
    }
    if (!owner) {
      GQ_WARN(kLog, "[%s] nonce %u connection without owning flow",
              config_.name.c_str(), nonce);
      return;
    }
    NonceRelay relay;
    relay.cs_ep = {view.ip_src(), view.src_port()};
    relay.nonce = nonce;
    relay.target = owner->orig_dst;
    relay.nat_src = nat_source_for(*owner, owner->orig_dst);
    relay.last_activity = gateway_.loop().now();
    nonce_relays_[nonce] = relay;
    nonce_by_target_key_[{pkt::FlowProto::kTcp, relay.target,
                          relay.nat_src}] = nonce;
    relay_it = nonce_relays_.find(nonce);
  }
  auto& relay = relay_it->second;
  relay.last_activity = gateway_.loop().now();
  // Pure NAT relay toward the target: the CS's fresh connection needs no
  // sequence surgery, only address rewriting.
  view.set_ip_src(relay.nat_src.addr);
  view.set_src_port(relay.nat_src.port);
  view.set_ip_dst(relay.target.addr);
  view.set_dst_port(relay.target.port);
  gateway_.emit_raw(std::move(bytes));
}

// --- Lifecycle -----------------------------------------------------------------

void SubfarmRouter::close_flow(Flow& flow) {
  if (flow.phase == FlowPhase::kClosed) return;
  // A flow torn down while still undecided leaves the pending-verdict
  // queue here (the deadline event must not fire on a dead flow).
  if (flow.phase == FlowPhase::kAwaitVerdict) verdict_resolved(flow);
  flow.phase = FlowPhase::kClosed;
  report(flow, obs::FarmEvent::Kind::kFlowClose);
  if (flow.nonce_port != 0) {
    if (auto it = nonce_relays_.find(flow.nonce_port);
        it != nonce_relays_.end()) {
      nonce_by_target_key_.erase(
          {pkt::FlowProto::kTcp, it->second.target, it->second.nat_src});
      nonce_relays_.erase(it);
    }
    gateway_.release_nonce(flow.nonce_port);
    flow.nonce_port = 0;
  }
  if (!flow.served_locally()) {
    server_index_.erase(
        {flow.proto, flow.cs_ep, flow.cs_src});
  }
  server_index_.erase({flow.proto, flow.server_ep,
                       nat_source_for(flow, flow.server_ep)});
  flows_.erase({flow.proto, flow.inmate_ep, flow.orig_dst});
  active_flows_gauge_->set(static_cast<std::int64_t>(flows_.size()));
  // `flow` may be dangling now if the last shared_ptr lived in the maps;
  // callers must not touch it after close_flow().
}

SubfarmRouter::OpenFlowBytes SubfarmRouter::open_flow_bytes(
    std::uint16_t vlan) const {
  OpenFlowBytes totals;
  for (const auto& [key, flow] : flows_) {
    if (flow->vlan != vlan || flow->phase == FlowPhase::kClosed) continue;
    totals.to_server += flow->bytes_to_server;
    totals.to_inmate += flow->bytes_to_inmate;
  }
  return totals;
}

void SubfarmRouter::note_close_due(const Flow& flow) {
  gc_due_ = std::min(gc_due_, close_due(flow));
}

void SubfarmRouter::gc_sweep() {
  const auto now = gateway_.loop().now();
  // gc_due_ is at or before every flow's close_due, so a sweep that does
  // not pass it would close nothing. A sweep that does walks every flow
  // and rebuilds gc_due_ as the exact minimum over the survivors.
  if (now > gc_due_) {
    gc_due_ = kNever;
    std::vector<FlowPtr> to_close;
    for (auto& [key, flow] : flows_) {
      if (now > close_due(*flow))
        to_close.push_back(flow);
      else
        note_close_due(*flow);
    }
    for (auto& flow : to_close) close_flow(*flow);
  }
  for (auto it = nonce_relays_.begin(); it != nonce_relays_.end();) {
    if (now - it->second.last_activity > kFlowTimeout) {
      nonce_by_target_key_.erase(
          {pkt::FlowProto::kTcp, it->second.target, it->second.nat_src});
      it = nonce_relays_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = inbound_flows_.begin(); it != inbound_flows_.end();) {
    if (now - it->second > kFlowTimeout)
      it = inbound_flows_.erase(it);
    else
      ++it;
  }
  gateway_.loop().schedule_in(util::seconds(5), [this] { gc_sweep(); });
}

}  // namespace gq::gw
