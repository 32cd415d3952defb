#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/contracts.hpp"

namespace esh::net {

namespace {

void check_probability(double p, const char* what) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument{std::string{what} +
                                ": probability not in [0,1]"};
  }
}

}  // namespace

Network::Network(sim::Simulator& simulator, NetworkConfig config)
    : simulator_(simulator),
      config_(config),
      loss_rng_(config.loss_seed),
      dup_rng_(config.inject_seed ^ 0x6475'706c'6963ULL),
      reorder_rng_(config.inject_seed ^ 0x7265'6f72'6465ULL),
      corrupt_rng_(config.inject_seed ^ 0x636f'7272'7570ULL) {
  if (config_.bytes_per_us <= 0.0) {
    throw std::invalid_argument{"Network: bandwidth must be positive"};
  }
}

Endpoint Network::new_endpoint() { return Endpoint{next_endpoint_++}; }

void Network::bind(Endpoint endpoint, HostId host, DeliveryHandler handler) {
  if (!endpoint.valid() || !host.valid()) {
    throw std::invalid_argument{"Network::bind: invalid endpoint or host"};
  }
  auto [it, inserted] =
      bindings_.try_emplace(endpoint, Binding{host, std::move(handler), 0});
  if (!inserted) {
    throw std::logic_error{"Network::bind: endpoint already bound"};
  }
}

void Network::rebind(Endpoint endpoint, HostId new_host,
                     DeliveryHandler handler) {
  auto it = bindings_.find(endpoint);
  if (it == bindings_.end()) {
    throw std::logic_error{"Network::rebind: endpoint not bound"};
  }
  it->second.host = new_host;
  it->second.handler = std::move(handler);
  ++it->second.generation;
}

void Network::unbind(Endpoint endpoint) {
  if (bindings_.erase(endpoint) == 0) {
    throw std::logic_error{"Network::unbind: endpoint not bound"};
  }
}

bool Network::bound(Endpoint endpoint) const {
  return bindings_.contains(endpoint);
}

HostId Network::host_of(Endpoint endpoint) const {
  auto it = bindings_.find(endpoint);
  if (it == bindings_.end()) {
    throw std::logic_error{"Network::host_of: endpoint not bound"};
  }
  return it->second.host;
}

double Network::loss_for(HostId src, HostId dst) const {
  if (auto it = link_loss_.find({src, dst}); it != link_loss_.end()) {
    return it->second;
  }
  if (auto it = host_loss_.find(dst); it != host_loss_.end()) {
    return it->second;
  }
  return loss_probability_;
}

void Network::send(Endpoint from, Endpoint to, MessagePtr message,
                   std::size_t payload_bytes) {
  ++stats_.messages_sent;
  const std::size_t bytes = payload_bytes + config_.overhead_bytes;
  stats_.bytes_sent += bytes;

  const auto from_it = bindings_.find(from);
  const auto to_it = bindings_.find(to);
  if (from_it == bindings_.end() || to_it == bindings_.end()) {
    ++stats_.messages_dropped;
    return;
  }
  const HostId src_host = from_it->second.host;
  const HostId dst_host = to_it->second.host;
  const std::uint64_t dst_generation = to_it->second.generation;
  if (down_hosts_.contains(src_host) || down_hosts_.contains(dst_host)) {
    ++stats_.messages_dropped;
    return;
  }

  // Named partitions: decided at send time, after routing resolved, like
  // the loss stage below — a partition is loss you can point at.
  if (!partitions_.empty()) {
    for (const auto& [name, part] : partitions_) {
      if (part.separates(src_host, dst_host)) {
        ++stats_.messages_lost;
        ++stats_.messages_partitioned;
        return;
      }
    }
  }

  // Probabilistic loss: decided at send time, after routing resolved, so
  // the counter is disjoint from down-host/unbound drops. Precedence:
  // per-link overrides per-destination-host overrides global.
  if (loss_probability_ > 0.0 || !host_loss_.empty() || !link_loss_.empty()) {
    const double p = loss_for(src_host, dst_host);
    if (p > 0.0 && loss_rng_.next_double() < p) {
      ++stats_.messages_lost;
      return;
    }
  }

  // Duplication: decided once per surviving message; the copy follows the
  // same route with a small seeded extra delay so it arrives strictly
  // after (or reordered against) the original.
  bool duplicate = false;
  SimDuration copy_extra{};
  if (duplication_probability_ > 0.0) {
    duplicate = dup_rng_.next_double() < duplication_probability_;
    if (duplicate) {
      const auto span =
          static_cast<std::uint64_t>(config_.latency.count()) + 1;
      copy_extra = micros(static_cast<std::int64_t>(dup_rng_.next_below(span)));
      ++stats_.messages_duplicated;
    }
  }

  SimTime delivery_time{};
  double degrade = 1.0;
  if (auto it = host_degradation_.find(src_host);
      it != host_degradation_.end()) {
    degrade = std::max(degrade, it->second);
  }
  if (auto it = host_degradation_.find(dst_host);
      it != host_degradation_.end()) {
    degrade = std::max(degrade, it->second);
  }
  if (auto it = link_degradation_.find({src_host, dst_host});
      it != link_degradation_.end()) {
    degrade = std::max(degrade, it->second);
  }
  if (src_host == dst_host) {
    const auto local_us = static_cast<std::int64_t>(
        static_cast<double>(config_.local_latency.count()) * degrade);
    delivery_time = simulator_.now() + micros(local_us);
  } else {
    // NIC egress serialization: messages leave the host one after another.
    // A gray-degraded sender (or receiver) transmits slower by the factor.
    SimTime& busy_until = nic_busy_until_[src_host];
    const SimTime tx_start = std::max(simulator_.now(), busy_until);
    const auto tx_us = static_cast<std::int64_t>(
        static_cast<double>(bytes) / config_.bytes_per_us * degrade);
    // Bandwidth never negative: a negative transmit time would move the
    // NIC's busy horizon backwards and let later sends overtake this one.
    ESH_INVARIANT("net", "nic-transmit-nonnegative", tx_us >= 0,
                  ::esh::contracts::Detail{}
                      .host(src_host)
                      .expected("tx_us >= 0")
                      .actual(tx_us)
                      .note(std::to_string(bytes) + " bytes"));
    const SimTime tx_end = tx_start + micros(tx_us);
    ESH_INVARIANT("net", "nic-egress-serialized", tx_end >= busy_until,
                  ::esh::contracts::Detail{}
                      .host(src_host)
                      .expected(busy_until)
                      .actual(tx_end)
                      .note("egress horizon moved backwards"));
    busy_until = tx_end;
    const auto lat_us = static_cast<std::int64_t>(
        static_cast<double>(config_.latency.count()) * degrade);
    delivery_time = tx_end + micros(lat_us);
  }

  // Corruption and reordering are per transmitted copy: the duplicate
  // rolls its own dice, so an intact original may arrive with a corrupted
  // twin and vice versa. Draw order (original first, then the copy) is
  // fixed so the streams stay deterministic.
  const std::size_t copies = duplicate ? 2 : 1;
  for (std::size_t i = 0; i < copies; ++i) {
    SimTime when = delivery_time + (i == 0 ? SimDuration{} : copy_extra);
    bool corrupted = false;
    if (corruption_probability_ > 0.0 &&
        corrupt_rng_.next_double() < corruption_probability_) {
      corrupted = true;
      ++stats_.messages_corrupted;
    }
    if (reorder_probability_ > 0.0 && reorder_window_ > SimDuration::zero() &&
        reorder_rng_.next_double() < reorder_probability_) {
      const auto span =
          static_cast<std::uint64_t>(reorder_window_.count());
      when = when +
             micros(static_cast<std::int64_t>(reorder_rng_.next_below(span)) +
                    1);
      ++stats_.messages_reordered;
    }
    schedule_delivery(from, to, dst_host, dst_generation, message, bytes,
                      when, corrupted);
  }
}

void Network::schedule_delivery(Endpoint from, Endpoint to, HostId dst_host,
                                std::uint64_t dst_generation,
                                MessagePtr message, std::size_t bytes,
                                SimTime when, bool corrupted) {
  auto deliver = [this, from, to, dst_host, dst_generation,
                  message = std::move(message), bytes, corrupted]() mutable {
    auto it = bindings_.find(to);
    // Deliver only if the endpoint still lives where the message was
    // routed (generation check catches unbind+rebind races).
    if (it == bindings_.end() || it->second.host != dst_host ||
        it->second.generation != dst_generation ||
        down_hosts_.contains(dst_host)) {
      ++stats_.messages_dropped;
      return;
    }
    ++stats_.messages_delivered;
    // Conservation: every sent message (plus every injected duplicate)
    // is delivered, dropped, or lost exactly once (some are still in
    // flight, hence <=).
    ESH_INVARIANT("net", "message-conservation",
                  stats_.messages_delivered + stats_.messages_dropped +
                          stats_.messages_lost <=
                      stats_.messages_sent + stats_.messages_duplicated,
                  ::esh::contracts::Detail{}
                      .expected(stats_.messages_sent +
                                stats_.messages_duplicated)
                      .actual(stats_.messages_delivered +
                              stats_.messages_dropped +
                              stats_.messages_lost));
    it->second.handler(
        Delivery{from, to, std::move(message), bytes, corrupted});
  };
  static_assert(sim::Callback::stores_inline<decltype(deliver)>);
  simulator_.schedule_at(when, std::move(deliver));
}

void Network::set_host_down(HostId host, bool down) {
  if (down) {
    down_hosts_.insert(host);
  } else {
    down_hosts_.erase(host);
  }
}

bool Network::host_down(HostId host) const {
  return down_hosts_.contains(host);
}

void Network::set_loss(double probability) {
  check_probability(probability, "Network::set_loss");
  loss_probability_ = probability;
}

void Network::set_host_loss(HostId dst, double probability) {
  check_probability(probability, "Network::set_host_loss");
  host_loss_[dst] = probability;
}

void Network::clear_host_loss(HostId dst) { host_loss_.erase(dst); }

void Network::set_link_loss(HostId src, HostId dst, double probability) {
  check_probability(probability, "Network::set_link_loss");
  link_loss_[{src, dst}] = probability;
}

void Network::clear_link_loss(HostId src, HostId dst) {
  link_loss_.erase({src, dst});
}

void Network::set_duplication(double probability) {
  check_probability(probability, "Network::set_duplication");
  duplication_probability_ = probability;
}

void Network::set_reorder(double probability, SimDuration window) {
  check_probability(probability, "Network::set_reorder");
  if (probability > 0.0 && window <= SimDuration::zero()) {
    throw std::invalid_argument{"Network::set_reorder: window must be > 0"};
  }
  reorder_probability_ = probability;
  reorder_window_ = window;
}

void Network::set_corruption(double probability) {
  check_probability(probability, "Network::set_corruption");
  corruption_probability_ = probability;
}

void Network::set_host_degradation(HostId host, double latency_factor) {
  if (latency_factor < 1.0) {
    throw std::invalid_argument{
        "Network::set_host_degradation: factor must be >= 1"};
  }
  if (latency_factor == 1.0) {
    host_degradation_.erase(host);
  } else {
    host_degradation_[host] = latency_factor;
  }
}

void Network::clear_host_degradation(HostId host) {
  host_degradation_.erase(host);
}

double Network::host_degradation(HostId host) const {
  auto it = host_degradation_.find(host);
  return it == host_degradation_.end() ? 1.0 : it->second;
}

void Network::set_link_degradation(HostId src, HostId dst,
                                   double latency_factor) {
  if (latency_factor < 1.0) {
    throw std::invalid_argument{
        "Network::set_link_degradation: factor must be >= 1"};
  }
  if (latency_factor == 1.0) {
    link_degradation_.erase({src, dst});
  } else {
    link_degradation_[{src, dst}] = latency_factor;
  }
}

void Network::clear_link_degradation(HostId src, HostId dst) {
  link_degradation_.erase({src, dst});
}

void Network::partition(const std::string& name,
                        const std::vector<HostId>& group_a,
                        const std::vector<HostId>& group_b) {
  if (group_a.empty() || group_b.empty()) {
    throw std::invalid_argument{"Network::partition: empty group"};
  }
  Partition part;
  part.group_a.insert(group_a.begin(), group_a.end());
  part.group_b.insert(group_b.begin(), group_b.end());
  for (HostId host : part.group_a) {
    if (part.group_b.contains(host)) {
      throw std::invalid_argument{
          "Network::partition: groups must be disjoint"};
    }
  }
  partitions_[name] = std::move(part);
}

void Network::heal(const std::string& name) {
  if (partitions_.erase(name) == 0) {
    throw std::invalid_argument{"Network::heal: unknown partition"};
  }
}

void Network::heal_all() { partitions_.clear(); }

bool Network::partitioned(HostId a, HostId b) const {
  for (const auto& [name, part] : partitions_) {
    if (part.separates(a, b)) return true;
  }
  return false;
}

}  // namespace esh::net
