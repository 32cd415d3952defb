#include "pubsub/streamhub.hpp"

#include <stdexcept>

namespace esh::pubsub {

std::vector<HostId> spread(const std::vector<HostId>& hosts,
                           std::size_t slices) {
  if (hosts.empty()) {
    throw std::invalid_argument{"spread: no hosts"};
  }
  std::vector<HostId> out;
  out.reserve(slices);
  for (std::size_t i = 0; i < slices; ++i) {
    out.push_back(hosts[i % hosts.size()]);
  }
  return out;
}

StreamHub::StreamHub(engine::Engine& engine, StreamHubParams params)
    : engine_(engine),
      params_(std::move(params)),
      collector_(std::make_shared<DelayCollector>()) {
  if (params_.schemes.empty()) {
    if (!params_.matcher_factory) {
      throw std::invalid_argument{
          "StreamHub: matcher_factory (or schemes) required"};
    }
    // Single-scheme deployment: one M operator serving both payload kinds.
    MatcherSchemeSpec spec;
    spec.op_name = params_.names.m;
    spec.slices = params_.m_slices;
    spec.factory = params_.matcher_factory;
    schemes_.push_back(std::move(spec));
  } else {
    schemes_ = params_.schemes;
    for (const auto& spec : schemes_) {
      if (!spec.factory || spec.slices == 0) {
        throw std::invalid_argument{
            "StreamHub: every scheme needs a factory and slices"};
      }
    }
  }
}

void StreamHub::deploy(const HostAssignment& assignment) {
  if (deployed_) {
    throw std::logic_error{"StreamHub::deploy: already deployed"};
  }
  const OperatorNames& names = params_.names;
  const bool single_scheme = params_.schemes.empty();

  // AP's routing table: one target per scheme; a single scheme accepts
  // both payload kinds.
  std::vector<MatchingTarget> targets;
  for (const auto& spec : schemes_) {
    targets.push_back(MatchingTarget{spec.op_name, spec.slices,
                                     spec.encrypted});
    if (single_scheme) {
      targets.push_back(MatchingTarget{spec.op_name, spec.slices,
                                       !spec.encrypted});
    }
  }

  engine::Topology topology;
  topology.operators.push_back(engine::OperatorSpec{
      names.source, params_.source_slices,
      [names = names, cost = params_.cost](std::size_t) {
        return std::make_unique<SourceHandler>(names, cost);
      }});
  topology.operators.push_back(engine::OperatorSpec{
      names.ap, params_.ap_slices,
      [targets, cost = params_.cost](std::size_t) {
        return std::make_unique<ApHandler>(targets, cost);
      }});
  for (const auto& spec : schemes_) {
    topology.operators.push_back(engine::OperatorSpec{
        spec.op_name, spec.slices,
        [names = names, op = spec.op_name, factory = spec.factory,
         cost = params_.cost](std::size_t index) {
          return std::make_unique<MHandler>(
              names, op, static_cast<std::uint32_t>(index), factory(index),
              cost);
        }});
  }
  topology.operators.push_back(engine::OperatorSpec{
      names.ep, params_.ep_slices,
      [names = names, m = schemes_.front().slices,
       cost = params_.cost](std::size_t) {
        return std::make_unique<EpHandler>(names, m, cost);
      }});
  topology.operators.push_back(engine::OperatorSpec{
      names.sink, params_.sink_slices,
      [collector = collector_](std::size_t) {
        return std::make_unique<SinkHandler>(collector);
      }});
  topology.edges.push_back({names.source, names.ap});
  for (const auto& spec : schemes_) {
    topology.edges.push_back({names.ap, spec.op_name});
    topology.edges.push_back({spec.op_name, names.ep});
  }
  topology.edges.push_back({names.ep, names.sink});

  std::unordered_map<std::string, std::vector<HostId>> placement;
  for (const auto& op : topology.operators) {
    auto it = assignment.find(op.name);
    if (it == assignment.end()) {
      // Scheme operators may share the generic "M" assignment.
      it = assignment.find(names.m);
      if (it == assignment.end()) {
        throw std::invalid_argument{"deploy: missing host assignment for " +
                                    op.name};
      }
    }
    placement[op.name] = spread(it->second, op.slices);
  }
  engine_.deploy(topology, placement);
  deployed_ = true;
}

void StreamHub::subscribe(filter::AnySubscription subscription) {
  const auto key = filter::subscription_id(subscription).value();
  const std::size_t source = key % params_.source_slices;
  engine_.inject(params_.names.source, source,
                 std::make_shared<SubscriptionPayload>(std::move(subscription)));
}

void StreamHub::unsubscribe(SubscriptionId id, bool encrypted) {
  if (params_.schemes.empty()) {
    // Single-scheme deployments accept both kinds on the same operator;
    // match what AP's routing table expects.
    encrypted = schemes_.front().encrypted;
  }
  const std::size_t source = id.value() % params_.source_slices;
  engine_.inject(params_.names.source, source,
                 std::make_shared<UnsubscriptionPayload>(id, encrypted));
}

void StreamHub::publish(filter::AnyPublication publication) {
  const auto key = filter::publication_id(publication).value();
  const std::size_t source = key % params_.source_slices;
  ++pubs_sent_;
  engine_.inject(params_.names.source, source,
                 std::make_shared<PublicationPayload>(
                     std::move(publication), engine_.simulator().now()));
}

std::size_t StreamHub::stored_subscriptions() const {
  std::size_t total = 0;
  auto& engine = const_cast<engine::Engine&>(engine_);
  const auto& cfg = engine.static_config();
  for (const auto& spec : schemes_) {
    const auto& m_op = cfg.operators.at(cfg.index_of(spec.op_name));
    for (SliceId slice : m_op.slices) {
      auto* runtime = engine.slice_runtime(slice);
      if (runtime == nullptr) continue;
      const auto* handler = dynamic_cast<const MHandler*>(&runtime->handler());
      if (handler != nullptr) total += handler->matcher().subscription_count();
    }
  }
  return total;
}

std::vector<SliceId> StreamHub::slices_of(const std::string& op) const {
  const auto& cfg = engine_.static_config();
  return cfg.operators.at(cfg.index_of(op)).slices;
}

std::vector<OperatorId> StreamHub::elastic_operators() const {
  const auto& cfg = engine_.static_config();
  std::vector<OperatorId> out;
  out.push_back(cfg.operators.at(cfg.index_of(params_.names.ap)).id);
  for (const auto& spec : schemes_) {
    out.push_back(cfg.operators.at(cfg.index_of(spec.op_name)).id);
  }
  out.push_back(cfg.operators.at(cfg.index_of(params_.names.ep)).id);
  return out;
}

bool StreamHub::is_elastic_slice(SliceId slice) const {
  const auto& cfg = engine_.static_config();
  const auto& name = cfg.op_of(slice).name;
  if (name == params_.names.ap || name == params_.names.ep) return true;
  for (const auto& spec : schemes_) {
    if (name == spec.op_name) return true;
  }
  return false;
}

}  // namespace esh::pubsub
