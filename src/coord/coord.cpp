#include "coord/coord.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/contracts.hpp"

namespace esh::coord {

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk:
      return "OK";
    case Status::kNoNode:
      return "NO_NODE";
    case Status::kNodeExists:
      return "NODE_EXISTS";
    case Status::kBadVersion:
      return "BAD_VERSION";
    case Status::kNotEmpty:
      return "NOT_EMPTY";
    case Status::kNoParent:
      return "NO_PARENT";
    case Status::kSessionExpired:
      return "SESSION_EXPIRED";
    case Status::kBadArguments:
      return "BAD_ARGUMENTS";
  }
  return "?";
}

namespace {

std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> parts;
  std::size_t pos = 1;  // skip leading '/'
  while (pos <= path.size()) {
    const std::size_t next = path.find('/', pos);
    if (next == std::string::npos) {
      if (pos < path.size()) parts.push_back(path.substr(pos));
      break;
    }
    parts.push_back(path.substr(pos, next - pos));
    pos = next + 1;
  }
  return parts;
}

}  // namespace

CoordService::CoordService(sim::Simulator& simulator, CoordConfig config)
    : simulator_(simulator), config_(config) {
  expiry_timer_ = std::make_unique<sim::PeriodicTimer>(
      simulator_, config_.session_timeout / 2, [this] { check_session_expiry(); });
}

bool CoordService::valid_path(const std::string& path) {
  if (path.empty() || path.front() != '/') return false;
  if (path.size() > 1 && path.back() == '/') return false;
  if (path.find("//") != std::string::npos) return false;
  return true;
}

CoordService::Node* CoordService::find(const std::string& path) {
  return const_cast<Node*>(std::as_const(*this).find(path));
}

const CoordService::Node* CoordService::find(const std::string& path) const {
  if (!valid_path(path)) return nullptr;
  const Node* node = &root_;
  for (const auto& part : split_path(path)) {
    auto it = node->children.find(part);
    if (it == node->children.end()) return nullptr;
    node = it->second.get();
  }
  return node;
}

CoordService::Node* CoordService::find_parent(const std::string& path,
                                              std::string* leaf_name) {
  if (!valid_path(path) || path == "/") return nullptr;
  const auto parts = split_path(path);
  Node* node = &root_;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    auto it = node->children.find(parts[i]);
    if (it == node->children.end()) return nullptr;
    node = it->second.get();
  }
  *leaf_name = parts.back();
  return node;
}

// ---- sessions --------------------------------------------------------------

SessionId CoordService::create_session() {
  const SessionId id{next_session_++};
  sessions_[id] = Session{simulator_.now(), true, {}};
  return id;
}

void CoordService::ping(SessionId session) {
  auto it = sessions_.find(session);
  if (it != sessions_.end() && it->second.alive) {
    it->second.last_ping = simulator_.now();
  }
}

void CoordService::close_session(SessionId session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end() || !it->second.alive) return;
  expire_session(session);
}

bool CoordService::session_alive(SessionId session) const {
  auto it = sessions_.find(session);
  return it != sessions_.end() && it->second.alive;
}

void CoordService::expire_session(SessionId session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end() || !it->second.alive) return;
  it->second.alive = false;
  // Ephemerals are removed through the mutation pipeline, preserving the
  // commit order relative to in-flight operations.
  auto ephemerals = it->second.ephemerals;
  for (const auto& path : ephemerals) {
    submit_mutation([this, path] { apply_remove(path, -1); });
  }
  it->second.ephemerals.clear();
}

void CoordService::check_session_expiry() {
  const SimTime now = simulator_.now();
  for (auto& [id, session] : sessions_) {
    if (session.alive && now - session.last_ping > config_.session_timeout) {
      expire_session(id);
    }
  }
}

// ---- scheduling ------------------------------------------------------------

void CoordService::submit_mutation(std::function<void()> fn) {
  // Mutations are serialized through the quorum pipeline: each commit takes
  // write_latency and they complete in submission order. Failover pushes
  // the pipeline availability forward.
  const SimTime start = std::max(simulator_.now(), mutation_available_at_);
  const SimTime commit = start + config_.write_latency;
  mutation_available_at_ = commit;
  simulator_.schedule_at(commit, [this, fn = std::move(fn)] {
    ++committed_ops_;
    fn();
  });
}

void CoordService::schedule_read(std::function<void()> fn) {
  simulator_.schedule(config_.read_latency, std::move(fn));
}

void CoordService::inject_leader_failover() {
  mutation_available_at_ = std::max(mutation_available_at_, simulator_.now()) +
                           config_.failover_duration;
}

// ---- watches ---------------------------------------------------------------

void CoordService::fire_data_watches(Node& node, WatchEventType type,
                                     const std::string& path) {
  auto watches = std::move(node.data_watches);
  node.data_watches.clear();
  for (auto& w : watches) {
    simulator_.schedule(config_.read_latency,
                        [w = std::move(w), type, path] {
                          w(WatchEvent{type, path});
                        });
  }
}

void CoordService::fire_child_watches(Node& parent,
                                      const std::string& parent_path) {
  auto watches = std::move(parent.child_watches);
  parent.child_watches.clear();
  for (auto& w : watches) {
    simulator_.schedule(config_.read_latency,
                        [w = std::move(w), parent_path] {
                          w(WatchEvent{WatchEventType::kChildren, parent_path});
                        });
  }
}

void CoordService::fire_create_watches(Node& parent, const std::string& name,
                                       const std::string& full_path) {
  auto it = parent.pending_create_watches.find(name);
  if (it == parent.pending_create_watches.end()) return;
  auto watches = std::move(it->second);
  parent.pending_create_watches.erase(it);
  for (auto& w : watches) {
    simulator_.schedule(config_.read_latency,
                        [w = std::move(w), full_path] {
                          w(WatchEvent{WatchEventType::kCreated, full_path});
                        });
  }
}

// ---- mutations (applied at commit time) ------------------------------------

Status CoordService::apply_create(SessionId session, const std::string& path,
                                  const std::string& data, CreateMode mode,
                                  std::string* created_path) {
  std::string name;
  Node* parent = find_parent(path, &name);
  if (parent == nullptr) return Status::kNoParent;

  std::string final_name = name;
  if (mode == CreateMode::kPersistentSequential ||
      mode == CreateMode::kEphemeralSequential) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%010llu",
                  static_cast<unsigned long long>(parent->sequence_counter++));
    final_name = name + buf;
  }
  if (parent->children.contains(final_name)) return Status::kNodeExists;

  const bool ephemeral = mode == CreateMode::kEphemeral ||
                         mode == CreateMode::kEphemeralSequential;
  auto node = std::make_unique<Node>();
  node->data = data;
  node->stat.version = 0;
  node->stat.czxid = ++zxid_;
  node->stat.mzxid = node->stat.czxid;
  node->stat.ephemeral = ephemeral;
  if (ephemeral) node->owner = session;

  const std::string parent_path =
      path.substr(0, path.size() - name.size() - 1);
  const std::string full_path =
      (parent_path.empty() ? "" : parent_path) + "/" + final_name;

  Node* inserted = node.get();
  parent->children.emplace(final_name, std::move(node));
  if (ephemeral) {
    auto it = sessions_.find(session);
    if (it != sessions_.end()) it->second.ephemerals.push_back(full_path);
  }
  if (created_path != nullptr) *created_path = full_path;

  fire_create_watches(*parent, final_name, full_path);
  fire_data_watches(*inserted, WatchEventType::kCreated, full_path);
  fire_child_watches(*parent, parent_path.empty() ? "/" : parent_path);
  return Status::kOk;
}

Status CoordService::apply_set(const std::string& path,
                               const std::string& data,
                               std::int64_t expected_version, Stat* out) {
  Node* node = find(path);
  if (node == nullptr) return Status::kNoNode;
  if (expected_version >= 0 && node->stat.version != expected_version) {
    return Status::kBadVersion;
  }
  node->data = data;
  ++node->stat.version;
  [[maybe_unused]] const std::int64_t prev_mzxid = node->stat.mzxid;
  node->stat.mzxid = ++zxid_;
  // Zxid ordering (ZooKeeper semantics the recipes rely on): every
  // modification gets a fresh, strictly larger zxid, never below the
  // node's creation zxid.
  ESH_INVARIANT("coord", "zxid-monotonic",
                node->stat.mzxid > prev_mzxid &&
                    node->stat.mzxid >= node->stat.czxid,
                ::esh::contracts::Detail{}
                    .expected(prev_mzxid)
                    .actual(node->stat.mzxid)
                    .note(path));
  if (out != nullptr) {
    *out = node->stat;
    out->num_children = node->children.size();
  }
  fire_data_watches(*node, WatchEventType::kDataChanged, path);
  return Status::kOk;
}

Status CoordService::apply_remove(const std::string& path,
                                  std::int64_t expected_version) {
  std::string name;
  Node* parent = find_parent(path, &name);
  if (parent == nullptr) return Status::kNoNode;
  auto it = parent->children.find(name);
  if (it == parent->children.end()) return Status::kNoNode;
  Node& node = *it->second;
  if (expected_version >= 0 && node.stat.version != expected_version) {
    return Status::kBadVersion;
  }
  if (!node.children.empty()) return Status::kNotEmpty;
  ++zxid_;
  fire_data_watches(node, WatchEventType::kDeleted, path);
  if (node.stat.ephemeral) {
    auto sess = sessions_.find(node.owner);
    if (sess != sessions_.end()) {
      auto& eph = sess->second.ephemerals;
      eph.erase(std::remove(eph.begin(), eph.end(), path), eph.end());
    }
  }
  parent->children.erase(it);
  const std::string parent_path = path.substr(0, path.size() - name.size() - 1);
  fire_child_watches(*parent, parent_path.empty() ? "/" : parent_path);
  return Status::kOk;
}

// ---- public async API ------------------------------------------------------

void CoordService::create(SessionId session, const std::string& path,
                          const std::string& data, CreateMode mode,
                          CreateCallback cb) {
  if (!valid_path(path) || path == "/") {
    schedule_read([cb = std::move(cb), path] { cb(Status::kBadArguments, path); });
    return;
  }
  if (!session_alive(session)) {
    schedule_read(
        [cb = std::move(cb), path] { cb(Status::kSessionExpired, path); });
    return;
  }
  submit_mutation([this, session, path, data, mode, cb = std::move(cb)] {
    std::string created;
    const Status st = apply_create(session, path, data, mode, &created);
    if (cb) cb(st, st == Status::kOk ? created : path);
  });
}

void CoordService::get(SessionId session, const std::string& path,
                       GetCallback cb, WatchCallback watch) {
  schedule_read([this, session, path, cb = std::move(cb),
                 watch = std::move(watch)]() mutable {
    if (!session_alive(session)) {
      cb(Status::kSessionExpired, "", Stat{});
      return;
    }
    Node* node = find(path);
    if (node == nullptr) {
      cb(Status::kNoNode, "", Stat{});
      return;
    }
    if (watch) node->data_watches.push_back(std::move(watch));
    Stat stat = node->stat;
    stat.num_children = node->children.size();
    cb(Status::kOk, node->data, stat);
  });
}

void CoordService::set(SessionId session, const std::string& path,
                       const std::string& data, std::int64_t expected_version,
                       SetCallback cb) {
  if (!session_alive(session)) {
    schedule_read([cb = std::move(cb)] { cb(Status::kSessionExpired, Stat{}); });
    return;
  }
  submit_mutation([this, path, data, expected_version, cb = std::move(cb)] {
    Stat stat;
    const Status st = apply_set(path, data, expected_version, &stat);
    if (cb) cb(st, stat);
  });
}

void CoordService::remove(SessionId session, const std::string& path,
                          std::int64_t expected_version, VoidCallback cb) {
  if (!session_alive(session)) {
    schedule_read([cb = std::move(cb)] { cb(Status::kSessionExpired); });
    return;
  }
  submit_mutation([this, path, expected_version, cb = std::move(cb)] {
    const Status st = apply_remove(path, expected_version);
    if (cb) cb(st);
  });
}

void CoordService::exists(SessionId session, const std::string& path,
                          ExistsCallback cb, WatchCallback watch) {
  schedule_read([this, session, path, cb = std::move(cb),
                 watch = std::move(watch)]() mutable {
    if (!session_alive(session)) {
      cb(Status::kSessionExpired, std::nullopt);
      return;
    }
    Node* node = find(path);
    if (node != nullptr) {
      if (watch) node->data_watches.push_back(std::move(watch));
      Stat stat = node->stat;
      stat.num_children = node->children.size();
      cb(Status::kOk, stat);
      return;
    }
    if (watch) {
      std::string name;
      Node* parent = find_parent(path, &name);
      if (parent != nullptr) {
        parent->pending_create_watches[name].push_back(std::move(watch));
      }
    }
    cb(Status::kNoNode, std::nullopt);
  });
}

void CoordService::get_children(SessionId session, const std::string& path,
                                ChildrenCallback cb, WatchCallback watch) {
  schedule_read([this, session, path, cb = std::move(cb),
                 watch = std::move(watch)]() mutable {
    if (!session_alive(session)) {
      cb(Status::kSessionExpired, {});
      return;
    }
    Node* node = path == "/" ? &root_ : find(path);
    if (node == nullptr) {
      cb(Status::kNoNode, {});
      return;
    }
    if (watch) node->child_watches.push_back(std::move(watch));
    std::vector<std::string> names;
    names.reserve(node->children.size());
    for (const auto& [name, child] : node->children) names.push_back(name);
    cb(Status::kOk, names);
  });
}

// ---- synchronous inspection --------------------------------------------------

bool CoordService::node_exists(const std::string& path) const {
  return path == "/" || find(path) != nullptr;
}

std::optional<std::string> CoordService::read(const std::string& path) const {
  const Node* node = find(path);
  if (node == nullptr) return std::nullopt;
  return node->data;
}

std::vector<std::string> CoordService::children(const std::string& path) const {
  const Node* node = path == "/" ? &root_ : find(path);
  std::vector<std::string> names;
  if (node == nullptr) return names;
  names.reserve(node->children.size());
  for (const auto& [name, child] : node->children) names.push_back(name);
  return names;
}

}  // namespace esh::coord
