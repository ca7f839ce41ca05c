#include "core/plan_cache.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "graph/serialize.hpp"

#if defined(_WIN32)
#include <process.h>
#else
#include <unistd.h>
#endif

namespace brickdl {
namespace {

constexpr const char* kPlanCacheSchema = "brickdl-plan-cache-v1";

u64 fnv1a(const std::string& s) {
  u64 h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool parse_strategy(const std::string& name, Strategy* out) {
  for (Strategy s :
       {Strategy::kPadded, Strategy::kMemoized, Strategy::kVendor}) {
    if (name == strategy_name(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

Status reject(const std::string& detail) {
  return Status(StatusCode::kInvalidGraph, "plan cache: " + detail);
}

/// Typed member lookup; nullptr means the (already recorded) reject applies.
const obs::Json* need(const obs::Json& parent, const char* key,
                      obs::Json::Kind kind, const std::string& where,
                      Status* status) {
  if (!status->ok()) return nullptr;
  const obs::Json* v = parent.find(key);
  const bool ok = v && (v->kind() == kind ||
                        (kind == obs::Json::Kind::kNumber && v->is_number()));
  if (!ok) {
    *status = reject(where + " missing or mistyped key '" + key + "'");
    return nullptr;
  }
  return v;
}

obs::Json dims_to_json(const Dims& d) {
  obs::Json arr = obs::Json::array();
  for (int i = 0; i < d.rank(); ++i) arr.push_back(d[i]);
  return arr;
}

Status dims_from_json(const obs::Json& arr, const std::string& where,
                      Dims* out) {
  if (!arr.is_array() ||
      arr.elements().size() > static_cast<size_t>(Dims::kMaxRank)) {
    return reject(where + " is not a dims array of rank <= " +
                  std::to_string(Dims::kMaxRank));
  }
  Dims d;
  for (const obs::Json& e : arr.elements()) {
    if (!e.is_number() || e.integer() <= 0) {
      return reject(where + " has a non-positive extent");
    }
    d.push_back(e.integer());
  }
  *out = d;
  return Status();
}

Status node_ids_from_json(const obs::Json& arr, const Graph& graph,
                          const std::string& where, std::vector<int>* out) {
  if (!arr.is_array()) return reject(where + " is not an array");
  out->clear();
  out->reserve(arr.elements().size());
  for (const obs::Json& e : arr.elements()) {
    if (!e.is_number()) return reject(where + " has a non-numeric node id");
    const i64 id = e.integer();
    if (id < 0 || id >= graph.num_nodes()) {
      return reject(where + " references node " + std::to_string(id) +
                    " outside the graph (signature collision?)");
    }
    out->push_back(static_cast<int>(id));
  }
  return Status();
}

}  // namespace

std::string graph_signature(const Graph& graph) {
  return hex64(fnv1a(serialize_graph(graph)));
}

i64 graph_rows(const Graph& graph) {
  for (const Node& node : graph.nodes()) {
    if (node.kind == OpKind::kInput && node.out_shape.dims.rank() > 0) {
      return node.out_shape.dims[0];
    }
  }
  return 0;
}

std::string plan_options_fingerprint(const EngineOptions& options) {
  const PartitionOptions& p = options.partition;
  // The *effective* machine: calibration folded in, so calibrated and
  // uncalibrated processes key to different entries.
  const MachineParams m = effective_machine(p);
  std::ostringstream fp;
  fp << "l2_budget=" << p.l2_budget
     << ";delta=" << fmt_double(p.delta_threshold)
     << ";max_layers=" << p.max_layers
     << ";modeled_workers=" << p.modeled_workers
     << ";tau=" << p.brick_model.tau << ";cost_aware=" << p.cost_aware
     << ";force_strategy="
     << (options.force_strategy ? strategy_name(*options.force_strategy)
                                : "none")
     << ";force_brick_side=" << options.force_brick_side
     << ";machine=" << m.line_bytes << "," << m.l2_bytes << "," << m.num_sms
     << "," << fmt_double(m.hbm_bandwidth) << "," << fmt_double(m.t_atomic)
     << "," << fmt_double(m.t_launch) << ","
     << fmt_double(m.flops_per_second) << ","
     << fmt_double(m.tensor_core_flops_per_second);
  return fp.str();
}

std::string PlanCache::entry_path(const Graph& graph,
                                  const EngineOptions& options) const {
  return dir_ + "/plan-" + graph_signature(graph) + "-r" +
         std::to_string(graph_rows(graph)) + "-" +
         hex64(fnv1a(plan_options_fingerprint(options))) + ".json";
}

obs::Json PlanCache::entry_to_json(const Graph& graph,
                                   const EngineOptions& options,
                                   const PlanCacheEntry& entry) {
  obs::Json doc = obs::Json::object();
  doc.set("schema", kPlanCacheSchema);
  doc.set("signature", graph_signature(graph));

  obs::Json g = obs::Json::object();
  g.set("name", graph.name());
  g.set("nodes", static_cast<i64>(graph.num_nodes()));
  g.set("rows", graph_rows(graph));
  doc.set("graph", std::move(g));

  doc.set("options_fingerprint", plan_options_fingerprint(options));

  obs::Json subgraphs = obs::Json::array();
  for (const PlannedSubgraph& planned : entry.partition.subgraphs) {
    obs::Json s = obs::Json::object();
    obs::Json nodes = obs::Json::array();
    for (int n : planned.sg.nodes) nodes.push_back(n);
    s.set("nodes", std::move(nodes));
    obs::Json ext = obs::Json::array();
    for (int n : planned.sg.external_inputs) ext.push_back(n);
    s.set("external_inputs", std::move(ext));
    s.set("merged", planned.sg.merged);
    s.set("strategy", std::string(strategy_name(planned.strategy)));
    s.set("brick_extent", dims_to_json(planned.brick_extent));
    s.set("brick_side", planned.brick_side);
    s.set("rho", planned.rho);
    s.set("delta", planned.delta);
    s.set("footprint_bytes", planned.footprint_bytes);
    subgraphs.push_back(std::move(s));
  }
  doc.set("subgraphs", std::move(subgraphs));

  if (entry.calibration) doc.set("calibration", entry.calibration->to_json());
  return doc;
}

Result<PlanCacheEntry> PlanCache::entry_from_json(const obs::Json& doc,
                                                  const Graph& graph,
                                                  const EngineOptions& options) {
  if (!doc.is_object()) return reject("root is not an object");

  Status status;
  const obs::Json* schema =
      need(doc, "schema", obs::Json::Kind::kString, "root", &status);
  if (schema && schema->str() != kPlanCacheSchema) {
    return Status(StatusCode::kUnknownSchema,
                  "plan cache: unknown schema '" + schema->str() +
                      "' (expected '" + kPlanCacheSchema + "')");
  }
  const obs::Json* signature =
      need(doc, "signature", obs::Json::Kind::kString, "root", &status);
  const obs::Json* g =
      need(doc, "graph", obs::Json::Kind::kObject, "root", &status);
  const obs::Json* nodes_j =
      g ? need(*g, "nodes", obs::Json::Kind::kNumber, "graph", &status)
        : nullptr;
  const obs::Json* rows_j =
      g ? need(*g, "rows", obs::Json::Kind::kNumber, "graph", &status)
        : nullptr;
  const obs::Json* fp = need(doc, "options_fingerprint",
                             obs::Json::Kind::kString, "root", &status);
  const obs::Json* subgraphs =
      need(doc, "subgraphs", obs::Json::Kind::kArray, "root", &status);
  if (!status.ok()) return status;

  // The filename already encodes key identity, but the file content is
  // untrusted: a renamed, copied, or hash-colliding entry must not smuggle a
  // plan for a different graph or different planning knobs past validation.
  if (signature->str() != graph_signature(graph)) {
    return reject("stored signature " + signature->str() +
                  " does not match the graph in hand (signature collision)");
  }
  if (nodes_j->integer() != graph.num_nodes()) {
    return reject("stored graph has " + std::to_string(nodes_j->integer()) +
                  " nodes, graph in hand has " +
                  std::to_string(graph.num_nodes()));
  }
  if (rows_j->integer() != graph_rows(graph)) {
    return reject("stored rows " + std::to_string(rows_j->integer()) +
                  " do not match graph rows " +
                  std::to_string(graph_rows(graph)));
  }
  if (fp->str() != plan_options_fingerprint(options)) {
    return reject("stored options fingerprint does not match this process");
  }

  PlanCacheEntry entry;
  std::vector<bool> covered(static_cast<size_t>(graph.num_nodes()), false);
  size_t index = 0;
  for (const obs::Json& s : subgraphs->elements()) {
    const std::string where = "subgraph " + std::to_string(index++);
    if (!s.is_object()) return reject(where + " is not an object");
    const obs::Json* nodes =
        need(s, "nodes", obs::Json::Kind::kArray, where, &status);
    const obs::Json* ext =
        need(s, "external_inputs", obs::Json::Kind::kArray, where, &status);
    const obs::Json* merged =
        need(s, "merged", obs::Json::Kind::kBool, where, &status);
    const obs::Json* strategy_j =
        need(s, "strategy", obs::Json::Kind::kString, where, &status);
    const obs::Json* extent_j =
        need(s, "brick_extent", obs::Json::Kind::kArray, where, &status);
    const obs::Json* side_j =
        need(s, "brick_side", obs::Json::Kind::kNumber, where, &status);
    const obs::Json* rho_j =
        need(s, "rho", obs::Json::Kind::kNumber, where, &status);
    const obs::Json* delta_j =
        need(s, "delta", obs::Json::Kind::kNumber, where, &status);
    const obs::Json* footprint_j =
        need(s, "footprint_bytes", obs::Json::Kind::kNumber, where, &status);
    if (!status.ok()) return status;

    PlannedSubgraph planned;
    BDL_RETURN_IF_ERROR(node_ids_from_json(*nodes, graph, where + ".nodes",
                                           &planned.sg.nodes));
    if (planned.sg.nodes.empty()) return reject(where + " has no nodes");
    BDL_RETURN_IF_ERROR(node_ids_from_json(
        *ext, graph, where + ".external_inputs", &planned.sg.external_inputs));
    planned.sg.merged = merged->boolean();
    if (!parse_strategy(strategy_j->str(), &planned.strategy)) {
      return reject(where + " has unknown strategy '" + strategy_j->str() +
                    "'");
    }
    BDL_RETURN_IF_ERROR(dims_from_json(*extent_j, where + ".brick_extent",
                                       &planned.brick_extent));
    if (planned.sg.merged && planned.brick_extent.rank() == 0) {
      return reject(where + " is merged but has no brick extent");
    }
    planned.brick_side = side_j->integer();
    if (planned.brick_side < 0) {
      return reject(where + " has negative brick_side");
    }
    planned.rho = rho_j->number();
    planned.delta = delta_j->number();
    planned.footprint_bytes = footprint_j->integer();

    int prev = -1;
    for (int n : planned.sg.nodes) {
      if (graph.node(n).kind == OpKind::kInput) {
        return reject(where + " contains input node " + std::to_string(n));
      }
      if (n <= prev) {
        return reject(where + " nodes are not in topological order");
      }
      prev = n;
      if (covered[static_cast<size_t>(n)]) {
        return reject("node " + std::to_string(n) +
                      " appears in more than one subgraph");
      }
      covered[static_cast<size_t>(n)] = true;
    }
    entry.partition.subgraphs.push_back(std::move(planned));
  }

  for (const Node& node : graph.nodes()) {
    if (node.kind == OpKind::kInput) continue;
    if (!covered[static_cast<size_t>(node.id)]) {
      return reject("node '" + node.name + "' (id " +
                    std::to_string(node.id) + ") is not covered by any " +
                    "subgraph (signature collision?)");
    }
  }

  if (const obs::Json* cal = doc.find("calibration")) {
    // The snapshot is stored as bare constants (the fingerprint already
    // proves they match this process); validate shape and positivity.
    obs::CalibratedConstants c;
    auto member = [&](const char* key, double* out) -> Status {
      const obs::Json* v = cal->find(key);
      if (!v || !v->is_number()) {
        return reject(std::string("calibration.") + key +
                      " missing or mistyped");
      }
      *out = v->number();
      return Status();
    };
    BDL_RETURN_IF_ERROR(member("effective_bandwidth", &c.effective_bandwidth));
    BDL_RETURN_IF_ERROR(member("t_atomic", &c.t_atomic));
    BDL_RETURN_IF_ERROR(member("t_launch", &c.t_launch));
    BDL_RETURN_IF_ERROR(member("flops_per_second", &c.flops_per_second));
    BDL_RETURN_IF_ERROR(member("tensor_core_flops_per_second",
                               &c.tensor_core_flops_per_second));
    BDL_RETURN_IF_ERROR(member("wall_scale", &c.wall_scale));
    if (!c.valid()) return reject("calibration constants are not positive");
    entry.calibration = c;
  }
  return entry;
}

PlanCacheLookup PlanCache::load(const Graph& graph,
                                const EngineOptions& options) const {
  PlanCacheLookup lookup;
  const std::string path = entry_path(graph, options);

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    lookup.outcome = PlanCacheLookup::Outcome::kMiss;
    return lookup;
  }
  std::ostringstream text;
  text << in.rdbuf();
  if (!in.good() && !in.eof()) {
    lookup.outcome = PlanCacheLookup::Outcome::kReject;
    lookup.reject_reason = reject("failed to read '" + path + "'");
    return lookup;
  }

  // Truncated or otherwise corrupt bytes fail here, with the parse error
  // carried as the reject reason — never an exception.
  Result<obs::Json> doc = obs::Json::parse(text.str());
  if (!doc.ok()) {
    lookup.outcome = PlanCacheLookup::Outcome::kReject;
    lookup.reject_reason =
        reject("unparseable entry '" + path + "': " +
               doc.status().message());
    return lookup;
  }

  Result<PlanCacheEntry> entry = entry_from_json(doc.value(), graph, options);
  if (!entry.ok()) {
    lookup.outcome = PlanCacheLookup::Outcome::kReject;
    lookup.reject_reason = entry.status();
    return lookup;
  }
  lookup.outcome = PlanCacheLookup::Outcome::kHit;
  lookup.entry = entry.take();
  return lookup;
}

Status PlanCache::store(const Graph& graph, const EngineOptions& options,
                        const PlanCacheEntry& entry) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status(StatusCode::kInvalidOptions,
                  "plan cache: cannot create directory '" + dir_ +
                      "': " + ec.message());
  }

  const std::string path = entry_path(graph, options);
  // Unique per (process, store call): concurrent writers each publish their
  // own tmp file and the final rename is atomic, so readers only ever see a
  // complete entry. Last writer wins, and all writers write identical bytes
  // for identical keys (planning is deterministic).
  static std::atomic<u64> counter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(getpid())) + "." +
      std::to_string(counter.fetch_add(1, std::memory_order_relaxed));

  const std::string text = entry_to_json(graph, options, entry).dump(1) + "\n";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out.good()) {
      std::filesystem::remove(tmp, ec);
      return Status(StatusCode::kInvalidOptions,
                    "plan cache: failed to write '" + tmp + "'");
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return Status(StatusCode::kInvalidOptions,
                  "plan cache: failed to publish '" + path + "'");
  }
  return Status();
}

}  // namespace brickdl
