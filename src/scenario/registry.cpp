// Registry contents: every protocol, strategy and workload the experiment
// layer can name. This file owns the instantiation knowledge that used to
// be spread over switch statements in runtime/cluster.cpp (make_protocol,
// protocol_label) and causal/strategy_factory.cpp (make_strategy) — those
// entry points now resolve through the tables below, so adding a protocol,
// strategy or workload is one registration here plus its implementation.
#include "scenario/registry.hpp"

#include "causal/causal_protocol.hpp"
#include "causal/logon_strategy.hpp"
#include "causal/manetho_strategy.hpp"
#include "causal/vcausal_strategy.hpp"
#include "coord/coordinated_protocol.hpp"
#include "ftapi/vprotocol.hpp"
#include "pessimist/pessimistic_protocol.hpp"
#include "replica/replica_protocol.hpp"
#include "ulfm/ulfm_protocol.hpp"
#include "util/check.hpp"
#include "workloads/apps.hpp"
#include "workloads/nas.hpp"

namespace mpiv::scenario {

namespace {

std::vector<std::uint64_t> parse_size_list(const std::string& csv) {
  std::vector<std::uint64_t> sizes;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    std::string tok = csv.substr(pos, comma - pos);
    // Trim spaces; accept k/m suffixes (bytes).
    std::size_t b = tok.find_first_not_of(" \t");
    std::size_t e = tok.find_last_not_of(" \t");
    if (b == std::string::npos) {
      pos = comma + 1;
      continue;
    }
    tok = tok.substr(b, e - b + 1);
    std::uint64_t mult = 1;
    char suffix = tok.back();
    if (suffix == 'k' || suffix == 'K') mult = 1024;
    if (suffix == 'm' || suffix == 'M') mult = 1024 * 1024;
    if (mult != 1) tok.pop_back();
    try {
      sizes.push_back(std::stoull(tok) * mult);
    } catch (const std::exception&) {
      throw SpecError("bad size list element '" + tok + "' in '" + csv + "'");
    }
    pos = comma + 1;
  }
  if (sizes.empty()) throw SpecError("empty message-size list '" + csv + "'");
  return sizes;
}

workloads::NasKernel parse_nas_kernel(const std::string& s) {
  using workloads::NasKernel;
  if (s == "bt") return NasKernel::kBT;
  if (s == "cg") return NasKernel::kCG;
  if (s == "lu") return NasKernel::kLU;
  if (s == "ft") return NasKernel::kFT;
  if (s == "mg") return NasKernel::kMG;
  if (s == "sp") return NasKernel::kSP;
  throw SpecError("unknown NAS kernel '" + s +
                  "' (registered: bt, cg, lu, ft, mg, sp)");
}

workloads::NasClass parse_nas_class(const std::string& s) {
  using workloads::NasClass;
  if (s == "S" || s == "s") return NasClass::kS;
  if (s == "W" || s == "w") return NasClass::kW;
  if (s == "A" || s == "a") return NasClass::kA;
  if (s == "B" || s == "b") return NasClass::kB;
  throw SpecError("unknown NAS class '" + s + "' (registered: S, W, A, B)");
}

workloads::NasConfig nas_config(const ScenarioSpec& spec) {
  workloads::NasConfig ncfg;
  ncfg.kernel = parse_nas_kernel(spec.workload.get_str("kernel", "cg"));
  ncfg.klass = parse_nas_class(spec.workload.get_str("class", "A"));
  ncfg.nranks = spec.nranks;
  ncfg.scale = spec.workload.get_double("scale", 1.0);
  return ncfg;
}

bool always_valid(const ScenarioSpec&, std::string*) { return true; }

bool two_or_more_ranks(const ScenarioSpec& spec, std::string* why) {
  if (spec.nranks >= 2) return true;
  if (why) *why = "pingpong needs at least 2 ranks";
  return false;
}

bool nas_ranks_valid(const ScenarioSpec& spec, std::string* why) {
  const workloads::NasConfig ncfg = nas_config(spec);
  if (workloads::nas_valid_nranks(ncfg.kernel, ncfg.nranks)) return true;
  if (why) {
    *why = std::string(workloads::nas_kernel_name(ncfg.kernel)) +
           " does not support " + std::to_string(ncfg.nranks) +
           " ranks (BT/SP: squares; others: powers of two)";
  }
  return false;
}

template <class P>
std::unique_ptr<ftapi::VProtocol> make_plain(const runtime::ClusterConfig&) {
  return std::make_unique<P>();
}

}  // namespace

Registry<ProtocolEntry>& protocols() {
  using net::ChannelKind;
  using runtime::ProtocolKind;
  using runtime::RecoveryMode;
  static Registry<ProtocolEntry>* reg = [] {
    auto* r = new Registry<ProtocolEntry>("protocol");
    // Fields: kind, name, display, summary, fault_tolerant, causal,
    // channel, recovery, global_waves, make.
    for (const ProtocolEntry& e : std::initializer_list<ProtocolEntry>{
             {ProtocolKind::kP4, "p4", "MPICH-P4",
              "MPICH-P4 reference: direct channel, no fault tolerance", false,
              false, ChannelKind::kP4, RecoveryMode::kRestart, false,
              make_plain<ftapi::Vdummy>},
             {ProtocolKind::kVdummy, "vdummy", "MPICH-Vdummy",
              "MPICH-V framework without fault tolerance", false, false,
              ChannelKind::kV, RecoveryMode::kRestart, false,
              make_plain<ftapi::Vdummy>},
             {ProtocolKind::kCausal, "causal", "causal",
              "causal message logging (strategy selects the reduction)", true,
              true, ChannelKind::kV, RecoveryMode::kRestart, false,
              [](const runtime::ClusterConfig& cfg)
                  -> std::unique_ptr<ftapi::VProtocol> {
                return std::make_unique<causal::CausalProtocol>(
                    cfg.variant.strategy, cfg.variant.event_logger,
                    cfg.payload_at_sender);
              }},
             {ProtocolKind::kPessimistic, "pessimistic", "Pessimistic",
              "MPICH-V2-style pessimistic logging", true, false,
              ChannelKind::kV, RecoveryMode::kRestart, false,
              make_plain<pessimist::PessimisticProtocol>},
             {ProtocolKind::kCoordinated, "coordinated",
              "Coordinated (Chandy-Lamport)",
              "Chandy-Lamport coordinated checkpointing", true, false,
              ChannelKind::kV, RecoveryMode::kCoordinated, true,
              make_plain<coord::CoordinatedProtocol>},
             {ProtocolKind::kReplica, "replica", "Replica hybrid",
              "replication hybrid: hot shadow absorbs the crash, no rollback",
              true, false, ChannelKind::kV, RecoveryMode::kPromote, false,
              [](const runtime::ClusterConfig& cfg)
                  -> std::unique_ptr<ftapi::VProtocol> {
                return std::make_unique<replica::ReplicaProtocol>(
                    cfg.replica_sync_interval);
              }},
             {ProtocolKind::kUlfm, "ulfm", "ULFM shrink-and-repair",
              "ULFM-style shrink-and-repair: survivors rebuild and continue",
              true, false, ChannelKind::kV, RecoveryMode::kShrink, false,
              make_plain<ulfm::UlfmProtocol>},
         }) {
      r->add(e.name, e);
    }
    return r;
  }();
  return *reg;
}

Registry<StrategyEntry>& strategies() {
  static Registry<StrategyEntry>* reg = [] {
    auto* r = new Registry<StrategyEntry>("strategy");
    r->add("vcausal",
           {causal::StrategyKind::kVcausal, "Vcausal",
            "plain per-creator sequences, append-only",
            []() -> std::unique_ptr<causal::Strategy> {
              return std::make_unique<causal::VcausalStrategy>();
            }});
    r->add("manetho",
           {causal::StrategyKind::kManetho, "Manetho",
            "antecedence graph, transitive reduction on receive",
            []() -> std::unique_ptr<causal::Strategy> {
              return std::make_unique<causal::ManethoStrategy>();
            }});
    r->add("logon",
           {causal::StrategyKind::kLogOn, "LogOn",
            "partial-order log, reordering on send",
            []() -> std::unique_ptr<causal::Strategy> {
              return std::make_unique<causal::LogOnStrategy>();
            }});
    return r;
  }();
  return *reg;
}

Registry<WorkloadEntry>& workload_registry() {
  static Registry<WorkloadEntry>* reg = [] {
    auto* r = new Registry<WorkloadEntry>("workload");
    r->add("ring",
           {"token ring with order-sensitive checksum (params: laps, bytes)",
            {"laps", "bytes"},
            always_valid,
            [](const ScenarioSpec& spec) {
              WorkloadInstance w;
              w.checksums =
                  std::make_shared<workloads::ChecksumResult>(spec.nranks);
              w.app = workloads::make_ring_app(
                  static_cast<int>(spec.workload.get_int("laps", 40)),
                  spec.workload.get_u64("bytes", 4096), w.checksums);
              return w;
            }});
    r->add("random_any",
           {"wildcard (MPI_ANY_SOURCE) random traffic "
            "(params: iters, seed, bytes)",
            {"iters", "seed", "bytes"},
            always_valid,
            [](const ScenarioSpec& spec) {
              WorkloadInstance w;
              w.checksums =
                  std::make_shared<workloads::ChecksumResult>(spec.nranks);
              w.app = workloads::make_random_any_app(
                  static_cast<int>(spec.workload.get_int("iters", 30)),
                  spec.workload.get_u64("seed", 42),
                  spec.workload.get_u64("bytes", 2048), w.checksums);
              return w;
            }});
    r->add("random_then_ring",
           {"wildcard storm then deterministic ring — the replay acid test "
            "(params: rand_iters, ring_laps, seed, bytes)",
            {"rand_iters", "ring_laps", "seed", "bytes"},
            always_valid,
            [](const ScenarioSpec& spec) {
              WorkloadInstance w;
              w.checksums =
                  std::make_shared<workloads::ChecksumResult>(spec.nranks);
              w.app = workloads::make_random_then_ring_app(
                  static_cast<int>(spec.workload.get_int("rand_iters", 12)),
                  static_cast<int>(spec.workload.get_int("ring_laps", 30)),
                  spec.workload.get_u64("seed", 42),
                  spec.workload.get_u64("bytes", 2048), w.checksums);
              return w;
            }});
    r->add("pingpong",
           {"NetPIPE-style ping-pong between ranks 0 and 1 "
            "(params: sizes, reps)",
            {"sizes", "reps"},
            two_or_more_ranks,
            [](const ScenarioSpec& spec) {
              WorkloadInstance w;
              w.pingpong = std::make_shared<workloads::PingPongResult>();
              w.app = workloads::make_pingpong_app(
                  parse_size_list(spec.workload.get_str("sizes", "1")),
                  static_cast<int>(spec.workload.get_int("reps", 100)),
                  w.pingpong);
              return w;
            }});
    r->add("nas",
           {"NAS Parallel Benchmark skeleton "
            "(params: kernel, class, scale)",
            {"kernel", "class", "scale"},
            nas_ranks_valid,
            [](const ScenarioSpec& spec) {
              WorkloadInstance w;
              const workloads::NasConfig ncfg = nas_config(spec);
              w.checksums =
                  std::make_shared<workloads::ChecksumResult>(spec.nranks);
              w.app = workloads::make_nas_app(ncfg, w.checksums);
              w.flops = workloads::nas_scaled_flops(ncfg);
              return w;
            }});
    return r;
  }();
  return *reg;
}

// Kind-based lookups serve internal callers holding resolved enums; a
// miss there is a corrupted enum, not user input, so it panics like the
// switch defaults it replaced (name-based lookups throw SpecError).
const StrategyEntry& strategy_entry(causal::StrategyKind kind) {
  const StrategyEntry* e = strategies().find_if(
      [kind](const StrategyEntry& s) { return s.kind == kind; });
  if (e == nullptr) {
    MPIV_PANIC("no registered strategy for kind %d", static_cast<int>(kind));
  }
  return *e;
}

runtime::Variant parse_variant(const std::string& name) {
  runtime::Variant v;
  std::string head = name;
  std::string suffix;
  if (const std::size_t colon = name.find(':'); colon != std::string::npos) {
    head = name.substr(0, colon);
    suffix = name.substr(colon + 1);
  }

  const ProtocolEntry* p = nullptr;
  if (const StrategyEntry* s = strategies().find(head)) {
    // Causal variant: "<strategy>[:el|:noel]", EL on by default.
    p = protocols().find_if([](const ProtocolEntry& e) { return e.causal; });
    v.strategy = s->kind;
    if (suffix == "noel") {
      v.event_logger = false;
    } else if (!suffix.empty() && suffix != "el") {
      throw SpecError("bad variant suffix ':" + suffix + "' in '" + name +
                      "' (use :el or :noel)");
    }
  } else if (!suffix.empty()) {
    throw SpecError("variant suffix ':" + suffix + "' is only valid for "
                    "causal strategies, not '" + head + "'");
  } else {
    p = protocols().find(head);
    if (p == nullptr || p->causal) {
      std::string msg = "unknown variant '" + name + "' (registered: ";
      bool first = true;
      for (const auto& [n, e] : protocols().entries()) {
        if (e.causal) continue;
        if (!first) msg += ", ";
        msg += n;
        first = false;
      }
      for (const auto& entry : strategies().entries()) {
        msg += ", " + entry.first + "[:el|:noel]";
      }
      msg += ")";
      throw SpecError(msg);
    }
    // Non-causal protocols ignore the strategy and keep the EL on, as a
    // default-constructed Variant does.
  }
  v.protocol = p->kind;
  return v;
}

}  // namespace mpiv::scenario

namespace mpiv::runtime {

const ProtocolEntry& protocol_entry(ProtocolKind kind) {
  const ProtocolEntry* e = scenario::protocols().find_if(
      [kind](const ProtocolEntry& p) { return p.kind == kind; });
  if (e == nullptr) {
    MPIV_PANIC("no registered protocol for kind %d", static_cast<int>(kind));
  }
  return *e;
}

std::string ProtocolEntry::variant_name(const Variant& v) const {
  if (!causal) return name;
  for (const auto& [n, s] : scenario::strategies().entries()) {
    if (s.kind == v.strategy) return n + (v.event_logger ? ":el" : ":noel");
  }
  return "?";
}

std::string ProtocolEntry::label(const Variant& v) const {
  if (!causal) return display;
  return std::string(causal::strategy_kind_name(v.strategy)) +
         (v.event_logger ? " (EL)" : " (no EL)");
}

}  // namespace mpiv::runtime

namespace mpiv::causal {

// Strategy lookups, resolved through the registry (the switch that lived
// in strategy_factory.cpp before the scenario layer existed).
const char* strategy_kind_name(StrategyKind k) {
  return scenario::strategy_entry(k).display;
}

std::unique_ptr<Strategy> make_strategy(StrategyKind k) {
  return scenario::strategy_entry(k).make();
}

}  // namespace mpiv::causal
