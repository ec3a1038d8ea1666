// Name-based registries for protocols, piggyback strategies, and
// workloads — the single place the experiment layer resolves "vcausal",
// "coordinated" or "nas" into running code. They replace the hard-coded
// ProtocolKind/StrategyKind switch sites that used to live in
// runtime/cluster.cpp and causal/strategy_factory.cpp: runtime::Cluster
// instantiates its VProtocol through protocols(), causal::make_strategy is
// a strategies() lookup, and the scenario runner instantiates applications
// through workloads(). Registration order is the canonical listing order
// (mpiv_run --list, error messages).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/spec.hpp"
#include "workloads/apps.hpp"

namespace mpiv::scenario {

template <class Entry>
class Registry {
 public:
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

  Registry& add(std::string name, Entry entry) {
    if (find(name) != nullptr) {
      throw SpecError("duplicate " + kind_ + " registration '" + name + "'");
    }
    entries_.emplace_back(std::move(name), std::move(entry));
    return *this;
  }

  const Entry* find(std::string_view name) const {
    for (const auto& [n, e] : entries_) {
      if (n == name) return &e;
    }
    return nullptr;
  }

  /// Lookup that throws a SpecError listing every registered name.
  const Entry& at(std::string_view name) const {
    if (const Entry* e = find(name)) return *e;
    std::string msg = "unknown " + kind_ + " '" + std::string(name) +
                      "' (registered: ";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i) msg += ", ";
      msg += entries_[i].first;
    }
    msg += ")";
    throw SpecError(msg);
  }

  template <class Pred>
  const Entry* find_if(Pred pred) const {
    for (const auto& [n, e] : entries_) {
      if (pred(e)) return &e;
    }
    return nullptr;
  }

  std::vector<std::string> names() const {
    std::vector<std::string> out;
    for (const auto& entry : entries_) out.push_back(entry.first);
    return out;
  }

  const std::vector<std::pair<std::string, Entry>>& entries() const {
    return entries_;
  }

 private:
  std::string kind_;
  std::vector<std::pair<std::string, Entry>> entries_;
};

/// Protocol registry payload: the runtime's protocol descriptor.
using runtime::ProtocolEntry;

/// Strategy registry payload: the causal piggyback-reduction strategies.
struct StrategyEntry {
  causal::StrategyKind kind;
  const char* display;  // paper name ("Vcausal", "Manetho", "LogOn")
  const char* summary;
  std::unique_ptr<causal::Strategy> (*make)();
};

/// A workload instantiated for one run: the app factory plus the handles
/// the runner reads results from after the cluster completes.
struct WorkloadInstance {
  mpi::AppFactory app;
  std::shared_ptr<workloads::ChecksumResult> checksums;  // null for pingpong
  std::shared_ptr<workloads::PingPongResult> pingpong;   // null unless pingpong
  double flops = 0;  // executed flops (Mop/s reporting); 0 when n/a
};

struct WorkloadEntry {
  const char* summary;
  /// The parameter names this workload understands — validate() rejects
  /// anything else, so a typoed `workload.lapz` cannot silently run the
  /// default configuration.
  std::vector<const char*> params;
  /// Returns false and fills `why` when the workload cannot run at the
  /// spec's rank count (sweep points use this to skip invalid combos).
  bool (*valid)(const ScenarioSpec& spec, std::string* why);
  WorkloadInstance (*make)(const ScenarioSpec& spec);
};

Registry<ProtocolEntry>& protocols();
Registry<StrategyEntry>& strategies();
Registry<WorkloadEntry>& workload_registry();

/// Entry lookup by enum (protocols: runtime::protocol_entry).
const StrategyEntry& strategy_entry(causal::StrategyKind kind);

}  // namespace mpiv::scenario
