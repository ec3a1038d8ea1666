// Spec plumbing: the scenario key table, the shared key=value mutation
// path, the scenario text format, and build-time validation.
#include "scenario/spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <variant>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace mpiv::scenario {

namespace {

using S = ScenarioSpec;

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* expected) {
  throw SpecError("bad value '" + value + "' for '" + key + "' (expected " +
                  expected + ")");
}

std::int64_t parse_i64(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const std::int64_t v = std::stoll(value, &used);
    if (trim(value.substr(used)).empty()) return v;
  } catch (const std::exception&) {
  }
  bad_value(key, value, "an integer");
}

int parse_int(const std::string& key, const std::string& value) {
  const std::int64_t v = parse_i64(key, value);
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    bad_value(key, value, "an integer that fits in 32 bits");
  }
  return static_cast<int>(v);
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    if (!value.empty() && value[0] != '-') {
      const std::uint64_t v = std::stoull(value, &used, 0);
      if (trim(value.substr(used)).empty()) return v;
    }
  } catch (const std::exception&) {
  }
  bad_value(key, value, "an unsigned integer");
}

double parse_f64(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (std::isfinite(v) && trim(value.substr(used)).empty()) return v;
  } catch (const std::exception&) {
  }
  bad_value(key, value, "a finite number");
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "on" || value == "1" || value == "yes") {
    return true;
  }
  if (value == "false" || value == "off" || value == "0" || value == "no") {
    return false;
  }
  bad_value(key, value, "a boolean (true/false)");
}

/// Durations accept a unit suffix: "250ms", "5s", "32us", "123456ns";
/// a bare number is nanoseconds. The result must fit in int64 ns.
sim::Time parse_time(const std::string& key, const std::string& value) {
  constexpr const char* kExpected = "a duration like 250ms / 5s / 32us";
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(value, &used);
  } catch (const std::exception&) {
    bad_value(key, value, kExpected);
  }
  const std::string unit = trim(value.substr(used));
  double ns = v;
  if (unit == "us") {
    ns = v * 1e3;
  } else if (unit == "ms") {
    ns = v * 1e6;
  } else if (unit == "s") {
    ns = v * 1e9;
  } else if (unit == "min") {
    ns = v * sim::kMinute;
  } else if (unit == "h") {
    ns = v * 60 * sim::kMinute;
  } else if (!unit.empty() && unit != "ns") {
    bad_value(key, value, kExpected);
  }
  if (!(ns >= -0x1p63 && ns < 0x1p63)) {
    bad_value(key, value, "a duration that fits in int64 nanoseconds");
  }
  return static_cast<sim::Time>(ns);
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string ns(sim::Time t) { return std::to_string(t) + "ns"; }

// --- typed scalar codecs: one read/text pair per field type ----------------

void read(const std::string& k, const std::string& v, int& out) {
  out = parse_int(k, v);
}
void read(const std::string& k, const std::string& v, std::uint32_t& out) {
  const std::uint64_t x = parse_u64(k, v);
  if (x > std::numeric_limits<std::uint32_t>::max()) {
    bad_value(k, v, "an unsigned integer that fits in 32 bits");
  }
  out = static_cast<std::uint32_t>(x);
}
void read(const std::string& k, const std::string& v, std::uint64_t& out) {
  out = parse_u64(k, v);
}
void read(const std::string& k, const std::string& v, sim::Time& out) {
  out = parse_time(k, v);
}
void read(const std::string& k, const std::string& v, bool& out) {
  out = parse_bool(k, v);
}
void read(const std::string&, const std::string& v, std::string& out) {
  out = v;
}
void read(const std::string& k, const std::string& v, ckpt::Policy& out) {
  for (const ckpt::Policy p : {ckpt::Policy::kNone, ckpt::Policy::kRoundRobin,
                               ckpt::Policy::kRandom,
                               ckpt::Policy::kAllAtOnce}) {
    if (v == ckpt::policy_name(p)) {
      out = p;
      return;
    }
  }
  bad_value(k, v, "none / round-robin / random / all-at-once");
}
void read(const std::string& k, const std::string& v, fault::ElFailover& out) {
  for (const fault::ElFailover f :
       {fault::ElFailover::kReassign, fault::ElFailover::kStandby}) {
    if (v == fault::el_failover_name(f)) {
      out = f;
      return;
    }
  }
  bad_value(k, v, "reassign / standby");
}

std::string text(int v) { return std::to_string(v); }
std::string text(std::uint32_t v) { return std::to_string(v); }
std::string text(std::uint64_t v) { return std::to_string(v); }
std::string text(sim::Time v) { return ns(v); }
std::string text(bool v) { return v ? "true" : "false"; }
std::string text(const std::string& v) { return v; }
std::string text(ckpt::Policy p) { return ckpt::policy_name(p); }
std::string text(fault::ElFailover f) { return fault::el_failover_name(f); }

// --- fault-injection value grammar -----------------------------------------

/// Parses one side of a partition: '+'-separated elements, each a rank or
/// an inclusive range "a-b" ("0-2+5" = {0,1,2,5}); commas are taken by the
/// sweep-axis tokenizer. When `services` is given, "elK" names EL shard K
/// and "ckpt" the checkpoint server ("el0+2+4" = shard 0 plus ranks {2,4}).
void parse_group(const std::string& key, const std::string& s,
                 std::vector<int>& ranks, std::vector<int>* services) {
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t plus = s.find('+', pos);
    if (plus == std::string::npos) plus = s.size();
    const std::string tok = trim(s.substr(pos, plus - pos));
    pos = plus + 1;
    if (tok.empty()) {
      bad_value(key, s,
                services != nullptr
                    ? "ranks/ranges plus service tokens like 'el0' / 'ckpt'"
                    : "ranks like '0+1' or ranges '0-3'");
    }
    if (services != nullptr && tok == "ckpt") {
      services->push_back(fault::kCkptService);
    } else if (services != nullptr && tok.size() > 2 &&
               tok.rfind("el", 0) == 0 &&
               tok.find_first_not_of("0123456789", 2) == std::string::npos) {
      services->push_back(parse_int(key, tok.substr(2)));
    } else {
      // A '-' after the first character splits a range (a leading '-'
      // would be a negative rank, rejected downstream by validation).
      const std::size_t dash = tok.find('-', 1);
      if (dash == std::string::npos) {
        ranks.push_back(parse_int(key, tok));
      } else {
        const int lo = parse_int(key, tok.substr(0, dash));
        const int hi = parse_int(key, tok.substr(dash + 1));
        if (hi < lo || hi - static_cast<std::int64_t>(lo) >= 4096) {
          bad_value(key, s, "an ascending range of at most 4096 ranks");
        }
        for (int r = lo; r <= hi; ++r) ranks.push_back(r);
      }
    }
    if (pos > s.size()) break;
  }
}

std::string format_group(const std::vector<int>& ranks,
                         const std::vector<int>& services) {
  std::string out;
  for (const int r : ranks) {
    if (!out.empty()) out += "+";
    out += std::to_string(r);
  }
  for (const int s : services) {
    if (!out.empty()) out += "+";
    out += s == fault::kCkptService ? std::string("ckpt")
                                    : "el" + std::to_string(s);
  }
  return out;
}

/// Splits ':'-separated injection fields, trimming each, and checks that
/// there are between `min` and `max` of them.
std::vector<std::string> fields(const std::string& key, const std::string& s,
                                std::size_t min, std::size_t max,
                                const char* expected) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t colon = s.find(':', pos);
    if (colon == std::string::npos) colon = s.size();
    out.push_back(trim(s.substr(pos, colon - pos)));
    pos = colon + 1;
  }
  if (out.size() < min || out.size() > max) bad_value(key, s, expected);
  return out;
}

/// Campaign trigger token: a time ("120ms") or an execution count
/// ("ckpt@5" on crash_rank, "stored@2000" on crash_el — '@', because '#'
/// starts a comment in scenario files).
void parse_fault_trigger(const std::string& key, const std::string& tok,
                         const char* event_word, fault::Trigger event_trigger,
                         fault::Injection& inj) {
  const std::string prefix = std::string(event_word) + "@";
  if (tok.rfind(prefix, 0) == 0) {
    inj.trigger = event_trigger;
    inj.nth = parse_u64(key, tok.substr(prefix.size()));
    return;
  }
  inj.trigger = fault::Trigger::kAt;
  inj.at = parse_time(key, tok);
}

/// Partition value "<time>:<A>|<B>:<duration>[:<backoff>]"; `services`
/// admits 'elK' / 'ckpt' tokens in the groups.
fault::Injection parse_partition(const std::string& key,
                                 const std::string& value, bool services,
                                 const char* expected) {
  const auto f = fields(key, value, 3, 4, expected);
  const std::size_t bar = f[1].find('|');
  if (bar == std::string::npos) {
    bad_value(key, value, "two '|'-separated groups like '0-3|4-7'");
  }
  fault::Injection inj;
  inj.target = fault::Target::kFabric;
  inj.action = fault::Action::kPartition;
  inj.at = parse_time(key, f[0]);
  parse_group(key, trim(f[1].substr(0, bar)), inj.group_a,
              services ? &inj.services_a : nullptr);
  parse_group(key, trim(f[1].substr(bar + 1)), inj.group_b,
              services ? &inj.services_b : nullptr);
  inj.duration = parse_time(key, f[2]);
  inj.magnitude = f.size() == 4 ? parse_time(key, f[3]) : 2 * sim::kMillisecond;
  return inj;
}

std::string format_partition(const fault::Injection& i) {
  return ns(i.at) + ":" + format_group(i.group_a, i.services_a) + "|" +
         format_group(i.group_b, i.services_b) + ":" + ns(i.duration) + ":" +
         ns(i.magnitude);
}

/// Appends a Poisson crash stream over random live targets; rate 0 = stream
/// off, so a sweep axis can include the fault-free corner. A mean interval
/// under 1 ns would never advance simulated time, so faster streams are
/// rejected.
void add_rate_stream(S& s, const std::string& key, const std::string& value,
                     fault::Target target) {
  const double rate = parse_f64(key, value);
  if (rate > static_cast<double>(sim::kMinute)) {
    bad_value(key, value, "at most 6e10 per minute (a mean interval >= 1ns)");
  }
  if (rate < 0) bad_value(key, value, "a rate >= 0 (0 = off)");
  if (rate == 0) return;
  s.campaign.injections.push_back(fault::crash_stream(target, rate));
}

// --- the key table ---------------------------------------------------------

/// A scalar row's binding to its ScenarioSpec member. The member's type
/// picks the row's parse (read), print (text) and range rules.
template <typename T>
using Ref = T& (*)(S&);
using Field = std::variant<std::monostate, Ref<int>, Ref<std::uint32_t>,
                           Ref<std::uint64_t>, Ref<double>, Ref<sim::Time>,
                           Ref<bool>, Ref<std::string>, Ref<ckpt::Policy>,
                           Ref<fault::ElFailover>>;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One scenario key. Scalar rows bind a member (`field`) and get parsing,
/// printing and bound checks from its type; rows that touch more than one
/// field override `apply` (and `print`). Fault-injection rows pair their
/// parser with `matches`/`format`, which recognize and print back the
/// campaign injections the key produces.
struct KeyRow {
  KeyInfo doc;
  Field field{};
  /// Printed whenever its section is (the [scenario] section always is).
  bool lead = false;
  /// Print condition; nullptr = the field differs from the default spec.
  bool (*shown)(const S&) = nullptr;
  /// validate() bounds on the field, inclusive unless `open`.
  double lo = -kInf;
  double hi = kInf;
  bool open = false;
  /// f64 fields: the member holds the written value times `scale`.
  double scale = 1;
  void (*apply)(S&, const std::string& key, const std::string& value) = nullptr;
  void (*print)(const S&, std::string& out) = nullptr;
  bool (*matches)(const fault::Injection&) = nullptr;
  std::string (*format)(const fault::Injection&) = nullptr;
};

#define MEMBER(path) +[](S& s) -> auto& { return s.path; }

using fault::Action;
using fault::Injection;
using fault::Target;
using fault::Trigger;

bool ckpt_set(const S& s) {
  return s.ckpt_policy != ckpt::Policy::kNone || s.ckpt_interval != 0;
}
bool midrun_set(const S& s) { return s.faults.midrun_rank >= 0; }

// Rows print in table order, which is the [scenario], [trace], [metrics],
// [cost], [faults] order of to_scenario_text. scripts/check_docs.sh reads
// the keys between the markers; keep them on their own lines.
// BEGIN KEY TABLE (scripts/check_docs.sh)
constexpr KeyRow kKeys[] = {
    // [scenario] — identity, variant, topology, workload.
    {.doc = {"name", "scenario", "<text>", "my_experiment",
             "report name (default: the file stem)"},
     .field = MEMBER(name), .lead = true},
    {.doc = {"notes", "scenario", "<text>", "sweeps the EL on and off",
             "free-form description, documentation only"},
     .field = MEMBER(notes)},
    {.doc = {"variant", "scenario", "<protocol> | <strategy>[:el|:noel]",
             "manetho:el",
             "protocol variant (causal strategies default to :el)"},
     .lead = true,
     .apply = [](S& s, const std::string&, const std::string& v) {
       s.variant = parse_variant(v);
     },
     .print = [](const S& s, std::string& out) {
       out += "variant = " +
              runtime::protocol_entry(s.variant.protocol)
                  .variant_name(s.variant) +
              "\n";
     }},
    {.doc = {"nranks", "scenario", "<int 1..4096>", "8",
             "compute ranks (MPI process + communication daemon each)"},
     .field = MEMBER(nranks), .lead = true},
    {.doc = {"el_shards", "scenario", "<int >= 1>", "2",
             "Event Logger shards (at most nranks; > 1 needs the EL)"},
     .field = MEMBER(el_shards),
     .shown = [](const S& s) { return s.el_shards_set; },
     .apply = [](S& s, const std::string& k, const std::string& v) {
       s.el_shards = parse_int(k, v);
       s.el_shards_set = true;
     }},
    {.doc = {"el_standby", "scenario", "<int 0..64>", "1",
             "cold standby EL shard nodes (failover targets)"},
     .field = MEMBER(el_standby)},
    {.doc = {"seed", "scenario", "<u64>", "7",
             "master seed: workload RNG, checkpoint scheduler, fault streams"},
     .field = MEMBER(seed), .lead = true},
    {.doc = {"ckpt_policy", "scenario", "none|round-robin|random|all-at-once",
             "round-robin", "checkpoint scheduler policy"},
     .field = MEMBER(ckpt_policy), .shown = ckpt_set},
    {.doc = {"ckpt_interval", "scenario", "<duration>", "30ms",
             "checkpoint scheduler tick"},
     .field = MEMBER(ckpt_interval), .shown = ckpt_set, .lo = 0},
    {.doc = {"detection_delay", "scenario", "<duration>", "250ms",
             "failure-detector latency from fault to restart"},
     .field = MEMBER(detection_delay), .lead = true},
    {.doc = {"max_sim_time", "scenario", "<duration>", "2h",
             "simulated-time budget; runs past it are abandoned"},
     .field = MEMBER(max_sim_time), .lead = true},
    {.doc = {"compare_reference", "scenario", "<bool>", "true",
             "run a fault-free reference pass for any faulty run"},
     .field = MEMBER(compare_reference)},
    {.doc = {"replica.sync_interval", "scenario", "<int >= 0>", "4",
             "replication: application sends between shadow syncs"},
     .field = MEMBER(replica_sync_interval), .lo = 0},
    {.doc = {"ulfm.repair_cost", "scenario", "<duration>", "7ms",
             "ULFM agreement + communicator-rebuild window"},
     .field = MEMBER(ulfm_repair_cost), .lo = 0},
    {.doc = {"payload_at_sender", "scenario", "<bool>", "true",
             "causal only: keep logged payloads in sender memory"},
     .field = MEMBER(payload_at_sender)},
    {.doc = {"midrun_fault_rank", "scenario", "<rank>", "3",
             "crash this rank mid-run, after a fault-free reference pass"},
     .field = MEMBER(faults.midrun_rank), .shown = midrun_set},
    {.doc = {"midrun_fault_frac", "scenario", "<fraction in (0, 1)>", "0.6",
             "when the midrun crash lands, as a share of the reference time"},
     .field = MEMBER(faults.midrun_frac), .shown = midrun_set, .lo = 0,
     .hi = 1, .open = true},
    {.doc = {"workload", "scenario", "<workload>", "random_then_ring",
             "workload name; switching clears the workload.* parameters"},
     .field = MEMBER(workload.name), .lead = true,
     .apply = [](S& s, const std::string&, const std::string& v) {
       s.workload.name = v;
       s.workload.params.clear();
     }},
    {.doc = {"workload.*", "scenario", "<value>", "30",
             "workload parameter (mpiv_run --list names each workload's)"},
     .shown = [](const S& s) { return !s.workload.params.empty(); },
     .apply = [](S& s, const std::string& k, const std::string& v) {
       s.workload.params[k.substr(sizeof("workload.") - 1)] = v;
     },
     .print = [](const S& s, std::string& out) {
       for (const auto& [k, v] : s.workload.params) {
         out += "workload." + k + " = " + v + "\n";
       }
     }},
    {.doc = {"nas", "scenario", "<kernel>:<class>:<scale>", "bt:A:0.15",
             "NAS workload selector: kernel, class and scale in one value"},
     .apply = [](S& s, const std::string& k, const std::string& v) {
       const auto f =
           fields(k, v, 3, 3, "'<kernel>:<class>:<scale>' like bt:A:0.15");
       s.workload.name = "nas";
       s.workload.params.clear();
       s.workload.params["kernel"] = f[0];
       s.workload.params["class"] = f[1];
       s.workload.params["scale"] = f[2];
     }},

    // [trace] — per-rank trace lanes.
    {.doc = {"trace.enabled", "trace", "<bool>", "true",
             "capture trace lanes in every pass"},
     .field = MEMBER(trace.enabled), .lead = true},
    {.doc = {"trace.capacity", "trace", "<int 16..4194304>", "4096",
             "retained records per lane"},
     .field = MEMBER(trace.capacity), .lo = 16, .hi = 1u << 22},
    {.doc = {"trace.dir", "trace", "<path>", "out/traces",
             "write each point's merged stream under this directory"},
     .field = MEMBER(trace_dir)},

    // [metrics] — aggregate metrics + virtual-time gauge sampler.
    {.doc = {"metrics.enabled", "metrics", "<bool>", "true",
             "aggregate metrics + gauge sampler (schedule-neutral)"},
     .field = MEMBER(metrics.enabled), .lead = true},
    {.doc = {"metrics.sample_interval", "metrics", "<duration>", "250us",
             "virtual time between gauge snapshots"},
     .field = MEMBER(metrics.sample_interval), .lo = 0, .open = true},
    {.doc = {"metrics.dir", "metrics", "<path>", "out/metrics",
             "write per-run time-series CSV files here"},
     .field = MEMBER(metrics_dir)},

    // [cost] — the calibration knobs scenarios may retune.
    {.doc = {"cost.bandwidth_mbps", "cost", "<Mb/s>", "100", "NIC line rate"},
     .field = MEMBER(cost.bandwidth_bps), .scale = 1e6},
    {.doc = {"cost.wire_latency", "cost", "<duration>", "32us",
             "propagation + switch forwarding"},
     .field = MEMBER(cost.wire_latency)},
    {.doc = {"cost.el_service", "cost", "<duration>", "2ms",
             "Event Logger service cost per stored determinant"},
     .field = MEMBER(cost.el_service)},
    {.doc = {"cost.el_ack_build", "cost", "<duration>", "500us",
             "Event Logger ack construction"},
     .field = MEMBER(cost.el_ack_build)},
    {.doc = {"cost.mlog_send_fixed", "cost", "<duration>", "8us",
             "fixed message-logging send-side overhead"},
     .field = MEMBER(cost.mlog_send_fixed)},
    {.doc = {"cost.mlog_recv_fixed", "cost", "<duration>", "6us",
             "fixed message-logging receive-side overhead"},
     .field = MEMBER(cost.mlog_recv_fixed)},
    {.doc = {"cost.eager_threshold", "cost", "<bytes>", "65536",
             "eager/rendezvous switch point"},
     .field = MEMBER(cost.eager_threshold)},
    {.doc = {"cost.node_gflops", "cost", "<GFLOP/s>", "0.55",
             "compute speed (NAS kernels)"},
     .field = MEMBER(cost.node_gflops)},
    {.doc = {"cost.ckpt_disk_mbps", "cost", "<MB/s>", "25",
             "checkpoint-server disk bandwidth"},
     .field = MEMBER(cost.ckpt_disk_bps), .scale = 8e6},
    {.doc = {"cost.slog_ns_per_byte", "cost", "<ns/B>", "4.5",
             "sender-log copy cost"},
     .field = MEMBER(cost.slog_ns_per_byte)},

    // [faults] — the fault::Campaign surface. Injection lines print first,
    // in campaign order, each through the row whose matches() claims it.
    {.doc = {"faults.crash_rank", "faults", "<time|ckpt@N>:<rank>", "120ms:3",
             "kill the rank at a time or on its Nth checkpoint commit"},
     .apply = [](S& s, const std::string& k, const std::string& v) {
       const auto f = fields(k, v, 2, 2, "'<time|ckpt@N>:<rank>'");
       Injection inj;
       inj.target = Target::kRank;
       parse_fault_trigger(k, f[0], "ckpt", Trigger::kOnCheckpoint, inj);
       inj.index = parse_int(k, f[1]);
       s.campaign.injections.push_back(inj);
     },
     .matches = [](const Injection& i) {
       return i.target == Target::kRank && i.trigger != Trigger::kRate;
     },
     .format = [](const Injection& i) {
       return (i.trigger == Trigger::kOnCheckpoint
                   ? "ckpt@" + std::to_string(i.nth)
                   : ns(i.at)) +
              ":" + std::to_string(i.index);
     }},
    {.doc = {"faults.rank_rate", "faults", "<per-minute>", "0.5",
             "Poisson rank crashes over random live ranks"},
     .apply = [](S& s, const std::string& k, const std::string& v) {
       add_rate_stream(s, k, v, Target::kRank);
     },
     .matches = [](const Injection& i) {
       return i.target == Target::kRank && i.trigger == Trigger::kRate;
     },
     .format = [](const Injection& i) { return num(i.rate_per_minute); }},
    {.doc = {"faults.crash_daemon", "faults", "<time>:<rank>[:<downtime>]",
             "50ms:2",
             "kill only the rank's daemon; the app stalls until respawn"},
     .apply = [](S& s, const std::string& k, const std::string& v) {
       const auto f = fields(k, v, 2, 3, "'<time>:<rank>[:<downtime>]'");
       Injection inj;
       inj.target = Target::kDaemon;
       inj.at = parse_time(k, f[0]);
       inj.index = parse_int(k, f[1]);
       if (f.size() == 3) inj.duration = parse_time(k, f[2]);
       s.campaign.injections.push_back(inj);
     },
     .matches = [](const Injection& i) {
       return i.target == Target::kDaemon && i.trigger != Trigger::kRate;
     },
     .format = [](const Injection& i) {
       return ns(i.at) + ":" + std::to_string(i.index) +
              (i.duration > 0 ? ":" + ns(i.duration) : "");
     }},
    {.doc = {"faults.daemon_rate", "faults", "<per-minute>", "1.5",
             "Poisson daemon crashes over random live ranks"},
     .apply = [](S& s, const std::string& k, const std::string& v) {
       add_rate_stream(s, k, v, Target::kDaemon);
     },
     .matches = [](const Injection& i) {
       return i.target == Target::kDaemon && i.trigger == Trigger::kRate;
     },
     .format = [](const Injection& i) { return num(i.rate_per_minute); }},
    {.doc = {"faults.crash_el", "faults", "<time|stored@N>:<shard>", "60ms:0",
             "permanently crash the EL shard (failover follows)"},
     .apply = [](S& s, const std::string& k, const std::string& v) {
       const auto f = fields(k, v, 2, 2, "'<time|stored@N>:<shard>'");
       Injection inj;
       inj.target = Target::kElShard;
       parse_fault_trigger(k, f[0], "stored", Trigger::kOnElStored, inj);
       inj.index = parse_int(k, f[1]);
       s.campaign.injections.push_back(inj);
     },
     .matches = [](const Injection& i) {
       return i.target == Target::kElShard && i.action != Action::kOutage;
     },
     .format = [](const Injection& i) {
       return (i.trigger == Trigger::kOnElStored
                   ? "stored@" + std::to_string(i.nth)
                   : ns(i.at)) +
              ":" + std::to_string(i.index);
     }},
    {.doc = {"faults.el_outage", "faults", "<time>:<shard>:<duration>",
             "10ms:0:25ms",
             "transient EL service outage; the persistent log survives"},
     .apply = [](S& s, const std::string& k, const std::string& v) {
       const auto f = fields(k, v, 3, 3, "'<time>:<shard>:<duration>'");
       Injection inj;
       inj.target = Target::kElShard;
       inj.action = Action::kOutage;
       inj.at = parse_time(k, f[0]);
       inj.index = parse_int(k, f[1]);
       inj.duration = parse_time(k, f[2]);
       s.campaign.injections.push_back(inj);
     },
     .matches = [](const Injection& i) {
       return i.target == Target::kElShard && i.action == Action::kOutage;
     },
     .format = [](const Injection& i) {
       return ns(i.at) + ":" + std::to_string(i.index) + ":" + ns(i.duration);
     }},
    {.doc = {"faults.ckpt_outage", "faults", "<time>:<duration>", "40ms:30ms",
             "checkpoint-server outage; images persist, clients retransmit"},
     .apply = [](S& s, const std::string& k, const std::string& v) {
       const auto f = fields(k, v, 2, 2, "'<time>:<duration>'");
       Injection inj;
       inj.target = Target::kCkptServer;
       inj.action = Action::kOutage;
       inj.at = parse_time(k, f[0]);
       inj.duration = parse_time(k, f[1]);
       s.campaign.injections.push_back(inj);
     },
     .matches =
         [](const Injection& i) { return i.target == Target::kCkptServer; },
     .format =
         [](const Injection& i) { return ns(i.at) + ":" + ns(i.duration); }},
    {.doc = {"faults.link_latency", "faults",
             "<time>:<rank>:<extra>:<duration>", "5ms:2:1ms:20ms",
             "latency spike on the rank's link"},
     .apply = [](S& s, const std::string& k, const std::string& v) {
       const auto f = fields(k, v, 4, 4, "'<time>:<rank>:<extra>:<duration>'");
       Injection inj;
       inj.target = Target::kLink;
       inj.action = Action::kLatencySpike;
       inj.at = parse_time(k, f[0]);
       inj.index = parse_int(k, f[1]);
       inj.magnitude = parse_time(k, f[2]);
       inj.duration = parse_time(k, f[3]);
       s.campaign.injections.push_back(inj);
     },
     .matches = [](const Injection& i) {
       return i.target == Target::kLink && i.action != Action::kDropWindow;
     },
     .format = [](const Injection& i) {
       return ns(i.at) + ":" + std::to_string(i.index) + ":" + ns(i.magnitude) +
              ":" + ns(i.duration);
     }},
    {.doc = {"faults.link_drop", "faults",
             "<time>:<rank>:<duration>[:<backoff>]", "7ms:4:8ms:2ms",
             "drop-with-retransmit window on the rank's link"},
     .apply = [](S& s, const std::string& k, const std::string& v) {
       const auto f =
           fields(k, v, 3, 4, "'<time>:<rank>:<duration>[:<backoff>]'");
       Injection inj;
       inj.target = Target::kLink;
       inj.action = Action::kDropWindow;
       inj.at = parse_time(k, f[0]);
       inj.index = parse_int(k, f[1]);
       inj.duration = parse_time(k, f[2]);
       inj.magnitude =
           f.size() == 4 ? parse_time(k, f[3]) : 5 * sim::kMillisecond;
       s.campaign.injections.push_back(inj);
     },
     .matches = [](const Injection& i) {
       return i.target == Target::kLink && i.action == Action::kDropWindow;
     },
     .format = [](const Injection& i) {
       return ns(i.at) + ":" + std::to_string(i.index) + ":" + ns(i.duration) +
              ":" + ns(i.magnitude);
     }},
    {.doc = {"faults.partition", "faults",
             "<time>:<ranks>|<ranks>:<duration>[:<backoff>]",
             "10ms:0-1|2-3:25ms:2ms",
             "partial partition: the two rank groups mutually unreachable"},
     .apply = [](S& s, const std::string& k, const std::string& v) {
       s.campaign.injections.push_back(parse_partition(
           k, v, false, "'<time>:<ranks>|<ranks>:<duration>[:<backoff>]'"));
     },
     .matches = [](const Injection& i) {
       return i.target == Target::kFabric && !i.cuts_services();
     },
     .format = format_partition},
    {.doc = {"faults.partition_services", "faults",
             "<time>:<group>|<group>:<duration>[:<backoff>]",
             "30ms:el0|2+4:80ms:2ms",
             "partition whose sides may name services ('elK', 'ckpt'); cutting "
             "a serving EL shard arms split-brain reconciliation"},
     .apply = [](S& s, const std::string& k, const std::string& v) {
       Injection inj = parse_partition(
           k, v, true,
           "'<time>:<group>|<group>:<duration>[:<backoff>]' with ranks, 'elK' "
           "and 'ckpt' tokens per group");
       if (!inj.cuts_services()) {
         bad_value(k, v,
                   "at least one 'elK' / 'ckpt' token (use faults.partition "
                   "for rank-only cuts)");
       }
       s.campaign.injections.push_back(inj);
     },
     .matches = [](const Injection& i) {
       return i.target == Target::kFabric && i.cuts_services();
     },
     .format = format_partition},
    {.doc = {"faults.el_failover", "faults", "reassign|standby", "standby",
             "what mounts a dead shard's log: surviving shard or cold standby"},
     .field = MEMBER(campaign.el_failover)},
    {.doc = {"faults.el_failover_delay", "faults", "<duration>", "25ms",
             "shard-crash detection + log-mount initiation delay"},
     .field = MEMBER(campaign.el_failover_delay)},
    {.doc = {"faults.detection_delay", "faults", "<duration>", "5ms",
             "suspicion window for a service cut (default: cluster "
             "detection_delay)"},
     .field = MEMBER(campaign.detection_delay),
     .apply = [](S& s, const std::string& k, const std::string& v) {
       // -1 (inherit) is the default, not a scenario-file value.
       s.campaign.detection_delay = parse_time(k, v);
       if (s.campaign.detection_delay <= 0) {
         bad_value(k, v, "a positive duration like 5ms");
       }
     }},
    {.doc = {"faults.daemon_restart_delay", "faults", "<duration>", "40ms",
             "daemon detect + respawn + reconnect delay"},
     .field = MEMBER(campaign.daemon_restart_delay)},
    {.doc = {"faults.service_retry", "faults", "<duration>", "500ms",
             "client retransmit interval for unacked EL/ckpt requests"},
     .field = MEMBER(campaign.service_retry), .lo = 0, .open = true},
    {.doc = {"faults.seed_salt", "faults", "<u64>", "77",
             "salt mixed into the campaign's stochastic streams"},
     .field = MEMBER(campaign.seed_salt)},
};
// END KEY TABLE (scripts/check_docs.sh)

#undef MEMBER

/// Calls `fn(ref)` with the row's typed member binding; no-op for rows
/// without one.
template <typename Fn>
void with_field(const KeyRow& row, Fn&& fn) {
  std::visit(
      [&](auto ref) {
        if constexpr (!std::is_same_v<decltype(ref), std::monostate>) fn(ref);
      },
      row.field);
}

/// Read-only access through a binding (the accessor never writes).
template <typename T>
const T& get(Ref<T> ref, const S& s) {
  return ref(const_cast<S&>(s));
}

template <typename T>
std::string field_text(const KeyRow& row, const T& v) {
  if constexpr (std::is_same_v<T, double>) {
    return num(v / row.scale);
  } else {
    return text(v);
  }
}

const KeyRow* find_key(std::string_view key) {
  // Built once: sweep expansion looks keys up for every point. A family row
  // ("workload.*") is filed under its prefix ("workload.").
  static const auto index = [] {
    std::unordered_map<std::string_view, const KeyRow*> m;
    for (const KeyRow& row : kKeys) {
      std::string_view k = row.doc.key;
      if (k.ends_with('*')) k.remove_suffix(1);
      m.emplace(k, &row);
    }
    return m;
  }();
  auto it = index.find(key);
  if (it == index.end()) it = index.find(key.substr(0, key.find('.') + 1));
  return it == index.end() ? nullptr : it->second;
}

[[noreturn]] void unknown_key(const std::string& key) {
  const std::size_t dot = key.find('.');
  std::string known;
  for (const KeyRow& row : kKeys) {
    if (dot != std::string::npos && key.compare(0, dot, row.doc.section) == 0) {
      known += known.empty() ? "" : ", ";
      known += row.doc.key;
    }
  }
  if (known.empty()) throw SpecError("unknown scenario key '" + key + "'");
  throw SpecError("unknown " + key.substr(0, dot) + " key '" + key +
                  "' (known: " + known + ")");
}

/// The key's spelling inside its section: "[cost] wire_latency" but
/// "[scenario] replica.sync_interval".
const char* local_name(const KeyRow& row) {
  const std::size_t n = std::strlen(row.doc.section);
  return std::strncmp(row.doc.key, row.doc.section, n) == 0 &&
                 row.doc.key[n] == '.'
             ? row.doc.key + n + 1
             : row.doc.key;
}

bool changed(const KeyRow& row, const S& spec) {
  if (row.shown != nullptr) return row.shown(spec);
  static const S kDefault{};
  bool differs = false;
  with_field(row, [&](auto ref) {
    differs = get(ref, spec) != get(ref, kDefault);
  });
  return differs;
}

void print_row(const KeyRow& row, const S& spec, std::string& out) {
  if (row.print != nullptr) {
    row.print(spec, out);
    return;
  }
  with_field(row, [&](auto ref) {
    out += std::string(local_name(row)) + " = " +
           field_text(row, get(ref, spec)) + "\n";
  });
}

bool is_section(const std::string& name) {
  for (const KeyRow& row : kKeys) {
    if (name == row.doc.section) return true;
  }
  return false;
}

}  // namespace

const std::vector<KeyInfo>& key_table() {
  static const std::vector<KeyInfo> table = [] {
    std::vector<KeyInfo> out;
    for (const KeyRow& row : kKeys) out.push_back(row.doc);
    return out;
  }();
  return table;
}

void strip_fault_key(ScenarioSpec& spec, const std::string& key) {
  const KeyRow* row = find_key(key);
  if (row == nullptr || row->matches == nullptr) return;  // scalars override
  auto& inj = spec.campaign.injections;
  inj.erase(std::remove_if(inj.begin(), inj.end(), row->matches), inj.end());
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const std::string tok = trim(csv.substr(pos, comma - pos));
    if (!tok.empty()) out.push_back(tok);
    pos = comma + 1;
  }
  return out;
}

std::int64_t WorkloadSpec::get_int(const std::string& key,
                                   std::int64_t fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback
                            : parse_i64("workload." + key, it->second);
}

std::uint64_t WorkloadSpec::get_u64(const std::string& key,
                                    std::uint64_t fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback
                            : parse_u64("workload." + key, it->second);
}

double WorkloadSpec::get_double(const std::string& key, double fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback
                            : parse_f64("workload." + key, it->second);
}

std::string WorkloadSpec::get_str(const std::string& key,
                                  const std::string& fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

void apply_key(ScenarioSpec& spec, const std::string& raw_key,
               const std::string& raw_value) {
  const std::string key = trim(raw_key);
  const std::string value = trim(raw_value);
  const KeyRow* row = find_key(key);
  if (row == nullptr) unknown_key(key);
  if (row->apply != nullptr) {
    row->apply(spec, key, value);
    return;
  }
  with_field(*row, [&]<typename T>(Ref<T> ref) {
    if constexpr (std::is_same_v<T, double>) {
      ref(spec) = parse_f64(key, value) * row->scale;
    } else {
      read(key, value, ref(spec));
    }
  });
}

ScenarioSpec parse_scenario_text(const std::string& text,
                                 const std::string& origin) {
  ScenarioSpec spec;
  std::istringstream in(text);
  std::string line;
  std::string section = "scenario";
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    try {
      if (line.front() == '[') {
        if (line.back() != ']') throw SpecError("unterminated section header");
        section = trim(line.substr(1, line.size() - 2));
        if (section != "sweep" && section != "quick" && !is_section(section)) {
          throw SpecError("unknown section [" + section +
                          "] (use [scenario], [cost], [faults], [trace], "
                          "[metrics], [sweep], [quick])");
        }
        continue;
      }
      const std::size_t eq = line.find('=');
      if (eq == std::string::npos) {
        throw SpecError("expected 'key = value', got '" + line + "'");
      }
      const std::string key = trim(line.substr(0, eq));
      const std::string value = trim(line.substr(eq + 1));
      if (key.empty()) throw SpecError("empty key");
      if (section == "sweep") {
        const std::vector<std::string> values = split_list(value);
        if (values.empty()) {
          throw SpecError("sweep axis '" + key + "' has no values");
        }
        spec.sweep.emplace_back(key, values);
      } else if (section == "quick") {
        spec.quick.emplace_back(key, value);
      } else if (section == "scenario") {
        apply_key(spec, key, value);
      } else {
        apply_key(spec, section + "." + key, value);
      }
    } catch (const SpecError& e) {
      throw SpecError(origin + ":" + std::to_string(lineno) + ": " + e.what());
    }
  }
  return spec;
}

ScenarioSpec parse_scenario_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw SpecError("cannot open scenario file '" + path + "'");
  std::ostringstream body;
  body << f.rdbuf();
  ScenarioSpec spec = parse_scenario_text(body.str(), path);
  if (spec.name == "unnamed") {
    // Default the name to the file stem.
    std::string stem = path;
    if (const std::size_t slash = stem.find_last_of('/'); slash != std::string::npos) {
      stem = stem.substr(slash + 1);
    }
    if (const std::size_t dot = stem.find_last_of('.'); dot != std::string::npos) {
      stem = stem.substr(0, dot);
    }
    spec.name = stem;
  }
  return spec;
}

std::string to_scenario_text(const ScenarioSpec& spec) {
  // One section per run of same-section rows. [scenario] is always printed;
  // any other section only when one of its keys departs from the default,
  // so a spec that never touched a section round-trips without it.
  std::string out;
  const KeyRow* const end = std::end(kKeys);
  for (const KeyRow* first = std::begin(kKeys); first != end;) {
    const KeyRow* last = first;
    while (last != end &&
           std::strcmp(last->doc.section, first->doc.section) == 0) {
      ++last;
    }
    std::string body;
    bool any = first == std::begin(kKeys);
    for (const Injection& inj : spec.campaign.injections) {
      for (const KeyRow* row = first; row != last; ++row) {
        if (row->matches != nullptr && row->matches(inj)) {
          body += std::string(local_name(*row)) + " = " + row->format(inj) +
                  "\n";
          any = true;
          break;
        }
      }
    }
    for (const KeyRow* row = first; row != last; ++row) {
      const bool c = changed(*row, spec);
      if (c || row->lead) print_row(*row, spec, body);
      any = any || c;
    }
    if (any) {
      if (!out.empty()) out += "\n";
      out += "[" + std::string(first->doc.section) + "]\n" + body;
    }
    first = last;
  }
  if (!spec.sweep.empty()) {
    out += "\n[sweep]\n";
    for (const auto& [axis, values] : spec.sweep) {
      out += axis + " = ";
      for (std::size_t i = 0; i < values.size(); ++i) {
        out += (i ? ", " : "") + values[i];
      }
      out += "\n";
    }
  }
  if (!spec.quick.empty()) {
    out += "\n[quick]\n";
    for (const auto& [k, v] : spec.quick) out += k + " = " + v + "\n";
  }
  return out;
}

void validate(const ScenarioSpec& spec) {
  auto fail = [&spec](const std::string& what) {
    throw SpecError("scenario '" + spec.name + "': " + what);
  };
  // The rules every cluster config obeys; the rest are the scenario's own.
  runtime::check_config(spec, fail);
  // Per-field bounds, straight from the key table.
  for (const KeyRow& row : kKeys) {
    if (row.lo == -kInf && row.hi == kInf) continue;
    with_field(row, [&](auto ref) {
      const auto& v = get(ref, spec);
      if constexpr (std::is_arithmetic_v<std::remove_cvref_t<decltype(v)>>) {
        const double x = static_cast<double>(v);
        if (row.open ? x > row.lo && x < row.hi : x >= row.lo && x <= row.hi) {
          return;
        }
        const std::string range =
            row.hi == kInf ? (row.open ? "> " : ">= ") + num(row.lo)
                           : std::string("in ") + (row.open ? "(" : "[") +
                                 num(row.lo) + ", " + num(row.hi) +
                                 (row.open ? ")" : "]");
        fail(std::string(row.doc.key) + " must be " + range + " (got " +
             field_text(row, v) + ")");
      }
    });
  }
  // The midrun crash joins the fault plan only after its reference pass.
  if (spec.faults.midrun_rank >= spec.nranks) {
    fail("midrun fault names rank " + std::to_string(spec.faults.midrun_rank) +
         " but only ranks 0.." + std::to_string(spec.nranks - 1) + " exist");
  }
  const runtime::ProtocolEntry& p =
      runtime::protocol_entry(spec.variant.protocol);
  if (spec.faults.midrun_rank >= 0 && p.channel == net::ChannelKind::kP4) {
    fail(std::string(p.display) +
         " is not fault tolerant — remove the midrun fault");
  }
  const WorkloadEntry& wl = workload_registry().at(spec.workload.name);
  for (const auto& [param, value] : spec.workload.params) {
    bool known = false;
    for (const char* k : wl.params) known = known || param == k;
    if (!known) {
      std::string msg = "workload '" + spec.workload.name +
                        "' has no parameter '" + param + "' (parameters: ";
      for (std::size_t i = 0; i < wl.params.size(); ++i) {
        if (i) msg += ", ";
        msg += wl.params[i];
      }
      fail(msg + ")");
    }
  }
}

}  // namespace mpiv::scenario
