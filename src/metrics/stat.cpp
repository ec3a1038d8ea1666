#include "metrics/stat.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

namespace mpiv::metrics {

using util::Json;

namespace {

/// Collects every numeric leaf of `v` under dotted `path` (bools as 0/1;
/// strings and arrays skipped — arrays hold per-record detail the diff
/// would double-count against the folded histograms).
void flatten(const Json& v, const std::string& path,
             std::vector<std::pair<std::string, double>>& out) {
  switch (v.kind) {
    case Json::Kind::kInt:
    case Json::Kind::kUint:
    case Json::Kind::kDouble: out.emplace_back(path, v.number()); break;
    case Json::Kind::kBool:
      out.emplace_back(path, v.boolean ? 1.0 : 0.0);
      break;
    case Json::Kind::kObject:
      for (const auto& [name, child] : v.members) {
        flatten(child, path.empty() ? name : path + "." + name, out);
      }
      break;
    default: break;
  }
}

void collect_runs(const Json& doc, std::vector<RunMetrics>& out) {
  const Json* runs = doc.find("runs");
  if (runs != nullptr && runs->kind == Json::Kind::kArray) {
    for (const Json& run : runs->items) {
      RunMetrics rm;
      if (const Json* label = run.find("label");
          label != nullptr && label->kind == Json::Kind::kString) {
        rm.label = label->str;
      }
      if (const Json* skipped = run.find("skipped")) {
        rm.skipped = skipped->kind == Json::Kind::kBool && skipped->boolean;
      }
      flatten(run, "", rm.values);
      std::sort(rm.values.begin(), rm.values.end());
      out.push_back(std::move(rm));
    }
  }
  if (const Json* reports = doc.find("reports");
      reports != nullptr && reports->kind == Json::Kind::kArray) {
    for (const Json& sub : reports->items) collect_runs(sub, out);
  }
}

/// Splits "metrics.<family>.<entity>.<rest>" when <entity> is a per-rank
/// or per-shard instrument name ("rank12", "el0"); returns false otherwise.
bool split_entity(const std::string& name, std::string& entity,
                  std::string& detail) {
  if (name.rfind("metrics.", 0) != 0) return false;
  const std::size_t fam_end = name.find('.', sizeof("metrics.") - 1);
  if (fam_end == std::string::npos) return false;
  const std::size_t ent_end = name.find('.', fam_end + 1);
  if (ent_end == std::string::npos) return false;
  const std::string ent = name.substr(fam_end + 1, ent_end - fam_end - 1);
  std::size_t digits = 0;
  std::string stem;
  if (ent.rfind("rank", 0) == 0) {
    stem = "rank";
  } else if (ent.rfind("el", 0) == 0) {
    stem = "el";
  } else {
    return false;
  }
  for (std::size_t i = stem.size(); i < ent.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(ent[i])) == 0) return false;
    ++digits;
  }
  if (digits == 0) return false;
  entity = ent;
  detail = name.substr(ent_end + 1);
  return true;
}

}  // namespace

const double* RunMetrics::find(const std::string& name) const {
  const auto it = std::lower_bound(
      values.begin(), values.end(), name,
      [](const auto& kv, const std::string& n) { return kv.first < n; });
  return it != values.end() && it->first == name ? &it->second : nullptr;
}

std::vector<RunMetrics> extract_runs(const Json& report) {
  std::vector<RunMetrics> out;
  collect_runs(report, out);
  if (out.empty()) {
    throw std::runtime_error(
        "document has no \"runs\" array (is this a mpiv_run JSON report?)");
  }
  return out;
}

std::vector<TopRow> top_rows(const RunMetrics& run, std::size_t n) {
  std::map<std::string, TopRow> by_entity;
  for (const auto& [name, value] : run.values) {
    std::string entity;
    std::string detail;
    if (!split_entity(name, entity, detail)) continue;
    TopRow& row = by_entity[entity];
    row.entity = entity;
    row.details.emplace_back(detail, value);
  }
  // Weight: the tail-latency instrument when the entity has one (ranks),
  // store activity for EL shards, else the entity's largest detail.
  for (auto& [entity, row] : by_entity) {
    row.weight_metric.clear();
    for (const char* pref : {"ack_us.p99", "stored_ops"}) {
      for (const auto& [detail, value] : row.details) {
        if (detail == pref) {
          row.weight_metric = detail;
          row.weight = value;
          break;
        }
      }
      if (!row.weight_metric.empty()) break;
    }
    if (row.weight_metric.empty()) {
      for (const auto& [detail, value] : row.details) {
        if (row.weight_metric.empty() || value > row.weight) {
          row.weight_metric = detail;
          row.weight = value;
        }
      }
    }
  }
  std::vector<TopRow> rows;
  rows.reserve(by_entity.size());
  for (auto& [entity, row] : by_entity) rows.push_back(std::move(row));
  std::sort(rows.begin(), rows.end(), [](const TopRow& a, const TopRow& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.entity < b.entity;
  });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

DiffResult diff_reports(const Json& a, const Json& b, double tolerance) {
  DiffResult res;
  std::vector<RunMetrics> ra = extract_runs(a);
  std::vector<RunMetrics> rb = extract_runs(b);
  std::map<std::string, const RunMetrics*> bmap;
  for (const RunMetrics& r : rb) bmap.emplace(r.label, &r);
  std::set<std::string> matched;
  for (const RunMetrics& run_a : ra) {
    const auto it = bmap.find(run_a.label);
    if (it == bmap.end()) {
      res.unmatched_runs.push_back(run_a.label + " (only in A)");
      continue;
    }
    matched.insert(run_a.label);
    const RunMetrics& run_b = *it->second;
    ++res.runs_compared;
    // Walk the union of both sorted metric lists.
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < run_a.values.size() || j < run_b.values.size()) {
      int side = 0;  // 0 both, 1 only-A, 2 only-B
      if (i >= run_a.values.size()) {
        side = 2;
      } else if (j >= run_b.values.size()) {
        side = 1;
      } else if (run_a.values[i].first < run_b.values[j].first) {
        side = 1;
      } else if (run_b.values[j].first < run_a.values[i].first) {
        side = 2;
      }
      DiffEntry e;
      e.run = run_a.label;
      if (side == 0) {
        ++res.metrics_compared;
        e.metric = run_a.values[i].first;
        e.a = run_a.values[i].second;
        e.b = run_b.values[j].second;
        ++i;
        ++j;
        const double denom = std::max(std::fabs(e.a), std::fabs(e.b));
        e.drift = denom == 0.0 ? 0.0 : std::fabs(e.a - e.b) / denom;
        if (e.drift > tolerance) res.drifting.push_back(std::move(e));
      } else if (side == 1) {
        e.metric = run_a.values[i].first;
        e.a = run_a.values[i].second;
        e.missing_in = 2;
        ++i;
        res.drifting.push_back(std::move(e));
      } else {
        e.metric = run_b.values[j].first;
        e.b = run_b.values[j].second;
        e.missing_in = 1;
        ++j;
        res.drifting.push_back(std::move(e));
      }
    }
  }
  for (const RunMetrics& run_b : rb) {
    if (matched.count(run_b.label) == 0) {
      res.unmatched_runs.push_back(run_b.label + " (only in B)");
    }
  }
  std::sort(res.drifting.begin(), res.drifting.end(),
            [](const DiffEntry& x, const DiffEntry& y) {
              if (x.drift != y.drift) return x.drift > y.drift;
              if (x.run != y.run) return x.run < y.run;
              return x.metric < y.metric;
            });
  return res;
}

}  // namespace mpiv::metrics
