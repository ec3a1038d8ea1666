// Micro-benchmarks for the simulator hot paths.
//
// Times the inner loops every protocol variant executes per message —
// determinant storage (EventStore), antecedence-graph reachability,
// sender-log churn, engine event scheduling — plus one end-to-end cluster
// run, and prints wall clock, throughput and peak RSS. Run it on two trees
// to compare a hot-path change; end-to-end host time is bench/e2e's job.
//
// Usage: bench_micro_hotpath [--quick]
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <queue>

#include "causal/antecedence_graph.hpp"
#include "causal/event_store.hpp"
#include "causal/sender_log.hpp"
#include "scenario/runner.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/engine.hpp"
#include "workloads/apps.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct BenchResult {
  std::string name;
  double wall_ms = 0;
  std::uint64_t items = 0;  // work units (adds, visits, events, ...)
  double items_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(items) / (wall_ms / 1e3) : 0;
  }
};

std::vector<BenchResult> g_results;
std::uint64_t g_sink = 0;  // defeats dead-code elimination

template <class Fn>
void run_bench(const char* name, Fn&& fn) {
  BenchResult r;
  r.name = name;
  const auto t0 = Clock::now();
  r.items = fn();
  const auto t1 = Clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  std::printf("%-24s %10.1f ms  %12llu items  %12.0f items/s\n", name,
              r.wall_ms, static_cast<unsigned long long>(r.items),
              r.items_per_sec());
  g_results.push_back(std::move(r));
}

mpiv::ftapi::Determinant make_det(std::uint32_t creator, std::uint64_t seq,
                                  int nranks) {
  mpiv::ftapi::Determinant d;
  d.creator = creator;
  d.seq = seq;
  d.src = static_cast<std::uint32_t>((creator + seq) % static_cast<std::uint64_t>(nranks));
  d.ssn = seq;
  d.tag = 1;
  d.dep_creator = d.src;
  d.dep_seq = seq > 1 ? seq - 1 : 0;
  return d;
}

// EventStore: the per-message determinant path — add events for every
// creator, query the watermarks a piggyback build reads, and prune on a
// periodic stable-clock advance (the Event Logger's GC effect).
std::uint64_t bench_event_store(std::uint64_t rounds) {
  const int nranks = 16;
  mpiv::causal::EventStore store(nranks);
  std::vector<std::uint64_t> stable(static_cast<std::size_t>(nranks), 0);
  std::uint64_t ops = 0;
  for (std::uint64_t r = 1; r <= rounds; ++r) {
    for (int c = 0; c < nranks; ++c) {
      store.add(make_det(static_cast<std::uint32_t>(c), r, nranks));
      g_sink += store.known(static_cast<std::uint32_t>(c));
      const auto* d = store.find(static_cast<std::uint32_t>(c), r);
      g_sink += d ? d->ssn : 0;
      ops += 3;
    }
    if (r % 64 == 0) {
      // Stability lags by 32 events: the store keeps a sliding unstable
      // suffix, exactly the EL-enabled steady state.
      for (auto& s : stable) s = r - 32;
      store.set_stable(stable);
      ++ops;
    }
  }
  g_sink += store.held_count();
  return ops;
}

// AntecedenceGraph: vertex insertion plus the incremental reachability
// query Manetho/LogOn run on every send.
std::uint64_t bench_graph_reach(std::uint64_t rounds) {
  const int nranks = 16;
  mpiv::causal::AntecedenceGraph graph(nranks);
  std::vector<std::vector<std::uint64_t>> cache(
      static_cast<std::size_t>(nranks));
  std::vector<std::uint64_t> stable(static_cast<std::size_t>(nranks), 0);
  std::uint64_t ops = 0;
  for (std::uint64_t r = 1; r <= rounds; ++r) {
    for (int c = 0; c < nranks; ++c) {
      graph.add(make_det(static_cast<std::uint32_t>(c), r, nranks));
      ++ops;
    }
    const auto peer = static_cast<std::uint32_t>(r % nranks);
    graph.known_from_cached(peer, r, cache[peer]);
    ++ops;
    if (r % 64 == 0) {
      for (auto& s : stable) s = r - 32;
      graph.prune_stable(stable);
    }
  }
  g_sink += graph.vertex_count();
  return ops;
}

// Full (non-incremental) traversal with a fresh visited set per query —
// the recovery-path variant.
std::uint64_t bench_graph_full(std::uint64_t rounds) {
  const int nranks = 16;
  mpiv::causal::AntecedenceGraph graph(nranks);
  const std::uint64_t depth = 512;
  for (std::uint64_t s = 1; s <= depth; ++s) {
    for (int c = 0; c < nranks; ++c) {
      graph.add(make_det(static_cast<std::uint32_t>(c), s, nranks));
    }
  }
  std::vector<std::uint64_t> known;
  std::uint64_t ops = 0;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const auto peer = static_cast<std::uint32_t>(r % nranks);
    ops += graph.known_from(peer, depth, known);
    g_sink += known[0];
  }
  return ops;
}

// SenderLog: the log/GC cycle every send and peer checkpoint runs.
std::uint64_t bench_sender_log(std::uint64_t rounds) {
  const int nranks = 16;
  mpiv::causal::SenderLog slog(nranks);
  mpiv::net::Payload p{4096, 0x5eed};
  std::uint64_t ops = 0;
  for (std::uint64_t r = 1; r <= rounds; ++r) {
    for (int dst = 0; dst < nranks; ++dst) {
      slog.log(dst, r, 1, p);
      ++ops;
    }
    if (r % 64 == 0) {
      for (int dst = 0; dst < nranks; ++dst) slog.gc(dst, r - 32);
      ops += nranks;
    }
  }
  g_sink += slog.bytes();
  return ops;
}

// Engine resume lane: P coroutine processes sleeping in lockstep — the
// schedule/resume cycle under every simulated blocking operation.
std::uint64_t bench_engine_resume(std::uint64_t events) {
  mpiv::sim::Engine eng;
  const int nprocs = 16;
  const std::uint64_t per_proc = events / nprocs;
  for (int p = 0; p < nprocs; ++p) {
    // std::string + avoids the GCC 12 -Wrestrict false positive that
    // `"p" + std::to_string(p)` trips under -O2.
    std::string pname = "p";
    pname += std::to_string(p);
    auto& proc = eng.create_process(pname);
    proc.start([](mpiv::sim::Engine& e, std::uint64_t n) -> mpiv::sim::Task<void> {
      for (std::uint64_t i = 0; i < n; ++i) co_await e.sleep(10);
    }(eng, per_proc));
  }
  return eng.run();
}

// Engine callback lane: a self-rescheduling timer chain per node, the
// at()/after() pattern the network and services use.
std::uint64_t bench_engine_callbacks(std::uint64_t events) {
  mpiv::sim::Engine eng;
  const int chains = 16;
  const std::uint64_t per_chain = events / chains;
  struct Chain {
    mpiv::sim::Engine* eng;
    std::uint64_t left;
    void fire() {
      if (left-- == 0) return;
      eng->after(10, [this] { fire(); });
    }
  };
  std::vector<Chain> cs(chains);
  for (auto& c : cs) {
    c.eng = &eng;
    c.left = per_chain;
    eng.after(1, [&c] { c.fire(); });
  }
  return eng.run();
}

// Event queue duel: the calendar queue that now backs the engine versus
// the binary heap it replaced, fed the exact same hold-model stream —
// a steady population of pending events where each pop schedules a
// successor a short pseudo-random distance in the future (the engine's
// actual access pattern).
struct QEv {
  mpiv::sim::Time t;
  std::uint64_t seq;
};

template <class Queue, class Push, class PopTop>
std::uint64_t bench_queue(std::uint64_t events, Queue& q, Push push,
                          PopTop pop_top) {
  const std::uint64_t hold = 4096;  // steady pending population
  std::uint64_t x = 0x9e3779b97f4a7c15ull;  // splitmix-style gap stream
  std::uint64_t seq = 0;
  auto gap = [&x]() -> mpiv::sim::Time {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<mpiv::sim::Time>((z ^ (z >> 31)) % 20'000);
  };
  for (std::uint64_t i = 0; i < hold; ++i) push(q, QEv{gap(), seq++});
  std::uint64_t ops = hold;
  for (std::uint64_t i = 0; i < events; ++i) {
    const QEv top = pop_top(q);
    g_sink += static_cast<std::uint64_t>(top.t) ^ top.seq;
    push(q, QEv{top.t + gap(), seq++});  // reschedule past `now`
    ops += 2;
  }
  while (q.size() > 64) {  // drain the tail through the shrink rebuilds
    g_sink += pop_top(q).seq;
    ++ops;
  }
  return ops;
}

std::uint64_t bench_queue_calendar(std::uint64_t events) {
  mpiv::sim::CalendarQueue<QEv> q;
  return bench_queue(
      events, q, [](auto& qq, const QEv& e) { qq.push(e); },
      [](auto& qq) {
        const QEv e = qq.top();
        qq.pop();
        return e;
      });
}

std::uint64_t bench_queue_binary_heap(std::uint64_t events) {
  struct Later {
    bool operator()(const QEv& a, const QEv& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<QEv, std::vector<QEv>, Later> q;
  return bench_queue(
      events, q, [](auto& qq, const QEv& e) { qq.push(e); },
      [](auto& qq) {
        const QEv e = qq.top();
        qq.pop();
        return e;
      });
}

// End-to-end: a causal cluster running wildcard traffic — every layer of
// the stack (engine, network, daemon, matching, strategy, EL) at once,
// driven through the scenario API like every other experiment.
std::uint64_t bench_cluster(int iterations) {
  const mpiv::scenario::RunResult r = mpiv::scenario::run_spec(
      mpiv::scenario::ScenarioBuilder("hotpath_e2e")
          .set("variant", "logon:el")
          .set("nranks", "8")
          .set("seed", "11")
          .set("workload", "random_any")
          .set("workload.iters", std::to_string(iterations))
          .set("workload.seed", "11")
          .set("workload.bytes", "1024")
          .build());
  MPIV_CHECK(r.completed, "cluster bench did not complete");
  g_sink += r.checksums[0];
  return r.events_executed;
}

std::uint64_t peak_rss_kb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::uint64_t scale = quick ? 1 : 4;

  std::printf("bench_micro_hotpath (%s)\n", quick ? "quick" : "full");
  run_bench("event_store", [&] { return bench_event_store(30000 * scale); });
  run_bench("graph_reach", [&] { return bench_graph_reach(20000 * scale); });
  run_bench("graph_full", [&] { return bench_graph_full(300 * scale); });
  run_bench("sender_log", [&] { return bench_sender_log(30000 * scale); });
  run_bench("engine_resume", [&] { return bench_engine_resume(400000 * scale); });
  run_bench("engine_callbacks",
            [&] { return bench_engine_callbacks(400000 * scale); });
  run_bench("queue_calendar",
            [&] { return bench_queue_calendar(1000000 * scale); });
  run_bench("queue_binary_heap",
            [&] { return bench_queue_binary_heap(1000000 * scale); });
  run_bench("cluster_e2e",
            [&] { return bench_cluster(static_cast<int>(30 * scale)); });

  double total_ms = 0;
  for (const BenchResult& r : g_results) total_ms += r.wall_ms;
  const std::uint64_t rss = peak_rss_kb();
  std::printf("%-24s %10.1f ms  peak RSS %llu kB  (sink %llx)\n", "TOTAL",
              total_ms, static_cast<unsigned long long>(rss),
              static_cast<unsigned long long>(g_sink));

  return 0;
}
