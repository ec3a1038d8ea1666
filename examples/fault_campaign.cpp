// Fault-injection campaigns on the FaultEngine: the Fig. 1 fault-frequency
// sweep plus an EL-shard failover chaos demo with recovery timelines.
//
//   $ ./fault_campaign [nranks] [scale]
//
// Part 1 runs a BT-like workload under coordinated checkpointing,
// pessimistic and causal message logging at increasing fault rates and
// prints slowdowns (each cell one declarative scenario). Part 2 kills an
// Event Logger shard mid-run, lets the engine fail its ranks over onto the
// surviving shard, then crashes a re-homed rank — and prints the
// per-phase recovery timeline the engine recorded.
#include <cstdio>
#include <cstdlib>

#include "scenario/runner.hpp"

using namespace mpiv;

namespace {

double run_once(const char* variant, ckpt::Policy policy, sim::Time interval,
                int nranks, double scale, double rank_rate) {
  const scenario::RunResult r = scenario::run_spec(
      scenario::ScenarioBuilder("fault_campaign")
          .variant(variant)
          .nranks(nranks)
          .fault_rate(rank_rate)
          .checkpoint(policy, interval)
          .max_sim_time(3600LL * sim::kSecond)
          .nas(workloads::NasKernel::kBT, workloads::NasClass::kA, scale)
          .build());
  return r.completed ? sim::to_sec(r.report.completion_time) : -1.0;
}

void rate_sweep(int nranks, double scale) {
  struct Arm {
    const char* name;
    const char* variant;
    ckpt::Policy policy;
    sim::Time interval;
  };
  const Arm arms[] = {
      {"coordinated", "coordinated", ckpt::Policy::kAllAtOnce,
       60 * sim::kSecond},
      {"pessimistic", "pessimistic", ckpt::Policy::kRoundRobin,
       std::max<sim::Time>(1, 60 * sim::kSecond / nranks)},
      {"causal", "manetho:el", ckpt::Policy::kRoundRobin,
       std::max<sim::Time>(1, 60 * sim::kSecond / nranks)},
  };
  double base[3];
  for (int i = 0; i < 3; ++i) {
    base[i] = run_once(arms[i].variant, arms[i].policy, arms[i].interval,
                       nranks, scale, 0.0);
  }

  std::printf("%12s %14s %14s %14s\n", "faults/min", arms[0].name,
              arms[1].name, arms[2].name);
  for (const double rate : {0.0, 0.25, 0.5, 1.0, 2.0}) {
    std::printf("%12.2f", rate);
    for (int i = 0; i < 3; ++i) {
      const double t = rate == 0.0
                           ? base[i]
                           : run_once(arms[i].variant, arms[i].policy,
                                      arms[i].interval, nranks, scale, rate);
      if (t < 0) {
        std::printf(" %14s", "no progress");
      } else {
        std::printf(" %13.0f%%", 100.0 * t / base[i]);
      }
    }
    std::printf("\n");
  }
}

void el_failover_demo() {
  std::printf("\nEL-shard failover: 8 ranks, 2 shards; shard 0 dies at 15 ms,"
              "\nshard 1 mounts its log and absorbs its ranks; re-homed rank 2"
              "\nis killed at 60%% of the reference run.\n\n");
  const scenario::RunResult r = scenario::run_spec(
      scenario::ScenarioBuilder("el_failover_demo")
          .variant("vcausal:el")
          .nranks(8)
          .el_shards(2)
          .checkpoint(ckpt::Policy::kRoundRobin, 30 * sim::kMillisecond)
          .random_then_ring(12, 12, /*wseed=*/11, /*bytes=*/2048)
          .crash_el_at(15 * sim::kMillisecond, 0)
          .el_failover(fault::ElFailover::kReassign, 10 * sim::kMillisecond)
          .midrun_fault(/*rank=*/2, /*frac=*/0.6)
          .build());
  if (!r.completed) {
    std::printf("run did not complete\n");
    return;
  }
  std::printf("completed: %.3f s simulated (reference %.3f s), "
              "EL crashes %llu, failovers %llu, recovered exact: %s\n",
              r.sim_seconds(), sim::to_sec(r.reference_time),
              static_cast<unsigned long long>(r.report.fault_counts.el_crashes),
              static_cast<unsigned long long>(r.report.fault_counts.el_failovers),
              r.recovered_exact ? "yes" : "NO");
  std::printf("\n%6s %12s %12s %12s %12s %12s %8s\n", "rank", "detect (ms)",
              "image (ms)", "collect (ms)", "replay (ms)", "total (ms)",
              "events");
  for (const fault::RecoveryRecord& rec : r.report.recoveries) {
    if (!rec.complete()) continue;
    std::printf("%6d %12.3f %12.3f %12.3f %12.3f %12.3f %8llu\n", rec.rank,
                sim::to_ms(rec.detect_ns()), sim::to_ms(rec.image_ns()),
                sim::to_ms(rec.collect_ns()), sim::to_ms(rec.replay_ns()),
                sim::to_ms(rec.total_ns()),
                static_cast<unsigned long long>(rec.replay_events));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int nranks = argc > 1 ? std::atoi(argv[1]) : 9;
  const double scale = argc > 2 ? std::atof(argv[2]) : 8.0;
  if (!workloads::nas_valid_nranks(workloads::NasKernel::kBT, nranks)) {
    std::fprintf(stderr, "BT needs a square rank count\n");
    return 2;
  }
  std::printf("fault campaign: BT-like, %d ranks, scale %.1f\n\n", nranks, scale);
  rate_sweep(nranks, scale);
  el_failover_demo();
  return 0;
}
