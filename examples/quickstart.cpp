// Quickstart: an 8-rank ring application under causal message logging with
// an Event Logger, one injected crash, and verified recovery.
//
//   $ ./quickstart            (or: mpiv_run scenarios/quickstart.scn)
//
// Walks through the full life of a fault-tolerant MPI run: launch, an
// uncoordinated checkpoint wave, a crash of rank 3 mid-run, determinant
// collection from the Event Logger and the survivors, replay, and a final
// checksum comparison against the fault-free execution. The whole
// experiment is one declarative scenario; the runner's midrun-fault mode
// executes the fault-free reference and the faulty run back to back.
#include <cstdio>

#include "scenario/runner.hpp"

using namespace mpiv;

int main() {
  std::printf("MPIV-EL quickstart: 8-rank ring, Vcausal + Event Logger\n");
  std::printf("======================================================\n\n");

  // The settings of scenarios/quickstart.scn, line for line.
  const scenario::ScenarioSpec spec =
      scenario::ScenarioBuilder("quickstart")
          .set("nranks", "8")
          .set("variant", "vcausal:el")
          .set("ckpt_policy", "round-robin")
          .set("ckpt_interval", "75ms")
          .set("midrun_fault_rank", "3")
          .set("workload", "ring")
          .set("workload.laps", "60")
          .set("workload.bytes", "4096")
          .build();
  const scenario::RunResult r = scenario::run_spec(spec);

  std::printf("fault-free run: %.1f ms\n", sim::to_ms(r.reference_time));
  std::printf("faulty run:     %.1f ms, %llu fault(s) injected\n",
              sim::to_ms(r.report.completion_time),
              static_cast<unsigned long long>(r.report.faults_injected));
  const ftapi::RankStats& r3 = r.report.rank_stats[3];
  std::printf("rank 3 recovery: %llu determinants replayed, collected in %.2f ms "
              "(total restart %.2f ms)\n",
              static_cast<unsigned long long>(r3.recovery_events),
              sim::to_ms(r3.recovery_collect_time),
              sim::to_ms(r3.recovery_total_time));

  // The acid test: the recovered execution produced the exact results of
  // the fault-free one (the ring checksum is order-sensitive).
  std::printf("\nchecksums identical to fault-free run: %s\n",
              r.recovered_exact ? "YES" : "NO (BUG!)");
  std::printf("slowdown: %.1f%%\n",
              100.0 * static_cast<double>(r.report.completion_time) /
                  static_cast<double>(r.reference_time));
  return r.recovered_exact ? 0 : 1;
}
