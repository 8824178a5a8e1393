// The four benchmark workloads and the per-layer probes of the traced run.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  /// This run's private scratch directory (checkpoints, probe files).
  std::string dir;
};

/// Open-loop arrival rate of sessions_l3l4, in sessions per second: about a
/// third of the 165-182/s that `mpas_bench capacity` measured for this
/// mix on a 4-vCPU Xeon VM. At half the capacity, queueing turned host-speed
/// drift into run-to-run p99 swings of 2-4x.
inline constexpr double kSessionRate = 60.0;

/// model_l7: one TC5 run on the level-7 mesh through SelfHealingHybrid,
/// inline (threads = 0).
Outcome run_model(const RunConfig& cfg);
/// ranks_l6: DistributedSw, 4 ranks, lockstep run() on one thread.
Outcome run_ranks(const RunConfig& cfg);
/// sessions_l3l4: open-loop arrivals through SessionManager.
Outcome run_sessions(const RunConfig& cfg, double seconds);
/// Sessions per second the service sustains on this mix with every
/// arrival queued at once (how kSessionRate was chosen).
double measure_session_capacity(const RunConfig& cfg, int sessions);

/// Traced runs only: time every layer through its public functions and
/// fill out.layer with the per-layer metrics the workload itself does not
/// produce.
void run_probes(const RunConfig& cfg, const std::string& workload,
                Outcome& out);

/// Outlier diagnostic taken before every workload: a fixed dependent
/// floating-point loop, median of three, in ms.
double host_speed_probe_ms();

/// Self-tests of the benchmark's own logic; returns the failures.
int run_selftests(const std::string& dir);

}  // namespace perfbench
