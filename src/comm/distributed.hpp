// Multi-rank shallow-water integrator over partitioned local meshes, wired
// through the SimWorld message fabric. Functionally this is the paper's MPI
// layer: each rank advances its owned cells/edges, exchanging halos of the
// provisional state and of pv_edge at the sync points of Figure 4. Owned
// values are bitwise identical to a serial run on the global mesh (tested),
// because every kernel gathers the same inputs in the same order.
//
// The ranks compute concurrently: every per-rank phase between two halo
// exchanges runs on a thread pool the integrator owns, and the exchanges
// themselves run serially on the calling thread. A rank's compute touches
// only its own FieldStore and LocalMesh, so values cross ranks only inside
// the exchanges and the results do not depend on the thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "comm/simworld.hpp"
#include "exec/thread_pool.hpp"
#include "partition/halo.hpp"
#include "resilience/fault.hpp"
#include "resilience/health/monitor.hpp"
#include "resilience/stats.hpp"
#include "sw/kernels.hpp"
#include "sw/testcases.hpp"

namespace mpas::comm {

/// Configuration of the resilience layer around the distributed
/// integrator. With an injector attached, the named faults are actually
/// produced; without one the detection/recovery machinery still runs
/// (envelopes, health checks, checkpoints) so the overhead path is
/// testable fault-free.
struct ResilienceOptions {
  resilience::FaultInjector* injector = nullptr;  // non-owning, optional
  bool recover = true;           // off: first detection raises mpas::Error
  resilience::RetryPolicy retry;
  int checkpoint_interval = 5;   // steps between in-memory checkpoints
  int max_rollbacks = 8;         // per-incident escalation bound
  Real mass_drift_tol = 1e-9;    // mass is conserved to rounding
  Real energy_drift_tol = 1e-4;  // energy only to time-truncation error
  /// Per-rank modeled seconds of one healthy step, fed (plus any injected
  /// stall time) to an attached HealthMonitor as that rank's step time.
  Real nominal_step_seconds = 1e-3;
};

class DistributedSw {
 public:
  DistributedSw(const mesh::VoronoiMesh& global_mesh, int num_ranks,
                sw::SwParams params,
                sw::LoopVariant variant = sw::LoopVariant::BranchFree,
                int halo_layers = 2);
  ~DistributedSw();  // out of line: Resilience is incomplete here

  void apply_test_case(const sw::TestCase& tc);
  void initialize();
  void step();
  void run(int steps);

  [[nodiscard]] int num_ranks() const { return world_->num_ranks(); }
  [[nodiscard]] const partition::LocalMesh& local_mesh(int rank) const {
    return locals_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] const partition::ExchangePlan& plan(int rank) const {
    return plans_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] sw::FieldStore& fields(int rank) {
    return *stores_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] SimWorld::Stats comm_stats() const { return world_->stats(); }

  /// Assemble a global field from the owners (cells or edges), for
  /// validation against a serial run.
  [[nodiscard]] std::vector<Real> gather_global(sw::FieldId field) const;

  /// Turn on the resilience layer: halo payloads travel in sequenced,
  /// checksummed envelopes with bounded retransmission; `run` additionally
  /// checkpoints every rank's full field state every `checkpoint_interval`
  /// steps, health-checks the state after every step, and rolls back and
  /// replays when the state is poisoned. Call before any exchange traffic
  /// (i.e. before initialize()).
  void enable_resilience(const ResilienceOptions& options);

  [[nodiscard]] bool resilience_enabled() const {
    return resilience_ != nullptr;
  }
  [[nodiscard]] resilience::ResilienceStats resilience_stats() const;

  /// Steps completed (and kept — rolled-back steps do not count) by the
  /// resilient run() driver.
  [[nodiscard]] std::int64_t step_index() const { return step_index_; }

  /// Attach a health monitor (non-owning; nullptr detaches). The resilient
  /// run() driver feeds it per-rank step times ("rank0".."rankN", nominal
  /// plus injected stall seconds) and, when ranks end up quarantined,
  /// shrinks the world onto the survivors at the next step boundary. The
  /// caller may pre-track entities; untracked ranks are tracked on first
  /// use.
  void set_health_monitor(resilience::health::HealthMonitor* monitor);

  /// Override the fabric's fault injector. The SimWorld attaches the
  /// ambient MPAS_FAULT campaign on construction; a reference run that
  /// must stay fault-free passes nullptr here to detach it.
  void set_fault_injector(resilience::FaultInjector* injector);

  /// Repartition the *current* prognostic state onto `new_num_ranks` ranks
  /// (degraded-mode continuation after rank loss). Gathers H/U (+tracer)
  /// by global id, rebuilds partition/halos/plans/fabric, refills every
  /// local entity, and re-derives the diagnostics — the exact state a
  /// completed step leaves, so the continued run stays bitwise identical
  /// to an uninterrupted one (owned values are rank-count-invariant).
  /// Requires quiescence (no halo traffic in flight); the checkpoint is
  /// invalidated and retaken on the next resilient step, cumulative
  /// resilience counters carry over.
  void shrink_to(int new_num_ranks);

 private:
  struct Resilience;  // channel + checkpoint + counters (distributed.cpp)

  /// Run `body(rank)` for every rank on the rank pool (the caller is one
  /// of its participants), each inside a `distributed:rank` span tagged
  /// with `phase`. Returns once every rank is done.
  void for_each_rank(const char* phase, const std::function<void(int)>& body);
  void exchange(sw::FieldId field);
  void compute_diagnostics(int rank, sw::FieldId h_in, sw::FieldId u_in);
  void reconstruct(int rank);
  void compute_tend(int rank, sw::FieldId h_in, sw::FieldId u_in);

  void run_resilient(int steps);
  void take_checkpoint();
  void rollback();
  void apply_step_faults(std::int64_t step);
  [[nodiscard]] bool state_healthy(std::string* reason);
  void drain_stale_messages();

  [[nodiscard]] std::string rank_entity(int rank) const;
  void feed_health(std::int64_t step);
  void shrink_quarantined_ranks();

  const mesh::VoronoiMesh& global_;
  sw::SwParams params_;
  sw::LoopVariant variant_;
  int halo_layers_;
  partition::Partition part_;
  std::vector<partition::LocalMesh> locals_;
  std::vector<partition::ExchangePlan> plans_;
  std::vector<std::unique_ptr<sw::FieldStore>> stores_;
  // unique_ptr: SimWorld owns a mutex (immovable), and shrink_to swaps in
  // a fresh, smaller fabric.
  std::unique_ptr<SimWorld> world_;
  std::unique_ptr<Resilience> resilience_;
  resilience::health::HealthMonitor* health_ = nullptr;
  std::uint64_t health_generation_ = 0;
  std::vector<Real> stall_scratch_;  // per-rank stall seconds this step
  std::int64_t step_index_ = 0;
  // Sized for the constructor's rank count; after shrink_to the surplus
  // participants find no rank to take.
  exec::ThreadPool pool_;
};

}  // namespace mpas::comm
