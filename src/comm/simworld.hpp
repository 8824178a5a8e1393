// In-process message-passing fabric: the MPI substitute (see DESIGN.md).
//
// Ranks are partition-local model instances driven in lockstep inside one
// process: their compute phases run concurrently, and every exchange is
// posted and drained by one thread between them. Messages are explicit typed buffers matched by (source,
// destination, tag) in FIFO order — the same structure an MPI halo exchange
// has, so exchange volume and message counts are measured for real; only
// the wire time is modeled (machine::Network).
//
// A resilience::FaultInjector can be hooked into the fabric; `send` then
// consults it per message and may drop the payload, flip a bit in flight,
// or defer delivery past later traffic on the same stream (reordering).
// Detection and recovery live one layer up (resilience::ResilientChannel /
// comm::DistributedSw) — the fabric itself fails silently, like real wires.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "resilience/fault.hpp"
#include "util/annotations.hpp"
#include "util/lock_ranks.hpp"
#include "util/mutex.hpp"
#include "util/types.hpp"

namespace mpas::comm {

class SimWorld {
 public:
  explicit SimWorld(int num_ranks);

  [[nodiscard]] int num_ranks() const { return num_ranks_; }

  /// Non-blocking, thread-safe post (MPI_Isend-like: the payload is the
  /// message, ownership transfers). Subject to injected faults.
  void send(int from, int to, int tag, std::vector<Real> payload);

  /// FIFO-matched receive. Throws if no matching message has been posted —
  /// the lockstep driver always posts all sends of a phase first.
  std::vector<Real> recv(int to, int from, int tag);

  /// Non-throwing FIFO-matched receive: nullopt if nothing is queued.
  std::optional<std::vector<Real>> try_recv(int to, int from, int tag);

  /// True if any message is still queued (catches protocol bugs in tests).
  /// Messages held back by an injected delay fault are in flight on a slow
  /// wire, not queued, and are not counted.
  [[nodiscard]] bool has_pending() const;

  /// Snapshot of every non-empty queue (for diagnostics and for the
  /// resilience layer's end-of-run stale drain).
  struct PendingQueue {
    int from = -1, to = -1, tag = -1;
    std::size_t depth = 0;
  };
  [[nodiscard]] std::vector<PendingQueue> pending() const;
  [[nodiscard]] std::string pending_summary() const;

  /// Hook fault injection into the fabric (non-owning; nullptr detaches).
  void set_fault_injector(resilience::FaultInjector* injector);

  struct Stats {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };
  [[nodiscard]] Stats stats() const;
  void reset_stats();

 private:
  struct Key {
    int from, to, tag;
    bool operator<(const Key& o) const {
      return std::tie(from, to, tag) < std::tie(o.from, o.to, o.tag);
    }
  };

  void enqueue_locked(const Key& key, std::vector<Real> payload)
      MPAS_REQUIRES(mutex_);
  void flush_delayed_locked(const Key& key) MPAS_REQUIRES(mutex_);
  /// Publish the in-flight message count (gauge + trace counter sample).
  void publish_depth_locked() MPAS_REQUIRES(mutex_);

  int num_ranks_;
  // Total queued messages across all streams.
  std::int64_t in_flight_ MPAS_GUARDED_BY(mutex_) = 0;
  obs::Gauge* depth_gauge_ = nullptr;  // resolved once in the constructor
  mutable util::Mutex mutex_{"comm.simworld", util::lockrank::kSimWorld};
  std::map<Key, std::deque<std::vector<Real>>> queues_
      MPAS_GUARDED_BY(mutex_);
  // Messages held back by a delay fault; delivered ahead of the next send
  // on the same stream (i.e. after any traffic posted in between).
  std::map<Key, std::deque<std::vector<Real>>> delayed_
      MPAS_GUARDED_BY(mutex_);
  resilience::FaultInjector* injector_ MPAS_GUARDED_BY(mutex_) = nullptr;
  Stats stats_ MPAS_GUARDED_BY(mutex_);
};

}  // namespace mpas::comm
