// Env: the per-process application facade handed to workload functions.
//
// Under replication the world() communicator is transparently the replica's
// own world (the paper splits the launch-time MPI_COMM_WORLD into r worlds,
// Figure 6); applications are written exactly as for native MPI.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sdrmpi/mpi/comm.hpp"
#include "sdrmpi/sim/time.hpp"

namespace sdrmpi::mpi {

class Env {
 public:
  /// Callbacks wired by the launcher (keeps mpi:: independent of core::).
  struct Hooks {
    std::function<void(std::uint64_t)> report_checksum;
    std::function<void(const std::string&, double)> report_value;
    std::function<void(std::vector<std::byte>)> offer_snapshot;
  };

  Env(Endpoint& ep, Comm world, Hooks hooks,
      std::optional<std::vector<std::byte>> restart_state)
      : ep_(&ep),
        world_(world),
        hooks_(std::move(hooks)),
        restart_state_(std::move(restart_state)) {}

  [[nodiscard]] Comm& world() noexcept { return world_; }
  [[nodiscard]] int rank() const { return world_.rank(); }
  [[nodiscard]] int size() const { return world_.size(); }
  [[nodiscard]] Endpoint& endpoint() noexcept { return *ep_; }

  /// Which replica world this physical process belongs to (diagnostics; a
  /// transparent application never needs it).
  [[nodiscard]] int replica_world() const noexcept { return ep_->world(); }

  /// Virtual wall-clock in seconds (MPI_Wtime analog).
  [[nodiscard]] double wtime() noexcept {
    return timeunits::to_sec(ep_->now());
  }

  /// Charges `seconds` of modeled compute to this process's virtual clock.
  /// No MPI progress happens during compute (paper's progress model).
  void compute(double seconds) {
    ep_->engine().advance(timeunits::seconds(seconds));
  }

  /// Folds a value into this process's run checksum (the correctness
  /// oracle: replicas and native runs must agree bit-for-bit).
  void report_checksum(std::uint64_t digest) {
    if (hooks_.report_checksum) hooks_.report_checksum(digest);
  }
  void report_value(const std::string& key, double v) {
    if (hooks_.report_value) hooks_.report_value(key, v);
  }

  /// Declares a safe point: if this process was elected to fork a recovered
  /// replica, the fork happens here using the freshest snapshot offered.
  /// Apps that support recovery call offer_snapshot + recovery_point once
  /// per outer iteration.
  void recovery_point() { ep_->recovery_point(); }

  /// Hands the runtime a serialized application state for recovery forks.
  void offer_snapshot(std::vector<std::byte> state) {
    if (hooks_.offer_snapshot) hooks_.offer_snapshot(std::move(state));
  }

  /// Non-empty when this process is a recovered replica: the state snapshot
  /// it must resume from.
  [[nodiscard]] const std::optional<std::vector<std::byte>>& restart_state()
      const noexcept {
    return restart_state_;
  }

 private:
  Endpoint* ep_;
  Comm world_;
  Hooks hooks_;
  std::optional<std::vector<std::byte>> restart_state_;
};

}  // namespace sdrmpi::mpi
