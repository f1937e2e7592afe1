// Shared types of the host-cost benchmark (see README.md in this
// directory): workload descriptions, the result collector and the
// per-layer probe entry points.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "child.hpp"
#include "sdrmpi/sdrmpi.hpp"
#include "sdrmpi/sweep/result_codec.hpp"
#include "sdrmpi/workloads/registry.hpp"

namespace hostbench {

namespace core = sdrmpi::core;
namespace mpi = sdrmpi::mpi;
namespace net = sdrmpi::net;
namespace sim = sdrmpi::sim;
namespace sweep = sdrmpi::sweep;
namespace util = sdrmpi::util;
namespace wl = sdrmpi::wl;

/// One simulation of a workload. The app is built inside the child that
/// runs it, so the workload factory counts towards the child's setup time.
struct SimPoint {
  std::string name;  ///< "cg", "ft", "hpccg", ...
  std::string spec;  ///< registry-style app spec; salts the content address
  core::RunConfig cfg;
  std::function<core::AppFn()> make_app;
};

/// The sizes the per-layer probes copy from a workload, so each standalone
/// loop runs at the workload's fiber count, queue depth, topology and
/// message sizes.
struct Shape {
  int fibers = 4;                ///< live simulated processes (slots)
  net::NetParams net;            ///< fabric backend and cost model
  int nranks = 2;                ///< application world size
  std::size_t frame_bytes = 64;  ///< mean wire bytes per frame (measured)
  int coll_ranks = 2;            ///< Bruck probe: blocks per phase
  std::size_t coll_block = 8;    ///< Bruck probe: bytes per block
  std::size_t msg_bytes = 1024;  ///< copy/hash probe message size
  int ack_depth = 1;             ///< messages awaiting acks per sender
};

/// Named metrics in print order, plus the correctness tally.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
  }
  /// Counts one checked run or point; `why` non-empty marks it failed.
  void check(const std::string& point, const std::string& why) {
    ++attempted_;
    if (why.empty()) return;
    ++failed_;
    std::cout << "FAIL workload=" << workload_ << " point=" << point << ": "
              << why << "\n";
  }
  /// Counts `attempted` checks made elsewhere, `failed` of which failed.
  void tally(const std::string& point, std::uint64_t attempted,
             std::uint64_t failed, const std::string& why) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0) {
      std::cout << "FAIL workload=" << workload_ << " point=" << point << ": "
                << failed << " of " << attempted << " " << why << "\n";
    }
  }
  /// A failure that is not one run or point (a broken invariant).
  void fail(const std::string& what) { check("-", what); }

  [[nodiscard]] const std::string& workload() const { return workload_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const auto& metrics() const { return metrics_; }

 private:
  std::string workload_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// A RunResult crossing the child's pipe: length-prefixed sweep codec.
inline void put_result(sweep::ByteWriter& out, const core::RunResult& r) {
  const auto bytes = sweep::encode_result(r);
  out.u64(bytes.size());
  for (const std::byte b : bytes) out.u8(std::to_integer<std::uint8_t>(b));
}
[[nodiscard]] inline core::RunResult take_result(sweep::ByteReader& in) {
  const std::uint64_t n = in.u64();
  if (n > in.remaining()) throw sweep::CodecError("truncated child reply");
  std::vector<std::byte> bytes(n);
  for (auto& b : bytes) b = std::byte{in.u8()};
  return sweep::decode_result(bytes);
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
[[nodiscard]] double median(std::vector<double> v);

/// Why `r` is not a good run ("" when it is): not clean, or replica
/// checksums disagree.
[[nodiscard]] std::string run_problem(const core::RunResult& r);

/// Drive time (seconds) of `app` under `cfg` in a forked child, with the
/// run's correctness checked into `report` under `label`.
[[nodiscard]] double drive_seconds(const core::RunConfig& cfg,
                                   const std::function<core::AppFn()>& app,
                                   Report& report, const std::string& label);

// ---- workloads (workloads.cpp) ----

/// Untraced measurement: end-to-end metrics over `seconds` of runs.
void measure(const std::string& workload, std::uint64_t seed, int seconds,
             const std::string& work_dir, Report& report);

/// Traced measurement: one untraced and one traced pass, then the
/// per-layer probes.
void trace(const std::string& workload, std::uint64_t seed,
           const std::string& work_dir, Report& report);

// ---- per-layer probes (layers.cpp) ----

/// Unit costs of sim/, net/ (fabric and payload) and core/ at `shape`,
/// measured in one forked child. Keys: sim.switch_ns, sim.schedule_ns,
/// net.send_ns, payload.slice_ns, payload.concat_ns,
/// payload.copy_ns_per_kib, payload.hash_ns_per_kib, core.ack_ns.
[[nodiscard]] std::map<std::string, double> probe_layers(const Shape& shape);

/// Unit costs of sweep/ over a workload's configs and results, measured in
/// one forked child. `cold_store` is a store the workload's cold pass
/// filled. Keys: sweep.key_ns, sweep.encode_ns, sweep.decode_ns,
/// sweep.store_put_ns, sweep.store_lookup_ns, sweep.store_open_s,
/// sweep.result_bytes.
[[nodiscard]] std::map<std::string, double> probe_sweep(
    const std::vector<core::RunConfig>& configs,
    const std::vector<std::string>& specs,
    const std::vector<core::RunResult>& results, const std::string& cold_store,
    const std::string& work_dir);

}  // namespace hostbench
