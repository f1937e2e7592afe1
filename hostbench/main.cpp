// hostbench: host-cost benchmark of the simulator (see README.md here).
//
//   hostbench --workload=<scale_2k|halo_fattree|protocol_sweep> --seed=N
//             --seconds=S --trace=<0|1> --workdir=DIR
//
// Prints the host record, one line per metric and any failures, then as its
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace=0 reports the end-to-end metrics, --trace=1 the per-layer ones.
// Exits 0 only when every check passed.
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

using hostbench::Report;

[[nodiscard]] std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

[[nodiscard]] std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Whether this binary was compiled with optimisation.
[[nodiscard]] constexpr bool optimised() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

void print_host_record(const std::string& workload, std::uint64_t seed,
                       int seconds, int trace) {
  struct utsname u {};
  uname(&u);
  const bool comparable = optimised();
  std::cout << "host: {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"sim_threads\": 1, \"sweep_pool\": 2"
            << ", \"compiler\": \"" << json_escape(__VERSION__) << "\""
            << ", \"build_type\": \"" << HOSTBENCH_BUILD_TYPE << "\""
            << ", \"optimised\": " << (comparable ? "true" : "false")
            << ", \"comparable\": " << (comparable ? "true" : "false")
            << ", \"kernel\": \"" << json_escape(u.release) << "\""
            << ", \"workload\": \"" << workload << "\", \"seed\": " << seed
            << ", \"seconds\": " << seconds << ", \"trace\": " << trace
            << "}\n";
  if (!comparable) {
    std::cout << "WARNING: not an optimised build; these numbers are not "
                 "comparable with optimised runs\n";
  }
}

void print_result(const Report& r) {
  const double share =
      r.attempted() > 0
          ? static_cast<double>(r.failed()) / static_cast<double>(r.attempted())
          : 1.0;
  for (const auto& [name, vu] : r.metrics()) {
    std::cout << "metric " << name << " = " << number(vu.first) << " "
              << vu.second << "\n";
  }
  std::cout << "metric fail_share = " << number(share) << " fraction ("
            << r.failed() << " of " << r.attempted() << " failed)\n";
  std::cout << "{\"correct\": " << (r.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted()
            << ", \"failed\": " << r.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : r.metrics()) {
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << number(vu.first) << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const sdrmpi::util::Options opts(argc, argv);
    opts.expect({"workload", "seed", "seconds", "trace", "workdir"});
    const std::string workload = opts.get_string("workload", "");
    if (workload != "scale_2k" && workload != "halo_fattree" &&
        workload != "protocol_sweep") {
      std::cerr << "hostbench: --workload must be scale_2k, halo_fattree or "
                   "protocol_sweep\n";
      return 2;
    }
    const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
    const int seconds = static_cast<int>(opts.get_int("seconds", 35));
    const int trace = static_cast<int>(opts.get_int("trace", 0));
    const std::string work_dir = opts.get_string("workdir", ".");

    print_host_record(workload, seed, seconds, trace);
    Report report(workload);
    if (trace != 0) {
      hostbench::trace(workload, seed, work_dir, report);
    } else {
      hostbench::measure(workload, seed, seconds, work_dir, report);
    }
    print_result(report);
    return report.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << e.what() << "\n";
    return 1;
  }
}
