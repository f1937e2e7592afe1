// Scaling gate: the engine itself at 256 → 4096 simulated ranks.
//
// The paper runs 256 ranks; the protocol-lab conclusions (partial
// replication, failure coverage) only get interesting past that, which
// this simulator can reach solely because per-rank host state is flat:
// lazy fiber stacks, sparse per-peer seq state, deviation-only replica
// maps, and O(1) symbolic payloads. This bench pins all of that with two
// regression gates (--check):
//
//   * peak-RSS-per-slot — each point's resident host bytes per simulated
//     MPI process stay under kMaxRssKbPerSlot;
//   * sends per user-second — host throughput over the grid stays above
//     kMinSendsPerSec (the O(procs)-per-event scheduler scan this repo
//     replaced with a runnable min-heap would fail it by ~50x).
//
// Every point runs in its own forked child on the --pool threads, and the
// gates read that child's peak RSS and user time from wait4(): the numbers
// belong to one simulation, so the verdict does not depend on how many
// points run at once. (A cached or remote point has no host cost to
// measure, so this bench takes no --cache/--listen.)
//
// Grid: --ranks {256, 1k, 2k, 4k} x {Native, SDR r=2} on symbolic CG and
// FT skeletons (weak scaling: problem sizes grow with the rank count), on
// IB-20G by default; --net=gige or --net=all adds the slower-network axis
// the old `scaling` bench probed (ack-dominated overhead grows with
// latency-boundedness).
#include <iostream>

#include "bench_support.hpp"
#include "sdrmpi/sweep/result_codec.hpp"

namespace {

// Resident host KB per simulated MPI process (slot), per point: the
// child's peak RSS over the point's nranks x replication slots. Measured
// 16-77 KB/slot over the default grid (worst: 4k-rank FT under SDR), so
// the bound leaves >3x headroom for allocator and libc variation; the
// pre-diet engine's ~4800 KB/slot is 18x past it.
constexpr long kMaxRssKbPerSlot = 256;

// Host sends per user-second, summed over every point's child (simulated
// application sends / child user seconds). Calibrated ~10x under a
// Release build on a laptop-class core so slow CI runners pass; the
// quadratic scheduler scan at 4k ranks lands well under it.
constexpr double kMinSendsPerSec = 10'000.0;

}  // namespace

int main(int argc, char** argv) {
  using namespace sdrmpi;
  util::Options opts(argc, argv);
  bench::check_options(
      opts, bench::with_workload_flags({"json", "pool", "ranks", "net", "check"}),
      /*service_flags=*/false);
  bench::banner(opts, "engine scaling: 256 -> 4k simulated ranks",
                "extension (paper fixes 256 ranks, IB-20G)");

  const auto ranks = opts.get_int_list("ranks", {256, 1024, 2048, 4096});

  struct Net {
    const char* name;
    net::NetParams params;
  };
  std::vector<Net> nets;
  const std::string net_flag = opts.get_string("net", "ib-20g");
  if (net_flag == "ib-20g" || net_flag == "all") {
    nets.push_back({"ib-20g", net::NetParams::infiniband_20g()});
  }
  if (net_flag == "gige" || net_flag == "all") {
    nets.push_back({"gige", net::NetParams::gigabit_ethernet()});
  }
  if (nets.empty()) {
    std::cerr << "fig_scale: --net must be ib-20g, gige, or all\n";
    return 2;
  }

  // (network x app x ranks x protocol) grid as one batch. Weak scaling:
  // CG rows and FT's nz and nx grow with the rank count, so the
  // communication graph (the thing whose per-rank host cost is gated)
  // scales while per-rank work stays fixed. nx grows with nz because FT's
  // transpose block is (nx/np) * ny * (nz/np) elements: at a fixed nx
  // below the rank count every block would be 0 bytes.
  const std::vector<std::string> apps = {"cg", "ft"};
  std::vector<bench::Point> points;
  for (const Net& net : nets) {
    for (const std::string& app_name : apps) {
      for (const auto r : ranks) {
        util::Options wl_opts = opts;
        wl_opts.set("symbolic", "true");
        if (app_name == "cg") {
          if (!opts.has("nrows")) {
            wl_opts.set("nrows", std::to_string(64 * r));
          }
          if (!opts.has("iters")) wl_opts.set("iters", "4");
        } else {  // ft: nz must be a power of two divisible by nranks
          if (!opts.has("nz")) {
            wl_opts.set("nz", std::to_string(std::max<std::int64_t>(64, r)));
          }
          if (!opts.has("nx")) wl_opts.set("nx", wl_opts.get_string("nz", ""));
          if (!opts.has("iters")) wl_opts.set("iters", "2");
        }
        const auto app = wl::make_workload(app_name, wl_opts);
        // Registry-parseable app spec: salts the content address the JSON
        // reports (CG and FT share byte-identical configs here).
        std::string spec = app_name;
        for (const char* key : {"symbolic", "nrows", "nx", "nz", "iters"}) {
          if (wl_opts.has(key)) {
            spec += std::string(" ") + key + "=" + wl_opts.get_string(key, "");
          }
        }

        core::Sweep sweep;
        sweep.base.nranks = static_cast<int>(r);
        sweep.base.net = net.params;
        sweep.base.replication = 2;
        sweep.base.time_limit = timeunits::seconds(36000.0);
        sweep.protocols = {core::ProtocolKind::Native, core::ProtocolKind::Sdr};
        for (core::RunConfig& cfg : sweep.expand()) {
          const bool is_native = cfg.protocol == core::ProtocolKind::Native;
          points.push_back({std::string(net.name) + "/" + app_name + "/" +
                                std::to_string(r) +
                                (is_native ? "/native" : "/sdr"),
                            std::move(cfg), app, spec});
        }
      }
    }
  }

  std::vector<bench::PointResult> results(points.size());
  std::vector<bench::ChildRun> children(points.size());
  const auto errors = core::parallel_for(
      points.size(), static_cast<int>(opts.get_int("pool", 0)),
      [&](std::size_t i) {
        children[i] = bench::run_child([&] {
          return sweep::encode_result(core::run(points[i].cfg, points[i].app));
        });
        results[i].run = sweep::decode_result(children[i].reply);
      });
  std::uint64_t total_sends = 0;
  double total_user_s = 0.0;
  long peak_rss_kb = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (errors[i]) core::rethrow_indexed(i, errors[i]);
    bench::PointResult& res = results[i];
    if (!res.run.clean()) {
      std::cerr << "bench point '" << points[i].label << "' failed\n";
      return 2;
    }
    res.mean_sec = res.run.seconds();
    res.digest = sweep::config_key(points[i].cfg, points[i].spec);
    total_sends += res.run.app_sends;
    total_user_s += children[i].user_s;
    peak_rss_kb = std::max(peak_rss_kb, children[i].maxrss_kb);
  }
  const double sends_per_sec =
      total_user_s > 0.0 ? static_cast<double>(total_sends) / total_user_s
                         : 0.0;
  auto slots_of = [&](std::size_t i) {
    return static_cast<long>(points[i].cfg.nranks) *
           points[i].cfg.replication;
  };

  if (bench::json_mode(opts)) {
    bench::emit_json(std::cout, "scale", points, results);
  } else {
    util::Table table({"Network", "App", "Ranks", "Native (s)", "SDR r=2 (s)",
                       "Overhead (%)", "Resident KB/slot (SDR)"});
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
      const bench::Point& pn = points[i];
      const double t_native = results[i].mean_sec;
      const double t_sdr = results[i + 1].mean_sec;
      const long kb_per_slot = children[i + 1].maxrss_kb / slots_of(i + 1);
      const std::string net_name = pn.label.substr(0, pn.label.find('/'));
      table.add_row(
          {net_name,
           pn.label.substr(net_name.size() + 1,
                           pn.label.find('/', net_name.size() + 1) -
                               net_name.size() - 1),
           std::to_string(pn.cfg.nranks), util::format_double(t_native, 4),
           util::format_double(t_sdr, 4),
           util::format_double(util::overhead_percent(t_native, t_sdr), 2),
           std::to_string(kb_per_slot)});
    }
    table.print(std::cout);
    std::cout << "\nhost: " << total_sends << " sends in "
              << util::format_double(total_user_s, 2) << " child user s ("
              << static_cast<long>(sends_per_sec)
              << " sends/user-s), largest point peak RSS "
              << peak_rss_kb / 1024 << " MB\n";
  }

  if (opts.get_bool("check", false)) {
    bool ok = true;
    long worst_kb = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const long kb_per_slot = children[i].maxrss_kb / slots_of(i);
      worst_kb = std::max(worst_kb, kb_per_slot);
      if (kb_per_slot > kMaxRssKbPerSlot) {
        std::cerr << "fig_scale: " << points[i].label << " peak RSS "
                  << children[i].maxrss_kb / 1024 << " MB = " << kb_per_slot
                  << " KB/slot exceeds the bound — host-memory regression\n";
        ok = false;
      }
    }
    std::cerr << "fig_scale: worst point " << worst_kb
              << " resident KB/slot (bound " << kMaxRssKbPerSlot << ")\n"
              << "fig_scale: " << static_cast<long>(sends_per_sec)
              << " sends/user-s (floor " << static_cast<long>(kMinSendsPerSec)
              << ")\n";
    if (sends_per_sec < kMinSendsPerSec) {
      std::cerr << "fig_scale: host throughput under the floor — per-event "
                   "scheduling cost regressed\n";
      ok = false;
    }
    if (!ok) return 3;
  }
  return 0;
}
