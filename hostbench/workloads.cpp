// The three workloads and their untraced and traced measurements.
//
//   scale_2k        symbolic NAS CG + FT at 2048 ranks, SDR r=2 (4096
//                   fibers), flat IB-20G: scheduler heap, stacks, Bruck
//                   collectives and progress predicates at scale.
//   halo_fattree    HPCCG with real payloads and ANY_SOURCE halos at 256
//                   ranks, SDR r=2, on a 2:1 fat tree: workload arithmetic,
//                   payload copies, routing, wildcard matching, acks.
//   protocol_sweep  2-rank NetPipe points, 1 B .. 64 KiB, under all six
//                   replication protocols, through SweepService (pool 2)
//                   into a fresh store (cold), then served back (warm).
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <optional>

#include "bench.hpp"
#include "sdrmpi/sweep/result_codec.hpp"
#include "sdrmpi/workloads/netpipe.hpp"
#include "sdrmpi/workloads/registry.hpp"

namespace hostbench {

namespace {

namespace tu = sdrmpi::timeunits;
using Args = std::vector<std::pair<std::string, std::string>>;

// protocol_sweep: in-process sweep pool, seeds per (size, protocol), round
// trips per point, and warm passes per cold pass.
constexpr int kSweepPool = 2;
constexpr int kSweepSeeds = 6;
constexpr int kSweepReps = 400;
constexpr int kWarmPasses = 40;
// scale_2k / halo_fattree, after each run: set-up-only children per
// simulation and warm passes; and how often a warm pass requests each of the workload's
// results (enough work per pass that fork noise stays small).
constexpr int kSetupSamples = 5;
constexpr int kSimWarmPasses = 6;
constexpr int kSimWarmRequests = 128;

[[nodiscard]] std::uint64_t derive_seed(std::uint64_t bench_seed,
                                        std::uint64_t salt) {
  return util::hash_combine(util::mix64(bench_seed), salt);
}

[[nodiscard]] std::string spec_of(const std::string& app, const Args& args) {
  std::string s = app;
  for (const auto& [k, v] : args) s += " " + k + "=" + v;
  return s;
}

[[nodiscard]] std::function<core::AppFn()> registry_app(std::string app,
                                                        Args args) {
  return [app = std::move(app), args = std::move(args)] {
    util::Options o;
    for (const auto& [k, v] : args) o.set(k, v);
    return wl::make_workload(app, o);
  };
}

[[nodiscard]] SimPoint registry_point(const std::string& app, Args args,
                                      const core::RunConfig& cfg) {
  return {app, spec_of(app, args), cfg, registry_app(app, args)};
}

[[nodiscard]] core::RunConfig sdr_config(int nranks, std::uint64_t seed) {
  core::RunConfig c;
  c.nranks = nranks;
  c.replication = 2;
  c.protocol = core::ProtocolKind::Sdr;
  c.time_limit = tu::seconds(36000.0);
  c.seed = seed;
  return c;
}

[[nodiscard]] std::vector<core::RunConfig> configs_of(
    const std::vector<SimPoint>& sims) {
  std::vector<core::RunConfig> out;
  for (const auto& s : sims) out.push_back(s.cfg);
  return out;
}

[[nodiscard]] std::vector<std::string> specs_of(
    const std::vector<SimPoint>& sims) {
  std::vector<std::string> out;
  for (const auto& s : sims) out.push_back(s.spec);
  return out;
}

// ---- benchmark-owned twins: one layer's calls with a workload's shapes ----

/// CG-shaped point-to-point only: per iteration one 512 B and three 8 B
/// recursive-doubling exchanges (the allgather and the three dot products),
/// symbolic payloads.
[[nodiscard]] core::AppFn p2p_recursive_doubling(int iters, std::size_t block,
                                                 std::uint64_t seed) {
  return [=](mpi::Env& env) {
    auto& w = env.world();
    const int np = w.size();
    const int me = env.rank();
    for (int it = 0; it < iters; ++it) {
      for (int round = 0; round < 4; ++round) {
        const std::size_t bytes = round == 0 ? block : sizeof(double);
        const int tag = 900 + round;
        for (int bit = 1; bit < np; bit <<= 1) {
          const int peer = me ^ bit;
          if (peer >= np) continue;
          mpi::Request reqs[2] = {
              w.irecv_sink(bytes, peer, tag),
              w.isend_symbolic(net::ContentDesc::pattern(seed, bytes), peer,
                               tag)};
          w.waitall(reqs);
        }
      }
    }
    env.report_checksum(static_cast<std::uint64_t>(iters));
  };
}

/// HPCCG-shaped point-to-point only: z-neighbour halo planes of real bytes
/// received through ANY_SOURCE.
[[nodiscard]] core::AppFn p2p_halo(int iters, std::size_t plane) {
  return [=](mpi::Env& env) {
    auto& w = env.world();
    const int np = w.size();
    const int me = env.rank();
    const std::vector<std::byte> out(plane, std::byte{0x5a});
    std::vector<std::byte> in[2] = {std::vector<std::byte>(plane),
                                    std::vector<std::byte>(plane)};
    const int peers[2] = {me - 1, me + 1};
    for (int it = 0; it < iters; ++it) {
      std::vector<mpi::Request> recvs;
      std::vector<mpi::Request> sends;
      for (int d = 0; d < 2; ++d) {
        if (peers[d] < 0 || peers[d] >= np) continue;
        recvs.push_back(w.irecv_bytes(in[d], mpi::kAnySource, 300 + d));
        sends.push_back(w.isend_bytes(out, peers[d], 301 - d));
      }
      w.waitall(recvs);
      w.waitall(sends);
    }
    env.report_checksum(static_cast<std::uint64_t>(iters));
  };
}

/// NetPipe-shaped point-to-point only: blocking ping-pong of real bytes.
[[nodiscard]] core::AppFn p2p_pingpong(std::vector<std::size_t> sizes,
                                       int reps) {
  return [=](mpi::Env& env) {
    auto& w = env.world();
    const int me = env.rank();
    if (me > 1) return;
    std::vector<std::byte> buf;
    for (const std::size_t size : sizes) {
      buf.assign(size, std::byte{0x5a});
      const std::span<std::byte> view(buf);
      for (int i = 0; i < reps; ++i) {
        if (me == 0) {
          w.send(std::span<const std::byte>(view), 1, 7);
          w.recv(view, 1, 7);
        } else {
          w.recv(view, 0, 7);
          w.send(std::span<const std::byte>(view), 0, 7);
        }
      }
    }
    env.report_checksum(sizes.size());
  };
}

/// scale_2k collectives only: CG's allgather + three scalar allreduces per
/// iteration, then FT's two alltoall transposes per iteration.
[[nodiscard]] core::AppFn coll_scale(int cg_iters, std::size_t cg_block,
                                     int ft_iters, std::size_t ft_block,
                                     std::uint64_t seed) {
  return [=](mpi::Env& env) {
    auto& w = env.world();
    std::vector<net::Payload> out;
    const net::Payload cg =
        w.make_payload(net::ContentDesc::pattern(seed, cg_block));
    for (int it = 0; it < cg_iters; ++it) {
      w.allgather_payload(cg, cg_block, out);
      out.clear();
      for (int d = 0; d < 3; ++d) (void)w.allreduce_value(1.0, mpi::Op::Sum);
    }
    const std::vector<net::Payload> blocks(
        static_cast<std::size_t>(w.size()),
        ft_block == 0 ? net::Payload{}
                      : w.make_payload(net::ContentDesc::pattern(seed + 1,
                                                                 ft_block)));
    for (int it = 0; it < 2 * ft_iters; ++it) {
      w.alltoall_payload(blocks, ft_block, out);
      out.clear();
    }
    (void)w.allreduce_value(1.0, mpi::Op::Sum);
    env.report_checksum(1);
  };
}

/// Scalar allreduces only (HPCCG: two per iteration).
[[nodiscard]] core::AppFn coll_allreduce(int count) {
  return [=](mpi::Env& env) {
    double v = 1.0 + env.rank();
    for (int i = 0; i < count; ++i) {
      v = env.world().allreduce_value(v / env.size(), mpi::Op::Sum);
    }
    env.report_checksum(static_cast<std::uint64_t>(count));
  };
}

/// Barriers only (NetPipe issues no collectives; this is the floor).
[[nodiscard]] core::AppFn coll_barrier(int count) {
  return [=](mpi::Env& env) {
    for (int i = 0; i < count; ++i) env.world().barrier();
    env.report_checksum(static_cast<std::uint64_t>(count));
  };
}

// ---- workload definitions ----

/// A workload made of whole-World simulations (scale_2k, halo_fattree).
struct SimWorkload {
  std::vector<SimPoint> sims;
  Shape shape;
  SimPoint p2p_twin;   ///< mpi.p2p_incl_s
  SimPoint coll_twin;  ///< coll.incl_s
  /// workload.body_s = drive(sims) - drive(body_twin), where the twin makes
  /// the same MPI calls with the same bytes and skips the body. Empty when
  /// the collective twin already is that twin (the skeletons of scale_2k
  /// make collective calls only).
  std::optional<SimPoint> body_twin;
};

[[nodiscard]] SimWorkload scale_2k(std::uint64_t seed) {
  constexpr int kRanks = 2048;
  constexpr int kCgRows = 131072;
  constexpr int kCgIters = 2;
  constexpr int kFtNz = 2048;
  constexpr int kFtIters = 1;
  const std::string s = std::to_string(derive_seed(seed, 1) >> 1);
  const core::RunConfig cfg = sdr_config(kRanks, derive_seed(seed, 2));
  const std::string rows = std::to_string(kCgRows);
  const std::string iters = std::to_string(kCgIters);

  SimWorkload w;
  w.sims = {registry_point("cg",
                           {{"symbolic", "true"},
                            {"nrows", rows},
                            {"iters", iters},
                            {"seed", s}},
                           cfg),
            registry_point("ft",
                           {{"symbolic", "true"},
                            {"nz", std::to_string(kFtNz)},
                            {"iters", std::to_string(kFtIters)},
                            {"seed", s}},
                           cfg)};
  const std::size_t cg_block = (kCgRows / kRanks) * sizeof(double);
  // FT's transpose block at the registry's default nx = ny = 32.
  const std::size_t ft_block =
      static_cast<std::size_t>(32 / kRanks) * 32 * (kFtNz / kRanks) * 16;
  w.shape.fibers = kRanks * 2;
  w.shape.net = cfg.net;
  w.shape.nranks = kRanks;
  w.shape.coll_ranks = kRanks;
  w.shape.coll_block = cg_block;
  w.shape.msg_bytes = cg_block;
  w.shape.ack_depth = 11;  // log2(2048) Bruck/recursive-doubling partners
  const std::uint64_t pseed = derive_seed(seed, 3);
  w.p2p_twin = {"p2p", "", cfg, [=] {
                  return p2p_recursive_doubling(kCgIters, cg_block, pseed);
                }};
  w.coll_twin = {"coll", "", cfg, [=] {
                   return coll_scale(kCgIters, cg_block, kFtIters, ft_block,
                                     pseed);
                 }};
  return w;
}

[[nodiscard]] SimWorkload halo_fattree(std::uint64_t seed) {
  constexpr int kRanks = 256;
  constexpr int kIters = 15;  // 32 x 32 x 16 local block (the default)
  constexpr std::size_t kPlane = 32 * 32 * sizeof(double);
  const std::string s = std::to_string(derive_seed(seed, 1) >> 1);
  core::RunConfig cfg = sdr_config(kRanks, derive_seed(seed, 2));
  cfg.net.topology = net::TopologySpec::fat_tree();  // SpreadWorlds

  SimWorkload w;
  const std::string iters = std::to_string(kIters);
  w.sims = {registry_point("hpccg", {{"iters", iters}, {"seed", s}}, cfg)};
  w.shape.fibers = kRanks * 2;
  w.shape.net = cfg.net;
  w.shape.nranks = kRanks;
  w.shape.coll_ranks = kRanks;
  w.shape.coll_block = sizeof(double);
  w.shape.msg_bytes = kPlane;
  w.shape.ack_depth = 2;  // two halo planes in flight per rank
  w.p2p_twin = {"p2p", "", cfg, [=] { return p2p_halo(kIters, kPlane); }};
  w.coll_twin = {"coll", "", cfg,
                 [=] { return coll_allreduce(2 * kIters); }};
  w.body_twin =
      registry_point("hpccg",
                     {{"materialize", "true"}, {"iters", iters}, {"seed", s}},
                     cfg);
  return w;
}

/// protocol_sweep: every (seed, protocol, size) point, each submitted twice.
struct SweepDef {
  std::vector<core::RunConfig> configs;
  std::vector<std::size_t> sizes;  ///< message size per config index
  std::vector<std::string> specs;  ///< app spec per config index
  std::size_t unique = 0;

  [[nodiscard]] core::AppFactory factory() const {
    return [this](const core::RunConfig&, std::size_t i) {
      wl::NetpipeParams p;
      p.sizes = {sizes[i]};
      p.reps = kSweepReps;
      return wl::make_netpipe(p);
    };
  }
  [[nodiscard]] sweep::ServiceOptions options(const std::string& store) const {
    sweep::ServiceOptions o;
    o.workers = kSweepPool;
    o.cache_path = store;
    o.spec = [this](const core::RunConfig&, std::size_t i) { return specs[i]; };
    return o;
  }
};

[[nodiscard]] const std::vector<std::size_t>& sweep_sizes() {
  static const std::vector<std::size_t> kSizes = [] {
    std::vector<std::size_t> v;
    for (std::size_t s = 1; s <= 65536; s *= 4) v.push_back(s);
    return v;
  }();
  return kSizes;
}

[[nodiscard]] SweepDef protocol_sweep(std::uint64_t seed) {
  const core::ProtocolKind kProtocols[] = {
      core::ProtocolKind::Native,       core::ProtocolKind::Sdr,
      core::ProtocolKind::Mirror,       core::ProtocolKind::Leader,
      core::ProtocolKind::RedMpiLeader, core::ProtocolKind::RedMpiSd};
  SweepDef d;
  for (int k = 0; k < kSweepSeeds; ++k) {
    for (const auto proto : kProtocols) {
      for (const std::size_t size : sweep_sizes()) {
        core::RunConfig c;
        c.nranks = 2;
        c.protocol = proto;
        c.replication = proto == core::ProtocolKind::Native ? 1 : 2;
        c.seed = derive_seed(seed, static_cast<std::uint64_t>(k));
        d.configs.push_back(c);
        d.sizes.push_back(size);
        d.specs.push_back("netpipe sizes=" + std::to_string(size) +
                          " reps=" + std::to_string(kSweepReps));
      }
    }
  }
  d.unique = d.configs.size();
  // Each point is submitted twice: the service dedupes the second copy.
  for (std::size_t i = 0; i < d.unique; ++i) {
    d.configs.push_back(d.configs[i]);
    d.sizes.push_back(d.sizes[i]);
    d.specs.push_back(d.specs[i]);
  }
  return d;
}

// ---- simulation children ----

/// One simulation child's outcome.
struct SimRun {
  ChildRun child;
  double setup_s = 0.0;  ///< child start -> World::drive() entered
  double drive_s = 0.0;
  core::RunResult result;
  std::vector<std::pair<std::string, double>> spans;  ///< traced only
};

[[nodiscard]] SimRun run_sim(const SimPoint& p, bool traced) {
  SimRun r;
  r.child = run_child([&](Clock::time_point start, sweep::ByteWriter& out) {
    struct rusage ru0 {};
    struct rusage ru1 {};
    const core::AppFn app = p.make_app();
    const double factory_s = seconds_since(start);
    core::World world(p.cfg, app);
    out.f64(seconds_since(start));
    if (traced) getrusage(RUSAGE_SELF, &ru0);
    const auto t0 = Clock::now();
    const sim::RunOutcome outcome = world.drive();
    out.f64(seconds_since(t0));
    if (traced) getrusage(RUSAGE_SELF, &ru1);
    const auto t1 = Clock::now();
    put_result(out, world.collect(outcome));
    if (traced) {
      out.f64(factory_s);
      out.f64(seconds_since(t1));
      out.f64(static_cast<double>(ru1.ru_minflt - ru0.ru_minflt));
      out.f64(static_cast<double>(ru1.ru_stime.tv_sec - ru0.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru1.ru_stime.tv_usec -
                                         ru0.ru_stime.tv_usec));
    }
  });
  sweep::ByteReader in(r.child.reply);
  r.setup_s = in.f64();
  r.drive_s = in.f64();
  r.result = take_result(in);
  if (traced) {
    for (const char* k : {"factory_s", "collect_encode_s", "drive_minflt",
                          "drive_sys_s"}) {
      r.spans.push_back({p.name + "." + k, in.f64()});
    }
    r.spans.push_back({p.name + ".setup_s", r.setup_s});
    r.spans.push_back({p.name + ".drive_s", r.drive_s});
  }
  return r;
}

[[nodiscard]] double run_setup_only(const SimPoint& p) {
  const ChildRun c = run_child([&](Clock::time_point start, sweep::ByteWriter& out) {
    const core::World world(p.cfg, p.make_app());
    out.f64(seconds_since(start));
  });
  sweep::ByteReader in(c.reply);
  return in.f64();
}

/// One run of a whole-World workload: every SimPoint once, in order.
struct Rep {
  double wall = 0, user = 0, sys = 0, rss = 0;
  std::uint64_t sends = 0;
  double minflt = 0, nvcsw = 0, nivcsw = 0;
  std::vector<core::RunResult> results;
  std::vector<std::pair<std::string, double>> spans;
};

[[nodiscard]] Rep run_rep(const std::vector<SimPoint>& sims,
                          const std::vector<core::RunResult>& ref,
                          Report& report, bool traced) {
  Rep rep;
  for (std::size_t i = 0; i < sims.size(); ++i) {
    SimRun r = run_sim(sims[i], traced);
    rep.wall += r.child.wall_s;
    rep.user += r.child.user_s;
    rep.sys += r.child.sys_s;
    rep.rss = std::max(rep.rss, r.child.maxrss_mb);
    rep.minflt += static_cast<double>(r.child.minflt);
    rep.nvcsw += static_cast<double>(r.child.nvcsw);
    rep.nivcsw += static_cast<double>(r.child.nivcsw);
    rep.sends += r.result.app_sends;
    std::string why = run_problem(r.result);
    if (why.empty() && !ref.empty() && !(r.result == ref[i])) {
      why = "RunResult differs from the first run in this invocation";
    }
    report.check(sims[i].name, why);
    rep.results.push_back(std::move(r.result));
    rep.spans.insert(rep.spans.end(), r.spans.begin(), r.spans.end());
  }
  return rep;
}

/// Writes `results` under their content addresses into a fresh store.
void fill_store(const std::string& path,
                const std::vector<core::RunConfig>& configs,
                const std::vector<std::string>& specs,
                const std::vector<core::RunResult>& results) {
  std::filesystem::remove(path);
  (void)run_child([&](Clock::time_point, sweep::ByteWriter&) {
    sweep::ResultStore store(path);
    for (std::size_t i = 0; i < results.size(); ++i) {
      store.put(sweep::config_key(configs[i], specs[i]), results[i]);
    }
  });
}

/// A cold sweep pass in a child: SweepService over a fresh store, then the
/// sweep, which simulates every unique point.
struct SweepPass {
  ChildRun child;
  double setup_s = 0.0;  ///< child start -> SweepService::run entered
  double pass_s = 0.0;   ///< child start -> results returned
  sweep::ServiceStats stats;
  std::vector<core::RunResult> results;  ///< input order
};

[[nodiscard]] std::vector<std::vector<std::byte>> encode_all(
    const std::vector<core::RunResult>& results) {
  std::vector<std::vector<std::byte>> out;
  for (const auto& r : results) out.push_back(sweep::encode_result(r));
  return out;
}

/// One warm pass in this process: a SweepService over a store that holds
/// every point. Nothing may be dispatched, and result i must encode to
/// `cold[i % cold.size()]`. Warm passes simulate nothing, so they need no
/// child; running them here keeps fork and copy-on-write costs, which
/// depend on this process's history, out of their timing.
struct WarmPass {
  double setup_s = 0.0;  ///< pass start -> SweepService::run entered
  double pass_s = 0.0;   ///< pass start -> results returned
  std::size_t cache_hits = 0;
};

[[nodiscard]] WarmPass warm_pass(const std::vector<core::RunConfig>& configs,
                                 const sweep::ServiceOptions& opts,
                                 const std::vector<std::vector<std::byte>>& cold,
                                 Report& report) {
  const core::AppFactory never = [](const core::RunConfig&, std::size_t) {
    throw std::runtime_error("warm pass dispatched a point");
    return core::AppFn{};
  };
  WarmPass w;
  const auto t0 = Clock::now();
  std::vector<core::RunResult> results;
  sweep::ServiceStats stats;
  {
    sweep::SweepService svc(opts);
    w.setup_s = seconds_since(t0);
    results = svc.run(configs, never);
    w.pass_s = seconds_since(t0);
    stats = svc.stats();
  }
  w.cache_hits = stats.cache_hits;
  if (stats.dispatched != 0 || stats.cache_hits != cold.size()) {
    report.fail("warm pass: " + std::to_string(stats.dispatched) +
                " dispatched, " + std::to_string(stats.cache_hits) +
                " cache hits of " + std::to_string(cold.size()));
  }
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (sweep::encode_result(results[i]) != cold[i % cold.size()]) ++bad;
  }
  report.tally("warm", results.size(), bad,
               "warm results differ from the cold results");
  return w;
}

/// Service options for warm passes over a whole-World workload's store.
[[nodiscard]] sweep::ServiceOptions warm_options(
    const std::string& store, const std::vector<std::string>& specs) {
  sweep::ServiceOptions o;
  o.workers = 1;
  o.cache_path = store;
  o.spec = [specs](const core::RunConfig&, std::size_t i) {
    return specs[i % specs.size()];
  };
  return o;
}

/// Cold pass of protocol_sweep into a fresh store, in a child, with its
/// checks.
[[nodiscard]] SweepPass cold_pass(const SweepDef& def, const std::string& store,
                                  const std::vector<core::RunResult>& ref,
                                  Report& report) {
  std::filesystem::remove(store);
  SweepPass p;
  p.child = run_child([&](Clock::time_point start, sweep::ByteWriter& out) {
    sweep::SweepService svc(def.options(store));
    out.f64(seconds_since(start));
    const auto results = svc.run(def.configs, def.factory());
    out.f64(seconds_since(start));
    const auto& s = svc.stats();
    for (const std::size_t v : {s.unique_points, s.dispatched, s.cache_hits,
                                s.max_dispatches_per_digest}) {
      out.u64(v);
    }
    for (const auto& r : results) put_result(out, r);
  });
  sweep::ByteReader in(p.child.reply);
  p.setup_s = in.f64();
  p.pass_s = in.f64();
  sweep::ServiceStats& st = p.stats;
  st.unique_points = in.u64();
  st.dispatched = in.u64();
  st.cache_hits = in.u64();
  st.max_dispatches_per_digest = in.u64();
  for (std::size_t i = 0; i < def.configs.size(); ++i) {
    p.results.push_back(take_result(in));
  }
  if (st.unique_points != def.unique || st.dispatched != def.unique ||
      st.cache_hits != 0 || st.max_dispatches_per_digest != 1) {
    report.fail("cold pass: " + std::to_string(st.dispatched) +
                " dispatched of " + std::to_string(def.unique) +
                " unique points");
  }
  for (std::size_t i = 0; i < def.configs.size(); ++i) {
    const std::size_t first = i % def.unique;
    std::string why = run_problem(p.results[i]);
    if (why.empty() && !(p.results[i] == p.results[first])) {
      why = "duplicate submission got a different result";
    }
    if (why.empty() && !ref.empty() && !(p.results[i] == ref[i])) {
      why = "RunResult differs from the first cold pass in this invocation";
    }
    report.check("cold/" + def.specs[i] + "/" +
                     core::to_string(def.configs[i].protocol) + "/" +
                     std::to_string(i),
                 why);
  }
  return p;
}

[[nodiscard]] std::vector<core::RunResult> unique_results(
    const SweepDef& def, const std::vector<core::RunResult>& all) {
  return {all.begin(), all.begin() + static_cast<std::ptrdiff_t>(def.unique)};
}

// ---- per-layer report, shared by every workload ----

struct LayerInputs {
  std::vector<core::RunResult> untraced;  ///< the untraced pass's results
  std::vector<core::RunResult> traced;    ///< the traced pass's results
  double untraced_wall = 0, traced_wall = 0;
  double traced_cpu = 0;  ///< user + sys of the traced pass
  double minflt = 0, nvcsw = 0, nivcsw = 0;
  std::map<std::string, double> unit;  ///< probe_layers + probe_sweep
  double p2p_incl = 0, coll_incl = 0, body = 0;
  double sweep_unique = 0, sweep_dispatched = 0, sweep_hits = 0;
};

/// A RunResult-derived count metric: summed over a run's simulations, or
/// for memory figures the largest.
struct CountDef {
  const char* name;
  const char* unit;
  bool largest;
  std::uint64_t (*get)(const core::RunResult&);
};

using R = core::RunResult;
constexpr CountDef kCounts[] = {
    {"sim.events", "count", false, [](const R& r) { return r.events_executed; }},
    {"sim.context_switches", "count", false,
     [](const R& r) { return r.context_switches; }},
    {"sim.stack_bytes_peak", "B", true,
     [](const R& r) { return r.mem.stack_bytes_peak; }},
    {"net.frames", "count", false, [](const R& r) { return r.fabric.frames_sent; }},
    {"net.payload_bytes", "B", false,
     [](const R& r) { return r.fabric.payload_bytes; }},
    {"net.inter_switch_frames", "count", false,
     [](const R& r) { return r.fabric.inter_switch_frames; }},
    {"net.link_stalls", "count", false,
     [](const R& r) { return r.fabric.link_stalls; }},
    {"net.fabric_bytes", "B", true, [](const R& r) { return r.mem.fabric_bytes; }},
    {"payload.bytes_copied", "B", false, [](const R& r) { return r.bytes_copied; }},
    {"payload.bytes_hashed", "B", false, [](const R& r) { return r.bytes_hashed; }},
    {"payload.slab_bytes", "B", true,
     [](const R& r) { return r.mem.payload_slab_bytes; }},
    {"mpi.app_sends", "count", false, [](const R& r) { return r.app_sends; }},
    {"mpi.unexpected", "count", false, [](const R& r) { return r.unexpected; }},
    {"mpi.duplicates_dropped", "count", false,
     [](const R& r) { return r.duplicates_dropped; }},
    {"mpi.endpoint_bytes", "B", true,
     [](const R& r) { return r.mem.endpoint_bytes; }},
    {"core.acks_sent", "count", false,
     [](const R& r) { return r.protocol.acks_sent; }},
    {"core.ctl_frames", "count", false, [](const R& r) { return r.ctl_frames; }},
    {"core.decisions_sent", "count", false,
     [](const R& r) { return r.protocol.decisions_sent; }},
    {"core.hashes_sent", "count", false,
     [](const R& r) { return r.protocol.hashes_sent; }},
};

/// Every kCounts metric of `results`, by name.
[[nodiscard]] std::map<std::string, double> counts(
    const std::vector<core::RunResult>& results) {
  std::map<std::string, double> out;
  for (const CountDef& c : kCounts) {
    std::uint64_t v = 0;
    for (const auto& r : results) v = c.largest ? std::max(v, c.get(r)) : v + c.get(r);
    out[c.name] = static_cast<double>(v);
  }
  return out;
}

void report_layers(const LayerInputs& in, Report& report) {
  // Self-check: every count repeats exactly between the passes, and the
  // traced pass leaves every simulated result unchanged.
  auto v = counts(in.traced);
  const auto v_untraced = counts(in.untraced);
  for (const auto& [name, value] : v) {
    if (value != v_untraced.at(name)) {
      report.fail("count " + name +
                  " differs between the untraced and traced passes");
    }
  }
  if (in.untraced.size() != in.traced.size() ||
      !std::equal(in.untraced.begin(), in.untraced.end(), in.traced.begin())) {
    report.fail("the traced pass changed a simulated result");
  }
  const auto& u = in.unit;
  constexpr double ns = 1e-9;
  const double sim_self = (v["sim.context_switches"] * u.at("sim.switch_ns") +
                           v["sim.events"] * u.at("sim.schedule_ns")) *
                          ns;
  const double net_self = v["net.frames"] * u.at("net.send_ns") * ns;
  const double payload_self =
      (v["payload.bytes_copied"] * u.at("payload.copy_ns_per_kib") +
       v["payload.bytes_hashed"] * u.at("payload.hash_ns_per_kib")) /
      1024.0 * ns;
  const double core_self = v["core.acks_sent"] * u.at("core.ack_ns") * ns;
  const double unattributed =
      in.traced_cpu - (sim_self + net_self + payload_self + core_self);

  auto count = [&](const std::string& name) {
    for (const CountDef& c : kCounts) {
      if (c.name == name) report.add(name, v[name], c.unit);
    }
  };
  count("sim.events");
  count("sim.context_switches");
  report.add("sim.switch_ns", u.at("sim.switch_ns"), "ns");
  report.add("sim.schedule_ns", u.at("sim.schedule_ns"), "ns");
  report.add("sim.self_s", sim_self, "s");
  count("sim.stack_bytes_peak");
  for (const char* n : {"net.frames", "net.payload_bytes",
                        "net.inter_switch_frames", "net.link_stalls"}) {
    count(n);
  }
  report.add("net.send_ns", u.at("net.send_ns"), "ns");
  report.add("net.self_s", net_self, "s");
  count("net.fabric_bytes");
  count("payload.bytes_copied");
  count("payload.bytes_hashed");
  report.add("payload.slice_ns", u.at("payload.slice_ns"), "ns");
  report.add("payload.concat_ns", u.at("payload.concat_ns"), "ns");
  report.add("payload.copy_ns_per_kib", u.at("payload.copy_ns_per_kib"),
             "ns/KiB");
  report.add("payload.hash_ns_per_kib", u.at("payload.hash_ns_per_kib"),
             "ns/KiB");
  report.add("payload.self_s", payload_self, "s");
  count("payload.slab_bytes");
  for (const char* n : {"mpi.app_sends", "mpi.unexpected",
                        "mpi.duplicates_dropped", "mpi.endpoint_bytes"}) {
    count(n);
  }
  report.add("mpi.p2p_incl_s", in.p2p_incl, "s");
  report.add("coll.incl_s", in.coll_incl, "s");
  for (const char* n : {"core.acks_sent", "core.ctl_frames",
                        "core.decisions_sent", "core.hashes_sent"}) {
    count(n);
  }
  report.add("core.ack_ns", u.at("core.ack_ns"), "ns");
  report.add("core.self_s", core_self, "s");
  report.add("workload.body_s", in.body, "s");
  report.add("sweep.unique_points", in.sweep_unique, "count");
  report.add("sweep.dispatched", in.sweep_dispatched, "count");
  report.add("sweep.cache_hits", in.sweep_hits, "count");
  for (const char* n : {"sweep.key_ns", "sweep.encode_ns", "sweep.decode_ns",
                        "sweep.store_put_ns", "sweep.store_lookup_ns"}) {
    report.add(n, u.at(n), "ns");
  }
  report.add("sweep.store_open_s", u.at("sweep.store_open_s"), "s");
  report.add("sweep.result_bytes", u.at("sweep.result_bytes"), "B");
  report.add("kernel.minflt", in.minflt, "count");
  report.add("kernel.nvcsw", in.nvcsw, "count");
  report.add("kernel.nivcsw", in.nivcsw, "count");
  report.add("host.unattributed_s", unattributed, "s");
  report.add("host.unattributed_share",
             in.traced_cpu > 0 ? unattributed / in.traced_cpu : 0.0,
             "fraction");
  report.add("host.tracing_overhead_s", in.traced_wall - in.untraced_wall,
             "s");
}

/// Mean wire bytes per frame of `results` (the fabric probe's frame size).
[[nodiscard]] std::size_t mean_frame_bytes(
    const std::vector<core::RunResult>& results) {
  double frames = 0, bytes = 0;
  for (const auto& r : results) {
    frames += static_cast<double>(r.fabric.frames_sent);
    bytes += static_cast<double>(r.fabric.payload_bytes);
  }
  return frames > 0 ? static_cast<std::size_t>(bytes / frames) : 64;
}

[[nodiscard]] SimWorkload sim_workload(const std::string& name,
                                       std::uint64_t seed) {
  return name == "scale_2k" ? scale_2k(seed) : halo_fattree(seed);
}

// ---- scale_2k / halo_fattree ----

void measure_sims(const std::string& name, std::uint64_t seed, int seconds,
                  const std::string& work_dir, Report& report) {
  const SimWorkload w = sim_workload(name, seed);
  const auto configs = configs_of(w.sims);
  const auto specs = specs_of(w.sims);
  const std::string store = work_dir + "/" + name + ".store";
  // A warm pass requests each of the workload's results many times.
  std::vector<core::RunConfig> requests;
  for (int k = 0; k < kSimWarmRequests; ++k) {
    requests.insert(requests.end(), configs.begin(), configs.end());
  }

  const auto t0 = Clock::now();
  std::vector<Rep> reps;
  std::vector<core::RunResult> ref;
  std::vector<std::vector<std::byte>> cold;  ///< ref, encoded
  std::vector<std::vector<double>> setups(w.sims.size());
  std::vector<double> warm;
  double last = 0.0;
  // Start another run while it is expected to end within `seconds`; at
  // least two, so every run is compared with another one. Set-up samples
  // and warm passes follow each run, so they sample the whole run time.
  // Only the first run's results are kept, so the parent (and with it
  // every child's resident set) does not grow with the number of runs.
  while (reps.size() < 2 || seconds_since(t0) + last <= seconds) {
    const auto r0 = Clock::now();
    reps.push_back(run_rep(w.sims, ref, report, false));
    if (ref.empty()) {
      ref = std::move(reps.back().results);
      cold = encode_all(ref);
      fill_store(store, configs, specs, ref);
    }
    reps.back().results = {};
    for (std::size_t i = 0; i < w.sims.size(); ++i) {
      for (int k = 0; k < kSetupSamples; ++k) {
        setups[i].push_back(run_setup_only(w.sims[i]));
      }
    }
    for (int k = 0; k < kSimWarmPasses; ++k) {
      const WarmPass p =
          warm_pass(requests, warm_options(store, specs), cold, report);
      warm.push_back(static_cast<double>(requests.size()) / p.pass_s);
    }
    last = seconds_since(r0);
    const Rep& r = reps.back();
    std::cout << "run " << reps.size() << ": wall_s=" << r.wall
              << " user_s=" << r.user << " sys_s=" << r.sys
              << " peak_rss_mb=" << r.rss << "\n";
  }

  std::vector<double> wall, user, sys, sps, pps;
  double rss = 0.0;
  for (const Rep& r : reps) {
    wall.push_back(r.wall);
    user.push_back(r.user);
    sys.push_back(r.sys);
    rss = std::max(rss, r.rss);
    sps.push_back(static_cast<double>(r.sends) / r.wall);
    pps.push_back(static_cast<double>(w.sims.size()) / r.wall);
  }
  double setup = 0.0;
  for (auto& v : setups) setup += median(std::move(v));
  std::cout << "runs: " << reps.size() << " x {";
  for (const auto& s : w.sims) std::cout << " " << s.spec << ";";
  std::cout << " } on " << w.sims[0].cfg.nranks << " ranks x r="
            << w.sims[0].cfg.replication << "; " << warm.size()
            << " warm passes of " << requests.size() << " requests\n";
  report.add("wall_s", median(wall), "s");
  report.add("user_s", median(user), "s");
  report.add("sys_s", median(sys), "s");
  report.add("peak_rss_mb", rss, "MB");
  report.add("setup_s", setup, "s");
  report.add("sends_per_s", median(sps), "1/s");
  report.add("cold_points_per_s", median(pps), "1/s");
  report.add("warm_points_per_s", median(warm), "1/s");
}

void trace_sims(const std::string& name, std::uint64_t seed,
                const std::string& work_dir, Report& report) {
  SimWorkload w = sim_workload(name, seed);
  // Untraced and traced passes alternate, twice, so the first child's
  // warm-up does not land on one side of the tracing overhead.
  const Rep u = run_rep(w.sims, {}, report, false);
  const Rep t = run_rep(w.sims, u.results, report, true);
  const Rep u2 = run_rep(w.sims, u.results, report, false);
  const Rep t2 = run_rep(w.sims, u.results, report, true);
  for (const auto& [k, v] : t.spans) {
    std::cout << "span " << k << " = " << v << "\n";
  }

  LayerInputs in;
  in.untraced = u.results;
  in.traced = t.results;
  in.untraced_wall = 0.5 * (u.wall + u2.wall);
  in.traced_wall = 0.5 * (t.wall + t2.wall);
  in.traced_cpu = t.user + t.sys;
  in.minflt = t.minflt;
  in.nvcsw = t.nvcsw;
  in.nivcsw = t.nivcsw;
  w.shape.frame_bytes = mean_frame_bytes(u.results);
  in.unit = probe_layers(w.shape);

  const auto configs = configs_of(w.sims);
  const auto specs = specs_of(w.sims);
  const std::string store = work_dir + "/" + name + ".store";
  fill_store(store, configs, specs, u.results);
  for (auto& [k, v] : probe_sweep(configs, specs, u.results, store, work_dir)) {
    in.unit[k] = v;
  }
  in.sweep_unique = static_cast<double>(configs.size());
  in.sweep_dispatched = 0;  // the simulations bypass the service
  in.sweep_hits = static_cast<double>(
      warm_pass(configs, warm_options(store, specs), encode_all(u.results),
                report)
          .cache_hits);

  in.p2p_incl = drive_seconds(w.p2p_twin.cfg, w.p2p_twin.make_app, report,
                              "p2p_twin");
  in.coll_incl = drive_seconds(w.coll_twin.cfg, w.coll_twin.make_app, report,
                               "coll_twin");
  double app_drive = 0.0;
  for (const auto& [k, v] : t.spans) {
    if (k.ends_with(".drive_s")) app_drive += v;
  }
  in.body = app_drive - (w.body_twin ? drive_seconds(w.body_twin->cfg,
                                                     w.body_twin->make_app,
                                                     report, "body_twin")
                                     : in.coll_incl);
  report_layers(in, report);
}

// ---- protocol_sweep ----

void measure_sweep(std::uint64_t seed, int seconds,
                   const std::string& work_dir, Report& report) {
  const SweepDef def = protocol_sweep(seed);
  const std::string store = work_dir + "/protocol_sweep.store";
  const auto opts = def.options(store);
  const auto t0 = Clock::now();
  std::vector<core::RunResult> ref;
  std::vector<double> wall, user, sys, sps, cold_pps, warm_pps, setup;
  double rss = 0.0, last = 0.0;
  while (wall.size() < 2 || seconds_since(t0) + last <= seconds) {
    const auto r0 = Clock::now();
    const SweepPass cold = cold_pass(def, store, ref, report);
    if (ref.empty()) ref = cold.results;
    std::uint64_t sends = 0;
    for (const auto& r : unique_results(def, cold.results)) {
      sends += r.app_sends;
    }
    wall.push_back(cold.child.wall_s);
    user.push_back(cold.child.user_s);
    sys.push_back(cold.child.sys_s);
    rss = std::max(rss, cold.child.maxrss_mb);
    sps.push_back(static_cast<double>(sends) / cold.child.wall_s);
    cold_pps.push_back(static_cast<double>(def.unique) / cold.child.wall_s);
    const auto cold_bytes = encode_all(unique_results(def, cold.results));
    for (int k = 0; k < kWarmPasses; ++k) {
      const WarmPass p = warm_pass(def.configs, opts, cold_bytes, report);
      warm_pps.push_back(static_cast<double>(def.configs.size()) / p.pass_s);
      setup.push_back(p.setup_s);
    }
    last = seconds_since(r0);
    std::cout << "run " << wall.size() << ": wall_s=" << wall.back()
              << " user_s=" << user.back() << " sys_s=" << sys.back()
              << " cold_points_per_s=" << cold_pps.back() << "\n";
  }
  std::cout << "runs: " << wall.size() << " cold passes of " << def.unique
            << " unique points (" << def.configs.size()
            << " submitted, pool " << kSweepPool << "), " << warm_pps.size()
            << " warm passes\n";
  report.add("wall_s", median(wall), "s");
  report.add("user_s", median(user), "s");
  report.add("sys_s", median(sys), "s");
  report.add("peak_rss_mb", rss, "MB");
  report.add("setup_s", median(setup), "s");
  report.add("sends_per_s", median(sps), "1/s");
  report.add("cold_points_per_s", median(cold_pps), "1/s");
  report.add("warm_points_per_s", median(warm_pps), "1/s");
}

void trace_sweep(std::uint64_t seed, const std::string& work_dir,
                 Report& report) {
  const SweepDef def = protocol_sweep(seed);
  const std::string store = work_dir + "/protocol_sweep.store";
  const SweepPass u = cold_pass(def, store, {}, report);
  const WarmPass warm =
      warm_pass(def.configs, def.options(store),
                encode_all(unique_results(def, u.results)), report);
  // Untraced and traced cold passes alternate, twice (see trace_sims).
  const std::string traced_store = work_dir + "/protocol_sweep.traced.store";
  const SweepPass t = cold_pass(def, traced_store, u.results, report);
  const double u2_wall =
      cold_pass(def, traced_store, u.results, report).child.wall_s;
  const double t2_wall =
      cold_pass(def, traced_store, u.results, report).child.wall_s;
  std::cout << "span cold.setup_s = " << t.setup_s << "\n"
            << "span cold.pass_s = " << t.pass_s << "\n"
            << "span warm.setup_s = " << warm.setup_s << "\n"
            << "span warm.pass_s = " << warm.pass_s << "\n";

  LayerInputs in;
  in.untraced = unique_results(def, u.results);
  in.traced = unique_results(def, t.results);
  in.untraced_wall = 0.5 * (u.child.wall_s + u2_wall);
  in.traced_wall = 0.5 * (t.child.wall_s + t2_wall);
  in.traced_cpu = t.child.user_s + t.child.sys_s;
  in.minflt = static_cast<double>(t.child.minflt);
  in.nvcsw = static_cast<double>(t.child.nvcsw);
  in.nivcsw = static_cast<double>(t.child.nivcsw);
  Shape shape;
  shape.fibers = 4;  // 2 ranks x r=2
  shape.nranks = 2;
  shape.coll_ranks = 2;
  shape.coll_block = 1024;
  shape.msg_bytes = 16384;
  shape.ack_depth = 1;  // blocking ping-pong
  shape.frame_bytes = mean_frame_bytes(in.untraced);
  in.unit = probe_layers(shape);
  const std::vector<core::RunConfig> configs(
      def.configs.begin(),
      def.configs.begin() + static_cast<std::ptrdiff_t>(def.unique));
  const std::vector<std::string> specs(
      def.specs.begin(),
      def.specs.begin() + static_cast<std::ptrdiff_t>(def.unique));
  for (auto& [k, v] :
       probe_sweep(configs, specs, in.untraced, store, work_dir)) {
    in.unit[k] = v;
  }
  in.sweep_unique = static_cast<double>(u.stats.unique_points);
  in.sweep_dispatched = static_cast<double>(u.stats.dispatched);
  in.sweep_hits = static_cast<double>(warm.cache_hits);

  // Twins run under the SDR point's configuration.
  core::RunConfig sdr = def.configs.front();
  sdr.protocol = core::ProtocolKind::Sdr;
  sdr.replication = 2;
  const std::vector<std::size_t> sizes = sweep_sizes();
  // NetPipe's own round trips include its untimed warm-up ones.
  const int round_trips = kSweepReps + wl::NetpipeParams{}.warmup;
  in.p2p_incl = drive_seconds(
      sdr, [&] { return p2p_pingpong(sizes, round_trips); }, report,
      "p2p_twin");
  in.coll_incl = drive_seconds(
      sdr, [] { return coll_barrier(kSweepReps); }, report, "coll_twin");
  // Body: NetPipe itself minus the ping-pong twin that makes its calls.
  in.body = drive_seconds(
                sdr,
                [&] {
                  wl::NetpipeParams p;
                  p.sizes = sizes;
                  p.reps = kSweepReps;
                  return wl::make_netpipe(p);
                },
                report, "netpipe") -
            in.p2p_incl;
  report_layers(in, report);
}

}  // namespace

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string run_problem(const core::RunResult& r) {
  if (!r.clean()) {
    return "run not clean" +
           (r.errors.empty() ? std::string() : ": " + r.errors.front());
  }
  if (!r.checksums_consistent()) return "replica checksums disagree";
  return "";
}

double drive_seconds(const core::RunConfig& cfg,
                     const std::function<core::AppFn()>& app, Report& report,
                     const std::string& label) {
  const ChildRun c = run_child([&](Clock::time_point, sweep::ByteWriter& out) {
    core::World world(cfg, app());
    const auto t0 = Clock::now();
    const sim::RunOutcome outcome = world.drive();
    out.f64(seconds_since(t0));
    put_result(out, world.collect(outcome));
  });
  sweep::ByteReader in(c.reply);
  const double s = in.f64();
  report.check(label, run_problem(take_result(in)));
  return s;
}

void measure(const std::string& workload, std::uint64_t seed, int seconds,
             const std::string& work_dir, Report& report) {
  if (workload == "protocol_sweep") {
    measure_sweep(seed, seconds, work_dir, report);
  } else {
    measure_sims(workload, seed, seconds, work_dir, report);
  }
}

void trace(const std::string& workload, std::uint64_t seed,
           const std::string& work_dir, Report& report) {
  if (workload == "protocol_sweep") {
    trace_sweep(seed, work_dir, report);
  } else {
    trace_sims(workload, seed, work_dir, report);
  }
}

}  // namespace hostbench
