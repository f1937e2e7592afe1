// Per-layer unit costs: standalone loops over each layer's public API,
// shaped like the workload (fiber count, queue depth, topology, message and
// block sizes). Each probe repeats its loop and keeps the median, and the
// whole set runs in one forked child so probe memory never reaches the
// parent. The traced report multiplies these by the run's counts.
#include <sys/resource.h>

#include <filesystem>

#include "bench.hpp"
#include "sdrmpi/core/ack_manager.hpp"
#include "sdrmpi/mpi/wire.hpp"
#include "sdrmpi/net/fabric.hpp"
#include "sdrmpi/net/payload.hpp"
#include "sdrmpi/sweep/result_codec.hpp"
#include "sdrmpi/util/hash.hpp"

namespace hostbench {

namespace {

constexpr int kRepeats = 5;

/// Results of timed loops land here so the compiler cannot drop the loops.
volatile std::uint64_t g_sink = 0;

/// Median over kRepeats of `fn()` (a unit cost, or a duration).
template <class Fn>
[[nodiscard]] double median_of_repeats(Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < kRepeats; ++i) v.push_back(fn());
  return median(std::move(v));
}

[[nodiscard]] double ns_since(Clock::time_point t0) {
  return seconds_since(t0) * 1e9;
}

/// Engine run of `fibers` processes that each advance and yield `rounds`
/// times; returns (host ns, context switches).
[[nodiscard]] std::pair<double, double> yield_run(int fibers, int rounds) {
  sim::Engine engine;
  for (int p = 0; p < fibers; ++p) {
    engine.spawn("p", [&engine, rounds] {
      for (int k = 0; k < rounds; ++k) {
        engine.advance(1);
        engine.yield();
      }
    });
  }
  const auto t0 = Clock::now();
  const sim::RunOutcome out = engine.run();
  return {ns_since(t0), static_cast<double>(out.context_switches)};
}

/// Resume cost at the workload's live-fiber count: the difference of two
/// yield loops of different length cancels spawn and stack set-up.
[[nodiscard]] double switch_ns(int fibers) {
  const int rounds = std::max(8, (1 << 20) / fibers);
  return median_of_repeats([&] {
    const auto [t_short, s_short] = yield_run(fibers, 2);
    const auto [t_long, s_long] = yield_run(fibers, rounds);
    return (t_long - t_short) / (s_long - s_short);
  });
}

/// Engine::schedule plus dispatch with `depth` events pending: `depth`
/// self-rescheduling chains.
[[nodiscard]] double schedule_ns(int depth) {
  struct Step {
    sim::Engine* engine;
    int left;
    void operator()() {
      if (left-- > 0) engine->schedule(engine->now() + 1 + left % 7, *this);
    }
  };
  const int per_chain = std::max(16, (1 << 20) / depth);
  return median_of_repeats([&] {
    sim::Engine engine;
    for (int c = 0; c < depth; ++c) engine.schedule(c, Step{&engine, per_chain});
    const auto t0 = Clock::now();
    const sim::RunOutcome out = engine.run();
    return ns_since(t0) / static_cast<double>(out.events_executed);
  });
}

/// make_fabric plus Fabric::send of `frame_bytes` frames between
/// pseudo-random slot pairs to attached sinks, delivered by the engine.
[[nodiscard]] double send_ns(const Shape& shape) {
  constexpr int kFrames = 1 << 17;
  const int nslots = shape.fibers;
  const std::size_t header = sizeof(mpi::FrameHeader);
  const std::size_t bulk =
      shape.frame_bytes > header + shape.net.header_bytes
          ? shape.frame_bytes - header - shape.net.header_bytes
          : 0;
  return median_of_repeats([&] {
    sim::Engine engine;
    std::uint64_t delivered = 0;
    const auto t0 = Clock::now();
    auto fabric = net::make_fabric(engine, shape.net, nslots, shape.nranks);
    const net::Fabric::Sink sink{
        [](void* ctx, net::Delivery&&) { ++*static_cast<std::uint64_t*>(ctx); },
        &delivered};
    for (int s = 0; s < nslots; ++s) fabric->attach(s, -1, sink);
    engine.spawn("sender", [&] {
      const mpi::FrameHeader h{};
      std::uint64_t x = 0x9e3779b97f4a7c15ULL;
      for (int i = 0; i < kFrames; ++i) {
        x = util::mix64(x);
        const int src = static_cast<int>(x % static_cast<std::uint64_t>(nslots));
        const int dst =
            static_cast<int>((x >> 32) % static_cast<std::uint64_t>(nslots));
        fabric->send(src, dst, mpi::encode_header(&fabric->pool(), h),
                     bulk == 0 ? net::Payload{}
                               : net::Payload::pattern(&fabric->pool(), x, bulk));
        engine.maybe_yield();
      }
    });
    (void)engine.run();
    const double t = ns_since(t0);
    if (delivered != kFrames) throw std::runtime_error("fabric probe lost frames");
    return t / kFrames;
  });
}

/// Payload::slice of `p` blocks out of one symbolic base, and
/// concat_payloads of the half a Bruck phase packs (blocks with bit 0 set).
[[nodiscard]] std::pair<double, double> slice_concat_ns(int p,
                                                        std::size_t block) {
  util::BufferPool pool;
  const std::size_t n = static_cast<std::size_t>(p);
  const int loops = std::max(4, (1 << 18) / p);
  std::vector<net::Payload> parts(n);
  std::vector<net::Payload> packed;
  const double slice = median_of_repeats([&] {
    const net::Payload base = net::Payload::pattern(&pool, 0x5eed, n * block);
    const auto t0 = Clock::now();
    for (int l = 0; l < loops; ++l) {
      for (std::size_t i = 0; i < n; ++i) {
        parts[i] = net::Payload::slice(&pool, base, i * block, block);
      }
    }
    return ns_since(t0) / (static_cast<double>(loops) * static_cast<double>(n));
  });
  packed.clear();
  for (std::size_t i = 1; i < n; i += 2) packed.push_back(parts[i]);
  if (packed.empty()) packed.push_back(parts[0]);
  const double concat = median_of_repeats([&] {
    const auto t0 = Clock::now();
    for (int l = 0; l < loops; ++l) {
      g_sink = g_sink + net::Payload::concat_payloads(&pool, packed).size();
    }
    return ns_since(t0) / loops;
  });
  return {slice, concat};
}

/// Payload::copy_of and fnv1a digesting of `bytes`-sized messages, ns/KiB.
[[nodiscard]] std::pair<double, double> copy_hash_ns_per_kib(std::size_t bytes) {
  util::BufferPool pool;
  std::vector<std::byte> src(bytes);
  for (std::size_t i = 0; i < bytes; ++i) src[i] = static_cast<std::byte>(i * 31);
  const int loops = static_cast<int>(std::max<std::size_t>(64, (64u << 20) / bytes));
  const double kib = static_cast<double>(bytes) / 1024.0;
  std::uint64_t sink = 0;
  const double copy = median_of_repeats([&] {
    const auto t0 = Clock::now();
    for (int l = 0; l < loops; ++l) {
      src[0] = static_cast<std::byte>(l);
      sink += net::Payload::copy_of(&pool, src).size();
    }
    return ns_since(t0) / (loops * kib);
  });
  const double hash = median_of_repeats([&] {
    const auto t0 = Clock::now();
    for (int l = 0; l < loops; ++l) {
      src[0] = static_cast<std::byte>(l);
      sink += util::fnv1a(src);
    }
    return ns_since(t0) / (loops * kib);
  });
  g_sink = sink;
  return {copy, hash};
}

/// AckManager::track plus the releasing on_ack, `depth` messages in flight.
[[nodiscard]] double ack_ns(int depth) {
  constexpr int kMessages = 1 << 19;
  return median_of_repeats([&] {
    core::AckManager acks;
    core::ProtocolStats stats;
    const int acker[1] = {1};
    mpi::FrameHeader h{};
    h.kind = mpi::FrameKind::Ack;
    h.ctx = 1;
    h.src_rank = 3;
    h.src_slot = acker[0];
    const auto t0 = Clock::now();
    for (int i = 0; i < kMessages + depth; ++i) {
      if (i < kMessages) {
        acks.track({1, 3, static_cast<std::uint64_t>(i)}, net::Payload{}, 7, 3,
                   acker, mpi::Request{});
      }
      if (i >= depth) {
        h.seq = static_cast<std::uint64_t>(i - depth);
        acks.on_ack(h, stats);
      }
    }
    const double t = ns_since(t0);
    if (acks.size() != 0) throw std::runtime_error("ack probe left records");
    return t / kMessages;
  });
}

[[nodiscard]] std::map<std::string, double> read_map(const ChildRun& c) {
  sweep::ByteReader in(c.reply);
  std::map<std::string, double> m;
  const std::uint64_t n = in.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string k = in.str();
    m[k] = in.f64();
  }
  return m;
}

void write_map(const std::map<std::string, double>& m, sweep::ByteWriter& out) {
  out.u64(m.size());
  for (const auto& [k, v] : m) {
    out.str(k);
    out.f64(v);
  }
}

/// Repeats `fn` over `n` items until at least 20 ms have passed; ns/item.
template <class Fn>
[[nodiscard]] double per_item_ns(std::size_t n, Fn&& fn) {
  return median_of_repeats([&] {
    std::size_t items = 0;
    const auto t0 = Clock::now();
    do {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      items += n;
    } while (seconds_since(t0) < 0.02);
    return ns_since(t0) / static_cast<double>(items);
  });
}

}  // namespace

std::map<std::string, double> probe_layers(const Shape& shape) {
  return read_map(run_child([&](Clock::time_point, sweep::ByteWriter& out) {
    std::map<std::string, double> m;
    m["sim.switch_ns"] = switch_ns(shape.fibers);
    m["sim.schedule_ns"] = schedule_ns(shape.fibers);
    m["net.send_ns"] = send_ns(shape);
    const auto [slice, concat] =
        slice_concat_ns(shape.coll_ranks, shape.coll_block);
    m["payload.slice_ns"] = slice;
    m["payload.concat_ns"] = concat;
    const auto [copy, hash] = copy_hash_ns_per_kib(shape.msg_bytes);
    m["payload.copy_ns_per_kib"] = copy;
    m["payload.hash_ns_per_kib"] = hash;
    m["core.ack_ns"] = ack_ns(shape.ack_depth);
    write_map(m, out);
  }));
}

std::map<std::string, double> probe_sweep(
    const std::vector<core::RunConfig>& configs,
    const std::vector<std::string>& specs,
    const std::vector<core::RunResult>& results, const std::string& cold_store,
    const std::string& work_dir) {
  return read_map(run_child([&](Clock::time_point, sweep::ByteWriter& out) {
    std::map<std::string, double> m;
    const std::size_t n = results.size();
    std::vector<std::uint64_t> keys(n);
    std::vector<std::vector<std::byte>> encoded(n);
    double bytes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = sweep::config_key(configs[i], specs[i]);
      encoded[i] = sweep::encode_result(results[i]);
      bytes += static_cast<double>(encoded[i].size());
    }
    std::uint64_t sink = 0;
    m["sweep.key_ns"] = per_item_ns(n, [&](std::size_t i) {
      sink += sweep::config_key(configs[i], specs[i]);
    });
    m["sweep.encode_ns"] = per_item_ns(n, [&](std::size_t i) {
      sink += sweep::encode_result(results[i]).size();
    });
    m["sweep.decode_ns"] = per_item_ns(n, [&](std::size_t i) {
      sink += sweep::decode_result(encoded[i]).app_sends;
    });
    // Appends to a fresh persistent store: one store per pass, so every
    // put is a new digest.
    const std::string put_path = work_dir + "/probe_put.store";
    m["sweep.store_put_ns"] = median_of_repeats([&] {
      std::filesystem::remove(put_path);
      sweep::ResultStore store(put_path);
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < n; ++i) store.put(keys[i], results[i]);
      return ns_since(t0) / static_cast<double>(n);
    });
    std::filesystem::remove(put_path);
    {
      sweep::ResultStore store(cold_store);
      m["sweep.store_lookup_ns"] = per_item_ns(n, [&](std::size_t i) {
        sink += store.lookup(keys[i])->app_sends;
      });
    }
    m["sweep.store_open_s"] = median_of_repeats([&] {
      const auto t0 = Clock::now();
      const sweep::ResultStore store(cold_store);
      sink += store.size();
      return seconds_since(t0);
    });
    m["sweep.result_bytes"] = bytes;
    g_sink = sink;
    write_map(m, out);
  }));
}

}  // namespace hostbench
