// Symbolic payload contents: digests equal fnv1a ground truth, lazy
// materialization happens exactly once, Corrupt is an O(1) wrapper whose
// digest differs from its base, the per-shape digest memo makes repeated
// shapes free, and the symbolic end-to-end path (symbolic send → sink or
// buffered receive, redMPI detection) behaves exactly like raw bytes.
#include <gtest/gtest.h>

#include <vector>

#include "sdrmpi/net/content.hpp"
#include "sdrmpi/net/payload.hpp"
#include "sdrmpi/util/byte_counter.hpp"
#include "sdrmpi/util/hash.hpp"
#include "test_support.hpp"

namespace sdrmpi {
namespace {

using net::ContentDesc;
using net::ContentKind;
using net::Payload;

// ------------------------------------------------------ digest ground truth

TEST(SymbolicPayload, ZerosDigestMatchesFnv1aGroundTruth) {
  util::BufferPool pool;
  for (std::size_t n : {1u, 7u, 8u, 63u, 64u, 1000u, 4097u}) {
    Payload p = Payload::zeros(&pool, n);
    const std::vector<std::byte> ref(n, std::byte{0});
    EXPECT_EQ(p.digest(), util::fnv1a(ref)) << "n=" << n;
    // And the closed form agrees with the materialized bytes.
    EXPECT_EQ(p.digest(), util::fnv1a(p.bytes())) << "n=" << n;
  }
}

TEST(SymbolicPayload, PatternDigestMatchesMaterializedBytes) {
  util::BufferPool pool;
  for (std::size_t n : {1u, 3u, 8u, 9u, 255u, 256u, 10000u}) {
    Payload p = Payload::pattern(&pool, 0xfeedULL + n, n);
    const std::uint64_t symbolic_digest = p.digest();  // before materializing
    EXPECT_FALSE(p.is_materialized()) << "digest() must not materialize";
    EXPECT_EQ(symbolic_digest, util::fnv1a(p.bytes())) << "n=" << n;
  }
}

TEST(SymbolicPayload, PatternBytesAreTheDocumentedGenerator) {
  util::BufferPool pool;
  Payload p = Payload::pattern(&pool, 0xabcULL, 100);
  const std::byte* d = p.data();
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(d[i], net::pattern_byte(0xabcULL, i)) << "i=" << i;
  }
}

TEST(SymbolicPayload, EmptyHandleDigestsLikeEmptySpan) {
  EXPECT_EQ(Payload{}.digest(), util::kFnvOffset);
  EXPECT_EQ(util::fnv1a({}), util::kFnvOffset);
}

// --------------------------------------------------- slice/concat algebra

TEST(SymbolicPayload, SliceOfPatternStaysSymbolicAndExact) {
  util::BufferPool pool;
  Payload base = Payload::pattern(&pool, 0x51edULL, 1000);
  Payload mid = Payload::slice(&pool, base, 123, 456);
  EXPECT_EQ(mid.kind(), net::ContentKind::Pattern);
  EXPECT_FALSE(mid.is_materialized());
  EXPECT_EQ(mid.size(), 456u);
  const std::uint64_t d = mid.digest();
  EXPECT_FALSE(mid.is_materialized()) << "digest() must not materialize";
  EXPECT_EQ(d, util::fnv1a(base.bytes().subspan(123, 456)));
  // Slices of slices compose: stream offsets add.
  Payload nested = Payload::slice(&pool, mid, 7, 100);
  EXPECT_EQ(nested.desc().offset, 130u);
  EXPECT_EQ(nested.digest(), util::fnv1a(base.bytes().subspan(130, 100)));
}

TEST(SymbolicPayload, SliceOfZerosStaysZeros) {
  util::BufferPool pool;
  Payload base = Payload::zeros(&pool, 1 << 20);
  Payload s = Payload::slice(&pool, base, 12345, 6789);
  EXPECT_EQ(s.kind(), net::ContentKind::Zeros);
  EXPECT_EQ(s.digest(), net::fnv1a_zeros(6789));
}

TEST(SymbolicPayload, SliceOfRawCopiesTheRange) {
  util::BufferPool pool;
  std::vector<std::byte> bytes(64);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::byte>(i);
  }
  Payload base = Payload::copy_of(&pool, bytes);
  Payload s = Payload::slice(&pool, base, 8, 16);
  EXPECT_EQ(s.kind(), net::ContentKind::Raw);
  EXPECT_EQ(s.size(), 16u);
  EXPECT_EQ(s[0], std::byte{8});
  EXPECT_EQ(s[15], std::byte{23});
  // Full-range slices alias instead of copying.
  Payload whole = Payload::slice(&pool, base, 0, 64);
  EXPECT_EQ(whole.data(), base.data());
  EXPECT_EQ(base.use_count(), 2u);
}

TEST(SymbolicPayload, ConcatRejoinsContiguousPatternSlices) {
  util::BufferPool pool;
  Payload base = Payload::pattern(&pool, 0xc4a7ULL, 999);
  // Split into three uneven segments and rejoin: the inverse of slice.
  const Payload parts[3] = {Payload::slice(&pool, base, 0, 100),
                            Payload::slice(&pool, base, 100, 500),
                            Payload::slice(&pool, base, 600, 399)};
  Payload joined = Payload::concat_payloads(&pool, parts);
  EXPECT_EQ(joined.kind(), net::ContentKind::Pattern);
  EXPECT_FALSE(joined.is_materialized());
  EXPECT_EQ(joined.size(), 999u);
  EXPECT_EQ(joined.digest(), base.digest());
}

TEST(SymbolicPayload, ConcatOfZerosStaysZeros) {
  util::BufferPool pool;
  const Payload parts[3] = {Payload::zeros(&pool, 10), Payload{},
                            Payload::zeros(&pool, 30)};
  Payload joined = Payload::concat_payloads(&pool, parts);
  EXPECT_EQ(joined.kind(), net::ContentKind::Zeros);
  EXPECT_EQ(joined.size(), 40u);
  EXPECT_EQ(joined.digest(), net::fnv1a_zeros(40));
}

TEST(SymbolicPayload, ConcatOfMixedContentsMaterializesExactBytes) {
  util::BufferPool pool;
  // Non-contiguous pattern parts (both restart at offset 0) cannot merge
  // symbolically; the generic path must still produce the exact bytes.
  const Payload parts[2] = {Payload::pattern(&pool, 0x1ULL, 24),
                            Payload::pattern(&pool, 0x2ULL, 40)};
  Payload joined = Payload::concat_payloads(&pool, parts);
  EXPECT_EQ(joined.kind(), net::ContentKind::Raw);
  ASSERT_EQ(joined.size(), 64u);
  for (std::size_t i = 0; i < 24; ++i) {
    EXPECT_EQ(joined[i], net::pattern_byte(0x1ULL, i));
  }
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(joined[24 + i], net::pattern_byte(0x2ULL, i));
  }
  // Single-part concat aliases.
  const Payload one[1] = {parts[0]};
  Payload same = Payload::concat_payloads(&pool, one);
  EXPECT_EQ(same.desc().seed, 0x1ULL);
  EXPECT_EQ(same.size(), 24u);
}

TEST(SymbolicPayload, RepeatEqualsConcatOfAliases) {
  util::BufferPool pool;
  const Payload blocks[] = {
      Payload{},
      Payload::zeros(&pool, 48),
      Payload::pattern(&pool, 0x7e9eULL, 40),
      Payload::symbolic(&pool, ContentDesc::pattern_at(0x7e9eULL, 24, 13)),
      Payload::symbolic(&pool, ContentDesc::tile(0xb10cULL, 5, 16, 3)),
      Payload::copy_of(&pool, Payload::pattern(&pool, 0x3ULL, 20).bytes()),
  };
  for (const Payload& block : blocks) {
    for (const std::size_t count : {0u, 1u, 2u, 7u}) {
      const std::vector<Payload> aliases(count, block);
      const Payload joined = Payload::concat_payloads(&pool, aliases);
      const Payload rep = Payload::repeat(&pool, block, count);
      const ContentDesc a = joined.desc();
      const ContentDesc b = rep.desc();
      const std::string what = std::string(net::to_string(block.kind())) +
                               " x" + std::to_string(count);
      EXPECT_EQ(a.kind, b.kind) << what;
      EXPECT_EQ(a.len, b.len) << what;
      EXPECT_EQ(a.seed, b.seed) << what;
      EXPECT_EQ(a.offset, b.offset) << what;
      EXPECT_EQ(a.period, b.period) << what;
      EXPECT_EQ(rep.digest(), joined.digest()) << what;
      EXPECT_EQ(rep.digest(), util::fnv1a(rep.bytes())) << what;
      if (block.is_symbolic()) {
        EXPECT_TRUE(rep.same_desc(joined)) << what;
      }
    }
  }
}

TEST(SymbolicPayload, SameDescNeverTrustsBytes) {
  util::BufferPool pool;
  const Payload p = Payload::pattern(&pool, 0x5ULL, 64);
  EXPECT_TRUE(p.same_desc(Payload::pattern(&pool, 0x5ULL, 64)));
  EXPECT_FALSE(p.same_desc(Payload::pattern(&pool, 0x6ULL, 64)));
  EXPECT_FALSE(p.same_desc(Payload::pattern(&pool, 0x5ULL, 63)));
  EXPECT_FALSE(p.same_desc(Payload::zeros(&pool, 64)));
  EXPECT_FALSE(p.same_desc(Payload{}));
  EXPECT_TRUE(Payload{}.same_desc(Payload{}));
  EXPECT_TRUE(Payload::zeros(&pool, 9).same_desc(Payload::zeros(&pool, 9)));

  // Equal bytes are not enough: distinct Raw or Corrupt payloads differ.
  const Payload raw1 = Payload::copy_of(&pool, p.bytes());
  const Payload raw2 = Payload::copy_of(&pool, p.bytes());
  EXPECT_FALSE(raw1.same_desc(raw2));
  EXPECT_FALSE(raw1.same_desc(p));
  EXPECT_FALSE(p.same_desc(raw1));
  const Payload bad1 = Payload::corrupt(&pool, p, 3);
  const Payload bad2 = Payload::corrupt(&pool, p, 3);
  EXPECT_FALSE(bad1.same_desc(bad2));
  EXPECT_FALSE(bad1.same_desc(p));
  EXPECT_FALSE(p.same_desc(bad1));
  // One buffer is the same contents whatever its kind.
  EXPECT_TRUE(raw1.same_desc(raw1));
  EXPECT_TRUE(bad1.same_desc(Payload(bad1)));
}

// ------------------------------------------------------ lazy materialization

TEST(SymbolicPayload, MaterializationHappensExactlyOnce) {
  util::BufferPool pool;
  Payload p = Payload::pattern(&pool, 0x11ULL, 5000);
  Payload alias = p;
  EXPECT_FALSE(p.is_materialized());

  const std::uint64_t mat0 = util::byte_counters().materializations;
  const std::uint64_t copied0 = util::byte_counters().bytes_copied;
  const std::byte* d1 = p.data();
  EXPECT_TRUE(p.is_materialized());
  EXPECT_TRUE(alias.is_materialized());  // shared header
  EXPECT_EQ(util::byte_counters().materializations - mat0, 1u);
  EXPECT_EQ(util::byte_counters().bytes_copied - copied0, 5000u);

  // Further access — including through the alias — reuses the same bytes.
  const std::byte* d2 = alias.data();
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(util::byte_counters().materializations - mat0, 1u);
  EXPECT_EQ(util::byte_counters().bytes_copied - copied0, 5000u);
}

TEST(SymbolicPayload, DigestNeverMaterializesAndIsCached) {
  util::BufferPool pool;
  const std::uint64_t mat0 = util::byte_counters().materializations;
  Payload p = Payload::pattern(&pool, 0x222ULL, 1 << 20);
  const std::uint64_t h0 = util::byte_counters().bytes_hashed;
  (void)p.digest();
  EXPECT_EQ(util::byte_counters().materializations, mat0);
  EXPECT_GE(util::byte_counters().bytes_hashed - h0, 1u << 20);
  // Cached in the header: a second digest() hashes nothing.
  const std::uint64_t h1 = util::byte_counters().bytes_hashed;
  (void)p.digest();
  EXPECT_EQ(util::byte_counters().bytes_hashed, h1);
}

TEST(SymbolicPayload, PatternDigestMemoMakesRepeatedShapesFree) {
  util::BufferPool pool;
  // Same (seed, len) as a fresh payload: the per-thread memo serves it.
  Payload a = Payload::pattern(&pool, 0x333ULL, 123457);
  (void)a.digest();
  const std::uint64_t h0 = util::byte_counters().bytes_hashed;
  Payload b = Payload::pattern(&pool, 0x333ULL, 123457);
  EXPECT_EQ(b.digest(), a.digest());
  EXPECT_EQ(util::byte_counters().bytes_hashed, h0) << "memo miss";
}

TEST(SymbolicPayload, GigabyteZerosDigestIsClosedForm) {
  // O(log n) closed form: no hashing, no materialization, no allocation of
  // the logical size — this is the GB-scale case the design exists for.
  util::BufferPool pool;
  const std::size_t gb = std::size_t{1} << 30;
  Payload p = Payload::zeros(&pool, gb);
  const std::uint64_t h0 = util::byte_counters().bytes_hashed;
  const std::uint64_t c0 = util::byte_counters().bytes_copied;
  EXPECT_EQ(p.digest(), net::fnv1a_zeros(gb));
  EXPECT_EQ(util::byte_counters().bytes_hashed, h0);
  EXPECT_EQ(util::byte_counters().bytes_copied, c0);
  EXPECT_FALSE(p.is_materialized());
  EXPECT_EQ(p.size(), gb);
}

// ----------------------------------------------------------------- Corrupt

TEST(SymbolicPayload, CorruptDigestDiffersFromBaseAndMatchesBytes) {
  util::BufferPool pool;
  // Over every base kind, including a Raw buffer.
  const std::vector<std::byte> raw_bytes(300, std::byte{0x5a});
  const Payload bases[] = {
      Payload::copy_of(&pool, raw_bytes),
      Payload::zeros(&pool, 300),
      Payload::pattern(&pool, 0x444ULL, 300),
  };
  for (const Payload& base : bases) {
    const std::uint64_t bit = 7 * 8 + 6;  // byte 7, bit 6 (the SDC position)
    Payload c = Payload::corrupt(&pool, base, bit);
    EXPECT_EQ(c.size(), base.size());
    EXPECT_NE(c.digest(), base.digest());
    EXPECT_EQ(c.digest(), util::fnv1a(c.bytes()));
    // Exactly one bit differs from the base contents.
    const std::byte* cb = c.data();
    const std::byte* bb = base.data();
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (i == 7) {
        EXPECT_EQ(cb[i], bb[i] ^ std::byte{0x40});
      } else {
        EXPECT_EQ(cb[i], bb[i]) << "i=" << i;
      }
    }
  }
}

TEST(SymbolicPayload, CorruptIsO1AtCreation) {
  util::BufferPool pool;
  Payload base = Payload::pattern(&pool, 0x555ULL, 1 << 22);
  const std::uint64_t c0 = util::byte_counters().bytes_copied;
  Payload c = Payload::corrupt(&pool, base, 6);
  EXPECT_EQ(util::byte_counters().bytes_copied, c0) << "corrupt cloned bytes";
  EXPECT_FALSE(c.is_materialized());
  EXPECT_EQ(base.use_count(), 2u);  // aliased, not copied
}

// ----------------------------------------------------- pool/slab mechanics

TEST(SymbolicPayload, MaterializedSlabReturnsToItsOwnPool) {
  util::BufferPool pool_a;
  util::BufferPool pool_b;
  {
    Payload pa = Payload::pattern(&pool_a, 1, 500);
    Payload pb = Payload::pattern(&pool_b, 2, 500);
    (void)pa.data();
    (void)pb.data();
  }
  // Header slab + materialized slab per payload, each home again.
  EXPECT_EQ(pool_a.cached_slabs(), 2u);
  EXPECT_EQ(pool_b.cached_slabs(), 2u);
}

TEST(SymbolicPayload, PoollessSymbolicHandlesUseTheHeap) {
  Payload p = Payload::pattern(nullptr, 3, 64);
  EXPECT_EQ(p.digest(), util::fnv1a(p.bytes()));
}

// --------------------------------------------------------- end-to-end MPI

TEST(SymbolicEndToEnd, SymbolicSendToSinkRecvNeverTouchesBytes) {
  core::RunConfig cfg;
  cfg.nranks = 2;
  const std::size_t size = std::size_t{4} << 20;  // rendezvous-sized
  auto res = core::run(cfg, [size](mpi::Env& env) {
    auto& world = env.world();
    const auto desc = net::ContentDesc::pattern(0x777ULL, size);
    if (env.rank() == 0) {
      world.send_symbolic(desc, 1, 5);
    } else {
      auto req = world.irecv_sink(size, 0, 5);
      world.wait(req);
      EXPECT_EQ(req->status.bytes, size);
      EXPECT_FALSE(req->recv_payload.is_materialized());
      // The delivered handle digests to the sender's contents.
      util::Checksum cs;
      cs.add_u64(req->recv_payload.digest());
      env.report_checksum(cs.digest());
    }
  });
  ASSERT_TRUE(test::run_clean(res));
  // Wire accounting saw the full message; the host never copied it.
  EXPECT_GE(res.fabric.payload_bytes, size);
  EXPECT_LT(res.bytes_copied, std::size_t{64} << 10);
}

TEST(SymbolicEndToEnd, SymbolicSendIntoRealBufferMaterializesTheContents) {
  core::RunConfig cfg;
  cfg.nranks = 2;
  constexpr std::size_t kSize = 2048;
  auto res = core::run(cfg, [](mpi::Env& env) {
    auto& world = env.world();
    if (env.rank() == 0) {
      world.send_symbolic(net::ContentDesc::pattern(0x888ULL, kSize), 1, 5);
    } else {
      std::vector<std::byte> buf(kSize);
      world.recv(std::span<std::byte>(buf), 0, 5);
      for (std::size_t i = 0; i < kSize; ++i) {
        ASSERT_EQ(buf[i], net::pattern_byte(0x888ULL, i)) << "i=" << i;
      }
    }
  });
  ASSERT_TRUE(test::run_clean(res));
}

TEST(SymbolicEndToEnd, SinkRecvOfRawSendKeepsDeliveredContents) {
  core::RunConfig cfg;
  cfg.nranks = 2;
  auto res = core::run(cfg, [](mpi::Env& env) {
    auto& world = env.world();
    const std::vector<std::byte> data(777, std::byte{0x31});
    if (env.rank() == 0) {
      world.send(std::span<const std::byte>(data), 1, 5);
    } else {
      auto req = world.irecv_sink(1024, 0, 5);
      world.wait(req);
      EXPECT_EQ(req->status.bytes, 777u);
      EXPECT_EQ(req->recv_payload.digest(), util::fnv1a(data));
    }
  });
  ASSERT_TRUE(test::run_clean(res));
}

// redMPI SDC pin: the O(1) Corrupt wrapper must still be detected through
// digest comparison — on the raw path AND on the fully symbolic path.
TEST(SymbolicEndToEnd, RedMpiDetectsCorruptWrapperOnSymbolicTraffic) {
  for (const bool symbolic : {false, true}) {
    core::RunConfig cfg;
    cfg.nranks = 2;
    cfg.replication = 2;
    cfg.protocol = core::ProtocolKind::RedMpiSd;
    cfg.sdc.push_back({.slot = 0, .at_send = 1});
    auto res = core::run(cfg, [symbolic](mpi::Env& env) {
      auto& world = env.world();
      const std::size_t size = 4096;
      const std::vector<std::byte> data(size, std::byte{0x21});
      const auto desc = net::ContentDesc::pattern(0x999ULL, size);
      const int peer = env.rank() ^ 1;
      for (int i = 0; i < 3; ++i) {
        if (env.rank() == 0) {
          if (symbolic) {
            world.send_symbolic(desc, peer, 1);
            (void)world.recv_sink(size, peer, 1);
          } else {
            std::vector<std::byte> buf(size);
            world.send(std::span<const std::byte>(data), peer, 1);
            world.recv(std::span<std::byte>(buf), peer, 1);
          }
        } else {
          if (symbolic) {
            (void)world.recv_sink(size, peer, 1);
            world.send_symbolic(desc, peer, 1);
          } else {
            std::vector<std::byte> buf(size);
            world.recv(std::span<std::byte>(buf), peer, 1);
            world.send(std::span<const std::byte>(data), peer, 1);
          }
        }
      }
    });
    ASSERT_TRUE(test::run_clean(res)) << "symbolic=" << symbolic;
    EXPECT_GE(res.protocol.sdc_detected, 1u) << "symbolic=" << symbolic;
  }
}

}  // namespace
}  // namespace sdrmpi
