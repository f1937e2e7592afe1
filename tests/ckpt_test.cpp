// Checkpoint/restart protocol (ProtocolKind::Ckpt) and the engine-snapshot
// machinery behind it.
//
//  - Charge-forward cost model: boundaries charge checkpoint_cost to every
//    live clock, a fail-stop fault charges restart + rework at detection
//    time, and nobody dies — runs stay clean and deterministic.
//  - verify_snapshots: a full Engine + Endpoint snapshot/restore round-trip
//    at every boundary must be bit-invisible.
//  - Warm-prefix forked execution (sweep/warm.hpp): one warm-up + fork per
//    fault scenario reproduces cold core::run() bit-for-bit, including the
//    cold fallback for faults inside the already-executed prefix, and
//    every child that dies before delivering is reported.
#include <gtest/gtest.h>
#include <unistd.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sdrmpi/sweep/warm.hpp"
#include "test_support.hpp"

namespace sdrmpi {
namespace {

core::RunConfig ckpt_config(Time interval) {
  core::RunConfig cfg = test::quick_config(4, 1, core::ProtocolKind::Ckpt);
  cfg.ckpt.interval = interval;
  // Costs scaled to the ~400us small-cg makespan.
  cfg.ckpt.checkpoint_cost = 5000;
  cfg.ckpt.restart_cost = 20000;
  return cfg;
}

TEST(Ckpt, ZeroIntervalMatchesNativeExactly) {
  // interval == 0 disables the boundary chain: the run is the unreplicated
  // baseline bit-for-bit, protocol stats included.
  const auto native = core::run(
      test::quick_config(4, 1, core::ProtocolKind::Native),
      test::small_workload("cg"));
  const auto ckpt0 = core::run(ckpt_config(0), test::small_workload("cg"));
  ASSERT_TRUE(test::run_clean(native));
  EXPECT_EQ(ckpt0, native);
}

TEST(Ckpt, BoundariesChargeEveryLiveClock) {
  const auto native = core::run(
      test::quick_config(4, 1, core::ProtocolKind::Native),
      test::small_workload("cg"));
  const auto res = core::run(ckpt_config(100000), test::small_workload("cg"));
  ASSERT_TRUE(test::run_clean(res));
  EXPECT_GE(res.protocol.checkpoints_taken, 3u);
  EXPECT_EQ(res.protocol.restarts, 0u);
  EXPECT_EQ(res.protocol.rework_ns, 0u);
  // Boundaries charge every live clock. A charge to a process blocked on a
  // later message is absorbed into its wait, so the makespan grows by less
  // than count x cost — but the critical path eats at least one charge.
  EXPECT_GE(res.makespan, native.makespan + 5000);
  // Boundaries stop re-arming once the app is done, so the chain can't
  // stretch the run much beyond one extra interval.
  EXPECT_LT(res.makespan, native.makespan + 300000);
}

TEST(Ckpt, FaultChargesRestartPlusRework) {
  // Boundaries at 100us and 200us precede the 250us fault: the rolled-back
  // interval is exactly 50us of virtual time.
  core::RunConfig cfg = ckpt_config(100000);
  cfg.faults.push_back({.slot = 1, .at_time = 250000, .at_send = -1});
  const auto faulty = core::run(cfg, test::small_workload("cg"));
  ASSERT_TRUE(test::run_clean(faulty)) << "ckpt faults must not kill anyone";
  EXPECT_EQ(faulty.protocol.restarts, 1u);
  EXPECT_EQ(faulty.protocol.failures_observed, 1u);
  EXPECT_EQ(faulty.protocol.rework_ns, 50000u);

  const auto clean = core::run(ckpt_config(100000),
                               test::small_workload("cg"));
  // restart_cost + rework land on every clock; boundary count may differ
  // by the stretch, so only the lower bound is exact.
  EXPECT_GE(faulty.makespan, clean.makespan + 20000 + 50000);
  // All four slots finished (no replicas to fail over to — nobody died).
  for (const auto& s : faulty.slots) EXPECT_EQ(s.final_state, "Finished");
}

TEST(Ckpt, FaultBeyondCompletionIsAbsorbedFree) {
  core::RunConfig cfg = ckpt_config(100000);
  cfg.faults.push_back({.slot = 0, .at_time = timeunits::seconds(1.0),
                        .at_send = -1});
  const auto res = core::run(cfg, test::small_workload("cg"));
  const auto clean = core::run(ckpt_config(100000),
                               test::small_workload("cg"));
  ASSERT_TRUE(test::run_clean(res));
  // The fault is still observed (counters are config-faithful) but lands
  // after every process terminated: no clock moves.
  EXPECT_EQ(res.protocol.restarts, 1u);
  EXPECT_EQ(res.makespan, clean.makespan);
}

TEST(Ckpt, VerifySnapshotsIsBitInvisible) {
  // verify_snapshots snapshots + restores the full engine and every
  // endpoint at each boundary; the run must not be able to tell.
  core::RunConfig plain = ckpt_config(100000);
  plain.faults.push_back({.slot = 2, .at_time = 270000, .at_send = -1});
  core::RunConfig verify = plain;
  verify.ckpt.verify_snapshots = true;
  const auto a = core::run(plain, test::small_workload("cg"));
  const auto b = core::run(verify, test::small_workload("cg"));
  ASSERT_TRUE(test::run_clean(a));
  EXPECT_EQ(a, b);
}

TEST(Ckpt, ValidatorRejectsReplicationAndSendPlacedFaults) {
  core::RunConfig replicated = ckpt_config(100000);
  replicated.replication = 2;
  EXPECT_THROW(
      { auto r = core::run(replicated, test::small_workload("cg")); },
      std::invalid_argument);

  // No process dies under the charge-forward model, so a send-count
  // placement has nothing to attach to.
  core::RunConfig send_fault = ckpt_config(100000);
  send_fault.faults.push_back({.slot = 1, .at_time = -1, .at_send = 5});
  EXPECT_THROW(
      { auto r = core::run(send_fault, test::small_workload("cg")); },
      std::invalid_argument);
}

// ---------------------------------------------------- warm-prefix forking

TEST(WarmFork, CkptScenariosMatchColdRunsBitForBit) {
  const core::RunConfig base = ckpt_config(100000);
  const std::vector<std::vector<core::FaultSpec>> scenarios = {
      {},
      {{.slot = 1, .at_time = 250000, .at_send = -1}},
      {{.slot = 0, .at_time = 120000, .at_send = -1},
       {.slot = 2, .at_time = 260000, .at_send = -1}},
      // Inside the warm prefix: must transparently fall back to a cold run.
      {{.slot = 3, .at_time = 10000, .at_send = -1}},
  };
  const auto warm = sweep::run_warm_forked(base, test::small_workload("cg"),
                                           scenarios, /*warm_until=*/50000);
  ASSERT_EQ(warm.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    core::RunConfig cfg = base;
    cfg.faults = scenarios[i];
    const auto cold = core::run(cfg, test::small_workload("cg"));
    ASSERT_TRUE(test::run_clean(cold)) << "scenario " << i;
    EXPECT_EQ(warm[i], cold) << "scenario " << i;
  }
}

TEST(WarmFork, SdrFailoverScenariosMatchColdRunsBitForBit) {
  // The runner is protocol-agnostic: forked SDR failovers (world-1 replica
  // deaths at absolute times) reproduce cold runs too.
  const core::RunConfig base =
      test::quick_config(4, 2, core::ProtocolKind::Sdr);
  const std::vector<std::vector<core::FaultSpec>> scenarios = {
      {},
      {{.slot = 5, .at_time = 200000, .at_send = -1}},
      {{.slot = 6, .at_time = 150000, .at_send = -1},
       {.slot = 4, .at_time = 300000, .at_send = -1}},
  };
  const auto warm = sweep::run_warm_forked(base, test::small_workload("cg"),
                                           scenarios, /*warm_until=*/60000);
  ASSERT_EQ(warm.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    core::RunConfig cfg = base;
    cfg.faults = scenarios[i];
    const auto cold = core::run(cfg, test::small_workload("cg"));
    EXPECT_EQ(warm[i], cold) << "scenario " << i;
  }
}

TEST(WarmFork, EveryFailingScenarioIsReported) {
  // Both forked children die before delivering: the app exits once its
  // virtual time passes the pause point, which only happens after the
  // fork (the warm-up in this process stops at warm_until).
  constexpr Time kWarmUntil = 50000;
  const core::AppFn cg = test::small_workload("cg");
  const core::AppFn die_after_warmup = [cg](mpi::Env& env) {
    cg(env);
    if (env.wtime() > timeunits::to_sec(kWarmUntil)) ::_exit(7);
  };
  const std::vector<std::vector<core::FaultSpec>> scenarios = {
      {},
      {{.slot = 1, .at_time = 250000, .at_send = -1}},
  };
  try {
    auto r = sweep::run_warm_forked(ckpt_config(100000), die_after_warmup,
                                    scenarios, kWarmUntil);
    FAIL() << "expected WarmPrefixError";
  } catch (const sweep::WarmPrefixError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("scenario 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("scenario 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("; "), std::string::npos) << msg;
  }
}

TEST(WarmFork, RejectsMisuse) {
  const core::RunConfig base = ckpt_config(100000);
  const std::vector<std::vector<core::FaultSpec>> one = {{}};
  EXPECT_THROW(
      {
        auto r = sweep::run_warm_forked(base, test::small_workload("cg"),
                                        one, /*warm_until=*/0);
      },
      std::invalid_argument);

  core::RunConfig faulty_base = base;
  faulty_base.faults.push_back({.slot = 0, .at_time = 90000, .at_send = -1});
  EXPECT_THROW(
      {
        auto r = sweep::run_warm_forked(faulty_base,
                                        test::small_workload("cg"), one,
                                        /*warm_until=*/50000);
      },
      std::invalid_argument);

  const std::vector<std::vector<core::FaultSpec>> send_placed = {
      {{.slot = 0, .at_time = -1, .at_send = 3}}};
  EXPECT_THROW(
      {
        auto r = sweep::run_warm_forked(base, test::small_workload("cg"),
                                        send_placed, /*warm_until=*/50000);
      },
      std::invalid_argument);
}

}  // namespace
}  // namespace sdrmpi
