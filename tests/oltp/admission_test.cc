#include "oltp/admission.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "oltp/oltp_client.h"
#include "tests/db/test_db.h"

namespace elastic::oltp {
namespace {

TEST(AdmissionControllerTest, PolicyNamesRoundTrip) {
  for (AdmissionPolicy policy :
       {AdmissionPolicy::kNone, AdmissionPolicy::kQueueDepth,
        AdmissionPolicy::kAdaptive}) {
    EXPECT_EQ(AdmissionPolicyFromName(AdmissionPolicyName(policy)), policy);
  }
}

TEST(AdmissionControllerTest, NoneAdmitsEverything) {
  AdmissionController controller(AdmissionConfig{}, nullptr);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(controller.Admit(/*now=*/i, /*in_flight=*/1'000'000));
  }
  EXPECT_EQ(controller.admitted(), 100);
  EXPECT_EQ(controller.shed(), 0);
}

TEST(AdmissionControllerTest, QueueDepthShedsAtThreshold) {
  AdmissionConfig config;
  config.policy = AdmissionPolicy::kQueueDepth;
  config.max_in_flight = 8;
  AdmissionController controller(config, nullptr);
  EXPECT_TRUE(controller.Admit(10, 7));
  EXPECT_FALSE(controller.Admit(11, 8));
  EXPECT_FALSE(controller.Admit(12, 9));
  EXPECT_EQ(controller.admitted(), 1);
  EXPECT_EQ(controller.shed(), 2);
  EXPECT_EQ(controller.shed_ticks(), (std::vector<simcore::Tick>{11, 12}));
}

AdmissionConfig AimdConfig() {
  AdmissionConfig config;
  config.policy = AdmissionPolicy::kAdaptive;
  config.target_tail_s = 0.100;
  config.backoff_ratio = 0.7;  // back off past 70 ms
  config.initial_window = 32;
  config.min_window = 4;
  config.max_window = 64;
  config.additive_increase = 1;
  config.multiplicative_decrease = 0.5;
  config.update_period_ticks = 10;
  return config;
}

TEST(AdmissionControllerTest, AimdBacksOffMultiplicativelyRecoversAdditively) {
  double tail = -1.0;
  AdmissionController controller(AimdConfig(),
                                 [&tail](simcore::Tick) { return tail; });
  // No signal: the window holds at its initial value.
  controller.Admit(0, 0);
  EXPECT_EQ(controller.window(), 32);

  // Signal above the backoff threshold: halve per update period...
  tail = 0.090;
  controller.Admit(10, 0);
  EXPECT_EQ(controller.window(), 16);
  controller.Admit(20, 0);
  EXPECT_EQ(controller.window(), 8);
  // ...down to the floor, never below.
  controller.Admit(30, 0);
  controller.Admit(40, 0);
  controller.Admit(50, 0);
  EXPECT_EQ(controller.window(), 4);

  // Healthy signal: recover one step per update period (AIMD asymmetry —
  // convergence after a burst ends is linear, collapse during one is
  // geometric).
  tail = 0.010;
  for (int i = 0; i < 5; ++i) controller.Admit(60 + 10 * i, 0);
  EXPECT_EQ(controller.window(), 9);
}

TEST(AdmissionControllerTest, AimdUpdatesOnCadenceNotPerArrival) {
  double tail = 0.090;  // violating from the start
  AdmissionController controller(AimdConfig(),
                                 [&tail](simcore::Tick) { return tail; });
  // A burst of arrivals inside one update period decreases the window once,
  // not once per arrival.
  for (int i = 0; i < 50; ++i) controller.Admit(/*now=*/5, 0);
  EXPECT_EQ(controller.window(), 16);
}

TEST(AdmissionControllerTest, AimdShedsAboveWindow) {
  double tail = -1.0;
  AdmissionController controller(AimdConfig(),
                                 [&tail](simcore::Tick) { return tail; });
  EXPECT_TRUE(controller.Admit(0, 31));
  EXPECT_FALSE(controller.Admit(1, 32));
  EXPECT_EQ(controller.shed(), 1);
}

TEST(AdmissionControllerTest, RecentShedRateWindowsOverShedTicks) {
  AdmissionConfig config;
  config.policy = AdmissionPolicy::kQueueDepth;
  config.max_in_flight = 1;
  AdmissionController controller(config, nullptr);
  controller.Admit(100, 5);  // shed at tick 100
  controller.Admit(200, 5);  // shed at tick 200
  controller.Admit(210, 5);  // shed at tick 210
  // Window (110, 210]: two sheds over 100 ticks = 0.1 s -> 20 sheds/s.
  EXPECT_DOUBLE_EQ(controller.RecentShedRate(/*now=*/210, /*window=*/100),
                   20.0);
  // All three inside a wide-open window.
  EXPECT_DOUBLE_EQ(controller.RecentShedRate(1000, 1000), 3.0);
  // None after everything aged out.
  EXPECT_DOUBLE_EQ(controller.RecentShedRate(1000, 100), 0.0);
}

// -- Client-level accounting over the real engine + machine stack. --

struct Stack {
  std::unique_ptr<ossim::Machine> machine;
  std::unique_ptr<exec::BaseCatalog> catalog;
  std::unique_ptr<TxnEngine> engine;
};

Stack MakeStack(TxnEngineOptions options = {}) {
  Stack stack;
  stack.machine = std::make_unique<ossim::Machine>(ossim::MachineOptions{});
  stack.catalog = std::make_unique<exec::BaseCatalog>(
      &stack.machine->page_table(), testutil::TestDb(),
      exec::BasePlacement::kChunkedRoundRobin, /*page_bytes=*/4096);
  stack.engine = std::make_unique<TxnEngine>(stack.machine.get(),
                                             stack.catalog.get(), options);
  return stack;
}

/// A slow 1-worker engine and a bursty open-loop schedule: arrivals outrun
/// service during every burst window, so any admission gate must engage.
TxnEngineOptions SlowEngine() {
  TxnEngineOptions options;
  options.pool_size = 1;
  options.num_partitions = 8;
  options.cpu_cycles_per_page = 5'000'000;  // several ticks per transaction
  return options;
}

OltpWorkload BurstyWorkload() {
  OltpWorkload workload;
  workload.total_txns = 200;
  workload.arrival_interval_ticks = 12;
  workload.burst_period_ticks = 300;
  workload.burst_length_ticks = 100;
  workload.burst_interval_ticks = 1;
  return workload;
}

int64_t RunToCompletion(Stack* stack, OltpClient* client) {
  client->Start();
  int64_t ticks = 0;
  while (!client->AllDone() && ticks < 500'000) {
    stack->machine->Step();
    ticks++;
  }
  EXPECT_TRUE(client->AllDone());
  return ticks;
}

TEST(OltpClientAdmissionTest, ShedUnderBurstIsDeterministic) {
  auto run = [] {
    Stack stack = MakeStack(SlowEngine());
    AdmissionConfig admission;
    admission.policy = AdmissionPolicy::kQueueDepth;
    admission.max_in_flight = 6;
    admission.retry_backoff_ticks = 40;
    admission.max_retries = 2;
    OltpClient client(stack.machine.get(), stack.engine.get(),
                      BurstyWorkload(), /*seed=*/99, admission);
    const int64_t ticks = RunToCompletion(&stack, &client);
    EXPECT_GT(client.shed_events(), 0);
    return std::make_tuple(ticks, client.shed_events(), client.failed(),
                           client.retries(), client.completed(),
                           client.admission().shed_ticks(),
                           client.latencies().PercentileTicks(0.99));
  };
  EXPECT_EQ(run(), run());
}

TEST(OltpClientAdmissionTest, RetryVersusFailAccounting) {
  // With retries on, every transaction is eventually accounted either as a
  // completion or as a failure after max_retries rejections; shed *events*
  // exceed failures because most rejected arrivals get in on retry.
  Stack stack = MakeStack(SlowEngine());
  AdmissionConfig admission;
  admission.policy = AdmissionPolicy::kQueueDepth;
  admission.max_in_flight = 6;
  admission.retry_backoff_ticks = 40;
  admission.max_retries = 2;
  OltpClient client(stack.machine.get(), stack.engine.get(), BurstyWorkload(),
                    /*seed=*/7, admission);
  RunToCompletion(&stack, &client);
  EXPECT_EQ(client.completed() + client.failed(), 200);
  EXPECT_GT(client.retries(), 0);
  EXPECT_GE(client.shed_events(), client.failed());
  // Only admitted transactions produce latency samples.
  EXPECT_EQ(client.latencies().count(), client.completed());
  // Every shed event either re-entered the schedule as a retry or became a
  // permanent failure — never both, never neither.
  EXPECT_EQ(client.shed_events(), client.retries() + client.failed());
  // Each transaction passes the gate at most once, and every admitted one
  // completes: the partition-latch path never aborts.
  EXPECT_EQ(client.admission().admitted(), client.completed());
}

TEST(OltpClientAdmissionTest, FailFastWithoutRetries) {
  // No retries: every shed event is a permanent failure.
  Stack stack = MakeStack(SlowEngine());
  AdmissionConfig admission;
  admission.policy = AdmissionPolicy::kQueueDepth;
  admission.max_in_flight = 6;
  admission.max_retries = 0;
  OltpClient client(stack.machine.get(), stack.engine.get(), BurstyWorkload(),
                    /*seed=*/7, admission);
  RunToCompletion(&stack, &client);
  EXPECT_GT(client.failed(), 0);
  EXPECT_EQ(client.failed(), client.shed_events());
  EXPECT_EQ(client.retries(), 0);
  EXPECT_EQ(client.completed() + client.failed(), 200);
}

TEST(OltpClientAdmissionTest, ZeroShedWhenUnderSlo) {
  // Adaptive admission over a workload the engine absorbs easily: the tail
  // signal never crosses the backoff threshold, so nothing is shed and the
  // run is byte-identical to an ungated one.
  Stack stack = MakeStack();
  AdmissionConfig admission;
  admission.policy = AdmissionPolicy::kAdaptive;
  admission.target_tail_s = 0.200;
  OltpWorkload workload;
  workload.total_txns = 150;
  workload.arrival_interval_ticks = 6;
  OltpClient client(stack.machine.get(), stack.engine.get(), workload,
                    /*seed=*/11, admission);
  RunToCompletion(&stack, &client);
  EXPECT_EQ(client.shed_events(), 0);
  EXPECT_EQ(client.failed(), 0);
  EXPECT_EQ(client.completed(), 150);
}

TEST(OltpClientAdmissionTest, AimdConvergesAfterBurstEnds) {
  // Tight budget + slow engine: the AIMD window collapses during bursts and
  // recovers additively in the calm stretches; the run still terminates
  // with every transaction accounted and the window off its floor.
  Stack stack = MakeStack(SlowEngine());
  AdmissionConfig admission;
  admission.policy = AdmissionPolicy::kAdaptive;
  admission.target_tail_s = 0.040;
  admission.initial_window = 16;
  admission.min_window = 2;
  admission.update_period_ticks = 20;
  admission.retry_backoff_ticks = 40;
  // One mid-run burst with a long calm tail after it: the AIMD window only
  // updates on arrivals, so recovery must be observed while arrivals still
  // flow.
  OltpWorkload workload;
  workload.total_txns = 200;
  workload.arrival_interval_ticks = 12;
  workload.burst_period_ticks = 600;
  workload.burst_length_ticks = 100;
  workload.burst_interval_ticks = 1;
  OltpClient client(stack.machine.get(), stack.engine.get(), workload,
                    /*seed=*/21, admission);
  RunToCompletion(&stack, &client);
  EXPECT_GT(client.shed_events(), 0);
  EXPECT_EQ(client.completed() + client.failed(), 200);
  // The post-drain calm let additive increase lift the window off the
  // floor it hit during the bursts.
  EXPECT_GT(client.admission().window(), admission.min_window);
}

}  // namespace
}  // namespace elastic::oltp
