// Property-style tests over randomly generated token flows: conservation,
// non-negativity, incidence-matrix consistency, and StepOnce agreeing with
// IsEnabled and Fire on random guarded nets.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "petri/net.h"
#include "simcore/rng.h"

namespace elastic::petri {
namespace {

/// A conservative ring net: P0 -> P1 -> ... -> P(n-1) -> P0, each transition
/// moves one token forward unchanged. Token count must be invariant under
/// any firing sequence.
class RingNet {
 public:
  explicit RingNet(int places) {
    for (int i = 0; i < places; ++i) {
      place_ids_.push_back(net_.AddPlace("P" + std::to_string(i)));
    }
    for (int i = 0; i < places; ++i) {
      const TransitionId t = net_.AddTransition("t" + std::to_string(i));
      net_.AddInputArc(place_ids_[i], t, "v");
      net_.AddOutputArc(t, place_ids_[(i + 1) % places],
                        [](const Binding& b) { return b.Get("v"); });
      transition_ids_.push_back(t);
    }
  }
  Net& net() { return net_; }
  const std::vector<PlaceId>& places() const { return place_ids_; }
  const std::vector<TransitionId>& transitions() const { return transition_ids_; }

 private:
  Net net_;
  std::vector<PlaceId> place_ids_;
  std::vector<TransitionId> transition_ids_;
};

class RingProperty : public ::testing::TestWithParam<int> {};

TEST_P(RingProperty, TokenCountConservedUnderRandomFiring) {
  const int seed = GetParam();
  simcore::Rng rng(static_cast<uint64_t>(seed));
  RingNet ring(4);
  const int64_t initial = 1 + static_cast<int64_t>(rng.NextBounded(5));
  for (int64_t i = 0; i < initial; ++i) {
    ring.net().AddToken(ring.places()[rng.NextBounded(4)],
                        static_cast<double>(i));
  }
  for (int step = 0; step < 200; ++step) {
    const TransitionId t =
        ring.transitions()[rng.NextBounded(ring.transitions().size())];
    ring.net().Fire(t);  // may be disabled; that's fine
    ASSERT_EQ(ring.net().TotalTokens(), initial);
  }
}

TEST_P(RingProperty, MarkingsNeverNegative) {
  const int seed = GetParam();
  simcore::Rng rng(static_cast<uint64_t>(seed) * 7919);
  RingNet ring(3);
  ring.net().AddToken(ring.places()[0], 1.0);
  for (int step = 0; step < 100; ++step) {
    ring.net().Fire(ring.transitions()[rng.NextBounded(3)]);
    for (PlaceId p : ring.places()) {
      // The invariant is that Fire never fires on an empty input place, so
      // no place ever holds more than the initial single token.
      ASSERT_LE(ring.net().Marking(p).size(), 1u);
    }
  }
}

TEST_P(RingProperty, IncidenceColumnsSumToZeroForConservativeNets) {
  RingNet ring(GetParam() % 5 + 2);
  const auto at = ring.net().IncidenceMatrix();
  // Every transition consumes one token and produces one: each column of
  // the incidence matrix sums to zero.
  for (int t = 0; t < ring.net().num_transitions(); ++t) {
    int sum = 0;
    for (int p = 0; p < ring.net().num_places(); ++p) sum += at[p][t];
    EXPECT_EQ(sum, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingProperty, ::testing::Range(1, 13));

/// Fork/join net: Source -t_fork-> (A, B); (A, B) -t_join-> Sink.
TEST(ForkJoinNet, SplitsAndRejoins) {
  Net net;
  const PlaceId source = net.AddPlace("Source");
  const PlaceId a = net.AddPlace("A");
  const PlaceId b = net.AddPlace("B");
  const PlaceId sink = net.AddPlace("Sink");
  const TransitionId fork = net.AddTransition("fork");
  net.AddInputArc(source, fork, "v");
  net.AddOutputArc(fork, a, [](const Binding& bd) { return bd.Get("v"); });
  net.AddOutputArc(fork, b, [](const Binding& bd) { return bd.Get("v") * 2; });
  const TransitionId join = net.AddTransition("join");
  net.AddInputArc(a, join, "x");
  net.AddInputArc(b, join, "y");
  net.AddOutputArc(join, sink,
                   [](const Binding& bd) { return bd.Get("x") + bd.Get("y"); });

  net.AddToken(source, 10.0);
  const auto fired = net.RunToQuiescence(10);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], fork);
  EXPECT_EQ(fired[1], join);
  ASSERT_EQ(net.Marking(sink).size(), 1u);
  EXPECT_DOUBLE_EQ(net.Marking(sink).front(), 30.0);
}

/// Fork is not conservative (1 in, 2 out): column sums reflect that.
TEST(ForkJoinNet, IncidenceReflectsNonConservation) {
  Net net;
  const PlaceId source = net.AddPlace("Source");
  const PlaceId a = net.AddPlace("A");
  const PlaceId b = net.AddPlace("B");
  const TransitionId fork = net.AddTransition("fork");
  net.AddInputArc(source, fork, "v");
  net.AddOutputArc(fork, a, [](const Binding& bd) { return bd.Get("v"); });
  net.AddOutputArc(fork, b, [](const Binding& bd) { return bd.Get("v"); });
  const auto at = net.IncidenceMatrix();
  int sum = 0;
  for (int p = 0; p < net.num_places(); ++p) sum += at[p][static_cast<size_t>(fork)];
  EXPECT_EQ(sum, 1);  // +2 produced, -1 consumed
}

/// How a random transition was built: its input places, in arc order, and
/// its guard over the values bound from the arcs numbered `a` and `b`.
struct TransitionSpec {
  enum class Guard { kNone, kLess, kSumAtLeast };
  std::vector<PlaceId> inputs;
  Guard guard = Guard::kNone;
  int a = 0;
  int b = 0;
  double bound = 0.0;
};

struct RandomNet {
  Net net;
  std::vector<TransitionSpec> specs;
};

/// A seeded random net: 2-6 places and 2-8 transitions, each with 1-4
/// input arcs from distinct places, an optional guard comparing one or two
/// bound values with a constant, and 0-3 output arcs whose places may be
/// its own inputs (self-loops). Places start with 0-3 tokens.
RandomNet MakeRandomNet(simcore::Rng& rng) {
  RandomNet random;
  Net& net = random.net;
  const int places = 2 + static_cast<int>(rng.NextBounded(5));
  for (int p = 0; p < places; ++p) net.AddPlace("P" + std::to_string(p));
  const auto value = [&rng] {
    return static_cast<double>(rng.NextInRange(-8, 8)) / 2.0;
  };
  const auto var = [](int arc) { return "v" + std::to_string(arc); };
  const int transitions = 2 + static_cast<int>(rng.NextBounded(7));
  for (int t = 0; t < transitions; ++t) {
    TransitionSpec spec;
    const int arcs = 1 + static_cast<int>(rng.NextBounded(
                             static_cast<uint64_t>(std::min(4, places))));
    while (static_cast<int>(spec.inputs.size()) < arcs) {
      const PlaceId p = static_cast<PlaceId>(
          rng.NextBounded(static_cast<uint64_t>(places)));
      if (std::find(spec.inputs.begin(), spec.inputs.end(), p) ==
          spec.inputs.end()) {
        spec.inputs.push_back(p);
      }
    }
    spec.a = static_cast<int>(rng.NextBounded(spec.inputs.size()));
    spec.b = static_cast<int>(rng.NextBounded(spec.inputs.size()));
    spec.bound = value();
    spec.guard = static_cast<TransitionSpec::Guard>(rng.NextBounded(3));
    Guard guard;
    const std::string a = var(spec.a);
    const std::string b = var(spec.b);
    const double bound = spec.bound;
    if (spec.guard == TransitionSpec::Guard::kLess) {
      guard = [a, bound](const Binding& bd) { return bd.Get(a) < bound; };
    } else if (spec.guard == TransitionSpec::Guard::kSumAtLeast) {
      guard = [a, b, bound](const Binding& bd) {
        return bd.Get(a) + bd.Get(b) >= bound;
      };
    }
    const TransitionId id =
        net.AddTransition("t" + std::to_string(t), std::move(guard));
    for (size_t i = 0; i < spec.inputs.size(); ++i) {
      net.AddInputArc(spec.inputs[i], id, var(static_cast<int>(i)));
    }
    const int outputs = static_cast<int>(rng.NextBounded(4));
    for (int o = 0; o < outputs; ++o) {
      // Half the outputs return to one of the transition's own inputs.
      const PlaceId target =
          rng.NextBounded(2) == 0
              ? spec.inputs[rng.NextBounded(spec.inputs.size())]
              : static_cast<PlaceId>(
                    rng.NextBounded(static_cast<uint64_t>(places)));
      const std::string from =
          var(static_cast<int>(rng.NextBounded(spec.inputs.size())));
      const double offset = value();
      net.AddOutputArc(id, target, [from, offset](const Binding& bd) {
        return bd.Get(from) + offset;
      });
    }
    random.specs.push_back(std::move(spec));
  }
  for (int p = 0; p < places; ++p) {
    const int tokens = static_cast<int>(rng.NextBounded(4));
    for (int i = 0; i < tokens; ++i) net.AddToken(p, value());
  }
  return random;
}

bool HasInputTokens(const Net& net, const TransitionSpec& spec) {
  for (const PlaceId p : spec.inputs) {
    if (net.Marking(p).empty()) return false;
  }
  return true;
}

/// Whether a transition is enabled, read off the marking directly rather
/// than through the net's bindings.
bool EnabledBySpec(const Net& net, const TransitionSpec& spec) {
  if (!HasInputTokens(net, spec)) return false;
  const auto front = [&](int arc) {
    return net.Marking(spec.inputs[static_cast<size_t>(arc)]).front();
  };
  switch (spec.guard) {
    case TransitionSpec::Guard::kNone: return true;
    case TransitionSpec::Guard::kLess: return front(spec.a) < spec.bound;
    case TransitionSpec::Guard::kSumAtLeast:
      return front(spec.a) + front(spec.b) >= spec.bound;
  }
  return false;
}

class StepOnceProperty : public ::testing::TestWithParam<int> {};

TEST_P(StepOnceProperty, FiresFirstEnabledAndMatchesFire) {
  simcore::Rng rng(static_cast<uint64_t>(GetParam()) * 0x9E3779B9ULL);
  int fired_steps = 0;
  int guard_blocked = 0;
  for (int trial = 0; trial < 20; ++trial) {
    RandomNet random = MakeRandomNet(rng);
    Net& net = random.net;
    for (int step = 0; step < 30; ++step) {
      TransitionId first = -1;
      for (TransitionId t = 0; t < net.num_transitions(); ++t) {
        const TransitionSpec& spec = random.specs[static_cast<size_t>(t)];
        const bool enabled = net.IsEnabled(t);
        ASSERT_EQ(enabled, EnabledBySpec(net, spec)) << "t" << t;
        if (first < 0 && enabled) first = t;
        if (!enabled && HasInputTokens(net, spec)) guard_blocked++;
      }
      Net fired = net;
      if (first >= 0) {
        ASSERT_TRUE(fired.Fire(first));
      }
      const std::optional<TransitionId> stepped = net.StepOnce();
      if (first < 0) {
        ASSERT_FALSE(stepped.has_value());
        break;
      }
      ASSERT_TRUE(stepped.has_value());
      ASSERT_EQ(*stepped, first);
      fired_steps++;
      for (PlaceId p = 0; p < net.num_places(); ++p) {
        ASSERT_EQ(net.Marking(p), fired.Marking(p)) << "place " << p;
      }
    }
  }
  EXPECT_GT(fired_steps, 50);
  EXPECT_GT(guard_blocked, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StepOnceProperty, ::testing::Range(1, 13));

}  // namespace
}  // namespace elastic::petri
