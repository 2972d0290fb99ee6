#include "simcore/trace.h"

#include <gtest/gtest.h>

namespace elastic::simcore {
namespace {

TEST(TraceTest, RecordsInOrder) {
  Trace trace;
  trace.Add(1, "run", 10, 2);
  trace.Add(2, "migrate", 10, 3, "note");
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.events()[0].tick, 1);
  EXPECT_EQ(trace.events()[0].kind, "run");
  EXPECT_EQ(trace.events()[1].text, "note");
}

TEST(TraceTest, FiltersByKind) {
  Trace trace;
  trace.Add(1, "run", 1, 1);
  trace.Add(2, "steal", 2, 2);
  trace.Add(3, "run", 3, 3);
  const auto runs = trace.EventsOfKind("run");
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].a, 1);
  EXPECT_EQ(runs[1].a, 3);
  EXPECT_TRUE(trace.EventsOfKind("missing").empty());
}

TEST(TraceTest, ClearEmpties) {
  Trace trace;
  trace.Add(1, "x", 0, 0);
  EXPECT_FALSE(trace.empty());
  trace.Clear();
  EXPECT_TRUE(trace.empty());
}

TEST(TraceTest, DropOldestKeepsTheNewest) {
  Trace trace;
  for (int64_t i = 0; i < 5; ++i) trace.Add(i, "x", i, 0);
  trace.DropOldest(3);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.events()[0].a, 3);
  EXPECT_EQ(trace.events()[1].a, 4);
  trace.DropOldest(10);  // more than recorded: empties it
  EXPECT_TRUE(trace.empty());
}

}  // namespace
}  // namespace elastic::simcore
