#include "tpch/dbgen.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "db/date.h"
#include "db/like.h"
#include "tests/db/test_db.h"

namespace elastic::tpch {
namespace {

using db::Database;
const Database& Db() { return testutil::TestDb(); }

TEST(DbgenTest, RowCountsMatchScaleFactor) {
  const RowCounts counts = CountsFor(0.01);
  const Database& db = Db();
  EXPECT_EQ(db.region.num_rows(), 5);
  EXPECT_EQ(db.nation.num_rows(), 25);
  EXPECT_EQ(db.supplier.num_rows(), counts.supplier);
  EXPECT_EQ(db.customer.num_rows(), counts.customer);
  EXPECT_EQ(db.part.num_rows(), counts.part);
  EXPECT_EQ(db.orders.num_rows(), counts.orders);
  EXPECT_EQ(db.partsupp.num_rows(), counts.part * 4);
  // 1..7 lineitems per order.
  EXPECT_GE(db.lineitem.num_rows(), db.orders.num_rows());
  EXPECT_LE(db.lineitem.num_rows(), db.orders.num_rows() * 7);
}

TEST(DbgenTest, DeterministicForSameSeed) {
  DbgenOptions options;
  options.scale_factor = 0.002;
  const Database a = Generate(options);
  const Database b = Generate(options);
  EXPECT_EQ(a.lineitem.num_rows(), b.lineitem.num_rows());
  EXPECT_EQ(a.lineitem.f64("l_extendedprice"),
            b.lineitem.f64("l_extendedprice"));
  EXPECT_EQ(a.orders.str("o_comment"), b.orders.str("o_comment"));
}

TEST(DbgenTest, KeysAreDense) {
  const Database& db = Db();
  const auto& custkey = db.customer.i64("c_custkey");
  for (int64_t i = 0; i < db.customer.num_rows(); ++i) {
    ASSERT_EQ(custkey[static_cast<size_t>(i)], i + 1);
  }
  const auto& orderkey = db.orders.i64("o_orderkey");
  for (int64_t i = 0; i < db.orders.num_rows(); ++i) {
    ASSERT_EQ(orderkey[static_cast<size_t>(i)], i + 1);
  }
  // Queries index per-order and per-supplier arrays by these foreign keys
  // directly (Q5, Q7, Q8, Q12, Q18, Q21); Q21 also uses suppkey 0 as "none".
  for (int64_t key : db.lineitem.i64("l_orderkey")) {
    ASSERT_GE(key, 1);
    ASSERT_LE(key, db.orders.num_rows());
  }
  for (int64_t key : db.lineitem.i64("l_suppkey")) {
    ASSERT_GE(key, 1);
    ASSERT_LE(key, db.supplier.num_rows());
  }
}

TEST(DbgenTest, OneThirdOfCustomersHaveNoOrders) {
  const Database& db = Db();
  for (int64_t ck : db.orders.i64("o_custkey")) {
    ASSERT_NE(ck % 3, 0) << "customers divisible by 3 must have no orders";
  }
}

TEST(DbgenTest, OrderDatesInsideSpecWindow) {
  const Database& db = Db();
  const db::Date lo = db::MakeDate(1992, 1, 1);
  const db::Date hi = db::MakeDate(1998, 8, 2);
  for (db::Date d : db.orders.i64("o_orderdate")) {
    ASSERT_GE(d, lo);
    ASSERT_LE(d, hi);
  }
}

TEST(DbgenTest, LineitemDateOrderingHolds) {
  const Database& db = Db();
  const auto& ship = db.lineitem.i64("l_shipdate");
  const auto& receipt = db.lineitem.i64("l_receiptdate");
  const auto& okey = db.lineitem.i64("l_orderkey");
  const auto& odate = db.orders.i64("o_orderdate");
  for (int64_t i = 0; i < db.lineitem.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    ASSERT_GT(ship[k], odate[static_cast<size_t>(okey[k] - 1)]);
    ASSERT_GT(receipt[k], ship[k]);
  }
}

TEST(DbgenTest, DiscountAndTaxRanges) {
  const Database& db = Db();
  for (double d : db.lineitem.f64("l_discount")) {
    ASSERT_GE(d, 0.0);
    ASSERT_LE(d, 0.10 + 1e-9);
  }
  for (double t : db.lineitem.f64("l_tax")) {
    ASSERT_GE(t, 0.0);
    ASSERT_LE(t, 0.08 + 1e-9);
  }
}

TEST(DbgenTest, ExtendedPriceMatchesRetailFormula) {
  const Database& db = Db();
  const auto& qty = db.lineitem.f64("l_quantity");
  const auto& price = db.lineitem.f64("l_extendedprice");
  const auto& partkey = db.lineitem.i64("l_partkey");
  const auto& retail = db.part.f64("p_retailprice");
  for (int64_t i = 0; i < db.lineitem.num_rows(); i += 97) {
    const size_t k = static_cast<size_t>(i);
    ASSERT_NEAR(price[k], qty[k] * retail[static_cast<size_t>(partkey[k] - 1)],
                1e-6);
  }
}

TEST(DbgenTest, TotalPriceAggregatesLineitems) {
  const Database& db = Db();
  const auto& okey = db.lineitem.i64("l_orderkey");
  const auto& price = db.lineitem.f64("l_extendedprice");
  const auto& disc = db.lineitem.f64("l_discount");
  const auto& tax = db.lineitem.f64("l_tax");
  std::vector<double> totals(static_cast<size_t>(db.orders.num_rows()) + 1, 0.0);
  for (int64_t i = 0; i < db.lineitem.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    totals[static_cast<size_t>(okey[k])] +=
        price[k] * (1.0 + tax[k]) * (1.0 - disc[k]);
  }
  const auto& total = db.orders.f64("o_totalprice");
  for (int64_t o = 0; o < db.orders.num_rows(); o += 31) {
    ASSERT_NEAR(total[static_cast<size_t>(o)],
                totals[static_cast<size_t>(o + 1)], 1e-6);
  }
}

TEST(DbgenTest, PartsuppSuppliersAreDistinctPerPart) {
  const Database& db = Db();
  const auto& pk = db.partsupp.i64("ps_partkey");
  const auto& sk = db.partsupp.i64("ps_suppkey");
  for (int64_t i = 0; i < db.partsupp.num_rows(); i += 4) {
    std::set<int64_t> suppliers;
    for (int64_t j = 0; j < 4; ++j) {
      ASSERT_EQ(pk[static_cast<size_t>(i + j)], pk[static_cast<size_t>(i)]);
      suppliers.insert(sk[static_cast<size_t>(i + j)]);
    }
    ASSERT_EQ(suppliers.size(), 4u) << "part " << pk[static_cast<size_t>(i)];
  }
}

TEST(DbgenTest, LineitemSupplierComesFromPartsupp) {
  const Database& db = Db();
  std::unordered_set<int64_t> pairs;
  const auto& pk = db.partsupp.i64("ps_partkey");
  const auto& sk = db.partsupp.i64("ps_suppkey");
  for (int64_t i = 0; i < db.partsupp.num_rows(); ++i) {
    pairs.insert((pk[static_cast<size_t>(i)] << 20) | sk[static_cast<size_t>(i)]);
  }
  const auto& lpk = db.lineitem.i64("l_partkey");
  const auto& lsk = db.lineitem.i64("l_suppkey");
  for (int64_t i = 0; i < db.lineitem.num_rows(); i += 53) {
    const size_t k = static_cast<size_t>(i);
    ASSERT_TRUE(pairs.count((lpk[k] << 20) | lsk[k]))
        << "lineitem " << i << " references a non-partsupp pair";
  }
}

TEST(DbgenTest, QueryPredicatesHaveNonEmptySupport) {
  const Database& db = Db();
  // Q9 needs parts with 'green' in the name, Q20 needs 'forest%'.
  int green = 0;
  int forest = 0;
  for (const std::string& name : db.part.str("p_name")) {
    if (db::LikeContains(name, "green")) green++;
    if (db::LikeStartsWith(name, "forest")) forest++;
  }
  EXPECT_GT(green, 0);
  EXPECT_GT(forest, 0);
  // Q13 needs some orders with special requests.
  int special = 0;
  for (const std::string& c : db.orders.str("o_comment")) {
    if (db::LikeContainsSeq(c, {"special", "requests"})) special++;
  }
  EXPECT_GT(special, 0);
  EXPECT_LT(special, db.orders.num_rows() / 4);
}

TEST(DbgenTest, PhoneEncodesNation) {
  const Database& db = Db();
  const auto& phone = db.customer.str("c_phone");
  const auto& nation = db.customer.i64("c_nationkey");
  for (int64_t i = 0; i < db.customer.num_rows(); i += 17) {
    const size_t k = static_cast<size_t>(i);
    const int code = std::stoi(phone[k].substr(0, 2));
    ASSERT_EQ(code, 10 + nation[k]);
  }
}

TEST(DbgenTest, OrderStatusConsistentWithLinestatus) {
  const Database& db = Db();
  const auto& okey = db.lineitem.i64("l_orderkey");
  const auto& lstat = db.lineitem.str("l_linestatus");
  const auto& ostat = db.orders.str("o_orderstatus");
  std::vector<int> f_count(static_cast<size_t>(db.orders.num_rows()) + 1, 0);
  std::vector<int> o_count(static_cast<size_t>(db.orders.num_rows()) + 1, 0);
  for (int64_t i = 0; i < db.lineitem.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    if (lstat[k] == "F") f_count[static_cast<size_t>(okey[k])]++;
    else o_count[static_cast<size_t>(okey[k])]++;
  }
  for (int64_t o = 1; o <= db.orders.num_rows(); o += 11) {
    const std::string& status = ostat[static_cast<size_t>(o - 1)];
    if (o_count[static_cast<size_t>(o)] == 0) ASSERT_EQ(status, "F");
    else if (f_count[static_cast<size_t>(o)] == 0) ASSERT_EQ(status, "O");
    else ASSERT_EQ(status, "P");
  }
}

}  // namespace
}  // namespace elastic::tpch
