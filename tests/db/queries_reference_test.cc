// Functional validation of the 22 TPC-H implementations against independent
// row-at-a-time reference computations over the same generated data.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <utility>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "db/date.h"
#include "db/like.h"
#include "db/queries.h"
#include "tests/db/test_db.h"

namespace elastic::db {
namespace {

const Database& Db() { return testutil::TestDb(); }

/// Runs a query once per binary (results are cached by query number).
const QueryResult& Result(int q) {
  static std::map<int, QueryOutput>* cache = new std::map<int, QueryOutput>();
  auto it = cache->find(q);
  if (it == cache->end()) {
    it = cache->emplace(q, RunTpchQuery(Db(), q)).first;
  }
  return it->second.result;
}

TEST(QueriesReference, Q1MatchesRowLoop) {
  const Database& db = Db();
  const Date cutoff = AddDays(MakeDate(1998, 12, 1), -90);
  struct Agg {
    double qty = 0, base = 0, disc_price = 0, charge = 0, disc = 0;
    int64_t count = 0;
  };
  std::map<std::pair<std::string, std::string>, Agg> expected;
  const auto& L = db.lineitem;
  for (int64_t i = 0; i < L.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    if (L.i64("l_shipdate")[k] > cutoff) continue;
    Agg& a = expected[{L.coded("l_returnflag").at(k),
                       L.coded("l_linestatus").at(k)}];
    const double ep = L.f64("l_extendedprice")[k];
    const double d = L.f64("l_discount")[k];
    const double t = L.f64("l_tax")[k];
    a.qty += L.f64("l_quantity")[k];
    a.base += ep;
    a.disc_price += ep * (1 - d);
    a.charge += ep * (1 - d) * (1 + t);
    a.disc += d;
    a.count++;
  }
  const QueryResult& r = Result(1);
  ASSERT_EQ(r.num_rows(), static_cast<int64_t>(expected.size()));
  for (int64_t row = 0; row < r.num_rows(); ++row) {
    const auto key = std::make_pair(r.at(row, 0).str(), r.at(row, 1).str());
    ASSERT_TRUE(expected.count(key));
    const Agg& a = expected.at(key);
    EXPECT_NEAR(r.at(row, 2).f64(), a.qty, 1e-4);
    EXPECT_NEAR(r.at(row, 3).f64(), a.base, 1e-2);
    EXPECT_NEAR(r.at(row, 4).f64(), a.disc_price, 1e-2);
    EXPECT_NEAR(r.at(row, 5).f64(), a.charge, 1e-2);
    EXPECT_NEAR(r.at(row, 6).f64(), a.qty / a.count, 1e-6);
    EXPECT_NEAR(r.at(row, 8).f64(), a.disc / a.count, 1e-9);
    EXPECT_EQ(r.at(row, 9).i64(), a.count);
  }
  // Rows come out in (returnflag, linestatus) order.
  for (int64_t row = 1; row < r.num_rows(); ++row) {
    EXPECT_LE(r.at(row - 1, 0).str() + r.at(row - 1, 1).str(),
              r.at(row, 0).str() + r.at(row, 1).str());
  }
}

TEST(QueriesReference, Q2RowsSatisfyAllPredicates) {
  const Database& db = Db();
  const QueryResult& r = Result(2);
  // Every output part must be size 15, %BRASS, and supplied from EUROPE at
  // the minimum European cost for that part.
  std::set<int64_t> euro_nations;
  for (int64_t i = 0; i < db.nation.num_rows(); ++i) {
    const int64_t region = db.nation.i64("n_regionkey")[static_cast<size_t>(i)];
    if (db.region.str("r_name")[static_cast<size_t>(region)] == "EUROPE") {
      euro_nations.insert(i);
    }
  }
  for (int64_t row = 0; row < r.num_rows(); ++row) {
    const int64_t partkey = r.at(row, 3).i64();
    const size_t prow = static_cast<size_t>(partkey - 1);
    EXPECT_EQ(db.part.i64("p_size")[prow], 15);
    EXPECT_TRUE(LikeEndsWith(db.part.coded("p_type").at(prow), "BRASS"));
    // Recompute the min European supply cost for the part.
    double min_cost = 1e18;
    for (int64_t i = 0; i < db.partsupp.num_rows(); ++i) {
      const size_t k = static_cast<size_t>(i);
      if (db.partsupp.i64("ps_partkey")[k] != partkey) continue;
      const int64_t supp = db.partsupp.i64("ps_suppkey")[k];
      const int64_t nation =
          db.supplier.i64("s_nationkey")[static_cast<size_t>(supp - 1)];
      if (!euro_nations.count(nation)) continue;
      min_cost = std::min(min_cost, db.partsupp.f64("ps_supplycost")[k]);
    }
    // The row's supplier must offer exactly min_cost.
    const std::string& s_name = r.at(row, 1).str();
    bool found = false;
    for (int64_t i = 0; i < db.partsupp.num_rows(); ++i) {
      const size_t k = static_cast<size_t>(i);
      if (db.partsupp.i64("ps_partkey")[k] != partkey) continue;
      const int64_t supp = db.partsupp.i64("ps_suppkey")[k];
      if (db.supplier.str("s_name")[static_cast<size_t>(supp - 1)] != s_name)
        continue;
      EXPECT_NEAR(db.partsupp.f64("ps_supplycost")[k], min_cost, 1e-9);
      found = true;
    }
    EXPECT_TRUE(found);
  }
  // Sorted by acctbal descending.
  for (int64_t row = 1; row < r.num_rows(); ++row) {
    EXPECT_GE(r.at(row - 1, 0).f64(), r.at(row, 0).f64());
  }
  EXPECT_LE(r.num_rows(), 100);
}

TEST(QueriesReference, Q3MatchesRowLoop) {
  const Database& db = Db();
  const Date pivot = MakeDate(1995, 3, 15);
  std::map<int64_t, double> expected;  // orderkey -> revenue
  const auto& L = db.lineitem;
  const auto& O = db.orders;
  const auto& C = db.customer;
  for (int64_t i = 0; i < L.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    if (L.i64("l_shipdate")[k] <= pivot) continue;
    const int64_t okey = L.i64("l_orderkey")[k];
    const size_t orow = static_cast<size_t>(okey - 1);
    if (O.i64("o_orderdate")[orow] >= pivot) continue;
    const int64_t ckey = O.i64("o_custkey")[orow];
    if (C.coded("c_mktsegment").at(static_cast<size_t>(ckey - 1)) != "BUILDING")
      continue;
    expected[okey] += L.f64("l_extendedprice")[k] *
                      (1.0 - L.f64("l_discount")[k]);
  }
  const QueryResult& r = Result(3);
  EXPECT_LE(r.num_rows(), 10);
  double prev = 1e18;
  for (int64_t row = 0; row < r.num_rows(); ++row) {
    const int64_t okey = r.at(row, 0).i64();
    ASSERT_TRUE(expected.count(okey));
    EXPECT_NEAR(r.at(row, 1).f64(), expected.at(okey), 1e-4);
    EXPECT_LE(r.at(row, 1).f64(), prev + 1e-9);
    prev = r.at(row, 1).f64();
  }
  // Top-10 correctness: the smallest reported revenue must be >= any
  // unreported order's revenue.
  if (r.num_rows() == 10) {
    std::set<int64_t> reported;
    for (int64_t row = 0; row < r.num_rows(); ++row)
      reported.insert(r.at(row, 0).i64());
    for (const auto& [okey, rev] : expected) {
      if (!reported.count(okey)) EXPECT_LE(rev, prev + 1e-6);
    }
  }
}

TEST(QueriesReference, Q4MatchesRowLoop) {
  const Database& db = Db();
  const Date from = MakeDate(1993, 7, 1);
  const Date to = AddMonths(from, 3);
  std::unordered_set<int64_t> late_orders;
  const auto& L = db.lineitem;
  for (int64_t i = 0; i < L.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    if (L.i64("l_commitdate")[k] < L.i64("l_receiptdate")[k]) {
      late_orders.insert(L.i64("l_orderkey")[k]);
    }
  }
  std::map<std::string, int64_t> expected;
  const auto& O = db.orders;
  for (int64_t i = 0; i < O.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    const Date d = O.i64("o_orderdate")[k];
    if (d < from || d >= to) continue;
    if (!late_orders.count(O.i64("o_orderkey")[k])) continue;
    expected[O.coded("o_orderpriority").at(k)]++;
  }
  const QueryResult& r = Result(4);
  ASSERT_EQ(r.num_rows(), static_cast<int64_t>(expected.size()));
  for (int64_t row = 0; row < r.num_rows(); ++row) {
    EXPECT_EQ(r.at(row, 1).i64(), expected.at(r.at(row, 0).str()));
  }
}

TEST(QueriesReference, Q5MatchesRowLoop) {
  const Database& db = Db();
  const Date from = MakeDate(1994, 1, 1);
  const Date to = AddYears(from, 1);
  std::map<std::string, double> expected;
  const auto& L = db.lineitem;
  const auto& O = db.orders;
  const auto& C = db.customer;
  const auto& S = db.supplier;
  const auto& N = db.nation;
  std::set<int64_t> asia;
  for (int64_t i = 0; i < N.num_rows(); ++i) {
    const int64_t region = N.i64("n_regionkey")[static_cast<size_t>(i)];
    if (db.region.str("r_name")[static_cast<size_t>(region)] == "ASIA")
      asia.insert(i);
  }
  for (int64_t i = 0; i < L.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    const size_t orow = static_cast<size_t>(L.i64("l_orderkey")[k] - 1);
    const Date d = O.i64("o_orderdate")[orow];
    if (d < from || d >= to) continue;
    const int64_t cn = C.i64(
        "c_nationkey")[static_cast<size_t>(O.i64("o_custkey")[orow] - 1)];
    const int64_t sn = S.i64(
        "s_nationkey")[static_cast<size_t>(L.i64("l_suppkey")[k] - 1)];
    if (cn != sn || !asia.count(cn)) continue;
    expected[std::string(N.str("n_name")[static_cast<size_t>(cn)])] +=
        L.f64("l_extendedprice")[k] * (1.0 - L.f64("l_discount")[k]);
  }
  const QueryResult& r = Result(5);
  ASSERT_EQ(r.num_rows(), static_cast<int64_t>(expected.size()));
  for (int64_t row = 0; row < r.num_rows(); ++row) {
    EXPECT_NEAR(r.at(row, 1).f64(), expected.at(r.at(row, 0).str()), 1e-4);
  }
  for (int64_t row = 1; row < r.num_rows(); ++row) {
    EXPECT_GE(r.at(row - 1, 1).f64(), r.at(row, 1).f64());
  }
}

TEST(QueriesReference, Q6MatchesRowLoop) {
  const Database& db = Db();
  const Date from = MakeDate(1994, 1, 1);
  const Date to = AddYears(from, 1);
  double expected = 0.0;
  const auto& L = db.lineitem;
  for (int64_t i = 0; i < L.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    const Date d = L.i64("l_shipdate")[k];
    const double disc = L.f64("l_discount")[k];
    if (d >= from && d < to && disc >= 0.05 - 1e-9 && disc <= 0.07 + 1e-9 &&
        L.f64("l_quantity")[k] < 24.0) {
      expected += L.f64("l_extendedprice")[k] * disc;
    }
  }
  EXPECT_NEAR(Result(6).at(0, 0).f64(), expected, 1e-4);
  EXPECT_GT(expected, 0.0);
}

TEST(QueriesReference, Q6PaperVariantMatchesFigure3Predicates) {
  const Database& db = Db();
  const QueryOutput out = RunQ6Paper(db);
  double expected = 0.0;
  const Date from = MakeDate(1997, 1, 1);
  const Date to = MakeDate(1998, 1, 1);
  const auto& L = db.lineitem;
  for (int64_t i = 0; i < L.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    const Date d = L.i64("l_shipdate")[k];
    const double disc = L.f64("l_discount")[k];
    if (d >= from && d < to && disc >= 0.06 - 1e-9 && disc <= 0.08 + 1e-9 &&
        L.f64("l_quantity")[k] < 24.0) {
      expected += L.f64("l_extendedprice")[k] * disc;
    }
  }
  EXPECT_NEAR(out.result.at(0, 0).f64(), expected, 1e-4);
  // The MAL pipeline of Figure 3: 6 stages.
  EXPECT_EQ(out.trace.stages.size(), 6u);
}

TEST(QueriesReference, Q7MatchesRowLoop) {
  const Database& db = Db();
  std::map<std::tuple<std::string, std::string, int64_t>, double> expected;
  const auto& L = db.lineitem;
  const auto& O = db.orders;
  const Date from = MakeDate(1995, 1, 1);
  const Date to = MakeDate(1996, 12, 31);
  for (int64_t i = 0; i < L.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    const Date d = L.i64("l_shipdate")[k];
    if (d < from || d > to) continue;
    const int64_t sn = db.supplier.i64(
        "s_nationkey")[static_cast<size_t>(L.i64("l_suppkey")[k] - 1)];
    const size_t orow = static_cast<size_t>(L.i64("l_orderkey")[k] - 1);
    const int64_t cn = db.customer.i64(
        "c_nationkey")[static_cast<size_t>(O.i64("o_custkey")[orow] - 1)];
    const std::string sname(db.nation.str("n_name")[static_cast<size_t>(sn)]);
    const std::string cname(db.nation.str("n_name")[static_cast<size_t>(cn)]);
    const bool ok = (sname == "FRANCE" && cname == "GERMANY") ||
                    (sname == "GERMANY" && cname == "FRANCE");
    if (!ok) continue;
    expected[{sname, cname, YearOf(d)}] +=
        L.f64("l_extendedprice")[k] * (1.0 - L.f64("l_discount")[k]);
  }
  const QueryResult& r = Result(7);
  ASSERT_EQ(r.num_rows(), static_cast<int64_t>(expected.size()));
  for (int64_t row = 0; row < r.num_rows(); ++row) {
    const auto key = std::make_tuple(r.at(row, 0).str(), r.at(row, 1).str(),
                                     r.at(row, 2).i64());
    ASSERT_TRUE(expected.count(key));
    EXPECT_NEAR(r.at(row, 3).f64(), expected.at(key), 1e-4);
  }
}

TEST(QueriesReference, Q10MatchesRowLoop) {
  const Database& db = Db();
  const Date from = MakeDate(1993, 10, 1);
  const Date to = AddMonths(from, 3);
  std::map<int64_t, double> expected;
  const auto& L = db.lineitem;
  const auto& O = db.orders;
  for (int64_t i = 0; i < L.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    if (L.coded("l_returnflag").at(k) != "R") continue;
    const size_t orow = static_cast<size_t>(L.i64("l_orderkey")[k] - 1);
    const Date d = O.i64("o_orderdate")[orow];
    if (d < from || d >= to) continue;
    expected[O.i64("o_custkey")[orow]] +=
        L.f64("l_extendedprice")[k] * (1.0 - L.f64("l_discount")[k]);
  }
  const QueryResult& r = Result(10);
  EXPECT_LE(r.num_rows(), 20);
  for (int64_t row = 0; row < r.num_rows(); ++row) {
    const int64_t ck = r.at(row, 0).i64();
    ASSERT_TRUE(expected.count(ck));
    EXPECT_NEAR(r.at(row, 2).f64(), expected.at(ck), 1e-4);
  }
}

TEST(QueriesReference, Q12MatchesRowLoop) {
  const Database& db = Db();
  const Date from = MakeDate(1994, 1, 1);
  const Date to = AddYears(from, 1);
  std::map<std::string, std::pair<int64_t, int64_t>> expected;
  const auto& L = db.lineitem;
  const auto& O = db.orders;
  for (int64_t i = 0; i < L.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    const std::string& mode = L.coded("l_shipmode").at(k);
    if (mode != "MAIL" && mode != "SHIP") continue;
    const Date receipt = L.i64("l_receiptdate")[k];
    if (receipt < from || receipt >= to) continue;
    if (L.i64("l_commitdate")[k] >= receipt) continue;
    if (L.i64("l_shipdate")[k] >= L.i64("l_commitdate")[k]) continue;
    const std::string& prio =
        O.coded("o_orderpriority").at(static_cast<size_t>(L.i64("l_orderkey")[k] - 1));
    if (prio == "1-URGENT" || prio == "2-HIGH") expected[mode].first++;
    else expected[mode].second++;
  }
  const QueryResult& r = Result(12);
  ASSERT_EQ(r.num_rows(), static_cast<int64_t>(expected.size()));
  for (int64_t row = 0; row < r.num_rows(); ++row) {
    const auto& e = expected.at(r.at(row, 0).str());
    EXPECT_EQ(r.at(row, 1).i64(), e.first);
    EXPECT_EQ(r.at(row, 2).i64(), e.second);
  }
}

TEST(QueriesReference, Q13MatchesRowLoop) {
  const Database& db = Db();
  std::vector<int64_t> per_customer(static_cast<size_t>(db.customer.num_rows()), 0);
  const auto& O = db.orders;
  for (int64_t i = 0; i < O.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    if (LikeContainsSeq(O.str("o_comment")[k], {"special", "requests"})) continue;
    per_customer[static_cast<size_t>(O.i64("o_custkey")[k] - 1)]++;
  }
  std::map<int64_t, int64_t> expected;
  for (int64_t c : per_customer) expected[c]++;
  const QueryResult& r = Result(13);
  ASSERT_EQ(r.num_rows(), static_cast<int64_t>(expected.size()));
  int64_t total_customers = 0;
  for (int64_t row = 0; row < r.num_rows(); ++row) {
    EXPECT_EQ(r.at(row, 1).i64(), expected.at(r.at(row, 0).i64()));
    total_customers += r.at(row, 1).i64();
  }
  EXPECT_EQ(total_customers, db.customer.num_rows());
}

TEST(QueriesReference, Q14MatchesRowLoop) {
  const Database& db = Db();
  const Date from = MakeDate(1995, 9, 1);
  const Date to = AddMonths(from, 1);
  double promo = 0, total = 0;
  const auto& L = db.lineitem;
  for (int64_t i = 0; i < L.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    const Date d = L.i64("l_shipdate")[k];
    if (d < from || d >= to) continue;
    const double v =
        L.f64("l_extendedprice")[k] * (1.0 - L.f64("l_discount")[k]);
    total += v;
    const std::string& type = db.part.coded("p_type").at(
        static_cast<size_t>(L.i64("l_partkey")[k] - 1));
    if (LikeStartsWith(type, "PROMO")) promo += v;
  }
  EXPECT_NEAR(Result(14).at(0, 0).f64(), 100.0 * promo / total, 1e-6);
}

TEST(QueriesReference, Q15MatchesRowLoop) {
  const Database& db = Db();
  const Date from = MakeDate(1996, 1, 1);
  const Date to = AddMonths(from, 3);
  std::map<int64_t, double> revenue;
  const auto& L = db.lineitem;
  for (int64_t i = 0; i < L.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    const Date d = L.i64("l_shipdate")[k];
    if (d < from || d >= to) continue;
    revenue[L.i64("l_suppkey")[k]] +=
        L.f64("l_extendedprice")[k] * (1.0 - L.f64("l_discount")[k]);
  }
  double max_rev = 0;
  for (const auto& [s, v] : revenue) max_rev = std::max(max_rev, v);
  const QueryResult& r = Result(15);
  ASSERT_GE(r.num_rows(), 1);
  for (int64_t row = 0; row < r.num_rows(); ++row) {
    EXPECT_NEAR(r.at(row, 4).f64(), max_rev, 1e-4);
    EXPECT_NEAR(revenue.at(r.at(row, 0).i64()), max_rev, 1e-4);
  }
}

TEST(QueriesReference, Q17MatchesRowLoop) {
  const Database& db = Db();
  // avg quantity per Brand#23/MED BOX part, then sum prices of small orders.
  std::map<int64_t, std::pair<double, int64_t>> stats;
  const auto& L = db.lineitem;
  const auto& P = db.part;
  auto part_matches = [&P](int64_t partkey) {
    const size_t prow = static_cast<size_t>(partkey - 1);
    return P.coded("p_brand").at(prow) == "Brand#23" &&
           P.coded("p_container").at(prow) == "MED BOX";
  };
  for (int64_t i = 0; i < L.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    if (!part_matches(L.i64("l_partkey")[k])) continue;
    auto& s = stats[L.i64("l_partkey")[k]];
    s.first += L.f64("l_quantity")[k];
    s.second++;
  }
  double expected = 0;
  for (int64_t i = 0; i < L.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    const int64_t pk = L.i64("l_partkey")[k];
    if (!part_matches(pk)) continue;
    const auto& s = stats.at(pk);
    if (L.f64("l_quantity")[k] < 0.2 * s.first / s.second) {
      expected += L.f64("l_extendedprice")[k];
    }
  }
  EXPECT_NEAR(Result(17).at(0, 0).f64(), expected / 7.0, 1e-6);
}

TEST(QueriesReference, Q18MatchesRowLoop) {
  const Database& db = Db();
  std::map<int64_t, double> qty_per_order;
  const auto& L = db.lineitem;
  for (int64_t i = 0; i < L.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    qty_per_order[L.i64("l_orderkey")[k]] += L.f64("l_quantity")[k];
  }
  int64_t expected_rows = 0;
  for (const auto& [o, q] : qty_per_order) {
    if (q > 300.0) expected_rows++;
  }
  const QueryResult& r = Result(18);
  EXPECT_EQ(r.num_rows(), std::min<int64_t>(expected_rows, 100));
  for (int64_t row = 0; row < r.num_rows(); ++row) {
    const int64_t okey = r.at(row, 2).i64();
    EXPECT_NEAR(r.at(row, 5).f64(), qty_per_order.at(okey), 1e-9);
    EXPECT_GT(r.at(row, 5).f64(), 300.0);
  }
}

TEST(QueriesReference, Q19MatchesRowLoop) {
  const Database& db = Db();
  const auto& L = db.lineitem;
  const auto& P = db.part;
  double expected = 0;
  for (int64_t i = 0; i < L.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    if (L.coded("l_shipinstruct").at(k) != "DELIVER IN PERSON") continue;
    const std::string& mode = L.coded("l_shipmode").at(k);
    if (mode != "AIR" && mode != "REG AIR") continue;
    const size_t prow = static_cast<size_t>(L.i64("l_partkey")[k] - 1);
    const std::string& brand = P.coded("p_brand").at(prow);
    const std::string& cont = P.coded("p_container").at(prow);
    const int64_t size = P.i64("p_size")[prow];
    const double q = L.f64("l_quantity")[k];
    auto in = [&cont](std::initializer_list<const char*> set) {
      for (const char* s : set) {
        if (cont == s) return true;
      }
      return false;
    };
    const bool b1 = brand == "Brand#12" &&
                    in({"SM CASE", "SM BOX", "SM PACK", "SM PKG"}) && q >= 1 &&
                    q <= 11 && size >= 1 && size <= 5;
    const bool b2 = brand == "Brand#23" &&
                    in({"MED BAG", "MED BOX", "MED PKG", "MED PACK"}) &&
                    q >= 10 && q <= 20 && size >= 1 && size <= 10;
    const bool b3 = brand == "Brand#34" &&
                    in({"LG CASE", "LG BOX", "LG PACK", "LG PKG"}) && q >= 20 &&
                    q <= 30 && size >= 1 && size <= 15;
    if (b1 || b2 || b3) {
      expected += L.f64("l_extendedprice")[k] * (1.0 - L.f64("l_discount")[k]);
    }
  }
  EXPECT_NEAR(Result(19).at(0, 0).f64(), expected, 1e-6);
}

TEST(QueriesReference, Q22MatchesRowLoop) {
  const Database& db = Db();
  static const std::set<std::string> kCodes = {"13", "31", "23", "29",
                                               "30", "18", "17"};
  const auto& C = db.customer;
  double sum = 0;
  int64_t count = 0;
  for (int64_t i = 0; i < C.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    if (C.f64("c_acctbal")[k] <= 0) continue;
    if (!kCodes.count(std::string(C.str("c_phone")[k].substr(0, 2)))) continue;
    sum += C.f64("c_acctbal")[k];
    count++;
  }
  const double avg = sum / count;
  std::set<int64_t> with_orders;
  for (int64_t ck : db.orders.i64("o_custkey")) with_orders.insert(ck);
  std::map<std::string, std::pair<int64_t, double>> expected;
  for (int64_t i = 0; i < C.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    const std::string code(C.str("c_phone")[k].substr(0, 2));
    if (!kCodes.count(code)) continue;
    if (C.f64("c_acctbal")[k] <= avg) continue;
    if (with_orders.count(C.i64("c_custkey")[k])) continue;
    expected[code].first++;
    expected[code].second += C.f64("c_acctbal")[k];
  }
  const QueryResult& r = Result(22);
  ASSERT_EQ(r.num_rows(), static_cast<int64_t>(expected.size()));
  for (int64_t row = 0; row < r.num_rows(); ++row) {
    const auto& e = expected.at(r.at(row, 0).str());
    EXPECT_EQ(r.at(row, 1).i64(), e.first);
    EXPECT_NEAR(r.at(row, 2).f64(), e.second, 1e-6);
  }
}

// ---- Structural checks for the remaining join-heavy queries. ----

TEST(QueriesReference, Q8SharesAreValidFractions) {
  const QueryResult& r = Result(8);
  ASSERT_GE(r.num_rows(), 1);
  for (int64_t row = 0; row < r.num_rows(); ++row) {
    EXPECT_GE(r.at(row, 1).f64(), 0.0);
    EXPECT_LE(r.at(row, 1).f64(), 1.0);
    const int64_t year = r.at(row, 0).i64();
    EXPECT_TRUE(year == 1995 || year == 1996);
  }
}

TEST(QueriesReference, Q9CoversOnlyGreenPartsNations) {
  const Database& db = Db();
  const QueryResult& r = Result(9);
  ASSERT_GE(r.num_rows(), 1);
  std::set<std::string> nations;
  for (int64_t i = 0; i < db.nation.num_rows(); ++i) {
    nations.emplace(db.nation.str("n_name")[static_cast<size_t>(i)]);
  }
  for (int64_t row = 0; row < r.num_rows(); ++row) {
    EXPECT_TRUE(nations.count(r.at(row, 0).str()));
    const int64_t year = r.at(row, 1).i64();
    EXPECT_GE(year, 1992);
    EXPECT_LE(year, 1998);
  }
}

TEST(QueriesReference, Q11ValuesExceedCutoffAndDescend) {
  const QueryResult& r = Result(11);
  ASSERT_GE(r.num_rows(), 1);
  for (int64_t row = 1; row < r.num_rows(); ++row) {
    EXPECT_GE(r.at(row - 1, 1).f64(), r.at(row, 1).f64());
  }
}

TEST(QueriesReference, Q16CountsAreBounded) {
  const QueryResult& r = Result(16);
  ASSERT_GE(r.num_rows(), 1);
  for (int64_t row = 0; row < r.num_rows(); ++row) {
    EXPECT_GE(r.at(row, 3).i64(), 1);
    EXPECT_NE(r.at(row, 0).str(), "Brand#45");
    EXPECT_FALSE(LikeStartsWith(r.at(row, 1).str(), "MEDIUM POLISHED"));
  }
  for (int64_t row = 1; row < r.num_rows(); ++row) {
    EXPECT_GE(r.at(row - 1, 3).i64(), r.at(row, 3).i64());
  }
}

TEST(QueriesReference, Q20SuppliersAreCanadian) {
  const Database& db = Db();
  const QueryResult& r = Result(20);
  int64_t canada = -1;
  for (int64_t i = 0; i < db.nation.num_rows(); ++i) {
    if (db.nation.str("n_name")[static_cast<size_t>(i)] == "CANADA") canada = i;
  }
  for (int64_t row = 0; row < r.num_rows(); ++row) {
    bool found = false;
    for (int64_t i = 0; i < db.supplier.num_rows(); ++i) {
      const size_t k = static_cast<size_t>(i);
      if (db.supplier.str("s_name")[k] == r.at(row, 0).str()) {
        EXPECT_EQ(db.supplier.i64("s_nationkey")[k], canada);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(QueriesReference, Q21MatchesRowLoop) {
  const Database& db = Db();
  const auto& L = db.lineitem;
  int64_t saudi = -1;
  for (int64_t i = 0; i < db.nation.num_rows(); ++i) {
    if (db.nation.str("n_name")[static_cast<size_t>(i)] == "SAUDI ARABIA") {
      saudi = i;
    }
  }
  // Per order: the set of distinct suppliers, and the set of suppliers that
  // delivered late (receiptdate > commitdate).
  struct OrderInfo {
    std::unordered_set<int64_t> suppliers;
    std::unordered_set<int64_t> late_suppliers;
  };
  std::unordered_map<int64_t, OrderInfo> orders_info;
  for (int64_t i = 0; i < L.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    OrderInfo& info = orders_info[L.i64("l_orderkey")[k]];
    info.suppliers.insert(L.i64("l_suppkey")[k]);
    if (L.i64("l_receiptdate")[k] > L.i64("l_commitdate")[k]) {
      info.late_suppliers.insert(L.i64("l_suppkey")[k]);
    }
  }
  std::map<std::string, int64_t> waiting;  // s_name -> numwait
  for (const auto& [orderkey, info] : orders_info) {
    const size_t orow = static_cast<size_t>(orderkey - 1);
    if (db.orders.coded("o_orderstatus").at(orow) != "F") continue;
    if (info.suppliers.size() < 2) continue;
    if (info.late_suppliers.size() != 1) continue;
    const size_t srow = static_cast<size_t>(*info.late_suppliers.begin() - 1);
    if (db.supplier.i64("s_nationkey")[srow] != saudi) continue;
    waiting[std::string(db.supplier.str("s_name")[srow])]++;
  }
  // numwait descending, s_name ascending, first 100.
  std::vector<std::pair<std::string, int64_t>> expected(waiting.begin(),
                                                        waiting.end());
  std::stable_sort(
      expected.begin(), expected.end(),
      [](const auto& a, const auto& b) { return a.second > b.second; });
  if (expected.size() > 100) expected.resize(100);

  const QueryResult& r = Result(21);
  ASSERT_GT(expected.size(), 0u);
  ASSERT_EQ(r.num_rows(), static_cast<int64_t>(expected.size()));
  for (int64_t row = 0; row < r.num_rows(); ++row) {
    const auto& [name, count] = expected[static_cast<size_t>(row)];
    EXPECT_EQ(r.at(row, 0).str(), name) << "row " << row;
    EXPECT_EQ(r.at(row, 1).i64(), count) << "row " << row;
  }
}

TEST(QueriesReference, Q21WaitCountsPositive) {
  const QueryResult& r = Result(21);
  for (int64_t row = 0; row < r.num_rows(); ++row) {
    EXPECT_GE(r.at(row, 1).i64(), 1);
  }
  for (int64_t row = 1; row < r.num_rows(); ++row) {
    EXPECT_GE(r.at(row - 1, 1).i64(), r.at(row, 1).i64());
  }
}

// Deterministic serialization of a result: kind-tagged cells with exact
// f64 bit patterns, so the checksum moves iff any output byte moves.
std::string SerializeResult(const QueryResult& result) {
  std::string blob = result.query + "\n";
  char buf[64];
  for (const auto& row : result.rows) {
    for (const auto& v : row) {
      switch (v.kind()) {
        case Value::Kind::kI64:
          snprintf(buf, sizeof buf, "i%lld", static_cast<long long>(v.i64()));
          blob += buf;
          break;
        case Value::Kind::kF64: {
          const double d = v.f64();
          uint64_t bits;
          memcpy(&bits, &d, sizeof bits);
          snprintf(buf, sizeof buf, "f%016llx",
                   static_cast<unsigned long long>(bits));
          blob += buf;
          break;
        }
        case Value::Kind::kStr:
          blob += "s" + v.str();
          break;
      }
      blob += '|';
    }
    blob += '\n';
  }
  return blob;
}

// Golden checksums captured from the pre-kernel scalar executor (SF 0.01,
// seed 19920101). The batch-kernel rewrite must keep every query output
// byte-identical; any intentional result change must re-capture these.
TEST(QueriesReference, AllQueriesMatchScalarExecutorGoldens) {
  static const std::pair<int, uint64_t> kGoldens[] = {
      {1, 0x14606f409de304f4ULL},  {2, 0x02e875de3078642cULL},
      {3, 0x4fa972a7e17d82aaULL},  {4, 0xb14fb0df1744b9eeULL},
      {5, 0xd6bad86028f27bc8ULL},  {6, 0x291ef72043827059ULL},
      {7, 0xc8e416197a8f9b2bULL},  {8, 0x0943ecf271e7a389ULL},
      {9, 0x84a20bb13a7de580ULL},  {10, 0xd05888c14d6f3f3dULL},
      {11, 0x2add62257c9db194ULL}, {12, 0xfd096f5e09fe1767ULL},
      {13, 0x1d52edba794d1783ULL}, {14, 0x1802a8442a4bf0f1ULL},
      {15, 0x2959966b488175c7ULL}, {16, 0x8463106f246a144bULL},
      {17, 0xcd0c6b1dfb28c775ULL}, {18, 0xfff775e518c2c2d0ULL},
      {19, 0x0edb2fa2a7033a3fULL}, {20, 0xc7bd14e82201cdcfULL},
      {21, 0x1d4607305629b1fdULL}, {22, 0x714aea0099cc2972ULL},
  };
  for (const auto& [q, golden] : kGoldens) {
    EXPECT_EQ(testutil::Fnv1a(SerializeResult(Result(q))), golden) << "Q" << q;
  }
}

TEST(QueriesReference, AllQueriesProduceTraces) {
  const Database& db = Db();
  for (int q = 1; q <= 22; ++q) {
    const QueryOutput out = RunTpchQuery(db, q);
    EXPECT_FALSE(out.trace.stages.empty()) << "Q" << q;
    EXPECT_GT(out.trace.TotalBytesRead(), 0) << "Q" << q;
    EXPECT_EQ(out.trace.stream, q - 1) << "Q" << q;
  }
}

}  // namespace
}  // namespace elastic::db
