#include "tpch/dbgen.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "db/date.h"
#include "db/like.h"
#include "tests/db/test_db.h"

namespace elastic::tpch {
namespace {

using db::Database;
const Database& Db() { return testutil::TestDb(); }

/// 64-bit FNV-1a over whole words and strings, fed byte by byte.
class Fnv1a {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) AddByte((word >> (8 * byte)) & 0xFFu);
  }
  void Add(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  void Add(std::string_view text) {
    Add(static_cast<uint64_t>(text.size()));
    for (const char c : text) AddByte(static_cast<unsigned char>(c));
  }
  uint64_t value() const { return hash_; }

 private:
  void AddByte(uint64_t byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001B3ULL;
  }
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Digest of every table and column: the table's name, then per column its
/// name, type and the size and contents of all three value vectors (each
/// value's bits, each string's length and bytes). A coded column folds as
/// the string column it encodes (the kStr type tag and each row's decoded
/// value), and a free-text column row by row from its heap, so the digest
/// recorded when both were vectors of std::string still pins their values.
uint64_t ContentDigest(const Database& db) {
  Fnv1a digest;
  for (const db::Table* table : db.AllTables()) {
    digest.Add(table->name);
    digest.Add(static_cast<uint64_t>(table->columns.size()));
    for (const auto& [name, column] : table->columns) {
      const bool coded = column.type == db::ColType::kCoded;
      digest.Add(name);
      digest.Add(static_cast<uint64_t>(coded ? db::ColType::kStr : column.type));
      digest.Add(static_cast<uint64_t>(column.i64.size()));
      for (const int64_t v : column.i64) digest.Add(static_cast<uint64_t>(v));
      digest.Add(static_cast<uint64_t>(column.f64.size()));
      for (const double v : column.f64) digest.Add(v);
      if (coded) {
        digest.Add(static_cast<uint64_t>(column.coded.codes.size()));
        for (size_t row = 0; row < column.coded.codes.size(); ++row) {
          digest.Add(column.coded.at(row));
        }
      } else {
        digest.Add(static_cast<uint64_t>(column.str.size()));
        for (size_t row = 0; row < column.str.size(); ++row) {
          digest.Add(column.str[row]);
        }
      }
    }
  }
  return digest.value();
}

/// Pins every generated byte at SF 0.01 for two seeds, including the
/// columns no query reads (r_comment, n_comment, c_comment, p_comment,
/// ps_comment, o_clerk, l_comment, l_linenumber), so the 22 query goldens
/// are not the only guard. The second seed also plants a "Customer ...
/// Complaints" supplier comment, which the default seed does not at this
/// scale. Recorded with the generator that looked each column up per value
/// and grew its strings word by word; a change to a distribution, a pool or
/// the order of the RNG draws moves it.
TEST(DbgenTest, ContentDigest) {
  const uint64_t default_seed = ContentDigest(Db());
  EXPECT_EQ(default_seed, 0x9F7E32503B8AF841ULL) << std::hex << default_seed;
  DbgenOptions options;
  options.scale_factor = 0.01;
  options.seed = 20240917;
  const uint64_t other_seed = ContentDigest(Generate(options));
  EXPECT_EQ(other_seed, 0x691DDCE2C8D8A84EULL) << std::hex << other_seed;
}

/// Every coded column holds codes into its dictionary, whose entries are
/// distinct and as many as the column's TPC-H domain, and at SF 0.01 every
/// domain value occurs. No other column is coded.
TEST(DbgenTest, CodedColumnsSpanTheirDomains) {
  struct Domain {
    const char* table;
    const char* column;
    size_t size;
  };
  const std::vector<Domain> domains = {
      {"lineitem", "l_returnflag", 3}, {"lineitem", "l_linestatus", 2},
      {"lineitem", "l_shipinstruct", 4}, {"lineitem", "l_shipmode", 7},
      {"orders", "o_orderstatus", 3},  {"orders", "o_orderpriority", 5},
      {"customer", "c_mktsegment", 5}, {"part", "p_mfgr", 5},
      {"part", "p_brand", 25},         {"part", "p_type", 150},
      {"part", "p_container", 40}};
  const Database& db = Db();
  size_t coded_columns = 0;
  for (const db::Table* table : db.AllTables()) {
    for (const auto& [name, column] : table->columns) {
      if (column.type == db::ColType::kCoded) coded_columns++;
    }
  }
  EXPECT_EQ(coded_columns, domains.size());
  for (const Domain& domain : domains) {
    SCOPED_TRACE(domain.column);
    const db::Table& table = db.table(domain.table);
    const db::CodedStrings& column = table.coded(domain.column);
    EXPECT_EQ(column.dict.size(), domain.size);
    EXPECT_EQ(
        std::set<std::string>(column.dict.begin(), column.dict.end()).size(),
        column.dict.size());
    ASSERT_EQ(static_cast<int64_t>(column.codes.size()), table.num_rows());
    const std::set<uint8_t> seen(column.codes.begin(), column.codes.end());
    EXPECT_LT(*seen.rbegin(), column.dict.size());
    EXPECT_EQ(seen.size(), domain.size);
  }
}

TEST(DbgenDeathTest, StrOfCodedColumnAborts) {
  EXPECT_DEATH(Db().lineitem.str("l_shipmode"), "column is not str");
}

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
  EXPECT_EQ(a.orders.str("o_comment").bytes(),
            b.orders.str("o_comment").bytes());
  EXPECT_EQ(a.orders.str("o_comment").offsets(),
            b.orders.str("o_comment").offsets());
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
  const db::StringHeap& names = db.part.str("p_name");
  for (size_t row = 0; row < names.size(); ++row) {
    if (db::LikeContainsSeq(names[row], {"green"})) green++;
    if (db::LikeStartsWith(names[row], "forest")) forest++;
  }
  EXPECT_GT(green, 0);
  EXPECT_GT(forest, 0);
  // Q13 needs some orders with special requests.
  int special = 0;
  const db::StringHeap& comments = db.orders.str("o_comment");
  for (size_t row = 0; row < comments.size(); ++row) {
    if (db::LikeContainsSeq(comments[row], {"special", "requests"})) special++;
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
    const int code = std::stoi(std::string(phone[k].substr(0, 2)));
    ASSERT_EQ(code, 10 + nation[k]);
  }
}

TEST(DbgenTest, OrderStatusConsistentWithLinestatus) {
  const Database& db = Db();
  const auto& okey = db.lineitem.i64("l_orderkey");
  const auto& lstat = db.lineitem.coded("l_linestatus");
  const auto& ostat = db.orders.coded("o_orderstatus");
  std::vector<int> f_count(static_cast<size_t>(db.orders.num_rows()) + 1, 0);
  std::vector<int> o_count(static_cast<size_t>(db.orders.num_rows()) + 1, 0);
  for (int64_t i = 0; i < db.lineitem.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    if (lstat.at(k) == "F") f_count[static_cast<size_t>(okey[k])]++;
    else o_count[static_cast<size_t>(okey[k])]++;
  }
  for (int64_t o = 1; o <= db.orders.num_rows(); o += 11) {
    const std::string& status = ostat.at(static_cast<size_t>(o - 1));
    if (o_count[static_cast<size_t>(o)] == 0) ASSERT_EQ(status, "F");
    else if (f_count[static_cast<size_t>(o)] == 0) ASSERT_EQ(status, "O");
    else ASSERT_EQ(status, "P");
  }
}

}  // namespace
}  // namespace elastic::tpch
