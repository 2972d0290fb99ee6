#include "tpch/dbgen.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "db/date.h"
#include "simcore/check.h"
#include "tpch/text.h"

namespace elastic::tpch {

namespace {

using db::ColType;
using db::Column;
using db::Database;
using db::Date;
using db::Table;

/// Adds column `name` of `type` to `t` and returns it. std::map never moves
/// its nodes, so the reference stays valid while later columns are added.
Column& AddColumn(Table* t, const char* name, ColType type) {
  Column& column = t->columns[name];
  column.type = type;
  return column;
}

/// The value vector of a new column, reserved for `rows` values: each
/// column is bound once, and filling it never regrows it.
std::vector<int64_t>& I64Col(Table* t, const char* name, int64_t rows) {
  std::vector<int64_t>& values = AddColumn(t, name, ColType::kI64).i64;
  values.reserve(static_cast<size_t>(rows));
  return values;
}
std::vector<double>& F64Col(Table* t, const char* name, int64_t rows) {
  std::vector<double>& values = AddColumn(t, name, ColType::kF64).f64;
  values.reserve(static_cast<size_t>(rows));
  return values;
}
/// The string heap of a new free-text column, reserved for `rows` values of
/// at most `max_bytes` bytes each: filling it never copies the heap.
db::StringHeap& StrCol(Table* t, const char* name, int64_t rows,
                       size_t max_bytes) {
  db::StringHeap& values = AddColumn(t, name, ColType::kStr).str;
  values.Reserve(static_cast<size_t>(rows),
                 static_cast<size_t>(rows) * max_bytes);
  return values;
}

/// The codes of a new fixed-domain column over `dict`, reserved for `rows`
/// codes: code c stands for dict[c].
std::vector<uint8_t>& CodedCol(Table* t, const char* name,
                               std::vector<std::string> dict, int64_t rows) {
  ELASTIC_CHECK(dict.size() <= 256, "a coded column holds one-byte codes");
  db::CodedStrings& coded = AddColumn(t, name, ColType::kCoded).coded;
  coded.dict = std::move(dict);
  coded.codes.reserve(static_cast<size_t>(rows));
  return coded.codes;
}

/// Dictionary index `index` as a code.
uint8_t Code(uint64_t index) { return static_cast<uint8_t>(index); }

/// Every "<a> <b>" with a from `first` and b from `second`, a-major: the
/// entry of (first[i], second[j]) is at i * second.size() + j.
std::vector<std::string> Combinations(const std::vector<std::string>& first,
                                      const std::vector<std::string>& second) {
  std::vector<std::string> out;
  out.reserve(first.size() * second.size());
  for (const std::string& a : first) {
    for (const std::string& b : second) out.push_back(a + " " + b);
  }
  return out;
}

std::string Format(const char* fmt, int64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), fmt, static_cast<long long>(value));
  return buffer;
}

/// The formats of the generated key names.
constexpr const char* kSupplierName = "Supplier#%09lld";
constexpr const char* kCustomerName = "Customer#%09lld";
constexpr const char* kClerkName = "Clerk#%09lld";

/// Longest key name `fmt` gives a key in [1, max_key]: the largest key has
/// the most digits.
size_t KeyNameBytes(const char* fmt, int64_t max_key) {
  return Format(fmt, max_key).size();
}

/// Longest comment of `words` words.
size_t CommentBytes(int words) {
  return MaxWordsBytes(TextPools::CommentWords(), words);
}

/// Money values are generated in cents and stored as doubles with two
/// decimals, matching dbgen's fixed-point semantics.
double Cents(int64_t cents) { return static_cast<double>(cents) / 100.0; }

void GenRegion(Database* db, simcore::Rng* rng) {
  Table& t = db->region;
  t.name = "region";
  const auto& regions = TextPools::Regions();
  const int64_t rows = static_cast<int64_t>(regions.size());
  auto& r_regionkey = I64Col(&t, "r_regionkey", rows);
  auto& r_name = StrCol(&t, "r_name", rows, MaxWordsBytes(regions, 1));
  auto& r_comment = StrCol(&t, "r_comment", rows, CommentBytes(8));
  for (size_t i = 0; i < regions.size(); ++i) {
    r_regionkey.push_back(static_cast<int64_t>(i));
    r_name.Append(regions[i]);
    r_comment.Append(RandomComment(rng, 8));
  }
}

void GenNation(Database* db, simcore::Rng* rng) {
  Table& t = db->nation;
  t.name = "nation";
  const auto& nations = TextPools::Nations();
  const int64_t rows = static_cast<int64_t>(nations.size());
  auto& n_nationkey = I64Col(&t, "n_nationkey", rows);
  size_t longest_name = 0;
  for (const TextPools::NationSpec& nation : nations) {
    longest_name = std::max(longest_name, std::strlen(nation.name));
  }
  auto& n_name = StrCol(&t, "n_name", rows, longest_name);
  auto& n_regionkey = I64Col(&t, "n_regionkey", rows);
  auto& n_comment = StrCol(&t, "n_comment", rows, CommentBytes(8));
  for (size_t i = 0; i < nations.size(); ++i) {
    n_nationkey.push_back(static_cast<int64_t>(i));
    n_name.Append(nations[i].name);
    n_regionkey.push_back(nations[i].region);
    n_comment.Append(RandomComment(rng, 8));
  }
}

void GenSupplier(Database* db, simcore::Rng* rng, int64_t count) {
  Table& t = db->supplier;
  t.name = "supplier";
  auto& s_suppkey = I64Col(&t, "s_suppkey", count);
  auto& s_name =
      StrCol(&t, "s_name", count, KeyNameBytes(kSupplierName, count));
  auto& s_address = StrCol(&t, "s_address", count, kMaxAddressBytes);
  auto& s_nationkey = I64Col(&t, "s_nationkey", count);
  auto& s_phone = StrCol(&t, "s_phone", count, kPhoneBytes);
  auto& s_acctbal = F64Col(&t, "s_acctbal", count);
  auto& s_comment = StrCol(&t, "s_comment", count, CommentBytes(6));
  for (int64_t k = 1; k <= count; ++k) {
    const int nation = static_cast<int>(rng->NextBounded(25));
    s_suppkey.push_back(k);
    s_name.Append(Format(kSupplierName, k));
    s_address.Append(Address(rng));
    s_nationkey.push_back(nation);
    s_phone.Append(Phone(rng, nation));
    s_acctbal.push_back(Cents(rng->NextInRange(-99999, 999999)));
    // The spec plants 5 "Customer Complaints" suppliers per 10000.
    s_comment.Append(SupplierComment(rng, 0.0005 * 10));
  }
}

void GenCustomer(Database* db, simcore::Rng* rng, int64_t count) {
  Table& t = db->customer;
  t.name = "customer";
  auto& c_custkey = I64Col(&t, "c_custkey", count);
  auto& c_name =
      StrCol(&t, "c_name", count, KeyNameBytes(kCustomerName, count));
  auto& c_address = StrCol(&t, "c_address", count, kMaxAddressBytes);
  auto& c_nationkey = I64Col(&t, "c_nationkey", count);
  auto& c_phone = StrCol(&t, "c_phone", count, kPhoneBytes);
  auto& c_acctbal = F64Col(&t, "c_acctbal", count);
  const auto& segments = TextPools::Segments();
  auto& c_mktsegment = CodedCol(&t, "c_mktsegment", segments, count);
  auto& c_comment = StrCol(&t, "c_comment", count, CommentBytes(8));
  for (int64_t k = 1; k <= count; ++k) {
    const int nation = static_cast<int>(rng->NextBounded(25));
    c_custkey.push_back(k);
    c_name.Append(Format(kCustomerName, k));
    c_address.Append(Address(rng));
    c_nationkey.push_back(nation);
    c_phone.Append(Phone(rng, nation));
    c_acctbal.push_back(Cents(rng->NextInRange(-99999, 999999)));
    c_mktsegment.push_back(Code(rng->NextBounded(segments.size())));
    c_comment.Append(RandomComment(rng, 8));
  }
}

void GenPart(Database* db, simcore::Rng* rng, int64_t count) {
  Table& t = db->part;
  t.name = "part";
  auto& p_partkey = I64Col(&t, "p_partkey", count);
  auto& p_name =
      StrCol(&t, "p_name", count, MaxWordsBytes(TextPools::NameWords(), 5));
  const auto& s1 = TextPools::TypeS1();
  const auto& s2 = TextPools::TypeS2();
  const auto& s3 = TextPools::TypeS3();
  const auto& c1 = TextPools::ContainerS1();
  const auto& c2 = TextPools::ContainerS2();
  // Manufacturer m is code m - 1, and brand m * 10 + b is code
  // (m - 1) * 5 + b - 1.
  std::vector<std::string> mfgrs;
  std::vector<std::string> brands;
  for (int64_t mfgr = 1; mfgr <= 5; ++mfgr) {
    mfgrs.push_back(Format("Manufacturer#%lld", mfgr));
    for (int64_t b = 1; b <= 5; ++b) {
      brands.push_back(Format("Brand#%lld", mfgr * 10 + b));
    }
  }
  auto& p_mfgr = CodedCol(&t, "p_mfgr", std::move(mfgrs), count);
  auto& p_brand = CodedCol(&t, "p_brand", std::move(brands), count);
  auto& p_type =
      CodedCol(&t, "p_type", Combinations(Combinations(s1, s2), s3), count);
  auto& p_size = I64Col(&t, "p_size", count);
  auto& p_container = CodedCol(&t, "p_container", Combinations(c1, c2), count);
  auto& p_retailprice = F64Col(&t, "p_retailprice", count);
  auto& p_comment = StrCol(&t, "p_comment", count, CommentBytes(5));
  for (int64_t k = 1; k <= count; ++k) {
    const int64_t mfgr = rng->NextInRange(1, 5);
    const int64_t brand = rng->NextInRange(1, 5);
    p_partkey.push_back(k);
    p_name.Append(PartName(rng));
    p_mfgr.push_back(Code(mfgr - 1));
    p_brand.push_back(Code((mfgr - 1) * 5 + brand - 1));
    // One draw per statement, last syllable first: the pinned data
    // (DbgenTest.ContentDigest) depends on this order.
    const uint64_t type3 = rng->NextBounded(s3.size());
    const uint64_t type2 = rng->NextBounded(s2.size());
    const uint64_t type1 = rng->NextBounded(s1.size());
    p_type.push_back(Code((type1 * s2.size() + type2) * s3.size() + type3));
    p_size.push_back(rng->NextInRange(1, 50));
    const uint64_t container2 = rng->NextBounded(c2.size());
    const uint64_t container1 = rng->NextBounded(c1.size());
    p_container.push_back(Code(container1 * c2.size() + container2));
    // Spec pricing formula: 90000 + ((k/10) % 20001) + 100*(k % 1000), cents.
    p_retailprice.push_back(Cents(90000 + (k / 10) % 20001 + 100 * (k % 1000)));
    p_comment.Append(RandomComment(rng, 5));
  }
}

void GenPartsupp(Database* db, simcore::Rng* rng, int64_t parts,
                 int64_t suppliers) {
  Table& t = db->partsupp;
  t.name = "partsupp";
  const int64_t rows = parts * 4;
  auto& ps_partkey = I64Col(&t, "ps_partkey", rows);
  auto& ps_suppkey = I64Col(&t, "ps_suppkey", rows);
  auto& ps_availqty = I64Col(&t, "ps_availqty", rows);
  auto& ps_supplycost = F64Col(&t, "ps_supplycost", rows);
  auto& ps_comment = StrCol(&t, "ps_comment", rows, CommentBytes(8));
  for (int64_t p = 1; p <= parts; ++p) {
    for (int64_t i = 0; i < 4; ++i) {
      // Spec association: supplier = (p + i*(S/4 + (p-1)/S)) % S + 1.
      const int64_t s =
          (p + i * (suppliers / 4 + (p - 1) / suppliers)) % suppliers + 1;
      ps_partkey.push_back(p);
      ps_suppkey.push_back(s);
      ps_availqty.push_back(rng->NextInRange(1, 9999));
      ps_supplycost.push_back(Cents(rng->NextInRange(100, 100000)));
      ps_comment.Append(RandomComment(rng, 8));
    }
  }
}

struct OrderDates {
  Date start;
  Date end;
  Date cutoff;  // 1995-06-17, the CURRENTDATE used by returnflag/linestatus
};

/// The spec's bound on lines per order. Lineitem is reserved at it; the tail
/// that no order fills is never written, so it costs address space, not
/// memory.
constexpr int64_t kMaxLinesPerOrder = 7;

void GenOrdersAndLineitem(Database* db, simcore::Rng* rng, int64_t orders,
                          int64_t customers, int64_t parts, int64_t suppliers) {
  Table& o = db->orders;
  o.name = "orders";
  auto& o_orderkey = I64Col(&o, "o_orderkey", orders);
  auto& o_custkey = I64Col(&o, "o_custkey", orders);
  // The one-letter columns list their letters alphabetically: l_linestatus
  // is {F, O} and o_orderstatus {F, O, P}, so kStatusF and kStatusO are
  // codes of both.
  enum : uint8_t { kFlagA, kFlagN, kFlagR };
  enum : uint8_t { kStatusF, kStatusO, kStatusP };
  const auto& priorities = TextPools::Priorities();
  const auto& instructs = TextPools::ShipInstructs();
  const auto& modes = TextPools::ShipModes();
  auto& o_orderstatus = CodedCol(&o, "o_orderstatus", {"F", "O", "P"}, orders);
  auto& o_totalprice = F64Col(&o, "o_totalprice", orders);
  auto& o_orderdate = I64Col(&o, "o_orderdate", orders);
  auto& o_orderpriority = CodedCol(&o, "o_orderpriority", priorities, orders);
  const int64_t clerks = std::max<int64_t>(1, orders / 1000);
  auto& o_clerk =
      StrCol(&o, "o_clerk", orders, KeyNameBytes(kClerkName, clerks));
  auto& o_shippriority = I64Col(&o, "o_shippriority", orders);
  auto& o_comment = StrCol(&o, "o_comment", orders, CommentBytes(7));

  Table& l = db->lineitem;
  l.name = "lineitem";
  const int64_t max_lines = orders * kMaxLinesPerOrder;
  auto& l_orderkey = I64Col(&l, "l_orderkey", max_lines);
  auto& l_partkey = I64Col(&l, "l_partkey", max_lines);
  auto& l_suppkey = I64Col(&l, "l_suppkey", max_lines);
  auto& l_linenumber = I64Col(&l, "l_linenumber", max_lines);
  auto& l_quantity = F64Col(&l, "l_quantity", max_lines);
  auto& l_extendedprice = F64Col(&l, "l_extendedprice", max_lines);
  auto& l_discount = F64Col(&l, "l_discount", max_lines);
  auto& l_tax = F64Col(&l, "l_tax", max_lines);
  auto& l_returnflag = CodedCol(&l, "l_returnflag", {"A", "N", "R"}, max_lines);
  auto& l_linestatus = CodedCol(&l, "l_linestatus", {"F", "O"}, max_lines);
  auto& l_shipdate = I64Col(&l, "l_shipdate", max_lines);
  auto& l_commitdate = I64Col(&l, "l_commitdate", max_lines);
  auto& l_receiptdate = I64Col(&l, "l_receiptdate", max_lines);
  auto& l_shipinstruct = CodedCol(&l, "l_shipinstruct", instructs, max_lines);
  auto& l_shipmode = CodedCol(&l, "l_shipmode", modes, max_lines);
  auto& l_comment = StrCol(&l, "l_comment", max_lines, CommentBytes(4));

  OrderDates dates;
  dates.start = db::MakeDate(1992, 1, 1);
  dates.end = db::AddDays(db::MakeDate(1998, 8, 2), -151);
  dates.cutoff = db::MakeDate(1995, 6, 17);

  const auto& retail = db->part.f64("p_retailprice");

  for (int64_t k = 1; k <= orders; ++k) {
    // One third of customers never place orders (custkey % 3 == 0), which
    // Q13 and Q22 depend on.
    int64_t cust = rng->NextInRange(1, customers);
    while (cust % 3 == 0) cust = rng->NextInRange(1, customers);

    const Date odate = dates.start + rng->NextInRange(0, dates.end - dates.start);
    const int lines = static_cast<int>(rng->NextInRange(1, kMaxLinesPerOrder));
    double total = 0.0;
    int f_count = 0;
    int o_count = 0;
    for (int line = 1; line <= lines; ++line) {
      const int64_t partkey = rng->NextInRange(1, parts);
      const int64_t supp_i = rng->NextInRange(0, 3);
      const int64_t suppkey =
          (partkey + supp_i * (suppliers / 4 + (partkey - 1) / suppliers)) %
              suppliers + 1;
      const double quantity = static_cast<double>(rng->NextInRange(1, 50));
      const double price = quantity * retail[static_cast<size_t>(partkey - 1)];
      const double discount = static_cast<double>(rng->NextInRange(0, 10)) / 100.0;
      const double tax = static_cast<double>(rng->NextInRange(0, 8)) / 100.0;
      const Date ship = db::AddDays(odate, rng->NextInRange(1, 121));
      const Date commit = db::AddDays(odate, rng->NextInRange(30, 90));
      const Date receipt = db::AddDays(ship, rng->NextInRange(1, 30));
      const bool shipped = receipt <= dates.cutoff;
      const uint8_t returnflag =
          shipped ? (rng->NextBernoulli(0.5) ? kFlagR : kFlagA) : kFlagN;
      const uint8_t linestatus = ship > dates.cutoff ? kStatusO : kStatusF;
      if (linestatus == kStatusF) f_count++; else o_count++;

      l_orderkey.push_back(k);
      l_partkey.push_back(partkey);
      l_suppkey.push_back(suppkey);
      l_linenumber.push_back(line);
      l_quantity.push_back(quantity);
      l_extendedprice.push_back(price);
      l_discount.push_back(discount);
      l_tax.push_back(tax);
      l_returnflag.push_back(returnflag);
      l_linestatus.push_back(linestatus);
      l_shipdate.push_back(ship);
      l_commitdate.push_back(commit);
      l_receiptdate.push_back(receipt);
      l_shipinstruct.push_back(Code(rng->NextBounded(instructs.size())));
      l_shipmode.push_back(Code(rng->NextBounded(modes.size())));
      l_comment.Append(RandomComment(rng, 4));
      total += price * (1.0 + tax) * (1.0 - discount);
    }

    const uint8_t status =
        (o_count == 0) ? kStatusF : (f_count == 0 ? kStatusO : kStatusP);
    o_orderkey.push_back(k);
    o_custkey.push_back(cust);
    o_orderstatus.push_back(status);
    o_totalprice.push_back(total);
    o_orderdate.push_back(odate);
    o_orderpriority.push_back(Code(rng->NextBounded(priorities.size())));
    o_clerk.Append(Format(kClerkName, rng->NextInRange(1, clerks)));
    o_shippriority.push_back(0);
    o_comment.Append(OrderComment(rng, 0.05));
  }
}

}  // namespace

RowCounts CountsFor(double scale_factor) {
  ELASTIC_CHECK(scale_factor > 0.0, "scale factor must be positive");
  RowCounts counts;
  counts.supplier = std::max<int64_t>(40, static_cast<int64_t>(10000 * scale_factor));
  counts.part = std::max<int64_t>(200, static_cast<int64_t>(200000 * scale_factor));
  counts.customer = std::max<int64_t>(150, static_cast<int64_t>(150000 * scale_factor));
  counts.orders = std::max<int64_t>(300, static_cast<int64_t>(1500000 * scale_factor));
  counts.partsupp = counts.part * 4;
  return counts;
}

db::Database Generate(const DbgenOptions& options) {
  simcore::Rng rng(options.seed);
  const RowCounts counts = CountsFor(options.scale_factor);

  db::Database database;
  database.scale_factor = options.scale_factor;
  GenRegion(&database, &rng);
  GenNation(&database, &rng);
  GenSupplier(&database, &rng, counts.supplier);
  GenCustomer(&database, &rng, counts.customer);
  GenPart(&database, &rng, counts.part);
  GenPartsupp(&database, &rng, counts.part, counts.supplier);
  GenOrdersAndLineitem(&database, &rng, counts.orders, counts.customer,
                       counts.part, counts.supplier);
  return database;
}

}  // namespace elastic::tpch
