// TPC-H Q16..Q19.

#include <set>
#include <unordered_map>

#include "db/queries/common.h"

namespace elastic::db::queries_internal {

// Q16: parts/supplier relationship — distinct supplier counts.
QueryOutput Q16(const Database& db) {
  PlanRecorder rec("Q16", 15);
  const Table& P = db.part;
  const Table& PS = db.partsupp;
  const Table& S = db.supplier;

  static const std::set<int64_t> kSizes = {49, 14, 23, 45, 19, 3, 36, 9};
  const CodedStrings& brand = P.coded("p_brand");
  const CodedStrings& type = P.coded("p_type");
  const auto& size = P.i64("p_size");
  const CodeSet other_brand =
      brand.Match([](const std::string& b) { return b != "Brand#45"; });
  const CodeSet other_type = type.Match([](const std::string& t) {
    return !LikeStartsWith(t, "MEDIUM POLISHED");
  });
  SelVec p_sel = kernels::SelectWhereIdx(P.num_rows(), [&](int64_t i) {
    const size_t k = static_cast<size_t>(i);
    return other_brand[brand.codes[k]] && other_type[type.codes[k]] &&
           kSizes.find(size[k]) != kSizes.end();
  });
  const int st_part = RecordSelect(&rec, "part.p_type", P.num_rows(),
                                   static_cast<int64_t>(p_sel.size()));

  // Suppliers with complaints ('%Customer%Complaints%') are excluded.
  const std::initializer_list<std::string_view> complaints = {"Customer",
                                                               "Complaints"};
  std::vector<bool> bad_supplier(static_cast<size_t>(S.num_rows()) + 1, false);
  const auto& s_comment = S.str("s_comment");
  const auto& s_suppkey = S.i64("s_suppkey");
  for (int64_t i = 0; i < S.num_rows(); ++i) {
    if (LikeContainsSeq(s_comment[static_cast<size_t>(i)], complaints)) {
      bad_supplier[static_cast<size_t>(s_suppkey[static_cast<size_t>(i)])] = true;
    }
  }
  RecordSelect(&rec, "supplier.s_comment", S.num_rows(), S.num_rows());

  HashJoin ps_by_part;
  ps_by_part.Build(PS.i64("ps_partkey"), nullptr);
  RecordJoinBuild(&rec, {PlanRecorder::Base("partsupp.ps_partkey", PS.num_rows())},
                  PS.num_rows());

  // Each (part, good supplier) pair keyed by the part's brand code, type
  // code and size; supplier_cnt counts a group's distinct suppliers.
  const auto& ps_supp = PS.i64("ps_suppkey");
  const auto& p_partkey = P.i64("p_partkey");
  std::vector<int64_t> brand_key;
  std::vector<int64_t> type_key;
  std::vector<int64_t> size_key;
  std::vector<int64_t> supp_key;
  int64_t pairs = 0;
  for (int64_t prow : p_sel) {
    const size_t k = static_cast<size_t>(prow);
    for (int64_t ps_row : ps_by_part.RowsOf(p_partkey[k])) {
      pairs++;
      const int64_t suppkey = ps_supp[static_cast<size_t>(ps_row)];
      if (bad_supplier[static_cast<size_t>(suppkey)]) continue;
      brand_key.push_back(brand.codes[k]);
      type_key.push_back(type.codes[k]);
      size_key.push_back(size[k]);
      supp_key.push_back(suppkey);
    }
  }
  Grouper groups;
  groups.AddI64Key(std::move(brand_key));
  groups.AddI64Key(std::move(type_key));
  groups.AddI64Key(std::move(size_key));
  groups.Finish();
  Grouper group_suppliers;  // one group per distinct (group, supplier)
  group_suppliers.AddI64Key(groups.group_of());
  group_suppliers.AddI64Key(std::move(supp_key));
  group_suppliers.Finish();
  std::vector<int64_t> supplier_cnt(static_cast<size_t>(groups.num_groups()), 0);
  for (int64_t row : group_suppliers.representative_rows()) {
    const int64_t g = groups.group_of()[static_cast<size_t>(row)];
    supplier_cnt[static_cast<size_t>(g)]++;
  }
  RecordJoinProbe(&rec,
                  {PlanRecorder::Inter(st_part, static_cast<int64_t>(p_sel.size())),
                   PlanRecorder::Base("partsupp.ps_suppkey", pairs, 8, false)},
                  pairs);
  RecordGroup(&rec, {PlanRecorder::Inter(3, pairs)}, pairs, groups.num_groups());

  QueryResult result;
  result.query = "Q16";
  result.column_names = {"p_brand", "p_type", "p_size", "supplier_cnt"};
  for (int64_t g = 0; g < groups.num_groups(); ++g) {
    const size_t brand_code = static_cast<size_t>(groups.I64KeyOfGroup(0, g));
    const size_t type_code = static_cast<size_t>(groups.I64KeyOfGroup(1, g));
    result.rows.push_back({Value::Str(brand.dict[brand_code]),
                           Value::Str(type.dict[type_code]),
                           Value::I64(groups.I64KeyOfGroup(2, g)),
                           Value::I64(supplier_cnt[static_cast<size_t>(g)])});
  }
  result.Sort({{3, false}, {0, true}, {1, true}, {2, true}});
  return QueryOutput{std::move(result), rec.Take()};
}

// Q17: small-quantity-order revenue (Brand#23, MED BOX).
QueryOutput Q17(const Database& db) {
  PlanRecorder rec("Q17", 16);
  const Table& P = db.part;
  const Table& L = db.lineitem;

  const CodedStrings& brand = P.coded("p_brand");
  const CodedStrings& container = P.coded("p_container");
  const CodeSet brand23 =
      brand.Match([](const std::string& b) { return b == "Brand#23"; });
  const CodeSet med_box =
      container.Match([](const std::string& c) { return c == "MED BOX"; });
  SelVec p_sel = kernels::SelectWhereIdx(P.num_rows(), [&](int64_t i) {
    const size_t k = static_cast<size_t>(i);
    return brand23[brand.codes[k]] && med_box[container.codes[k]];
  });
  const int st_part = RecordSelect(&rec, "part.p_brand", P.num_rows(),
                                   static_cast<int64_t>(p_sel.size()));
  HashJoin parts;
  parts.Build(P.i64("p_partkey"), &p_sel);
  RecordJoinBuild(&rec, {PlanRecorder::Inter(st_part, static_cast<int64_t>(p_sel.size()))},
                  static_cast<int64_t>(p_sel.size()));

  const auto& l_part = L.i64("l_partkey");
  HashJoin::Pairs pairs = parts.Probe(l_part, nullptr);
  RecordJoinProbe(&rec, {PlanRecorder::Base("lineitem.l_partkey", L.num_rows())},
                  static_cast<int64_t>(pairs.size()));

  // avg(l_quantity) per part over the matched lineitems.
  const auto& qty = L.f64("l_quantity");
  const auto& ext = L.f64("l_extendedprice");
  std::unordered_map<int64_t, std::pair<double, int64_t>> qty_stats;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const int64_t partkey = l_part[static_cast<size_t>(pairs.probe_rows[i])];
    auto& entry = qty_stats[partkey];
    entry.first += qty[static_cast<size_t>(pairs.probe_rows[i])];
    entry.second++;
  }
  double total = 0.0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const size_t lrow = static_cast<size_t>(pairs.probe_rows[i]);
    const int64_t partkey = l_part[lrow];
    const auto& entry = qty_stats[partkey];
    const double avg = entry.first / static_cast<double>(entry.second);
    if (qty[lrow] < 0.2 * avg) total += ext[lrow];
  }
  RecordGroup(&rec,
              {PlanRecorder::Base("lineitem.l_quantity",
                                  static_cast<int64_t>(pairs.size()), 8, false)},
              static_cast<int64_t>(pairs.size()),
              static_cast<int64_t>(qty_stats.size()));

  QueryResult result;
  result.query = "Q17";
  result.column_names = {"avg_yearly"};
  result.rows.push_back({Value::F64(total / 7.0)});
  return QueryOutput{std::move(result), rec.Take()};
}

// Q18: large-volume customers (orders with > 300 total quantity).
QueryOutput Q18(const Database& db) {
  PlanRecorder rec("Q18", 17);
  const Table& L = db.lineitem;
  const Table& O = db.orders;
  const Table& C = db.customer;

  // sum(l_quantity) per order.
  const auto& l_order = L.i64("l_orderkey");
  const auto& qty = L.f64("l_quantity");
  std::vector<double> qty_per_order(static_cast<size_t>(O.num_rows()) + 1, 0.0);
  for (int64_t i = 0; i < L.num_rows(); ++i) {
    const size_t k = static_cast<size_t>(i);
    qty_per_order[static_cast<size_t>(l_order[k])] += qty[k];
  }
  RecordGroup(&rec, {PlanRecorder::Base("lineitem.l_orderkey", L.num_rows()),
                     PlanRecorder::Base("lineitem.l_quantity", L.num_rows())},
              L.num_rows(), O.num_rows());

  const auto& o_custkey = O.i64("o_custkey");
  const auto& o_orderdate = O.i64("o_orderdate");
  const auto& o_totalprice = O.f64("o_totalprice");
  const auto& c_name = C.str("c_name");
  QueryResult result;
  result.query = "Q18";
  result.column_names = {"c_name", "c_custkey", "o_orderkey", "o_orderdate",
                         "o_totalprice", "sum_qty"};
  int64_t matches = 0;
  for (int64_t okey = 1; okey <= O.num_rows(); ++okey) {
    const double total_qty = qty_per_order[static_cast<size_t>(okey)];
    if (total_qty <= 300.0) continue;
    matches++;
    const size_t orow = static_cast<size_t>(okey - 1);
    const int64_t custkey = o_custkey[orow];
    const size_t crow = static_cast<size_t>(custkey - 1);
    result.rows.push_back(
        {Value::Str(c_name[crow]), Value::I64(custkey),
         Value::I64(okey), Value::Str(DateToString(o_orderdate[orow])),
         Value::F64(o_totalprice[orow]), Value::F64(total_qty)});
  }
  RecordJoinProbe(&rec,
                  {PlanRecorder::Base("orders.o_totalprice", O.num_rows()),
                   PlanRecorder::Inter(0, O.num_rows())},
                  matches);
  result.Sort({{4, false}, {3, true}});
  result.Limit(100);
  return QueryOutput{std::move(result), rec.Take()};
}

// Q19: discounted revenue, three disjunctive branches.
QueryOutput Q19(const Database& db) {
  PlanRecorder rec("Q19", 18);
  const Table& L = db.lineitem;
  const Table& P = db.part;

  const auto& l_part = L.i64("l_partkey");
  const auto& qty = L.f64("l_quantity");
  const CodedStrings& mode = L.coded("l_shipmode");
  const CodedStrings& instruct = L.coded("l_shipinstruct");
  const auto& ext = L.f64("l_extendedprice");
  const auto& disc = L.f64("l_discount");
  const CodedStrings& brand = P.coded("p_brand");
  const CodedStrings& container = P.coded("p_container");
  const auto& size = P.i64("p_size");

  auto container_in = [](const std::string& c,
                         std::initializer_list<const char*> set) {
    for (const char* s : set) {
      if (c == s) return true;
    }
    return false;
  };

  // Every string predicate, once per dictionary entry.
  const CodeSet air = mode.Match(
      [](const std::string& m) { return m == "AIR" || m == "REG AIR"; });
  const CodeSet in_person = instruct.Match(
      [](const std::string& i) { return i == "DELIVER IN PERSON"; });
  const CodeSet brand12 =
      brand.Match([](const std::string& b) { return b == "Brand#12"; });
  const CodeSet brand23 =
      brand.Match([](const std::string& b) { return b == "Brand#23"; });
  const CodeSet brand34 =
      brand.Match([](const std::string& b) { return b == "Brand#34"; });
  const CodeSet small = container.Match([&](const std::string& c) {
    return container_in(c, {"SM CASE", "SM BOX", "SM PACK", "SM PKG"});
  });
  const CodeSet medium = container.Match([&](const std::string& c) {
    return container_in(c, {"MED BAG", "MED BOX", "MED PKG", "MED PACK"});
  });
  const CodeSet large = container.Match([&](const std::string& c) {
    return container_in(c, {"LG CASE", "LG BOX", "LG PACK", "LG PKG"});
  });

  // Pre-filter on shipmode/instruct, then evaluate the OR branches against
  // the joined part row.
  SelVec l_sel = kernels::SelectWhereIdx(L.num_rows(), [&](int64_t i) {
    const size_t k = static_cast<size_t>(i);
    return in_person[instruct.codes[k]] && air[mode.codes[k]];
  });
  const int st_line = RecordSelect(&rec, "lineitem.l_shipmode", L.num_rows(),
                                   static_cast<int64_t>(l_sel.size()));

  double revenue = 0.0;
  int64_t matches = 0;
  for (int64_t row : l_sel) {
    const size_t k = static_cast<size_t>(row);
    const size_t prow = static_cast<size_t>(l_part[k] - 1);
    const double q = qty[k];
    const int64_t sz = size[prow];
    const uint8_t b = brand.codes[prow];
    const uint8_t c = container.codes[prow];
    const bool branch1 = brand12[b] && small[c] && q >= 1 && q <= 11 &&
                         sz >= 1 && sz <= 5;
    const bool branch2 = brand23[b] && medium[c] && q >= 10 && q <= 20 &&
                         sz >= 1 && sz <= 10;
    const bool branch3 = brand34[b] && large[c] && q >= 20 && q <= 30 &&
                         sz >= 1 && sz <= 15;
    if (branch1 || branch2 || branch3) {
      revenue += ext[k] * (1.0 - disc[k]);
      matches++;
    }
  }
  RecordJoinProbe(&rec,
                  {PlanRecorder::Base("part.p_brand",
                                      static_cast<int64_t>(l_sel.size()), 8, false),
                   PlanRecorder::Inter(st_line, static_cast<int64_t>(l_sel.size()))},
                  matches);

  QueryResult result;
  result.query = "Q19";
  result.column_names = {"revenue"};
  result.rows.push_back({Value::F64(revenue)});
  return QueryOutput{std::move(result), rec.Take()};
}

}  // namespace elastic::db::queries_internal
