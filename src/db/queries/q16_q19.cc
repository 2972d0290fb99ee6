// TPC-H Q16..Q19.

#include <set>
#include <unordered_map>
#include <unordered_set>

#include "db/queries/common.h"

namespace elastic::db::queries_internal {

// Q16: parts/supplier relationship — distinct supplier counts.
QueryOutput Q16(const Database& db) {
  PlanRecorder rec("Q16", 15);
  const Table& P = db.part;
  const Table& PS = db.partsupp;
  const Table& S = db.supplier;

  static const std::set<int64_t> kSizes = {49, 14, 23, 45, 19, 3, 36, 9};
  const auto& brand = P.str("p_brand");
  const auto& type = P.str("p_type");
  const auto& size = P.i64("p_size");
  SelVec p_sel = kernels::SelectWhereIdx(P.num_rows(), [&](int64_t i) {
    const size_t k = static_cast<size_t>(i);
    return brand[k] != "Brand#45" &&
           !LikeStartsWith(type[k], "MEDIUM POLISHED") &&
           kSizes.find(size[k]) != kSizes.end();
  });
  const int st_part = RecordSelect(&rec, "part.p_type", P.num_rows(),
                                   static_cast<int64_t>(p_sel.size()));

  // Suppliers with complaints are excluded.
  std::vector<bool> bad_supplier(static_cast<size_t>(S.num_rows()) + 1, false);
  const auto& s_comment = S.str("s_comment");
  const auto& s_suppkey = S.i64("s_suppkey");
  for (int64_t i = 0; i < S.num_rows(); ++i) {
    if (LikeContainsSeq(s_comment[static_cast<size_t>(i)],
                        {"Customer", "Complaints"})) {
      bad_supplier[static_cast<size_t>(s_suppkey[static_cast<size_t>(i)])] = true;
    }
  }
  RecordSelect(&rec, "supplier.s_comment", S.num_rows(), S.num_rows());

  HashJoin ps_by_part;
  ps_by_part.Build(PS.i64("ps_partkey"), nullptr);
  RecordJoinBuild(&rec, {PlanRecorder::Base("partsupp.ps_partkey", PS.num_rows())},
                  PS.num_rows());

  const auto& ps_supp = PS.i64("ps_suppkey");
  const auto& p_partkey = P.i64("p_partkey");
  struct GroupData {
    std::unordered_set<int64_t> suppliers;
  };
  std::unordered_map<std::string, GroupData> groups;
  int64_t pairs = 0;
  for (int64_t prow : p_sel) {
    const size_t k = static_cast<size_t>(prow);
    const int64_t partkey = p_partkey[k];
    std::string key = brand[k] + '\x01' + type[k] + '\x01' +
                      std::to_string(size[k]);
    for (int64_t ps_row : ps_by_part.RowsOf(partkey)) {
      pairs++;
      const int64_t suppkey = ps_supp[static_cast<size_t>(ps_row)];
      if (bad_supplier[static_cast<size_t>(suppkey)]) continue;
      groups[key].suppliers.insert(suppkey);
    }
  }
  RecordJoinProbe(&rec,
                  {PlanRecorder::Inter(st_part, static_cast<int64_t>(p_sel.size())),
                   PlanRecorder::Base("partsupp.ps_suppkey", pairs, 8, false)},
                  pairs);
  RecordGroup(&rec, {PlanRecorder::Inter(3, pairs)}, pairs,
              static_cast<int64_t>(groups.size()));

  QueryResult result;
  result.query = "Q16";
  result.column_names = {"p_brand", "p_type", "p_size", "supplier_cnt"};
  for (const auto& [key, data] : groups) {
    const size_t b1 = key.find('\x01');
    const size_t b2 = key.find('\x01', b1 + 1);
    result.rows.push_back(
        {Value::Str(key.substr(0, b1)), Value::Str(key.substr(b1 + 1, b2 - b1 - 1)),
         Value::I64(std::stoll(key.substr(b2 + 1))),
         Value::I64(static_cast<int64_t>(data.suppliers.size()))});
  }
  result.Sort({{3, false}, {0, true}, {1, true}, {2, true}});
  return QueryOutput{std::move(result), rec.Take()};
}

// Q17: small-quantity-order revenue (Brand#23, MED BOX).
QueryOutput Q17(const Database& db) {
  PlanRecorder rec("Q17", 16);
  const Table& P = db.part;
  const Table& L = db.lineitem;

  const auto& brand = P.str("p_brand");
  const auto& container = P.str("p_container");
  SelVec p_sel = kernels::SelectWhereIdx(P.num_rows(), [&](int64_t i) {
    const size_t k = static_cast<size_t>(i);
    return brand[k] == "Brand#23" && container[k] == "MED BOX";
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
  const auto& mode = L.str("l_shipmode");
  const auto& instruct = L.str("l_shipinstruct");
  const auto& ext = L.f64("l_extendedprice");
  const auto& disc = L.f64("l_discount");
  const auto& brand = P.str("p_brand");
  const auto& container = P.str("p_container");
  const auto& size = P.i64("p_size");

  auto container_in = [](const std::string& c,
                         std::initializer_list<const char*> set) {
    for (const char* s : set) {
      if (c == s) return true;
    }
    return false;
  };

  // Pre-filter on shipmode/instruct, then evaluate the OR branches against
  // the joined part row.
  SelVec l_sel = kernels::SelectWhereIdx(L.num_rows(), [&](int64_t i) {
    const size_t k = static_cast<size_t>(i);
    return instruct[k] == "DELIVER IN PERSON" &&
           (mode[k] == "AIR" || mode[k] == "REG AIR");
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
    const bool branch1 = brand[prow] == "Brand#12" &&
                         container_in(container[prow],
                                      {"SM CASE", "SM BOX", "SM PACK", "SM PKG"}) &&
                         q >= 1 && q <= 11 && sz >= 1 && sz <= 5;
    const bool branch2 = brand[prow] == "Brand#23" &&
                         container_in(container[prow],
                                      {"MED BAG", "MED BOX", "MED PKG", "MED PACK"}) &&
                         q >= 10 && q <= 20 && sz >= 1 && sz <= 10;
    const bool branch3 = brand[prow] == "Brand#34" &&
                         container_in(container[prow],
                                      {"LG CASE", "LG BOX", "LG PACK", "LG PKG"}) &&
                         q >= 20 && q <= 30 && sz >= 1 && sz <= 15;
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
